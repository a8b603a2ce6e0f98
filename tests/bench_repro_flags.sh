#!/usr/bin/env bash
# bench_repro's spec flags fail fast: a --set value the spec parser
# rejects, and an out=table encoding (the mirrors are files), each exit
# non-zero with the spec's diagnostic before any row runs, so no result
# file is written.
#
# usage: bench_repro_flags.sh <bench_repro binary>
set -euo pipefail
bench="$1"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

status=0
refused() {
  local expect="$1"
  shift
  local rc=0
  "$bench" --results-dir "$tmp/results" "$@" fig3 \
    > "$tmp/stdout" 2> "$tmp/stderr" || rc=$?
  if [[ $rc -eq 0 ]]; then
    echo "FAIL: bench_repro $* exited 0" >&2
    status=1
  fi
  if ! grep -qF -- "$expect" "$tmp/stderr"; then
    echo "FAIL: bench_repro $*: stderr lacks \"$expect\":" >&2
    cat "$tmp/stderr" >&2
    status=1
  fi
  if [[ -e "$tmp/results" || -s "$tmp/stdout" ]]; then
    echo "FAIL: bench_repro $* ran a row before refusing" >&2
    status=1
  fi
}

refused 'seeds: expected an integer >= 1, got "abc"' --set seeds=abc
refused 'out: bench_repro mirrors csv or json, not table' --set out=table

if [[ $status -eq 0 ]]; then echo "bench_repro flag refusals OK"; fi
exit $status
