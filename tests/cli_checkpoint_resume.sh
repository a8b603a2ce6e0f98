#!/usr/bin/env bash
# The CLI checkpoint file path: `simulate_cli --checkpoint FILE` with no
# FILE runs warmup, writes the checkpoint at the Measure boundary and
# continues; the same command again resumes from FILE. Both CSVs, and a
# plain run without --checkpoint, must be byte-identical. A file whose
# header names format version 6 must be refused: a non-zero exit and the
# version diagnostic.
#
# usage: cli_checkpoint_resume.sh <simulate_cli binary> <repo root>
set -euo pipefail
cli="$1"
root="$2"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

args=(--config "$root/examples/specs/smoke.spec" --set seeds=1
      --set loads=0.3 --out csv)
"$cli" "${args[@]}" --quiet > "$tmp/plain.csv"
"$cli" "${args[@]}" --checkpoint "$tmp/run.ckpt" \
  > "$tmp/first.csv" 2> "$tmp/first.err"
if ! grep -q "checkpoint written to" "$tmp/first.err" || [ ! -s "$tmp/run.ckpt" ]; then
  echo "first run wrote no checkpoint:" >&2
  cat "$tmp/first.err" >&2
  exit 1
fi
"$cli" "${args[@]}" --checkpoint "$tmp/run.ckpt" \
  > "$tmp/second.csv" 2> "$tmp/second.err"
if ! grep -q "resumed from" "$tmp/second.err"; then
  echo "second run did not resume from the checkpoint:" >&2
  cat "$tmp/second.err" >&2
  exit 1
fi
status=0
for run in first second; do
  if ! cmp -s "$tmp/plain.csv" "$tmp/$run.csv"; then
    echo "checkpoint mismatch: $run run differs from the plain run" >&2
    diff "$tmp/plain.csv" "$tmp/$run.csv" >&2 || true
    status=1
  fi
done
# The header is fixed-width in every format version: a u64 magic length
# (28), the magic, then the u32 version at byte 36.
cp "$tmp/run.ckpt" "$tmp/v6.ckpt"
printf '\x06\x00\x00\x00' |
  dd of="$tmp/v6.ckpt" bs=1 seek=36 count=4 conv=notrunc status=none
if "$cli" "${args[@]}" --checkpoint "$tmp/v6.ckpt" \
    > "$tmp/v6.csv" 2> "$tmp/v6.err"; then
  echo "a v6-headed checkpoint was accepted" >&2
  status=1
elif ! grep -q "checkpoint: unsupported version 6" "$tmp/v6.err"; then
  echo "a v6-headed checkpoint failed without the version message:" >&2
  cat "$tmp/v6.err" >&2
  status=1
fi
[ "$status" -eq 0 ] && echo "cli checkpoint resume: OK"
exit "$status"
