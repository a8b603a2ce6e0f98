#!/usr/bin/env bash
# Cycle-kernel cross-check: the active-set kernel (sim.kernel=active,
# the default) and the dense reference scan (sim.kernel=scan) must
# produce byte-identical CSV output — same RNG draws, same event order,
# same metrics — and so must the sharded kernel (sim.shards > 1) at
# every shard count. Runs the smoke spec both ways for two seeds, plus
# one off-spec scenario (pb-crg/adv, exercising the refresh path that
# only PiggyBack keeps); each scenario is repeated at sim.shards 2, 4
# and 7 with the active kernel and at 2 and 7 with the scan kernel,
# all against the serial active baseline.
#
# usage: kernel_crosscheck.sh <simulate_cli binary> <repo root>
set -euo pipefail
cli="$1"
root="$2"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

status=0
run_pair() {
  local label="$1"
  shift
  "$cli" "$@" --set sim.kernel=active --out csv --quiet \
    > "$tmp/${label}_active.csv"
  "$cli" "$@" --set sim.kernel=scan --out csv --quiet \
    > "$tmp/${label}_scan.csv"
  if ! cmp -s "$tmp/${label}_active.csv" "$tmp/${label}_scan.csv"; then
    echo "kernel mismatch ($label): active vs scan CSVs differ" >&2
    diff "$tmp/${label}_active.csv" "$tmp/${label}_scan.csv" >&2 || true
    status=1
  fi
  for leg in active:2 active:4 active:7 scan:2 scan:7; do
    local kernel="${leg%:*}" shards="${leg#*:}"
    local out="$tmp/${label}_${kernel}_shards$shards.csv"
    "$cli" "$@" --set "sim.kernel=$kernel" --set "sim.shards=$shards" \
      --out csv --quiet > "$out"
    if ! cmp -s "$tmp/${label}_active.csv" "$out"; then
      echo "shard mismatch ($label): active shards=1 vs $kernel" \
           "shards=$shards differ" >&2
      diff "$tmp/${label}_active.csv" "$out" >&2 || true
      status=1
    fi
  done
}

for seed in 1 2; do
  run_pair "smoke_seed$seed" \
    --config "$root/examples/specs/smoke.spec" \
    --set seeds=1 --set "seed=$seed"
done
run_pair "pbcrg_adv" \
  --routing pb-crg --traffic adv --h 2 --load 0.2,0.5 --seeds 2 \
  --warmup 600 --measure 1200

if [ "$status" -eq 0 ]; then
  echo "kernel cross-check OK: active, scan and sharded kernels" \
       "byte-identical"
fi
exit "$status"
