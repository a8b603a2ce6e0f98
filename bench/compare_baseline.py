#!/usr/bin/env python3
"""Compare a fresh bench baseline against the committed one.

Used by the CI perf-smoke job:

    bench/run_baseline.sh build current.json
    bench/compare_baseline.py --baseline BENCH_5.json --current current.json

Two classes of check:

* absolute cycles/sec per benchmark, with a generous tolerance
  (default 30%, --tolerance / $PERF_SMOKE_TOLERANCE) because CI runner
  hardware varies;
* the active/scan kernel speedup ratios, which are measured within one
  process on one machine and therefore travel across hardware — these
  guard the active-set kernel's actual advantage (--ratio-tolerance).

The sharded-kernel throughput ratios (derived.shards_speedup_*) are
deliberately *excluded* from the baseline-relative comparison: they
depend on the runner's core count (a 1-CPU container measures pure
sharding overhead), so comparing them against a baseline recorded
elsewhere would be meaningless. Instead --shards-min (or
$PERF_SMOKE_SHARDS_MIN) asserts an absolute floor on the *current* run's
best shards>1 ratio at saturated h=4 — CI's multi-core perf-smoke job
sets it; leave it unset on single-core hosts.

Exits non-zero on any breach, printing a per-benchmark table either way.
"""
import argparse
import json
import os
import sys


def load(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "dragonfly-bench-baseline-v1":
        sys.exit(f"{path}: unexpected schema {doc.get('schema')!r}")
    build_type = (doc.get("context") or {}).get("cmake_build_type", "")
    if not str(build_type).startswith("Release"):
        # A debug-tree baseline makes every future Release run pass the
        # tolerance regardless of real regressions.
        sys.exit(f"{path}: recorded from a {build_type!r} build; "
                 "baselines must come from a Release tree")
    return doc


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--baseline", required=True)
    ap.add_argument("--current", required=True)
    ap.add_argument(
        "--tolerance",
        type=float,
        default=float(os.environ.get("PERF_SMOKE_TOLERANCE", "0.30")),
        help="allowed fractional cycles/sec regression per benchmark",
    )
    ap.add_argument(
        "--ratio-tolerance",
        type=float,
        default=float(os.environ.get("PERF_SMOKE_RATIO_TOLERANCE", "0.30")),
        help="allowed fractional drop of the active/scan speedup ratios",
    )
    shards_min_env = os.environ.get("PERF_SMOKE_SHARDS_MIN", "")
    ap.add_argument(
        "--shards-min",
        type=float,
        default=float(shards_min_env) if shards_min_env else None,
        help="required minimum of the current run's best "
             "derived.shards_speedup_h4_50 ratio (multi-core hosts only; "
             "unset = skip)",
    )
    args = ap.parse_args()

    baseline = load(args.baseline)
    current = load(args.current)
    failures = []

    print(f"{'benchmark':45} {'baseline':>12} {'current':>12} {'ratio':>7}")
    for name, base in sorted(baseline["benchmarks"].items()):
        # A row switched to UseRealTime() gains a "/real_time" suffix.
        # run_baseline.sh records wall-clock time for every row, so the
        # renamed row is still measured the same way as the baseline's.
        cur = (current["benchmarks"].get(name) or
               current["benchmarks"].get(name + "/real_time"))
        if cur is None:
            failures.append(f"{name}: missing from current run")
            continue
        ratio = cur["cycles_per_sec"] / base["cycles_per_sec"]
        flag = ""
        if ratio < 1.0 - args.tolerance:
            flag = "  << REGRESSION"
            failures.append(
                f"{name}: {cur['cycles_per_sec']:.0f} cycles/s vs baseline "
                f"{base['cycles_per_sec']:.0f} ({ratio:.2f}x, tolerance "
                f"{1.0 - args.tolerance:.2f}x)")
        print(f"{name:45} {base['cycles_per_sec']:>12.0f} "
              f"{cur['cycles_per_sec']:>12.0f} {ratio:>6.2f}x{flag}")

    for key, base_ratio in (baseline.get("derived") or {}).items():
        if isinstance(base_ratio, dict):
            # Shard scaling ratios: machine-dependent (core count), so
            # never compared against the committed baseline — see
            # --shards-min below for the absolute guard.
            continue
        cur_ratio = (current.get("derived") or {}).get(key)
        if base_ratio is None:
            # A null ratio means the baseline was recorded without the
            # scan-reference benches — the machine-independent guard
            # would silently vanish. Refuse such a baseline.
            failures.append(
                f"derived.{key}: committed baseline has no ratio (was it "
                "generated with a custom --benchmark_filter?)")
            continue
        if cur_ratio is None:
            failures.append(f"derived.{key}: missing from current run")
            continue
        print(f"derived.{key}: baseline {base_ratio:.2f}x, "
              f"current {cur_ratio:.2f}x")
        if cur_ratio < base_ratio * (1.0 - args.ratio_tolerance):
            failures.append(
                f"derived.{key}: active/scan speedup fell to {cur_ratio:.2f}x "
                f"(baseline {base_ratio:.2f}x, tolerance "
                f"{1.0 - args.ratio_tolerance:.2f}x)")

    shard_ratios = (current.get("derived") or {}).get(
        "shards_speedup_h4_50") or {}
    shown = {s: r for s, r in sorted(shard_ratios.items())
             if r is not None}
    if shown:
        print("derived.shards_speedup_h4_50 (current run): " +
              ", ".join(f"shards={s}: {r:.2f}x" for s, r in shown.items()))
    if args.shards_min is not None:
        best = max(shown.values(), default=None)
        if best is None:
            failures.append(
                "shards-min: current run has no shards_speedup_h4_50 ratios "
                "(was bench_micro_simspeed run with a custom filter?)")
        elif best < args.shards_min:
            failures.append(
                f"shards-min: best shards>1 throughput ratio at saturated "
                f"h=4 is {best:.2f}x < required {args.shards_min:.2f}x")

    if failures:
        print("\nPERF-SMOKE FAILURES:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("\nperf smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
