#!/usr/bin/env bash
# Record the simulator-speed baseline: run the bench_micro_simspeed
# google-benchmark binary (Release build) and distill its JSON output
# into a committed BENCH_<pr>.json entry (see DESIGN.md "Bench baseline
# format").
#
# Usage: bench/run_baseline.sh <build_dir> <out_json> [benchmark_filter]
#
# The default filter covers the cycle-kernel benches the CI perf-smoke
# job tracks: BM_NetworkStepUniform (active + scan reference) and
# BM_SessionStep.
set -euo pipefail

BUILD_DIR=${1:?usage: run_baseline.sh <build_dir> <out_json> [filter]}
OUT=${2:?usage: run_baseline.sh <build_dir> <out_json> [filter]}
FILTER=${3:-'BM_NetworkStepUniform|BM_NetworkStepUniformScan|BM_NetworkStepUniformSharded|BM_NetworkStepAllreduce|BM_NetworkStepChurn|BM_NetworkStepPiggyback|BM_SessionStep|BM_ServiceRequest'}

BIN="$BUILD_DIR/bench_micro_simspeed"
if [[ ! -x "$BIN" ]]; then
  echo "error: $BIN not found or not executable (build with google-benchmark installed)" >&2
  exit 1
fi

# A baseline from a non-Release tree would silently neuter the CI perf
# guard (absolute numbers several times too low). Refuse to record one.
BUILD_TYPE=$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$BUILD_DIR/CMakeCache.txt" 2>/dev/null || true)
if [[ "$BUILD_TYPE" != Release* ]]; then
  echo "error: $BUILD_DIR is a '$BUILD_TYPE' build; record baselines from a Release tree" >&2
  exit 1
fi

RAW=$(mktemp)
trap 'rm -f "$RAW"' EXIT
"$BIN" --benchmark_filter="$FILTER" --benchmark_format=json \
  --benchmark_min_time=0.5 > "$RAW"

CMAKE_BUILD_TYPE="$BUILD_TYPE" python3 - "$RAW" "$OUT" <<'EOF'
import json
import os
import sys

raw_path, out_path = sys.argv[1], sys.argv[2]
with open(raw_path) as f:
    raw = json.load(f)

benchmarks = {}
UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
for b in raw.get("benchmarks", []):
    if b.get("run_type") == "aggregate":
        continue
    # One iteration == one simulated cycle for the kernel benches, one
    # served request for the BM_ServiceRequest* benches; either way the
    # baseline stores ns/iteration and iterations/sec.
    ns = b["real_time"] * UNIT_NS[b.get("time_unit", "ns")]
    benchmarks[b["name"]] = {
        "ns_per_cycle": round(ns, 1),
        "cycles_per_sec": round(1e9 / ns, 1),
    }

def speedup(active, scan):
    if active in benchmarks and scan in benchmarks:
        return round(benchmarks[scan]["ns_per_cycle"] /
                     benchmarks[active]["ns_per_cycle"], 3)
    return None

out = {
    "schema": "dragonfly-bench-baseline-v1",
    "command": "bench/run_baseline.sh (bench_micro_simspeed, Release)",
    "context": {
        # cmake_build_type is the simulator's own tree (checked Release
        # above); google-benchmark's library_build_type describes only
        # the benchmark library package.
        "cmake_build_type": os.environ.get("CMAKE_BUILD_TYPE", ""),
        **{k: raw.get("context", {}).get(k)
           for k in ("host_name", "num_cpus", "mhz_per_cpu")},
    },
    "benchmarks": benchmarks,
    # Machine-independent health signals: the active kernel's speedup
    # over the dense reference scan, measured in the same process, plus
    # the sharded kernel's throughput ratios vs its own shards=1 row
    # (same process, same machine — but NOTE: the shard ratios are only
    # meaningful on a multi-core host; a 1-CPU container measures pure
    # sharding overhead, so they are reported here and guarded in CI's
    # multi-core perf-smoke job via PERF_SMOKE_SHARDS_MIN rather than
    # compared against the committed baseline).
    "derived": {
        # Same-process service-path ratios: what the canonical-hash
        # result cache and warm starts buy over a cold request.
        "service_hit_speedup":
            speedup("BM_ServiceRequestHit", "BM_ServiceRequestMiss"),
        "service_warm_speedup":
            speedup("BM_ServiceRequestWarm", "BM_ServiceRequestMiss"),
        # Workload-driver step-time ratios (uniform ns / workload ns at
        # the same h=3, 50% point, same process): a regression in the
        # serial WorkloadDriver::on_cycle / per-job attribution path
        # drives these down, which the ratio-tolerance check guards.
        "workload_allreduce_step_ratio":
            speedup("BM_NetworkStepAllreduce/3",
                    "BM_NetworkStepUniform/3/50/real_time"),
        "workload_churn_step_ratio":
            speedup("BM_NetworkStepChurn/3",
                    "BM_NetworkStepUniform/3/50/real_time"),
        "active_scan_speedup_lowload":
            speedup("BM_NetworkStepUniform/3/5/real_time",
                    "BM_NetworkStepUniformScan/3/5/real_time"),
        "active_scan_speedup_saturation":
            speedup("BM_NetworkStepUniform/3/50/real_time",
                    "BM_NetworkStepUniformScan/3/50/real_time"),
        "shards_speedup_h4_50": {
            str(s): speedup(
                f"BM_NetworkStepUniformSharded/4/50/{s}/real_time",
                "BM_NetworkStepUniformSharded/4/50/1/real_time")
            for s in (2, 4, 8)
        },
        "shards_speedup_h5_50": {
            "4": speedup(
                "BM_NetworkStepUniformSharded/5/50/4/real_time",
                "BM_NetworkStepUniformSharded/5/50/1/real_time"),
        },
    },
}
with open(out_path, "w") as f:
    json.dump(out, f, indent=2, sort_keys=True)
    f.write("\n")
print(f"wrote {out_path} ({len(benchmarks)} benchmarks)")
EOF
