#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the simulator library, `simulate_cli` and the benchmark driver
out of tree (perfbench/CMakeLists.txt, into .bench_build/perfbench), runs
one workload and prints, as the last line of stdout, one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics (0 where the workload does
not exercise a layer) and a Chrome trace-event JSON of the run is written
to .bench_build/traces/.

    python3 perfbench/run.py --workload table2_advc --seed 1 --seconds 40 --trace 0
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TRACES = os.path.join(ROOT, ".bench_build", "traces")
DRIVER_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then (re)build; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "session.hpp")):
        log("simulator sources not found next to perfbench/ (expected src/)")
        sys.exit(2)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            log("cmake configure failed")
            sys.exit(2)
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        log("build failed")
        sys.exit(2)


def shape_result(raw, names, traced):
    """Keep exactly the metrics BENCHMARK.json declares for this mode."""
    metrics = {}
    correct = raw["failed"] == 0
    for m in names:
        got = raw["metrics"].get(m["name"])
        if got is None:
            if not traced:
                log("missing end-to-end metric " + m["name"])
                correct = False
            got = {"value": 0.0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            log("unit of %s is %s, expected %s" % (m["name"], got["unit"], m["unit"]))
            correct = False
        value = got["value"]
        if value is None or not math.isfinite(value):
            log("metric %s is not finite" % m["name"])
            correct = False
            value = 0.0
        elif not traced and value == 0.0:
            log("end-to-end metric %s is 0" % m["name"])
            correct = False
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {"correct": correct, "attempted": max(1, int(raw["attempted"])),
            "failed": int(raw["failed"]), "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true",
                    help="toy scale (h=2 shapes, short windows): the self-test")
    ap.add_argument("--expect-digest",
                    help="result digest to require instead of the recorded one")
    ap.add_argument("--inject-err", action="store_true",
                    help="self-test fault: send one request that must get ERR")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        log("unknown workload " + args.workload)
        sys.exit(2)
    build()

    with open(os.path.join(HERE, "digests.json")) as f:
        digests = json.load(f)["digests"]
    key = "%s%s@%d" % ("toy:" if args.toy else "", args.workload, args.seed)
    expected = args.expect_digest or digests.get(key)

    os.makedirs(TRACES, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench_driver"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--simulate-cli", os.path.join(BUILD, "simulate_cli"),
           "--trace-out", os.path.join(TRACES, "%s-seed%d.json"
                                       % (args.workload, args.seed))]
    if args.toy:
        cmd.append("--toy")
    if expected:
        cmd += ["--expect-digest", expected]
    if args.inject_err:
        cmd.append("--inject-err")
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("driver timed out after %d s" % DRIVER_TIMEOUT_S)
        sys.exit(3)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("driver exited with code %d" % proc.returncode)
        sys.exit(3)
    raw = json.loads(lines[-1])
    names = bench["per_layer"] if args.trace else bench["end_to_end"]
    result = shape_result(raw, names, bool(args.trace))
    log("%s seed %d: %.1f s" % (args.workload, args.seed,
                                time.monotonic() - started))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
