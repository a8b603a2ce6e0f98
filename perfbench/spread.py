#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, or a parent/change comparison.

Runs perfbench/run.py once per seed on each named workload and prints,
per metric, the median, the quartiles and the spread (interquartile
distance as a share of the median, as statistics.quantiles(n=4) gives
them) next to the metric's bound from BENCHMARK.json.

With --against PARENT (another checkout of the repository), runs the
parent and this tree in interleaved pairs, one pair per seed, alternating
which side runs first, so that a slow host phase hits both sides. Per
metric it prints both sides' medians and quartiles, the pairs the change
won, and a verdict:

  regression    the change's median is worse than the parent's by more
                than the bound
  unresolved    the parent's own spread, or the drift between the medians
                of its first and second half of pairs, exceeds the bound,
                and not every change run beats every parent run
  gain          the change won at least 9 of 10 pairs and the medians
                differ by more than the parent's interquartile distance
  within bound  otherwise

    python3 perfbench/spread.py --workloads service_mix --seeds 1-5
    python3 perfbench/spread.py --seeds 11-20 --json spread.json
    python3 perfbench/spread.py --against ../parent --seeds 7919,1-9
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            a, b = part.split("-")
            seeds += list(range(int(a), int(b) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run(root, workload, seed, seconds):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit("run failed in %s: %s seed %d" % (root, workload, seed))
    res = json.loads(lines[-1])
    print("%s %s seed %d: correct=%s" % (root, workload, seed, res["correct"]),
          file=sys.stderr, flush=True)
    return res


def stats(v):
    q1, _, q3 = statistics.quantiles(v, n=4)
    return statistics.median(v), q1, q3


def print_spread(w, values, bench, nseeds):
    print("\n%s (%d seeds)" % (w, nseeds))
    print("  %-18s %14s %14s %14s %8s %6s" %
          ("metric", "median", "q1", "q3", "spread", "bound"))
    for m in bench["end_to_end"]:
        med, q1, q3 = stats(values[m["name"]])
        spread = (q3 - q1) / med if med else float("inf")
        flag = "" if spread < m["bound"] / 3 else "  <-- above bound/3"
        print("  %-18s %14.6g %14.6g %14.6g %8.4f %6.2f%s" %
              (m["name"], med, q1, q3, spread, m["bound"], flag))


def verdict(m, parent, change):
    """Classify one metric from paired runs (index i of both lists is pair i)."""
    sign = 1.0 if m["better"] == "lower" else -1.0
    pm, pq1, pq3 = stats(parent)
    cm, _, _ = stats(change)
    worse_by = sign * (cm - pm) / pm
    if worse_by > m["bound"]:
        return "regression"
    half = len(parent) // 2
    drift = abs(statistics.median(parent[half:]) -
                statistics.median(parent[:half])) / pm
    if (pq3 - pq1) / pm > m["bound"] or drift > m["bound"]:
        if all(sign * c < sign * p for c in change for p in parent):
            return "gain (every run)"
        return "unresolved"
    wins = sum(1 for p, c in zip(parent, change) if sign * c < sign * p)
    if wins >= 0.9 * len(parent) and abs(cm - pm) > pq3 - pq1:
        return "gain"
    return "within bound"


def print_comparison(w, parent, change, bench):
    print("\n%s (%d pairs)" % (w, len(parent[bench["end_to_end"][0]["name"]])))
    print("  %-18s %12s %12s %12s %12s %12s %12s %5s  %s" %
          ("metric", "parent", "p.q1", "p.q3", "change", "c.q1", "c.q3",
           "wins", "verdict"))
    for m in bench["end_to_end"]:
        p, c = parent[m["name"]], change[m["name"]]
        sign = 1.0 if m["better"] == "lower" else -1.0
        wins = sum(1 for a, b in zip(p, c) if sign * b < sign * a)
        print("  %-18s %12.6g %12.6g %12.6g %12.6g %12.6g %12.6g %2d/%-2d  %s" %
              ((m["name"],) + stats(p) + stats(c) + (wins, len(p),
               verdict(m, p, c))))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", help="comma list (default: all)")
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 7919,1-9")
    ap.add_argument("--seconds", type=float,
                    help="run length (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--against", metavar="PARENT",
                    help="parent checkout to compare with in interleaved pairs")
    ap.add_argument("--json", help="also write every value to this file")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench["run_seconds"]
    seeds = seed_list(args.seeds)
    parent_root = os.path.abspath(args.against) if args.against else None
    values = {}
    ok = True
    for w in workloads:
        change, parent = {}, {}
        for i, seed in enumerate(seeds):
            sides = [(ROOT, change)]
            if parent_root:
                sides.append((parent_root, parent))
                if i % 2:
                    sides.reverse()
            for root, into in sides:
                res = run(root, w, seed, seconds)
                ok = ok and res["correct"]
                for name, m in res["metrics"].items():
                    into.setdefault(name, []).append(m["value"])
        if parent_root:
            values[w] = {"parent": parent, "change": change}
            print_comparison(w, parent, change, bench)
        else:
            values[w] = change
            print_spread(w, change, bench, len(seeds))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(values, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
