#!/usr/bin/env python3
"""Self-test of the benchmark at toy scale (h=2 shapes, about a minute).

Checks that:
  * every workload, untraced and traced, prints every metric that
    BENCHMARK.json names for that mode, with its unit, and is correct;
  * every end-to-end metric is non-zero on every workload, and every
    per-layer metric is measured (non-zero) by at least one workload;
  * a deliberately wrong digest and a request answered with ERR both
    count as failed operations (error_rate > 0, correct = false).

    python3 perfbench/selftest.py            # run the checks
    python3 perfbench/selftest.py --record   # re-record digests.json

--record runs the default and held-out seeds at full scale and the
default seed at toy scale, and writes their result digests.
"""
import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Counts that are legitimately 0 on a healthy toy run.
MAY_BE_ZERO = {"error_rate", "service.errors", "service.coalesced"}


def run(workload, seed, trace, *extra, seconds=1):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    cmd += list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("run.py failed: " + " ".join(cmd))
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def record(bench, digest_file):
    with open(digest_file) as f:
        doc = json.load(f)
    digests = {}
    for w in [w["name"] for w in bench["workloads"]]:
        runs = [("", doc["default_seed"]), ("", doc["held_out_seed"]),
                ("toy:", doc["default_seed"])]
        for prefix, seed in runs:
            extra = ["--toy"] if prefix else []
            # A digest that cannot match makes the run report its own.
            _, err = run(w, seed, 0, "--expect-digest", "none", *extra)
            found = re.search(r"digest ([0-9a-f]{16})", err)
            if not found:
                raise SystemExit("no digest reported for %s seed %d" % (w, seed))
            digests["%s%s@%d" % (prefix, w, seed)] = found.group(1)
            print("%s%s@%d %s" % (prefix, w, seed, found.group(1)))
    doc["digests"] = digests
    with open(digest_file, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    digest_file = os.path.join(HERE, "digests.json")
    if args.record:
        record(bench, digest_file)
        return

    problems = []
    measured = set()
    seed = json.load(open(digest_file))["default_seed"]
    for w in [w["name"] for w in bench["workloads"]]:
        for trace, names in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            res, _ = run(w, seed, trace, "--toy")
            tag = "%s trace=%d" % (w, trace)
            if not res["correct"] or res["failed"] != 0:
                problems.append(tag + ": not correct")
            want = {m["name"]: m["unit"] for m in names}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                problems.append(tag + ": metrics/units differ from BENCHMARK.json")
            for name, m in res["metrics"].items():
                if m["value"] != 0:
                    measured.add(name)
                elif trace == 0:
                    problems.append(tag + ": %s is 0" % name)
            print("ok  " if not problems else "FAIL", tag, flush=True)
    for m in bench["per_layer"]:
        if m["name"] not in measured and m["name"] not in MAY_BE_ZERO:
            problems.append("per-layer metric %s is measured by no workload"
                            % m["name"])

    res, _ = run("table2_advc", seed, 0, "--toy", "--expect-digest",
                 "0000000000000000")
    if res["correct"] or res["failed"] == 0:
        problems.append("a wrong digest did not count as a failure")
    else:
        print("ok   wrong digest -> failed=%d of %d" % (res["failed"], res["attempted"]))
    res, _ = run("service_mix", seed, 1, "--toy", "--inject-err")
    error_rate = res["metrics"]["error_rate"]["value"]
    if res["correct"] or error_rate <= 0:
        problems.append("an ERR reply did not raise error_rate")
    else:
        print("ok   ERR reply -> error_rate=%.5f" % error_rate)

    for p in problems:
        print("FAIL " + p)
    print("selftest: %s" % ("FAILED" if problems else "passed"))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
