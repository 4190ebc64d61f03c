#!/usr/bin/env python3
"""Spread report: run the benchmark repeatedly and summarise each metric.

    python3 perfbench/spread.py --workload campaign-dynamic --seeds 1-10
    python3 perfbench/spread.py --workload all --seeds 11-20 --out spread.json

For every metric of every workload it prints the median, the first and
third quartiles (statistics.quantiles(values, n=4)) and the spread: the
interquartile distance as a share of the median.  For end-to-end metrics
it also prints the bound from BENCHMARK.json and marks a spread above a
third of the bound ("tight") or above the bound ("FAIL").  With
--compare a.json b.json it instead compares the medians of two earlier
--out files against the bounds.  Exits 1 when any run fails or any
end-to-end spread other than setup_s exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    return json.loads(lines[-1])


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def report(results, contract, trace):
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    ok = True
    for workload, runs in results.items():
        print("\n%s (%d runs)" % (workload, len(runs)))
        print("  %-34s %14s %14s %14s %8s %6s" % ("metric", "median", "q1", "q3", "spread",
                                                 "bound"))
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med, q1, q3, spread = summarise(values)
            bound = bounds.get(name)
            mark = ""
            if bound is not None and not trace:
                if spread > bound and name != "setup_s":
                    mark, ok = "FAIL", False
                elif spread > bound / 3:
                    mark = "tight"
            print("  %-34s %14.6g %14.6g %14.6g %8.4f %6s %s" % (
                name, med, q1, q3, spread, "" if bound is None else bound, mark))
    return ok


def compare(path_a, path_b, contract):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    ok = True
    for m in contract["end_to_end"]:
        for workload in (w for w in a if w in b):
            va = statistics.median(r["metrics"][m["name"]]["value"] for r in a[workload])
            vb = statistics.median(r["metrics"][m["name"]]["value"] for r in b[workload])
            worse = (vb - va) / va if m["better"] == "lower" else (va - vb) / va
            mark = "FAIL" if worse > m["bound"] else ""
            ok = ok and not mark
            print("%-18s %-24s %14.6g %14.6g %+8.4f %5.2f %s" % (
                workload, m["name"], va, vb, worse, m["bound"], mark))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--out", help="write every run's result object to this JSON file")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()
    contract = load_contract()
    if args.compare:
        return 0 if compare(args.compare[0], args.compare[1], contract) else 1

    names = [w["name"] for w in contract["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    seconds = args.seconds or contract["run_seconds"]
    results = {}
    failed = False
    for workload in workloads:
        results[workload] = []
        for seed in parse_seeds(args.seeds):
            t0 = time.time()
            res = run_once(workload, seed, seconds, args.trace)
            elapsed = time.time() - t0
            if res is None or not res["correct"] or res["failed"]:
                print("run failed: %s seed %d" % (workload, seed))
                failed = True
                continue
            results[workload].append(res)
            print("%s seed %d (%.0f s): %s" % (workload, seed, elapsed, ", ".join(
                "%s=%.5g" % (k, v["value"]) for k, v in res["metrics"].items()
                if k in [m["name"] for m in contract["end_to_end"]])), flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)
    usable = {w: r for w, r in results.items() if len(r) >= 2}
    ok = report(usable, contract, args.trace)
    return 0 if ok and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
