#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Checks, in order:
  1. `lbperf --self-test`: metric names and units are well formed, tail
     percentiles are withheld below ten samples, the gate counts.
  2. The metrics `lbperf --list-metrics` prints agree with BENCHMARK.json
     (names, units, direction), and every name matches [A-Za-z0-9_.-]+.
  3. Two traced runs with the same seed report identical counts
     (sim.*, shard.cut_edges, workload.entries_per_round, linalg.*).
  4. A deliberately corrupted output trips the verification gate: with
     --corrupt every workload exits 1 and reports failed >= 1.
Exits 0 when all pass.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402  (the build helper)

COUNT_METRICS = ("sim.messages_per_round", "sim.boundary_bytes_per_round",
                 "shard.cut_edges", "workload.entries_per_round", "linalg.exact_hits",
                 "linalg.bound_skips", "linalg.warm_lanczos")
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

failures = []


def check(ok, what):
    print("%s %s" % ("ok  " if ok else "FAIL", what), flush=True)
    if not ok:
        failures.append(what)


def run_bench(workload, seed, seconds, trace, corrupt=False):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if corrupt:
        cmd.append("--corrupt")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result


def main():
    binary = run.build()
    if binary is None:
        return 1
    check(subprocess.run([binary, "--self-test"]).returncode == 0, "lbperf --self-test")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        contract = json.load(f)
    listed = subprocess.run([binary, "--list-metrics"], capture_output=True, text=True,
                            check=True).stdout.split("\n")
    printed = {"end_to_end": [], "per_layer": []}
    for line in filter(None, listed):
        kind, name, unit, better = line.split()
        printed[kind].append((name, unit, better))
    for kind in ("end_to_end", "per_layer"):
        declared = [(m["name"], m["unit"], m["better"]) for m in contract[kind]]
        check(declared == printed[kind], "%s metrics agree with BENCHMARK.json" % kind)
        check(all(NAME_RE.fullmatch(n) and u for n, u, _ in declared),
              "%s names match [A-Za-z0-9_.-]+ and carry a unit" % kind)

    workloads = run.WORKLOADS  # campaign-dynamic too, though BENCHMARK.json omits it
    for workload in workloads:
        runs = [run_bench(workload, 5, 1, 1) for _ in range(2)]
        ok = all(code == 0 and res for code, res in runs)
        counts = [{k: res["metrics"][k]["value"] for k in COUNT_METRICS} if res else None
                  for _, res in runs]
        check(ok and counts[0] == counts[1], "%s: same seed, same counts %s" % (
            workload, counts[0]))

    for workload in workloads:
        code, res = run_bench(workload, 5, 1, 0, corrupt=True)
        check(code == 1 and res is not None and res["failed"] >= 1 and not res["correct"],
              "%s: a corrupted output trips the gate (exit %d)" % (workload, code))

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
