#!/usr/bin/env python3
"""Steadiness self-test of the repository benchmark.

    python3 perfbench/selftest.py [--workloads a,b] [--seeds N] [--sets K]
                                  [--seconds S]

Run it from the root of a source checkout. For each workload it makes K
back-to-back sets of untraced runs over seeds 1..N, then one traced run.
It fails when
  - within a set, an end-to-end metric's spread (distance between the
    first and third quartile, over the median) exceeds the metric's bound
    in BENCHMARK.json (setup_s is exempt here, not from the next check);
  - a later set's median is worse than the first set's by more than the
    bound (setup_s included);
  - a deterministic count differs between two runs of one seed;
  - any run fails its output checks;
  - the traced run lacks a per-layer metric, or its layer spans cover
    less than 95% of the timed phase;
  - a per-layer metric is missing from the interaction table in
    perfbench/layers.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

DETERMINISTIC = ["layout_gain_pct", "sim.machine.accesses",
                 "sim.machine.makespan_cycles", "concurrency.pairs",
                 "serve.publications"]


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = r.stdout.splitlines()
    counts = {}
    for line in lines:
        if line.startswith("counts: "):
            counts = json.loads(line[len("counts: "):])
    return r.returncode, json.loads(lines[-1]), counts


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2, q2


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seconds", type=int, default=0,
                    help="default: run_seconds from BENCHMARK.json")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    problems = []
    with open(os.path.join("perfbench", "layers.json")) as f:
        tabled = {m for row in json.load(f)["per_layer"] for m in row["metrics"]}
    for m in bench["per_layer"]:
        if m["name"] not in tabled:
            problems.append(f"{m['name']} is not in perfbench/layers.json")
    for w in names:
        sets = []
        for k in range(args.sets):
            runs = []
            for seed in range(1, args.seeds + 1):
                code, result, counts = run(w, seed, seconds, 0)
                if code != 0 or not result["correct"] or result["failed"]:
                    problems.append(f"{w} seed {seed}: run failed")
                runs.append((result["metrics"], counts))
                print(f"{w} set {k + 1} seed {seed}: " + ", ".join(
                    f"{n}={m['value']:.5g}"
                    for n, m in result["metrics"].items()), flush=True)
            sets.append(runs)
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for k, runs in enumerate(sets):
                s, med = spread([r[0][name]["value"] for r in runs])
                medians.append(med)
                flag = ""
                if s > bound and name != "setup_s":
                    problems.append(f"{w} {name}: set {k + 1} spread {s:.3f}"
                                    f" > bound {bound}")
                    flag = "  FAIL"
                elif s > bound / 3:
                    flag = "  (above a third of the bound)"
                print(f"  {w} {name}: set {k + 1} median {med:.6g},"
                      f" spread {s:.4f} (bound {bound}){flag}")
            sign = 1 if metric["better"] == "lower" else -1
            for k in range(1, len(medians)):
                worse = sign * (medians[k] - medians[0]) / medians[0]
                print(f"  {w} {name}: set {k + 1} vs set 1: "
                      f"{100 * worse:+.2f}% worse")
                if worse > bound:
                    problems.append(f"{w} {name}: set {k + 1} median worse "
                                    f"by {100 * worse:.1f}% > {bound}")
        for seed in range(args.seeds):
            for key in DETERMINISTIC:
                vals = {json.dumps(s[seed][1].get(key)) for s in sets}
                if len(vals) > 1:
                    problems.append(f"{w} seed {seed + 1}: {key} differs "
                                    f"between runs: {sorted(vals)}")
        code, result, _ = run(w, 1, seconds, 1)
        got = set(result["metrics"])
        missing = [m["name"] for m in bench["per_layer"] if m["name"] not in got]
        coverage = result["metrics"].get("trace.coverage_pct", {}).get("value")
        print(f"  {w} traced: coverage {coverage}%, "
              f"overhead {result['metrics'].get('trace.overhead_pct')}")
        if code != 0 or missing or coverage is None or coverage < 95.0:
            problems.append(f"{w} traced run: exit {code}, missing {missing},"
                            f" coverage {coverage}")
    for p in problems:
        print("FAIL " + p)
    print("selftest " + ("failed" if problems else "passed"))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
