#!/usr/bin/env python3
"""Build the repository benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run it from the root of a source checkout. It builds perfbench/main.exe
with dune, runs the workload in a fresh process and passes its report
through; the last line of standard output is the result JSON. The exit
code is non-zero when the build fails, an output check fails, or the
result is missing. `--workload all` runs every workload, one process
each, and prints the per-workload metric table under the workloads' own
names.
"""

import argparse
import json
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
WORKLOADS = ["sdet-eval", "suggest-store", "serve-shift"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700

# The workloads' own end-to-end names, in report order. Each workload
# reports the ones that belong to it; error_rate comes from the result's
# failed/attempted counts.
NATIVE_METRICS = [
    "setup_s", "eval_s", "sim_accesses_per_s", "sim_run_p50_ms",
    "sim_run_p90_ms", "layout_gain_pct", "suggest_s",
    "ingest_samples_per_s", "batch_p50_ms", "batch_p90_ms",
    "republish_p50_ms", "peak_heap_mb", "error_rate",
]


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("not a source checkout (no dune-project or lib/ here)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/main.exe"],
            stdout=sys.stderr, stderr=sys.stderr, env=env,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if r.returncode != 0:
        fail(f"build failed (dune exit {r.returncode})")


def run_one(workload, seed, seconds, trace, echo=True):
    """Run one workload; returns (exit code, stdout lines)."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 3)
    lines = r.stdout.splitlines()
    if echo:
        sys.stdout.write(r.stdout)
        sys.stdout.flush()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        fail(f"{workload} printed no result (exit {r.returncode})", 4)
    return r.returncode, lines


def prefixed(lines, prefix):
    for line in lines:
        if line.startswith(prefix):
            return json.loads(line[len(prefix):])
    return {}


def run_all(seed, seconds):
    table = {}
    worst = 0
    for w in WORKLOADS:
        code, lines = run_one(w, seed, seconds, 0, echo=False)
        worst = max(worst, code)
        native = prefixed(lines, "native: ")
        result = json.loads(lines[-1])
        native["error_rate"] = {
            "value": result["failed"] / result["attempted"], "unit": "ratio",
            "samples": result["attempted"]}
        table[w] = (native, result["correct"])
    print(f"{'metric':<24}" + "".join(f"{w:>30}" for w in WORKLOADS))
    for name in NATIVE_METRICS:
        cells = []
        for w in WORKLOADS:
            native = table[w][0]
            if name in native:
                m = native[name]
                cells.append(
                    f"{m['value']:.6g} {m['unit']} (n={m['samples']})")
            else:
                cells.append("-")
        print(f"{name:<24}" + "".join(f"{c:>30}" for c in cells))
    print("correct: " + ", ".join(f"{w} {table[w][1]}" for w in WORKLOADS))
    return worst


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    build()
    if args.workload == "all":
        sys.exit(run_all(args.seed, args.seconds))
    code, _ = run_one(args.workload, args.seed, args.seconds, args.trace)
    sys.exit(code)


if __name__ == "__main__":
    main()
