#!/usr/bin/env python3
"""Steadiness check for the benchmark defined in BENCHMARK.json.

Runs each workload N times (untraced), alternating the workload order
from one round to the next and giving every run its own seed, then
prints per workload and end-to-end metric:

  median, first and third quartile (statistics.quantiles, n=4),
  spread = (q3 - q1) / median, the metric's bound, and
  split-half agreement: how much worse the median of the second half of
  the runs is than the median of the first half, as a share of the first.

A metric is "steady" when its spread is within a third of its bound, and
"ok" when within the bound (setup_s's spread is reported, not judged).
The split-half shift is judged against the bound for every metric.

Run from the repository root:

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads serve_hot --seed 100

Exits 1 if any run is incorrect or any judged figure is outside its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1]), wall


def worse(metric, base, other):
    """How much worse `other` is than `base`, as a share of `base`."""
    if base == 0:
        return 0.0
    delta = (other - base) / abs(base)
    return delta if metric["better"] == "lower" else -delta


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="first seed")
    parser.add_argument("--workloads", default="", help="comma-separated subset")
    parser.add_argument("--seconds", type=int, default=0, help="default: run_seconds")
    parser.add_argument("--bench", default="BENCHMARK.json")
    parser.add_argument("--out", default="", help="also write every run's values here as JSON")
    opts = parser.parse_args()

    with open(opts.bench) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if opts.workloads:
        workloads = [w for w in opts.workloads.split(",") if w]
    seconds = opts.seconds or bench["run_seconds"]
    metrics = bench["end_to_end"]

    values = {w: {m["name"]: [] for m in metrics} for w in workloads}
    failures = []
    for i in range(opts.runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            seed = opts.seed + i
            result, wall = run_once(bench["command"], w, seed, seconds)
            if not result["correct"] or result["failed"]:
                failures.append(f"{w} seed {seed}: incorrect ({result['failed']} failed)")
            for m in metrics:
                values[w][m["name"]].append(result["metrics"][m["name"]]["value"])
            print(f"run {i + 1}/{opts.runs} {w} seed {seed}: {wall:.1f} s, correct={result['correct']}",
                  file=sys.stderr, flush=True)

    if opts.out:
        with open(opts.out, "w") as f:
            json.dump({"seconds": seconds, "first_seed": opts.seed, "values": values,
                       "failures": failures}, f, indent=1)
    bad = list(failures)
    header = f"{'workload':<12} {'metric':<15} {'median':>12} {'q1':>12} {'q3':>12} " \
             f"{'spread':>7} {'bound':>6} {'half-shift':>10}  verdict"
    print(header)
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            xs = values[w][name]
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            half = len(xs) // 2
            shift = worse(m, statistics.median(xs[:half]), statistics.median(xs[half:])) \
                if half else 0.0
            judged = name != "setup_s"
            if judged and spread > bound:
                verdict = "OUT"
            elif judged and spread > bound / 3:
                verdict = "ok"
            else:
                verdict = "steady" if judged else "-"
            if shift > bound:
                verdict += " SHIFT"
            if verdict.startswith("OUT") or verdict.endswith("SHIFT"):
                bad.append(f"{w} {name}: spread {spread:.3f}, half-shift {shift:.3f}, bound {bound}")
            print(f"{w:<12} {name:<15} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} "
                  f"{spread:>7.3f} {bound:>6.2f} {shift:>10.3f}  {verdict}")
    for b in bad:
        print("FAIL:", b)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
