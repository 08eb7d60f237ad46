#!/usr/bin/env python3
"""Run-to-run steadiness of the benchmark's end-to-end metrics.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1]
                                [--workloads a,b] [--seconds S] [--trace]

Run from the repository root. Runs every workload of BENCHMARK.json (or
the listed ones) --runs times in sequence, each run in its own process with
the next seed, and prints for each end-to-end metric its median, its
quartiles and the spread (Q3 - Q1) / median against the metric's bound, as
statistics.quantiles(values, n=4) gives them. A spread above a third of the
bound is flagged "wide", above the bound "OVER"; setup_s is reported but
not judged, since its gate is on the median alone. It also checks that the
share of failed operations is the same in every run of a workload. Exits 1
if any run fails, reports an incorrect result, or a spread is over its
bound. --trace runs the traced (per-layer) runs instead and prints their
medians.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(spec, workload, seed, seconds, trace):
    command = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(seconds),
                                 "--trace", "1" if trace else "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    ok = True
    for workload in workloads:
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            result = run_once(spec, workload, seed, seconds, args.trace)
            results.append(result)
            print(f"  {workload} seed {seed}: attempted {result['attempted']}"
                  f" failed {result['failed']} correct {result['correct']}",
                  flush=True)
        shares = {Fraction(r["failed"], r["attempted"]) for r in results}
        correct = all(r["correct"] for r in results)
        ok = ok and correct and len(shares) == 1
        print(f"{workload}: correct {correct}, failed share "
              f"{' / '.join(str(s) for s in sorted(shares))}"
              f"{'' if len(shares) == 1 else '  UNEQUAL'}")
        for metric in metrics:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            if len(values) < 2:
                print(f"  {name:28s} {median:14.6g}")
                continue
            q1, _, q3 = statistics.quantiles(values, n=4)
            line = f"  {name:28s} median {median:14.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}"
            bound = metric.get("bound")
            if bound is not None and median:
                spread = (q3 - q1) / abs(median)
                verdict = ""
                if name != "setup_s":
                    if spread > bound:
                        verdict, ok = "  OVER", False
                    elif spread > bound / 3:
                        verdict = "  wide"
                line += f"  spread {spread:6.3f} / bound {bound}{verdict}"
            print(line, flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
