#!/usr/bin/env python3
"""Run-to-run spread of one workload.

Run from the root of a checkout:

    python3 perfbench/spread.py --workload tiles_remote [--runs 10] [--first-seed 1] [--seconds S]

Runs perfbench/run.py once per seed (first-seed, first-seed + 1, ...) and
prints, for every end-to-end metric, diag.tail_ms and diag.host_steal_pct
(hypervisor steal, the mark of a contended host), the median, the
quartiles (statistics.quantiles(values, n=4)), the quartile spread as a share
of the median, and the range, after each run's own values. --seconds defaults
to BENCHMARK.json's run_seconds. A change whose effect on a metric is smaller
than that metric's spread is unresolved, not unchanged.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
TAIL = re.compile(r"^diag\.tail_ms: p(\S+) = (\S+) ms \((\d+) samples\)$", re.MULTILINE)
STEAL = re.compile(r"^diag\.host_steal_pct: (\S+) ", re.MULTILINE)


def one_run(workload, seed, seconds):
    done = subprocess.run([sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        sys.exit(f"spread: seed {seed} failed (exit {done.returncode})")
    result = json.loads(done.stdout.rstrip("\n").split("\n")[-1])
    values = {name: (entry["value"], entry["unit"]) for name, entry in result["metrics"].items()}
    tail = TAIL.search(done.stdout)
    if tail:
        values[f"diag.tail_ms (p{tail.group(1)})"] = (float(tail.group(2)), "ms")
    steal = STEAL.search(done.stdout)
    if steal:
        values["diag.host_steal_pct"] = (float(steal.group(1)), "%")
    return values


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        default=json.load(open("BENCHMARK.json"))["run_seconds"])
    args = parser.parse_args()
    if args.runs < 2:
        sys.exit("spread: --runs must be at least 2")

    print(f"{args.workload}: {args.runs} runs, seeds {args.first_seed}.."
          f"{args.first_seed + args.runs - 1}, {args.seconds} s each")
    samples = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        values = one_run(args.workload, seed, args.seconds)
        for name, (value, unit) in values.items():
            samples.setdefault((name, unit), []).append(value)
        print(f"  seed {seed}: " + ", ".join(f"{name} {value:.6g}"
                                             for name, (value, _) in values.items()), flush=True)

    print(f"{'metric':<28} {'unit':<9} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8} {'min':>12} {'max':>12}")
    for (name, unit), values in samples.items():
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:<28} {unit:<9} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.2%} "
              f"{min(values):>12.6g} {max(values):>12.6g}")


if __name__ == "__main__":
    main()
