#!/usr/bin/env python3
"""Repository benchmark entry point.

Run from the root of a checkout:

    python3 perfbench/run.py --workload edge_frames --seed 1 --seconds 20 --trace 0

Builds the library, the sesr_shard worker and the sesr_perfbench binary from
source into .bench_build/ (incremental after the first run), then runs one
workload and forwards its report. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1
(the traced run also writes its spans as Chrome-trace JSON under
.bench_build/out/). The default seed is 1. --workload all runs the three
workloads in turn and ends with one JSON object whose metric names carry
the workload as a prefix. Exits non-zero, printing no result, when the build
or a run fails or a reply was wrong.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "cmake")
OUT_DIR = os.path.join(".bench_build", "out")
BINARY = os.path.join(BUILD_DIR, "sesr_perfbench")
WORKLOADS = ("edge_frames", "tiles_remote", "mixed_local")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then build incrementally; compiler output to stderr."""
    for required in ("CMakeLists.txt", "src", os.path.join("perfbench", "CMakeLists.txt")):
        if not os.path.exists(required):
            fail(f"{required} not found: run from the root of a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "sesr_perfbench"])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as error:
            fail(f"build step {' '.join(step)} failed: {error}")
        if done.returncode != 0:
            fail(f"build step {' '.join(step)} exited {done.returncode}")


def stop_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run(workload, args):
    """Run the benchmark binary in its own process group, so a timeout also stops the
    shard processes it spawned; returns its stdout and parsed result line."""
    command = [BINARY, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", OUT_DIR]
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        stdout, _ = process.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(process.pid)
        process.communicate()
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    stop_group(process.pid)  # a shard left behind by a crashed run
    lines = stdout.rstrip("\n").split("\n")
    if process.returncode != 0:
        sys.stderr.write(stdout)
        fail(f"{workload} exited {process.returncode}", 1)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(stdout)
        fail(f"{workload} printed no result line", 1)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"] or not result["correct"]:
        sys.stderr.write(stdout)
        fail(f"{workload}: the result line is malformed or reports wrong outputs", 1)
    return stdout, result


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build()
    if args.workload != "all":
        stdout, _ = run(args.workload, args)
        sys.stdout.write(stdout)
        return
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        stdout, result = run(workload, args)
        sys.stdout.write(stdout.rstrip("\n").rsplit("\n", 1)[0] + "\n\n")
        sys.stdout.flush()
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, entry in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = entry
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
