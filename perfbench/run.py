#!/usr/bin/env python3
"""Build and run the dartd benchmark.

    python3 perfbench/run.py --workload replay_campus --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first run configures and builds the
benchmark package (perfbench/CMakeLists.txt, which compiles the repository's
libraries from src/) into .bench_build/perfbench; later runs rebuild only what
changed. The seed's campus trace is generated once into
.bench_build/perfbench/fixtures and then only read back through the checked
.dtrc reader.

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the lines before it carry the
host block and the per-cycle spread of every timed metric. Any build failure,
correctness violation or malformed result exits non-zero without a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("replay_campus", "paced_campus", "both_legs_pressure")
RUN_TIMEOUT_S = 170


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then build incrementally; the log stays in BUILD."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(3, (os.cpu_count() or 2) - 1)))
    steps = []
    configured = any(os.path.exists(os.path.join(BUILD, rules))
                     for rules in ("build.ninja", "Makefile"))
    if not configured:
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD, *generator,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                die("build failed: " + " ".join(step))


def fixture(binary, seed):
    path = os.path.join(BUILD, "fixtures", f"campus-{seed}.dtrc")
    if not os.path.exists(path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        if subprocess.run([binary, "gen", "--seed", str(seed), "--out", path]).returncode:
            die(f"fixture generation failed for seed {seed}")
    return path


def check_result(line):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        die("last output line is not JSON")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        die("result has the wrong keys")
    if result["correct"] is not True or result["attempted"] < 1:
        die("result is not correct")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the metric-arithmetic and gate tests")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    build()
    if args.selftest:
        sys.exit(subprocess.run([os.path.join(BUILD, "perfbench-selftest")]).returncode)

    binary = os.path.join(BUILD, "dart-perfbench")
    command = [binary, "run", "--workload", args.workload,
               "--fixture", fixture(binary, args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"run exceeded {RUN_TIMEOUT_S} s")
    if run.returncode != 0:
        die(f"run failed with exit code {run.returncode}")
    lines = run.stdout.strip().splitlines()
    if not lines:
        die("run printed nothing")
    check_result(lines[-1])
    print(f'{{"seed": {args.seed}}}')
    print("\n".join(lines))


if __name__ == "__main__":
    main()
