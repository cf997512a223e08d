#!/usr/bin/env python3
"""End-to-end search benchmark: build, self-test, run one workload (or all).

Run from the root of the repository:

    python3 e2ebench/run.py --workload engine_analytic --seed 1 --seconds 10 --trace 0
    python3 e2ebench/run.py --workload all --seed 1 --seconds 10 --trace 1

The first call configures and builds the benchmark (a CMake project in this
directory that builds the repository's libraries from ../src) into
.bench_build/e2ebench; later calls rebuild incrementally.  Every call runs the
hypervolume unit test, then the benchmark binary, whose last stdout line is
the JSON result.  With --workload all every workload runs, one after the
other, and a combined JSON line closes the output.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
RUN_DIR = os.path.join(ROOT, ".bench_build", "run")
WORKLOADS = ["codesign_train", "fleet_cached", "engine_analytic", "fleet_analytic",
             "engine_checkpoint"]


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "master.h")):
        log("e2ebench: no ecad source tree next to this directory; nothing to build")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4", "--target", "ecad_e2e_bench",
                  "ecad_e2e_hypervolume_test"])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the JSON result.
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("e2ebench: build step failed: " + " ".join(step))
            return False
    test = subprocess.run([os.path.join(BUILD_DIR, "ecad_e2e_hypervolume_test")], cwd=ROOT,
                          stdout=sys.stderr, stderr=sys.stderr)
    if test.returncode != 0:
        log("e2ebench: hypervolume unit test failed")
        return False
    return True


def run_workload(args, workload):
    command = [os.path.join(BUILD_DIR, "ecad_e2e_bench"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scratch", RUN_DIR]
    result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    if result.returncode != 0:
        log("e2ebench: %s exited with %d" % (workload, result.returncode))
        return None
    lines = result.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not build():
        return 2
    os.makedirs(RUN_DIR, exist_ok=True)
    if args.workload != "all":
        return 0 if run_workload(args, args.workload) is not None else 1

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        result = run_workload(args, workload)
        if result is None:
            return 1
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][workload + "." + name] = metric
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
