#!/usr/bin/env python3
"""Builds the lcbench harness from source and runs one workload.

Run from the repository root:

    python3 lcbench/run.py --workload miss_closed --seed 1 --seconds 10 --trace 0

Workloads: miss_open, miss_closed, hit_zipf, train (see lcbench/README.md).
The build goes to $CARGO_TARGET_DIR if set, else .bench_build/, as an
optimized (Release) CMake build of the project's libraries plus the
harness; later runs only re-check it. Build output goes to stderr, so the
last line of stdout is the harness's JSON result.

Exits 2 without building when any LC_* variable other than a POSIX locale
category is set: those are the program's own knobs, and the benchmark
measures the program at its defaults.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("miss_open", "miss_closed", "hit_zipf", "train")
# POSIX locale categories share the LC_ prefix but are not program knobs.
LOCALE = {"LC_ALL", "LC_ADDRESS", "LC_COLLATE", "LC_CTYPE",
          "LC_IDENTIFICATION", "LC_MEASUREMENT", "LC_MESSAGES", "LC_MONETARY",
          "LC_NAME", "LC_NUMERIC", "LC_PAPER", "LC_TELEPHONE", "LC_TIME"}


def build(build_dir):
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = [["cmake", "--build", build_dir, "--target", "lcbench", "-j", jobs]]
    # Once generated, the build step re-runs CMake itself when needed.
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs (the harness's own tests)")
    parser.add_argument("--inject-fault", action="store_true",
                        help="perturb one expected value; the run must fail")
    args = parser.parse_args()

    knobs = sorted(name for name in os.environ
                   if name.startswith("LC_") and name not in LOCALE)
    if knobs:
        print(f"refusing to run: {', '.join(knobs)} set; the benchmark "
              "measures the program at its defaults", file=sys.stderr)
        return 2

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not build(build_dir):
        print("lcbench: build failed", file=sys.stderr)
        return 1

    command = [os.path.join(build_dir, "lcbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        command.append("--smoke")
    if args.inject_fault:
        command.append("--inject-fault")
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
