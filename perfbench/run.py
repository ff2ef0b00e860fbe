#!/usr/bin/env python3
"""Builds and runs the rdfrel benchmark (one workload per invocation).

Usage, from the repository root:

    python3 perfbench/run.py --workload prbench_cold|http_rw \
        [--seed N] [--seconds S] [--trace 0|1]

The first run configures and builds perfbench/ (the library sources in
src/ plus rdfrel_perfbench) in Release mode under $CARGO_TARGET_DIR, default
.bench_build/. The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it is the
run record. Exit status is non-zero on a build failure, a wrong answer or
any failed operation. See perfbench/README.md for the workloads and
metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("prbench_cold", "http_rw")
DEFAULT_SEED = 1  # seed 1009 is held out; see README.md
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(root, build_dir):
    src = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", src, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            # Leave no half-configured tree behind for the next run.
            shutil.rmtree(build_dir, ignore_errors=True)
            return False
    jobs = str(os.cpu_count() or 1)
    return subprocess.run(
        ["cmake", "--build", build_dir, "--target", "rdfrel_perfbench",
         "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    base = target if os.path.isabs(target) else os.path.join(root, target)
    build_dir = os.path.join(base, "perfbench")
    if not build(root, build_dir):
        log("build failed")
        return 1

    binary = os.path.join(build_dir, "rdfrel_perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", os.path.join(base, "work")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        log(f"run failed with exit status {proc.returncode}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
