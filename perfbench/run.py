#!/usr/bin/env python3
"""End-to-end benchmark of the HMMM serving daemons.

Run from the root of the repository:

    python3 perfbench/run.py --workload retrieve_100x --seed 1 --seconds 15 --trace 0

Builds the library, hmmm_serverd, hmmm_coordd and the load generator from
source (RelWithDebInfo) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; runs the checker's own
test; generates the workload's archive from the seed; then launches the
daemons, drives the load and prints one JSON object as the last line of
standard output. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("retrieve_100x", "sharded_100x")
TARGETS = ("hmmm_serverd", "hmmm_coordd", "hmmm_perfbench", "perfbench_checker_test")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def run(argv, timeout, **kwargs):
    """Runs argv to completion; returns its exit code (killed on timeout)."""
    with subprocess.Popen(argv, cwd=ROOT, **kwargs) as process:
        try:
            return process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
            log(f"{os.path.basename(argv[0])} timed out after {timeout} s")
            return 1


def build(build_dir):
    configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    compile_ = ["cmake", "--build", build_dir, "-j4", "--target", *TARGETS]
    for step in (configure, compile_):
        if run(step, BUILD_TIMEOUT_S, stdout=sys.stderr) != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target_dir, "perfbench")
    if not build(build_dir):
        log("build failed")
        return 1
    if run([os.path.join(build_dir, "perfbench_checker_test")], 60,
           stdout=subprocess.DEVNULL) != 0:
        log("the output checker failed its own test")
        return 1

    work_dir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        common = ["--workload", args.workload, "--seed", str(args.seed), "--work-dir", work_dir]
        tool = os.path.join(build_dir, "hmmm_perfbench")
        deadline = time.monotonic() + RUN_TIMEOUT_S
        if run([tool, "build", *common], deadline - time.monotonic()) != 0:
            log("archive build failed")
            return 1
        return run([tool, "load", *common, "--seconds", str(args.seconds),
                    "--trace", str(args.trace), "--bin-dir", build_dir],
                   max(1.0, deadline - time.monotonic()))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
