#!/usr/bin/env python3
"""Repository benchmark: one workload, one seed, one process.

    python3 edcbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the edc library from ../src together with the benchmark program
(edcbench/CMakeLists.txt) into .bench_build/edcbench, then runs the
workload in its own process. The program generates the workload's inputs
from the seed into a working directory under .bench_work (removed
afterwards), times it with tracing off (--trace 0) or runs the traced job
(--trace 1, spans written to .bench_out), checks the outputs, and prints
one JSON result as the last line of stdout. Build output goes to stderr.

Exits non-zero without a result when the library sources are missing, the
build fails, or the run fails or exceeds its time limit.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "edcbench")
WORK_DIR = os.path.join(ROOT, ".bench_work")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("macro_scenarios", "fine_batch_sweep", "cached_queries")
# A run must end within 180 s; leave room for process start and clean-up.
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark program; returns its path."""
    if not os.path.isdir(os.path.join(ROOT, "src", "edc")):
        raise RuntimeError("no library sources at %s" % os.path.join(ROOT, "src", "edc"))
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if os.path.exists(cache):
        # A build tree copied along with a checkout still points at the
        # sources it was configured for; start over rather than build those.
        with open(cache) as handle:
            sources = [line.split("=", 1)[1].strip() for line in handle
                       if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL=")]
        if not sources or os.path.realpath(sources[0]) != os.path.realpath(HERE):
            shutil.rmtree(BUILD_DIR)
    if not os.path.exists(cache):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD_DIR, "edcbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as error:
        print("edcbench: build failed: %s" % error, file=sys.stderr)
        return 1

    work = os.path.join(WORK_DIR, "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    command = [binary, "run", "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work", work]
    if args.trace == 1:
        os.makedirs(OUT_DIR, exist_ok=True)
        command += ["--spans", os.path.join(
            OUT_DIR, "spans-%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        return subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("edcbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
