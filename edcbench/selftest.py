#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

    python3 edcbench/selftest.py

1. `edcbench selftest`: the same seed generates byte-identical inputs and
   another seed other inputs; the CSV writer round-trips bit-exactly
   through trace::read_csv (and the known trace::write_csv defect is
   reported).
2. Every workload, traced and untraced, prints exactly the metric names
   and units BENCHMARK.json lists, with correct results and no failures.
3. Corrupting one row (--corrupt-row) makes the run report it failed.
4. In a directory holding only BENCHMARK.json and the benchmark's own
   files, run.py exits non-zero without printing a result.

Takes about a minute; exits non-zero on the first failure.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark's own build helper)

SEED = 7


def fail(message):
    print("FAIL: " + message)
    sys.exit(1)


def last_json_line(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        fail("no output")
    return json.loads(lines[-1])


def main():
    binary = run.build()
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    work = os.path.join(run.WORK_DIR, "selftest-%d" % os.getpid())
    try:
        if subprocess.run([binary, "selftest", "--work", work]).returncode != 0:
            fail("edcbench selftest")

        for workload in spec["workloads"]:
            for trace, table in ((0, "end_to_end"), (1, "per_layer")):
                out = subprocess.run(
                    [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                     workload["name"], "--seed", str(SEED), "--seconds", "1",
                     "--trace", str(trace)],
                    capture_output=True, text=True)
                if out.returncode != 0:
                    fail("%s --trace %d exited %d: %s" % (
                        workload["name"], trace, out.returncode, out.stderr[-2000:]))
                result = last_json_line(out.stdout)
                if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                    fail("result keys %s" % sorted(result))
                expected = {m["name"]: m["unit"] for m in spec[table]}
                printed = {name: m["unit"] for name, m in result["metrics"].items()}
                if printed != expected:
                    fail("%s --trace %d metrics differ from BENCHMARK.json %s: %s" % (
                        workload["name"], trace, table,
                        sorted(set(printed.items()) ^ set(expected.items()))))
                if not result["correct"] or result["failed"] != 0:
                    fail("%s --trace %d reported failures" % (workload["name"], trace))
                print("ok: %s --trace %d prints the %d %s metrics" % (
                    workload["name"], trace, len(expected), table))

        out = subprocess.run(
            [binary, "run", "--workload", "macro_scenarios", "--seed", str(SEED),
             "--seconds", "1", "--trace", "0", "--work", work, "--corrupt-row"],
            capture_output=True, text=True)
        result = last_json_line(out.stdout)
        if result["failed"] < 1 or result["correct"] or \
                result["metrics"]["pass_ratio"]["value"] >= 1.0:
            fail("a corrupted row was not counted as failed")
        print("ok: a corrupted row raises the failure count to %d" % result["failed"])

        bare = os.path.join(work, "bare")
        shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        out = subprocess.run(
            [sys.executable, os.path.join(os.path.basename(HERE), "run.py"),
             "--workload", "macro_scenarios", "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        if out.returncode == 0 or out.stdout.strip():
            fail("run.py without the library sources did not fail cleanly")
        print("ok: without the library sources run.py exits %d and prints no result"
              % out.returncode)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
