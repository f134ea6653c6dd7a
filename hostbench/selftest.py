"""Self-test of the benchmark on reduced inputs; run from a checkout root:

    python3 hostbench/selftest.py

For every workload, two traced runs at 1/16 of the input size must both be
correct (every output checked, every expected span fired) and must report
the same call count for every span. A run from a directory that holds only
BENCHMARK.json and the benchmark must fail without printing a result.
Exits non-zero on the first problem.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("encrypt-bulk", "hash-mixed", "paper-sweep")


def traced_run(workload: str) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "5", "--seconds", "0",
         "--trace", "1", "--scale", "16"],
        stdout=subprocess.PIPE, check=True, text=True, timeout=300,
    )
    details, result = (json.loads(line) for line in done.stdout.splitlines()[-2:])
    return details, result


def bare_checkout_fails() -> bool:
    """The benchmark alone, without the program, must not report a result."""
    root = os.path.dirname(HERE)
    with tempfile.TemporaryDirectory(dir=root) as bare:
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, os.path.join(os.path.basename(HERE), "run.py"),
             "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            timeout=180,
        )
    return done.returncode != 0 and not done.stdout.strip()


def main() -> int:
    problems = []
    for workload in WORKLOADS:
        (first, a), (second, b) = traced_run(workload), traced_run(workload)
        if not (a["correct"] and b["correct"]):
            problems.append(f"{workload}: a traced run was not correct")
        if first["span_calls_per_op"] != second["span_calls_per_op"]:
            problems.append(f"{workload}: span call counts differ between runs")
        if "trace.overhead_s" not in a["metrics"]:
            problems.append(f"{workload}: no trace.overhead_s")
        print(f"{workload}: calls per op {first['span_calls_per_op']}")
    if not bare_checkout_fails():
        problems.append("a checkout without src/pimcrypt still reported a result")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
