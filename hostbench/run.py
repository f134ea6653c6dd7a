"""Host-clock benchmark of pimcrypt's CLI, with an optional traced run.

Run from the root of a source checkout:

    python3 hostbench/run.py --workload encrypt-bulk --seed 1 --seconds 25 --trace 0

Each run generates the workload's inputs from --seed in one process, then
runs the operations in another, which also times set-up in fresh
interpreters between operations (untraced runs only). The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the line
before it records the host, the sample counts, the uncorrected wall times
and, for traced runs, the call count of every span. Exits non-zero without a result when the
checkout has no pimcrypt sources or a step fails. See hostbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("encrypt-bulk", "hash-mixed", "paper-sweep")
SETUP_RUNS = 7
BUDGET_S = 170.0
UNITS = {"setup_s": "s", "op_s": "s", "peak_rss_MB": "MB"}


def unit_of(metric: str) -> str:
    if metric in UNITS:
        return UNITS[metric]
    if metric.endswith(".calls"):
        return "count"
    return "MB/s" if metric.endswith("MBps") else "s"


class Steps:
    """Runs each step in a child process, all within one time budget."""

    def __init__(self, root: str) -> None:
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.deadline = time.monotonic() + BUDGET_S

    def run(self, script: str, *args: str) -> str:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise subprocess.TimeoutExpired(script, 0)
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, script), *args],
            env=self.env, stdout=subprocess.PIPE, timeout=left, check=True, text=True,
        )
        lines = done.stdout.splitlines()
        return lines[-1] if lines else ""


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=int, default=1,
                        help="divide the input size by this (self-test only)")
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "pimcrypt", "__init__.py")):
        print("error: run from a checkout root holding src/pimcrypt", file=sys.stderr)
        return 2
    steps = Steps(root)
    work_root = os.path.join(root, ".hostbench_work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(dir=work_root)
    try:
        steps.run("gen.py", args.workload, str(args.seed), work, "--scale", str(args.scale))
        if not args.trace:
            steps.run("setup_probe.py")  # compiles bytecode in a fresh checkout; not counted
        ops = json.loads(steps.run(
            "ops.py", work, "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--setup-runs", str(0 if args.trace else SETUP_RUNS),
        ))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale,
        "operations": ops["attempted"], "timed_samples": ops["samples"],
        "traced_samples": ops.get("traced_samples", 0),
        "op_wall_s": ops["op_wall_s"], "op_slowdown": ops["op_slowdown"],
        "setup_wall_s": ops["setup_wall_s"],
        "host": {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
                 "python": ops["python"], "numpy": ops["numpy"]},
        "span_calls_per_op": ops.get("calls"),
    }
    print(json.dumps(details))
    print(json.dumps({
        "correct": ops["correct"],
        "attempted": ops["attempted"],
        "failed": ops["failed"],
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in ops["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
