"""Run one workload's operations through pimcrypt.cli.main and check each one.

Usage:

    python3 hostbench/ops.py WORKDIR --seconds S --trace 0|1

WORKDIR holds the inputs and inputs.json that gen.py wrote. One operation
is the list of cli.main calls in inputs.json. It is timed on the host clock
with time.perf_counter, in this single-threaded process, after one warm-up
operation on the smaller inputs in WORKDIR/warmup, and corrected for the
CPU slowdown the speed probe saw during it. Operations repeat until S
seconds have passed (at least one after the warm-up). With --trace 1
untraced and traced operations alternate, and the spans of the traced ones
give the per-layer metrics. Prints one JSON object on its last line.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from typing import NamedTuple

import numpy as np
from pimcrypt import cli
from pimcrypt import reference as ref

import spans
import speed

SAMPLED_BLOCKS = 32
HERE = os.path.dirname(os.path.abspath(__file__))


def _file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _clear_outputs(expect: dict) -> None:
    paths = list(expect.get("csvs", {}).values())
    paths += [expect[k] for k in ("cipher", "out") if k in expect]
    for path in paths:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)


def check(inputs: dict, printed: str, op_index: int) -> list[str]:
    """Every way this operation's output differs from what it must be."""
    expect, problems = inputs["expect"], []
    if "summary" in expect and printed.splitlines() != expect["summary"]:
        problems.append("modeled summary differs from the recorded fingerprint")
    if "cipher_sha256" in expect:
        if _file_sha256(expect["cipher"]) != expect["cipher_sha256"]:
            problems.append("ciphertext differs from the AES oracle")
        key = bytes.fromhex(expect["key"])
        n_blocks = os.path.getsize(expect["plain"]) // 16
        rng = random.Random(f"{inputs['seed']}:{op_index}")
        with open(expect["plain"], "rb") as pf, open(expect["cipher"], "rb") as cf:
            for block in rng.sample(range(n_blocks), min(SAMPLED_BLOCKS, n_blocks)):
                pf.seek(16 * block)
                cf.seek(16 * block)
                if ref.encrypt_block(pf.read(16), key) != cf.read(16):
                    problems.append(f"block {block} differs from reference.encrypt_block")
                    break
    if "digests" in expect:
        with open(expect["out"], encoding="utf-8") as fh:
            if fh.read().split() != expect["digests"]:
                problems.append("digests differ from hashlib.sha256")
    for name, path in expect.get("csvs", {}).items():
        recorded = expect.get("csv_sha256", {}).get(name)
        if not os.path.exists(path):
            problems.append(f"{name}.csv was not written")
        elif recorded is not None and _file_sha256(path) != recorded:
            problems.append(f"{name}.csv differs from the recorded fingerprint")
    return problems


class Op(NamedTuple):
    seconds: float  # host seconds inside cli.main
    start: float  # perf_counter window of the whole operation
    end: float
    failed: bool


def run_op(inputs: dict, op_index: int) -> Op:
    """One timed operation, its output checked."""
    _clear_outputs(inputs["expect"])
    buf, failed, elapsed = io.StringIO(), False, 0.0
    start = time.perf_counter()
    for argv in inputs["calls"]:
        try:
            with contextlib.redirect_stdout(buf):
                t0 = time.perf_counter()
                code = cli.main(argv)
                elapsed += time.perf_counter() - t0
        except SystemExit as exc:  # argparse rejected the command line
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = -1
        if code != 0:
            print(f"op {op_index}: {argv[0]} exited with {code}", file=sys.stderr)
            failed = True
    end = time.perf_counter()
    problems = [] if failed else check(inputs, buf.getvalue(), op_index)
    for problem in problems:
        print(f"op {op_index}: {problem}", file=sys.stderr)
    return Op(elapsed, start, end, failed or bool(problems))


def setup_probe() -> float:
    """Seconds of set-up in one fresh interpreter."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py")],
        stdout=subprocess.PIPE, check=True, text=True, timeout=60,
    )
    return float(done.stdout.split()[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("work")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-runs", type=int, default=0,
                        help="set-up probes to spread over the timed operations")
    args = parser.parse_args()
    with open(os.path.join(args.work, "inputs.json"), encoding="utf-8") as fh:
        inputs = json.load(fh)
    with open(os.path.join(args.work, "warmup", "inputs.json"), encoding="utf-8") as fh:
        warmup = json.load(fh)
    workload = inputs["workload"]

    ops: list[Op] = []
    traced: list[Op] = []
    tracers: list[spans.Tracer] = []
    setups: list[float] = []
    probe = speed.SpeedProbe()
    with probe:
        ops.append(run_op(warmup, 0))
        start = time.perf_counter()
        while len(ops) < 2 or time.perf_counter() - start < args.seconds:
            ops.append(run_op(inputs, len(ops) + len(traced)))
            if args.trace:
                with spans.Tracer() as tracer:
                    traced.append(run_op(inputs, len(ops) + len(traced)))
                tracers.append(tracer)
            # Set-up is slow or fast in phases of a few seconds, so its
            # samples are spread over the run rather than taken together.
            share = (time.perf_counter() - start) / args.seconds if args.seconds else 1.0
            while len(setups) < math.ceil(args.setup_runs * min(1.0, share)):
                setups.append(setup_probe())
        while len(setups) < args.setup_runs:
            setups.append(setup_probe())

    def corrected(op: Op) -> float:
        return op.seconds / probe.slowdown(op.start, op.end)

    timed, done = ops[1:], ops + traced
    failed = sum(op.failed for op in done)
    result = {
        "attempted": len(done),
        "failed": failed,
        "correct": failed == 0,
        "samples": len(timed),
        "op_wall_s": [op.seconds for op in timed],
        "op_slowdown": [probe.slowdown(op.start, op.end) for op in timed],
        "setup_wall_s": setups,
        "numpy": np.__version__,
        "python": sys.version.split()[0],
    }
    if args.trace:
        summaries = [t.summary(1 / probe.slowdown(op.start, op.end))
                     for t, op in zip(tracers, traced)]
        if tracers[0].unresolved:
            print(f"cannot wrap: {', '.join(tracers[0].unresolved)}", file=sys.stderr)
        missing = spans.missing_spans(workload, summaries)
        unstable = spans.unstable_counts(summaries)
        for what, names in (("missing spans", missing), ("call counts vary", unstable)):
            if names:
                print(f"{what}: {', '.join(names)}", file=sys.stderr)
        result["correct"] = result["correct"] and not missing and not unstable
        result["traced_samples"] = len(traced)
        result["metrics"] = spans.layer_metrics(
            summaries, [corrected(op) for op in timed], [corrected(op) for op in traced]
        )
        result["calls"] = {name: s["calls"] for name, s in summaries[0].items()}
    else:
        result["metrics"] = {
            "op_s": statistics.median(corrected(op) for op in timed),
            "setup_s": statistics.median(setups),
            # ru_maxrss is in KiB on Linux
            "peak_rss_MB": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
