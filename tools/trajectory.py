"""Planner layer curves of pimcrypt on the host clock, checked and written as JSON.

Run from the root of a source checkout:

    python3 tools/trajectory.py --out BENCH_<n>.json
    python3 tools/trajectory.py --out BENCH_<n>.json --src parent=../old/src --src change=src

Each --src NAME=DIR is a pimcrypt source tree (default: change=src). Each
of ROUNDS rounds measures each tree once, in a fresh child process, and the
trees take turns going first, so two trees are compared in alternating
pairs under the same host load. The curves, each point timed over
REPETITIONS calls with time.perf_counter after one untimed warm-up call:

* plan_job at 1, 10 and 40 ranks for both algorithms, on bench's own
  rank_scaling workloads under that experiment's first strategy;
* simulate_rank_kernel on a whole machine's 40 x 64 grid holding 1, 2, 35
  and 2,560 distinct (units, tasklets) pairs;
* run_experiment(include_baseline=False) for each experiment and algorithm.

Every output is checked, so a fast wrong planner does not read as a win:
each experiment's CSV against hostbench/fingerprints.json (read only), each
plan_job makespan against its row of that experiment, and each rank-kernel
result against the slowest DPU of each rank priced one by one. The file
records, per tree, the medians and quartiles of every point over all
rounds, each round's medians, the commit and whether its tree is dirty,
the SHA-256 of the measured source (source_digest, which names an
uncommitted tree too), whether every check passed and the failures; and
the host facts.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FINGERPRINTS = os.path.join(ROOT, "hostbench", "fingerprints.json")
ROUNDS = 6
REPETITIONS = 20
PLAN_RANKS = (1, 10, 40)
RANK_KERNEL_PAIRS = (1, 2, 35, 2560)


def _timed(call, repetitions: int) -> list[float]:
    """Seconds of each of repetitions calls, after one untimed warm-up call."""
    call()
    samples = []
    for _ in range(repetitions):
        start = time.perf_counter()
        call()
        samples.append(time.perf_counter() - start)
    return samples


def _point(bench, spec, value: int, machine) -> tuple:
    """bench._point(spec, value, machine), also in a tree from before it,
    where bench._workload_for and bench._topology gave the two halves."""
    if not hasattr(bench, "_point"):
        return bench._workload_for(spec, value), bench._topology(spec, value, machine)
    return bench._point(spec, value, machine)


def measure(repetitions: int) -> dict:
    """Every curve's per-call samples, and every check that failed, for the
    pimcrypt this process imports."""
    import numpy as np

    from pimcrypt import bench, machine, orchestrator

    with open(FINGERPRINTS, encoding="utf-8") as fh:
        recorded = json.load(fh)["workloads"]["paper-sweep"]["csv_sha256"]
    config = machine.bundled_default_config()
    samples: dict[str, dict[str, list[float]]] = {
        "plan_job": {}, "simulate_rank_kernel": {}, "run_experiment": {}}
    failures: list[str] = []
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        for algorithm in machine.ALGORITHMS:
            for experiment in machine.EXPERIMENTS:
                name = f"{algorithm}/{experiment}"
                spec = machine.ExperimentSpec.from_config(experiment, {"algorithm": algorithm})
                samples["run_experiment"][name] = _timed(
                    lambda: bench.run_experiment(spec, config, include_baseline=False),
                    repetitions)
                results[name] = bench.run_experiment(spec, config, include_baseline=False)
                path = os.path.join(tmp, f"{algorithm}-{experiment}.csv")
                bench.emit_csv(results[name], path)
                with open(path, "rb") as fh:
                    if hashlib.sha256(fh.read()).hexdigest() != recorded[name]:
                        failures.append(f"run_experiment {name}: CSV differs from its fingerprint")

    for algorithm in machine.ALGORITHMS:
        result = results[f"{algorithm}/rank_scaling"]
        spec, strategy = result.spec, result.spec.strategies[0]
        for n_ranks in PLAN_RANKS:
            workload, topology = _point(bench, spec, n_ranks, config.machine)

            def plan():
                return orchestrator.plan_job(workload, strategy=strategy, config=config,
                                             **topology)

            samples["plan_job"][f"{algorithm}/{n_ranks}"] = _timed(plan, repetitions)
            row = next(r for r in result.rows
                       if r.sweep_value == n_ranks and r.strategy is strategy)
            if plan().makespan != row.total_s:
                failures.append(f"plan_job {algorithm} at {n_ranks} ranks: makespan differs "
                                "from its rank_scaling row")

    cost, shape = config.kernel_costs["aes128"], (40, 64)
    rng = np.random.default_rng(0)
    for pairs in RANK_KERNEL_PAIRS:
        # pair i is (i + 1 units, 1 + i % 24 tasklets), dealt to DPUs in a shuffled order
        which = rng.permutation(np.arange(shape[0] * shape[1]) % pairs).reshape(shape)
        units, tasklets = which + 1, 1 + which % 24
        samples["simulate_rank_kernel"][str(pairs)] = _timed(
            lambda: machine.simulate_rank_kernel(units, tasklets, cost, config.machine),
            repetitions)
        slowest = [
            max(machine.simulate_dpu_kernel(u, t, cost, config.machine) for u, t in zip(*rank))
            for rank in zip(units.tolist(), tasklets.tolist())
        ]
        if machine.simulate_rank_kernel(units, tasklets, cost, config.machine) != slowest:
            failures.append(f"simulate_rank_kernel with {pairs} pairs: a rank is not its "
                            "slowest DPU")
    return {"samples": samples, "failures": failures, "numpy": np.__version__}


def _git(src: str, *args: str) -> str | None:
    try:
        done = subprocess.run(["git", "-C", src, *args], capture_output=True, text=True,
                              check=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout


def source_digest(src: str) -> str:
    """SHA-256 over the path and bytes of every .py file of the pimcrypt
    package under src, in path order."""
    digest = hashlib.sha256()
    package = os.path.join(src, "pimcrypt")
    for name in sorted(n for n in os.listdir(package) if n.endswith(".py")):
        with open(os.path.join(package, name), "rb") as fh:
            digest.update(f"{name}\0".encode() + fh.read() + b"\0")
    return digest.hexdigest()


def _cpu_model() -> str:
    """The CPU model as hostbench/run.py records it."""
    spec = importlib.util.spec_from_file_location(
        "hostbench_run", os.path.join(ROOT, "hostbench", "run.py"))
    run_py = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_py)
    return run_py.cpu_model()


def _spread(values: list[float]) -> dict[str, float]:
    if len(values) < 2:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median_s": median, "q1_s": q1, "q3_s": q3, "samples": len(values)}


def run(trees: list[tuple[str, str]], repetitions: int, rounds: int) -> dict:
    """Measure each (name, src) tree once per round, in a child process,
    alternating which goes first, and summarize every curve point."""
    rounds_of = {name: [] for name, _ in trees}
    for r in range(rounds):
        for name, src in trees if r % 2 == 0 else trees[::-1]:
            env = dict(os.environ, PYTHONPATH=src)
            done = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--child", str(repetitions)],
                env=env, stdout=subprocess.PIPE, text=True, check=True, timeout=600,
            )
            rounds_of[name].append(json.loads(done.stdout.splitlines()[-1]))
    runs = {}
    for name, src in trees:
        measured = rounds_of[name]
        curves = {}
        for curve, points in measured[0]["samples"].items():
            curves[curve] = {
                point: {**_spread([s for m in measured for s in m["samples"][curve][point]]),
                        "round_medians_s": [statistics.median(m["samples"][curve][point])
                                            for m in measured]}
                for point in points
            }
        failures = sorted({f for m in measured for f in m["failures"]})
        head, status = _git(src, "rev-parse", "HEAD"), _git(src, "status", "--porcelain")
        runs[name] = {
            "commit": head.strip() if head else None,
            "dirty": bool(status.strip()) if status is not None else None,
            "source_sha256": source_digest(src),
            "correct": not failures,
            "failures": failures,
            "curves": curves,
        }
    return {
        "repetitions": repetitions,
        "rounds": rounds,
        "host": {"nproc": os.cpu_count(), "cpu_model": _cpu_model(),
                 "python": platform.python_version(),
                 "numpy": rounds_of[trees[0][0]][0]["numpy"]},
        "runs": runs,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="JSON file to write")
    parser.add_argument("--src", action="append", metavar="NAME=DIR",
                        help="a pimcrypt source tree to measure (repeatable; default change=src)")
    parser.add_argument("--child", type=int, metavar="REPETITIONS", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:  # one measurement, of the pimcrypt on PYTHONPATH
        print(json.dumps(measure(args.child)))
        return 0
    if not args.out:
        parser.error("--out is required")
    trees = []
    for item in args.src or [f"change={os.path.join(ROOT, 'src')}"]:
        name, sep, src = item.partition("=")
        if not sep or name in dict(trees) or not os.path.isfile(
                os.path.join(src, "pimcrypt", "__init__.py")):
            parser.error(f"--src {item!r} is not NAME=DIR with a new NAME and DIR holding pimcrypt")
        trees.append((name, os.path.abspath(src)))
    report = run(trees, REPETITIONS, ROUNDS)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0 if all(r["correct"] for r in report["runs"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
