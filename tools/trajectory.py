"""Planner layer curves of pimcrypt on the host clock, checked and written as JSON.

Run from the root of a source checkout:

    python3 tools/trajectory.py --out BENCH_<n>.json
    python3 tools/trajectory.py --out BENCH_<n>.json --src parent=../old/src --src change=src

Each --src NAME=DIR is a pimcrypt source tree (default: change=src), NAME a
Python identifier. Every tree's package is copied to a temporary directory
as pimcrypt_<NAME>, and one child process imports them all side by side, so
the trees are timed under the same host load. Each curve point is timed
over REPETITIONS rounds with time.perf_counter, after one untimed warm-up
call of each tree; in a round every tree makes one call, and every other
round takes the trees in reverse order (A B B A ...). The curves:

* plan_job at 1, 10 and 40 ranks for both algorithms, on bench's own
  rank_scaling workloads under that experiment's first strategy;
* schedule: those plans at 1, 10 and 40 ranks rescheduled under each
  strategy, replace(plan, strategy=s), and the new timeline checked by
  validate_timeline;
* simulate_rank_kernel on a whole machine's 40 x 64 grid holding 1, 2, 35
  and 2,560 distinct (units, tasklets) pairs, given as one list per rank;
* run_experiment(include_baseline=False) for each experiment and algorithm;
* sweep: one whole hostbench paper-sweep operation, the 8 calls
  cli.main(["bench", "--experiment", E, ..., "--no-baseline"]) for each
  experiment and algorithm, writing into a temporary directory.

Every output is checked, so a fast wrong planner does not read as a win:
each experiment's CSV, from run_experiment and from the sweep, against
hostbench/fingerprints.json (read only), each
plan_job and schedule makespan against its row of that experiment (and
each schedule against validate_timeline), and each rank-kernel result
against the slowest DPU of each rank priced one by one. The file records,
per tree, the median and quartiles of every point's samples, the commit
and whether its source tree has uncommitted changes (dirty; files outside
it do not count), the SHA-256 of the measured source (source_digest, which
names an uncommitted tree too), whether every check passed and the
failures; and the host facts. Each tree after the first (the
baseline) is compared with it round by round: per point, the median and
quartiles of the ratios tree / baseline of the two calls in one round, and
the share of rounds in which the tree was faster.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import importlib
import importlib.util
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from functools import partial
from importlib import resources

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FINGERPRINTS = os.path.join(ROOT, "hostbench", "fingerprints.json")
REPETITIONS = 120
PLAN_RANKS = (1, 10, 40)
RANK_KERNEL_PAIRS = (1, 2, 35, 2560)


def _alternated(calls: dict[str, object], repetitions: int) -> dict[str, list[float]]:
    """Seconds of each tree's call in each of repetitions rounds, after one
    untimed warm-up call of each; odd rounds take the trees in reverse."""
    for call in calls.values():
        call()
    names = list(calls)
    samples: dict[str, list[float]] = {name: [] for name in names}
    for r in range(repetitions):
        for name in names if r % 2 == 0 else names[::-1]:
            call = calls[name]
            start = time.perf_counter()
            call()
            samples[name].append(time.perf_counter() - start)
    return samples


def _file_sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _sweep_calls(machine, package: str, work: str) -> tuple[list[list[str]], dict[str, str]]:
    """The cli.main argument lists of one paper-sweep operation, as
    hostbench/gen.py makes them (the sha256 ones under a copy of the
    bundled config whose every experiment is set to sha256), writing under
    work, and the path of each CSV by algorithm/experiment."""
    calls, csvs = [], {}
    for algorithm in machine.ALGORITHMS:
        config = []
        if algorithm != "aes128":
            doc = json.loads(resources.files(package).joinpath("profiles/default.json")
                             .read_text())
            for section in doc["experiments"].values():
                section["algorithm"] = algorithm
            path = os.path.join(work, f"{algorithm}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            config = ["--config", path]
        out_dir = os.path.join(work, algorithm)
        for experiment in machine.EXPERIMENTS:
            calls.append(["bench", "--experiment", experiment, *config, "--out-dir", out_dir,
                          "--no-baseline"])
            csvs[f"{algorithm}/{experiment}"] = os.path.join(out_dir, f"{experiment}.csv")
    return calls, csvs


def _sweep(cli, calls: list[list[str]]) -> list[int]:
    """The exit code of each call of a paper-sweep operation, its output discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return [cli.main(argv) for argv in calls]


def _points(package: str, recorded: dict[str, str], work: str) -> tuple[dict, list[str]]:
    """The curve points of one imported pimcrypt package, each a call to
    time, and every check of their outputs that failed; the sweep point
    writes under work, which must outlast the timing."""
    import numpy as np

    bench, cli, machine, orchestrator = (
        importlib.import_module(f"{package}.{module}")
        for module in ("bench", "cli", "machine", "orchestrator"))
    config = machine.bundled_default_config()
    points: dict[str, dict] = {"plan_job": {}, "schedule": {}, "simulate_rank_kernel": {},
                               "run_experiment": {}, "sweep": {}}
    failures: list[str] = []
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        for algorithm in machine.ALGORITHMS:
            for experiment in machine.EXPERIMENTS:
                name = f"{algorithm}/{experiment}"
                spec = machine.ExperimentSpec.from_config(experiment, {"algorithm": algorithm})
                run = partial(bench.run_experiment, spec, config, include_baseline=False)
                points["run_experiment"][name] = run
                results[name] = run()
                path = os.path.join(tmp, f"{algorithm}-{experiment}.csv")
                bench.emit_csv(results[name], path)
                if _file_sha256(path) != recorded[name]:
                    failures.append(f"run_experiment {name}: CSV differs from its fingerprint")

    for algorithm in machine.ALGORITHMS:
        result = results[f"{algorithm}/rank_scaling"]
        spec, strategy = result.spec, result.spec.strategies[0]
        for n_ranks in PLAN_RANKS:
            workload, topology = bench._point(spec, n_ranks, config.machine)
            plan = partial(orchestrator.plan_job, workload, strategy=strategy, config=config,
                           **topology)
            points["plan_job"][f"{algorithm}/{n_ranks}"] = plan
            rows = {r.strategy: r for r in result.rows if r.sweep_value == n_ranks}
            priced = plan()
            if priced.makespan != rows[strategy].total_s:
                failures.append(f"plan_job {algorithm} at {n_ranks} ranks: makespan differs "
                                "from its rank_scaling row")
            for other in spec.strategies:
                name = f"{algorithm}/{n_ranks}/{other.value}"
                schedule = partial(_schedule, orchestrator, priced, other)
                points["schedule"][name] = schedule
                rescheduled, violations = schedule()
                if violations or rescheduled.makespan != rows[other].total_s:
                    failures.append(f"schedule {name}: invalid, or its makespan differs from "
                                    "its rank_scaling row")

    cost, shape = config.kernel_costs["aes128"], (40, 64)
    rng = np.random.default_rng(0)
    for pairs in RANK_KERNEL_PAIRS:
        # pair i is (i + 1 units, 1 + i % 24 tasklets), dealt to DPUs in a shuffled order
        which = rng.permutation(np.arange(shape[0] * shape[1]) % pairs).reshape(shape)
        units, tasklets = which + 1, 1 + which % 24
        price = partial(machine.simulate_rank_kernel, units.tolist(), tasklets.tolist(),
                        cost, config.machine)
        points["simulate_rank_kernel"][str(pairs)] = price
        slowest = [
            max(machine.simulate_dpu_kernel(u, t, cost, config.machine) for u, t in zip(*rank))
            for rank in zip(units.tolist(), tasklets.tolist())
        ]
        if price() != slowest:
            failures.append(f"simulate_rank_kernel with {pairs} pairs: a rank is not its "
                            "slowest DPU")

    calls, csvs = _sweep_calls(machine, package, work)
    sweep = partial(_sweep, cli, calls)
    points["sweep"]["paper-sweep"] = sweep
    if sweep() != [0] * len(calls):
        failures.append("sweep: a bench call exited nonzero")
    for name, path in csvs.items():
        if not os.path.exists(path) or _file_sha256(path) != recorded[name]:
            failures.append(f"sweep {name}: CSV differs from its fingerprint")
    return points, failures


def _schedule(orchestrator, plan, strategy) -> tuple:
    """plan rescheduled under strategy, and validate_timeline of its timeline."""
    rescheduled = dataclasses.replace(plan, strategy=strategy)
    return rescheduled, orchestrator.validate_timeline(rescheduled.timeline)


def measure(packages: dict[str, str], repetitions: int) -> dict:
    """Every curve's per-call samples, and every check that failed, of each
    tree, given as tree name -> the name its pimcrypt package imports by;
    the trees' calls of each point are timed in alternation."""
    import numpy as np

    with open(FINGERPRINTS, encoding="utf-8") as fh:
        recorded = json.load(fh)["workloads"]["paper-sweep"]["csv_sha256"]
    points, failures = {}, {}
    with tempfile.TemporaryDirectory() as work:
        for name, package in packages.items():
            os.mkdir(os.path.join(work, name))
            points[name], failures[name] = _points(package, recorded, os.path.join(work, name))
        first = points[next(iter(packages))]
        samples: dict[str, dict] = {name: {curve: {} for curve in first} for name in packages}
        for curve, curve_points in first.items():
            for point in curve_points:
                timed = _alternated({name: points[name][curve][point] for name in packages},
                                    repetitions)
                for name, values in timed.items():
                    samples[name][curve][point] = values
    return {"samples": samples, "failures": failures, "numpy": np.__version__}


def _git(src: str, *args: str) -> str | None:
    try:
        done = subprocess.run(["git", "-C", src, *args], capture_output=True, text=True,
                              check=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout


def tree_state(src: str) -> tuple[str | None, bool | None]:
    """The commit checked out at src, and whether anything under src (not
    elsewhere in its checkout) differs from it; None for either that git
    cannot tell."""
    head, status = _git(src, "rev-parse", "HEAD"), _git(src, "status", "--porcelain", "--", ".")
    return (head.strip() if head else None,
            bool(status.strip()) if status is not None else None)


def source_digest(src: str) -> str:
    """SHA-256 over the path and bytes of every .py file of the pimcrypt
    package under src, in path order."""
    digest = hashlib.sha256()
    package = os.path.join(src, "pimcrypt")
    for name in sorted(n for n in os.listdir(package) if n.endswith(".py")):
        with open(os.path.join(package, name), "rb") as fh:
            digest.update(f"{name}\0".encode() + fh.read() + b"\0")
    return digest.hexdigest()


def _copy_package(src: str, dest: str, name: str) -> str:
    """Copy src's pimcrypt package into dest as pimcrypt_<name>, and return
    that name."""
    package = f"pimcrypt_{name}"
    shutil.copytree(os.path.join(src, "pimcrypt"), os.path.join(dest, package),
                    ignore=shutil.ignore_patterns("__pycache__"))
    return package


def _cpu_model() -> str:
    """The CPU model as hostbench/run.py records it."""
    spec = importlib.util.spec_from_file_location(
        "hostbench_run", os.path.join(ROOT, "hostbench", "run.py"))
    run_py = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_py)
    return run_py.cpu_model()


def _spread(values: list[float], unit: str = "_s") -> dict[str, float]:
    if len(values) < 2:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {f"median{unit}": median, f"q1{unit}": q1, f"q3{unit}": q3}


def run(trees: list[tuple[str, str]], repetitions: int) -> dict:
    """Measure the (name, src) trees side by side in one child process and
    summarize every curve point of each, and of each tree after the first
    against the first."""
    with tempfile.TemporaryDirectory() as tmp:
        packages = {name: _copy_package(src, tmp, name) for name, src in trees}
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--child",
             json.dumps({"path": tmp, "packages": packages, "repetitions": repetitions})],
            stdout=subprocess.PIPE, text=True, check=True, timeout=1800,
        )
    measured = json.loads(done.stdout.splitlines()[-1])
    baseline = trees[0][0]
    runs = {}
    for name, src in trees:
        curves = {}
        for curve, points in measured["samples"][name].items():
            curves[curve] = {}
            for point, values in points.items():
                summary = {**_spread(values), "samples": len(values)}
                if name != baseline:
                    base = measured["samples"][baseline][curve][point]
                    ratios = [v / b for v, b in zip(values, base)]
                    summary.update(_spread(ratios, unit="_ratio"),
                                   wins=sum(r < 1 for r in ratios) / len(ratios))
                curves[curve][point] = summary
        failures = sorted(measured["failures"][name])
        commit, dirty = tree_state(src)
        runs[name] = {
            "commit": commit,
            "dirty": dirty,
            "source_sha256": source_digest(src),
            "correct": not failures,
            "failures": failures,
            "curves": curves,
        }
    return {
        "repetitions": repetitions,
        "baseline": baseline,
        "host": {"nproc": os.cpu_count(), "cpu_model": _cpu_model(),
                 "python": platform.python_version(), "numpy": measured["numpy"]},
        "runs": runs,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="JSON file to write")
    parser.add_argument("--src", action="append", metavar="NAME=DIR",
                        help="a pimcrypt source tree to measure (repeatable; default change=src)")
    parser.add_argument("--child", metavar="JSON", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:  # one measurement of the copied packages under path
        job = json.loads(args.child)
        sys.path.insert(0, job["path"])
        print(json.dumps(measure(job["packages"], job["repetitions"])))
        return 0
    if not args.out:
        parser.error("--out is required")
    trees = []
    for item in args.src or [f"change={os.path.join(ROOT, 'src')}"]:
        name, sep, src = item.partition("=")
        if not sep or not name.isidentifier() or name in dict(trees) or not os.path.isfile(
                os.path.join(src, "pimcrypt", "__init__.py")):
            parser.error(f"--src {item!r} is not NAME=DIR with a new identifier NAME and "
                         "DIR holding pimcrypt")
        trees.append((name, os.path.abspath(src)))
    report = run(trees, REPETITIONS)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0 if all(r["correct"] for r in report["runs"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
