"""Scaling experiments, host baseline measurement, kernel characterization.

Four experiments sweep one axis each and report modeled per-phase times:

* tasklet_scaling — fixed workload on a single DPU, tasklet count swept.
* strong_scaling  — fixed total workload, DPU count swept within one rank.
* weak_scaling    — fixed per-DPU workload, DPU count swept within one rank.
* rank_scaling    — fixed per-rank workload, rank count swept, once per
  orchestration strategy, optionally alongside a host software baseline.

All experiment times are outputs of the deterministic machine model, so a
result is reproducible bit-for-bit from (spec, seed, profile); only
run_host_baseline touches a wall clock. Results serialize to CSV with the
fixed column set sweep,kernel_s,to_dpu_s,from_dpu_s,prepare_s,total_s,
baseline_s.
"""

from __future__ import annotations

import os
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from . import machine as mc
from .aes import aes128_encrypt_buffer, key_expansion
from .errors import ProfileError
from .orchestrator import (
    AesWorkload,
    JobPlan,
    ShaWorkload,
    Strategy,
    plan_job,
    validate_timeline,
)
from .sha256 import sha256_many


EXPERIMENT_NAMES = ("tasklet_scaling", "strong_scaling", "weak_scaling", "rank_scaling")
ALGORITHMS = ("aes128", "sha256")

CSV_COLUMNS = ("sweep", "kernel_s", "to_dpu_s", "from_dpu_s", "prepare_s", "total_s", "baseline_s")


def _checked_plan(workload, **kwargs) -> JobPlan:
    """Plan a job and insist on a valid timeline; experiments never emit
    rows derived from an inconsistent schedule."""
    plan = plan_job(workload, **kwargs)
    violations = validate_timeline(plan.timeline)
    if violations:
        raise RuntimeError(
            "planner produced an invalid timeline: "
            + "; ".join(str(v) for v in violations)
        )
    return plan


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment configuration.

    buffer_bytes (AES) and message_bytes/message_count (hashing) describe
    the workload at the granularity the experiment sweeps: total size for
    tasklet and strong scaling, per-DPU size for weak scaling, per-rank
    size for rank scaling.
    """

    experiment: str
    algorithm: str = "aes128"
    buffer_bytes: int = 8 << 20
    message_bytes: int = 32 << 10
    message_count: int = 1024
    sweep: tuple[int, ...] = ()
    strategies: tuple[Strategy, ...] = (Strategy.SYNC,)
    tasklets: int = 16
    repetitions: int = 1
    seed: int = 20250808

    def validate(self) -> "ExperimentSpec":
        if self.experiment not in EXPERIMENT_NAMES:
            raise ProfileError(
                f"unknown experiment {self.experiment!r}, valid: {', '.join(EXPERIMENT_NAMES)}"
            )
        if self.algorithm not in ALGORITHMS:
            raise ProfileError(f"unknown algorithm {self.algorithm!r}, valid: {', '.join(ALGORITHMS)}")
        if not self.sweep:
            raise ProfileError("sweep must not be empty")
        if any(v <= 0 for v in self.sweep) or list(self.sweep) != sorted(self.sweep):
            raise ProfileError("sweep values must be positive and sorted")
        if self.repetitions < 1:
            raise ProfileError("repetitions must be at least 1")
        return self

    @classmethod
    def from_config(cls, experiment: str, section: dict | None) -> "ExperimentSpec":
        if section is not None and not isinstance(section, dict):
            raise ProfileError(f"experiment {experiment} must be a JSON object")
        entry = dict(section or {})
        entry.setdefault("sweep", _default_sweep(experiment))
        try:
            strategies = tuple(Strategy.parse(s) for s in entry.pop("strategies", ["sync"]))
        except ValueError as exc:
            raise ProfileError(str(exc)) from None
        types = {f.name: f.type for f in fields(cls) if f.name != "experiment"}
        unknown = set(entry) - set(types)
        if unknown:
            raise ProfileError(f"unknown experiment fields: {sorted(unknown)}")
        if not isinstance(entry["sweep"], (list, tuple)):
            raise ProfileError("sweep must be a list of integers")
        entry["sweep"] = tuple(
            mc.parse_number("experiment", "sweep", v, integer=True) for v in entry["sweep"]
        )
        for name, ftype in types.items():
            if ftype == "int" and name in entry:
                entry[name] = mc.parse_number("experiment", name, entry[name], integer=True)
        return cls(experiment=experiment, strategies=strategies, **entry).validate()


def _default_sweep(experiment: str) -> list[int]:
    """The experiment's sweep in the bundled config (empty if it has none)."""
    return mc.bundled_default_config().experiments.get(experiment, {}).get("sweep", [])


@dataclass(frozen=True)
class ExperimentRow:
    sweep_value: int
    strategy: Strategy
    kernel_s: float
    to_dpu_s: float
    from_dpu_s: float
    prepare_s: float
    total_s: float
    baseline_s: float | None = None
    speedup: float | None = None
    bytes_to_dpu: int = 0
    bytes_from_dpu: int = 0


@dataclass
class ExperimentResult:
    spec: ExperimentSpec
    rows: list[ExperimentRow]
    metadata: dict[str, object] = field(default_factory=dict)


def _workload_for(spec: ExperimentSpec, scale: int) -> AesWorkload | ShaWorkload:
    """Workload scaled by the number of workers sharing it (1 = as given)."""
    if spec.algorithm == "aes128":
        return AesWorkload(spec.buffer_bytes * scale)
    return ShaWorkload((spec.message_bytes,) * (spec.message_count * scale))


def _row_from_plan(
    sweep_value: int,
    strategy: Strategy,
    plan: JobPlan,
    speedup: float | None = None,
    baseline_s: float | None = None,
) -> ExperimentRow:
    return ExperimentRow(
        sweep_value=sweep_value,
        strategy=strategy,
        kernel_s=plan.phase_times.kernel,
        to_dpu_s=plan.phase_times.cpu_to_dpu,
        from_dpu_s=plan.phase_times.dpu_to_cpu,
        prepare_s=plan.phase_times.prepare,
        total_s=plan.makespan,
        baseline_s=baseline_s,
        speedup=speedup,
        bytes_to_dpu=plan.payload_bytes_to_dpu,
        bytes_from_dpu=plan.payload_bytes_from_dpu,
    )


def run_tasklet_scaling(
    spec: ExperimentSpec, profile: mc.MachineProfile | None = None
) -> ExperimentResult:
    """Fixed workload on one DPU, sweeping the tasklet count.

    Rows carry the speedup normalized to the first sweep point (one
    tasklet, under the default sweep).
    """
    spec.validate()
    workload = _workload_for(spec, 1)
    plans = [
        _checked_plan(workload, strategy=Strategy.SYNC, n_ranks=1, dpus_per_rank=1,
                      tasklets=t, profile=profile)
        for t in spec.sweep
    ]
    base_kernel = plans[0].phase_times.kernel
    rows = [
        _row_from_plan(t, Strategy.SYNC, plan, speedup=base_kernel / plan.phase_times.kernel)
        for t, plan in zip(spec.sweep, plans)
    ]
    return ExperimentResult(spec=spec, rows=rows, metadata=_metadata(spec))


def run_strong_scaling(
    spec: ExperimentSpec, profile: mc.MachineProfile | None = None
) -> ExperimentResult:
    """Fixed total workload, sweeping the DPU count within one rank."""
    spec.validate()
    workload = _workload_for(spec, 1)
    plans = [
        _checked_plan(workload, strategy=Strategy.SYNC, n_ranks=1, dpus_per_rank=d,
                      tasklets=spec.tasklets, profile=profile)
        for d in spec.sweep
    ]
    base_kernel = plans[0].phase_times.kernel
    rows = [
        _row_from_plan(d, Strategy.SYNC, plan, speedup=base_kernel / plan.phase_times.kernel)
        for d, plan in zip(spec.sweep, plans)
    ]
    return ExperimentResult(spec=spec, rows=rows, metadata=_metadata(spec))


def run_weak_scaling(
    spec: ExperimentSpec, profile: mc.MachineProfile | None = None
) -> ExperimentResult:
    """Fixed per-DPU workload, sweeping the DPU count within one rank."""
    spec.validate()
    rows = []
    for d in spec.sweep:
        plan = _checked_plan(
            _workload_for(spec, d), strategy=Strategy.SYNC, n_ranks=1,
            dpus_per_rank=d, tasklets=spec.tasklets, profile=profile,
        )
        rows.append(_row_from_plan(d, Strategy.SYNC, plan))
    return ExperimentResult(spec=spec, rows=rows, metadata=_metadata(spec))


def run_rank_scaling(
    spec: ExperimentSpec,
    profile: mc.MachineProfile | None = None,
    include_baseline: bool = True,
    baseline_cap_bytes: int = 1 << 20,
) -> ExperimentResult:
    """Fixed per-rank workload, sweeping ranks, once per strategy.

    Rows are ordered by rank count, with one row per strategy (in spec
    order) at each count. The software baseline is measured once at
    baseline_cap_bytes on this host and extrapolated linearly per byte;
    the extrapolation is recorded in the metadata.
    """
    spec.validate()
    baseline_rate = None
    baseline_rate_all_cores = None
    if include_baseline:
        cap = baseline_cap_bytes
        if spec.algorithm == "aes128":
            baseline_workload: int | tuple[int, int] = cap
            measured_bytes = cap
        else:
            count = max(1, cap // spec.message_bytes)
            baseline_workload = (spec.message_bytes, count)
            measured_bytes = spec.message_bytes * count
        reps = max(5, spec.repetitions)
        measured = run_host_baseline(
            spec.algorithm, baseline_workload, threads=1, repetitions=reps,
            seed=spec.seed,
        )
        baseline_rate = measured / measured_bytes  # seconds per byte
        # the row column is the single-thread number; the all-cores rate is
        # recorded alongside for reference
        n_cores = os.cpu_count() or 1
        if n_cores > 1:
            measured_mt = run_host_baseline(
                spec.algorithm, baseline_workload, threads=n_cores,
                repetitions=reps, seed=spec.seed,
            )
            baseline_rate_all_cores = measured_mt / measured_bytes

    rows = []
    for n_ranks in spec.sweep:
        workload = _workload_for(spec, n_ranks)
        for strategy in spec.strategies:
            plan = _checked_plan(
                workload, strategy=strategy, n_ranks=n_ranks,
                tasklets=spec.tasklets, profile=profile,
            )
            baseline_s = (
                baseline_rate * workload.payload_bytes
                if baseline_rate is not None
                else None
            )
            rows.append(_row_from_plan(n_ranks, strategy, plan, baseline_s=baseline_s))
    meta = _metadata(spec)
    meta["strategies"] = ",".join(s.value for s in spec.strategies)
    if baseline_rate is not None:
        meta["baseline"] = (
            f"single-thread software, measured at {baseline_cap_bytes} B, "
            "extrapolated per byte"
        )
        meta["baseline_s_per_byte_1_thread"] = baseline_rate
        if baseline_rate_all_cores is not None:
            meta["baseline_s_per_byte_all_cores"] = baseline_rate_all_cores
    return ExperimentResult(spec=spec, rows=rows, metadata=meta)


def run_experiment(
    spec: ExperimentSpec,
    profile: mc.MachineProfile | None = None,
    include_baseline: bool = True,
) -> ExperimentResult:
    runner = {
        "tasklet_scaling": run_tasklet_scaling,
        "strong_scaling": run_strong_scaling,
        "weak_scaling": run_weak_scaling,
    }
    if spec.experiment == "rank_scaling":
        return run_rank_scaling(spec, profile, include_baseline=include_baseline)
    return runner[spec.experiment](spec, profile)


def _metadata(spec: ExperimentSpec) -> dict[str, object]:
    return {
        "experiment": spec.experiment,
        "algorithm": spec.algorithm,
        "seed": spec.seed,
        "generator": "numpy-default_rng",
    }


def run_host_baseline(
    algorithm: str,
    workload: int | tuple[int, int],
    threads: int = 1,
    repetitions: int = 5,
    seed: int = 20250808,
) -> float:
    """Wall-clock time of the production kernels on this host, median of reps.

    workload is a byte count (encryption) or (message_bytes, message_count)
    (hashing). The workload content is produced by a seeded generator so
    repeated calls measure identical work. Values are host-dependent by
    nature; no contract is attached to them beyond output correctness.
    """
    rng = np.random.default_rng(seed)
    if algorithm == "aes128":
        nbytes = int(workload)
        data = rng.integers(0, 256, nbytes, dtype=np.uint8).tobytes()
        ks = key_expansion(rng.integers(0, 256, 16, dtype=np.uint8).tobytes())
        chunk = max(16, (nbytes // max(1, threads) + 15) // 16 * 16)
        pieces = [data[i : i + chunk] for i in range(0, nbytes, chunk)] or [b""]

        def job():
            if threads <= 1:
                return aes128_encrypt_buffer(data, ks)
            with ThreadPoolExecutor(max_workers=threads) as pool:
                return b"".join(pool.map(lambda p: aes128_encrypt_buffer(p, ks), pieces))

        reference_out = aes128_encrypt_buffer(data, ks)
    elif algorithm == "sha256":
        msg_bytes, count = workload
        msgs = [rng.integers(0, 256, msg_bytes, dtype=np.uint8).tobytes() for _ in range(count)]
        groups = [msgs[i::threads] for i in range(threads)] if threads > 1 else [msgs]

        def job():
            if threads <= 1:
                return sha256_many(msgs)
            with ThreadPoolExecutor(max_workers=threads) as pool:
                results = list(pool.map(sha256_many, groups))
            out = [b""] * len(msgs)
            for t, digests in enumerate(results):
                for j, d in enumerate(digests):
                    out[t + j * threads] = d
            return out

        reference_out = sha256_many(msgs)
    else:
        raise ProfileError(f"unknown algorithm {algorithm!r}")

    times = []
    for _ in range(repetitions):
        start = time.perf_counter()
        out = job()
        times.append(time.perf_counter() - start)
    if out != reference_out:
        raise AssertionError("baseline output diverged from the sequential kernel")
    return statistics.median(times)


@dataclass(frozen=True)
class HostProfile:
    """Roofline parameters of the host CPU the kernels are plotted against."""

    peak_ops_per_second: float
    peak_bandwidth_bytes_per_second: float

    @property
    def ridge_point(self) -> float:
        return self.peak_ops_per_second / self.peak_bandwidth_bytes_per_second


def default_host_profile() -> HostProfile:
    host = mc.bundled_default_config().host
    return HostProfile(
        peak_ops_per_second=host["peak_ops_per_second"],
        peak_bandwidth_bytes_per_second=host["peak_bandwidth_bytes_per_second"],
    )


@dataclass(frozen=True)
class KernelCharacterization:
    operations_per_byte: float
    machine_ridge_point: float
    classification: str  # "memory_bound" | "compute_bound"


def characterize_kernel(
    algorithm: str, cost: mc.KernelCost, host: HostProfile | None = None
) -> KernelCharacterization:
    """Place a kernel on the host roofline by its arithmetic intensity."""
    if algorithm not in ALGORITHMS:
        raise ProfileError(f"unknown algorithm {algorithm!r}")
    if host is None:
        host = default_host_profile()
    intensity = cost.instructions_per_unit / cost.unit_bytes
    ridge = host.ridge_point
    return KernelCharacterization(
        operations_per_byte=intensity,
        machine_ridge_point=ridge,
        classification="memory_bound" if intensity < ridge else "compute_bound",
    )


def _format_value(value: float | int | None) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def emit_csv(result: ExperimentResult, path: str, include_baseline: bool = True) -> None:
    """Write a result as CSV: '#'-prefixed metadata, header, one row per entry."""
    lines = []
    for key, value in result.metadata.items():
        lines.append(f"# {key}={value}")
    lines.append(",".join(CSV_COLUMNS))
    for row in result.rows:
        baseline = row.baseline_s if include_baseline else None
        lines.append(
            ",".join(
                (
                    str(row.sweep_value),
                    _format_value(row.kernel_s),
                    _format_value(row.to_dpu_s),
                    _format_value(row.from_dpu_s),
                    _format_value(row.prepare_s),
                    _format_value(row.total_s),
                    _format_value(baseline),
                )
            )
        )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path: str) -> tuple[dict[str, str], list[dict[str, float | None]]]:
    """Parse a CSV written by emit_csv back into metadata and rows."""
    metadata: dict[str, str] = {}
    rows: list[dict[str, float | None]] = []
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh]
    body: list[str] = []
    for line in lines:
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            metadata[key.strip()] = value
        elif line:
            body.append(line)
    if not body or body[0] != ",".join(CSV_COLUMNS):
        raise ProfileError(f"{path} does not carry the expected CSV header")
    for line in body[1:]:
        cells = line.split(",")
        row: dict[str, float | None] = {}
        for name, cell in zip(CSV_COLUMNS, cells):
            if cell == "":
                row[name] = None
            elif name == "sweep":
                row[name] = int(cell)
            else:
                row[name] = float(cell)
        rows.append(row)
    return metadata, rows
