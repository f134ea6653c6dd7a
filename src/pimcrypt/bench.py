"""Scaling experiments, host baseline measurement, kernel characterization.

Four experiments sweep one plan_job argument each (the _AXES table) and
report modeled per-phase times, one row per (sweep value, strategy):

* tasklet_scaling — fixed workload on a single DPU, tasklet count swept.
* strong_scaling  — fixed total workload, DPU count swept within one rank.
* weak_scaling    — fixed per-DPU workload, DPU count swept within one rank.
* rank_scaling    — fixed per-rank workload, rank count swept, optionally
  alongside a host software baseline.

All experiment times are outputs of the deterministic machine model, so a
result is reproducible bit-for-bit from (spec, config); only
run_host_baseline touches a wall clock. Results serialize to CSV with the
fixed column set sweep,kernel_s,to_dpu_s,from_dpu_s,prepare_s,total_s,
baseline_s.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import machine as mc
from .aes import aes128_encrypt_buffer, key_expansion
from .errors import ProfileError
from .machine import HostProfile
from .orchestrator import (
    AesWorkload,
    JobPlan,
    ShaWorkload,
    Strategy,
    plan_job,
    validate_timeline,
)
from .sha256 import sha256_many


EXPERIMENT_NAMES = mc.EXPERIMENTS
ALGORITHMS = mc.ALGORITHMS

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


def _check_experiment(name: str) -> None:
    if name not in EXPERIMENT_NAMES:
        raise ProfileError(f"unknown experiment {name!r}, valid: {', '.join(EXPERIMENT_NAMES)}")


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment configuration.

    buffer_bytes (AES) and message_bytes/message_count (hashing) describe
    the workload at the granularity the experiment sweeps: total size for
    tasklet and strong scaling, per-DPU size for weak scaling, per-rank
    size for rank scaling. Every field comes from the config: from_config
    overlays a user's experiment entry on the bundled one.
    """

    experiment: str
    algorithm: str
    buffer_bytes: int
    message_bytes: int
    message_count: int
    sweep: tuple[int, ...]
    strategies: tuple[Strategy, ...]
    tasklets: int
    repetitions: int
    seed: int

    def validate(self) -> "ExperimentSpec":
        _check_experiment(self.experiment)
        if self.algorithm not in ALGORITHMS:
            raise ProfileError(f"unknown algorithm {self.algorithm!r}, valid: {', '.join(ALGORITHMS)}")
        if not self.sweep:
            raise ProfileError("sweep must not be empty")
        if any(v <= 0 for v in self.sweep) or list(self.sweep) != sorted(self.sweep):
            raise ProfileError("sweep values must be positive and sorted")
        if not self.strategies:
            raise ProfileError("strategies must not be empty")
        if self.buffer_bytes < 16 or self.buffer_bytes % 16:
            raise ProfileError("buffer_bytes must be a positive multiple of 16")
        if self.message_bytes < 1 or self.message_count < 1:
            raise ProfileError("message_bytes and message_count must be at least 1")
        if self.repetitions < 1:
            raise ProfileError("repetitions must be at least 1")
        if self.seed < 0:
            raise ProfileError("seed must not be negative")
        return self

    def check_machine(self, machine: mc.MachineProfile) -> "ExperimentSpec":
        """Reject a spec whose largest workload is larger than all the
        machine's MRAM, which no plan could hold, before it is allocated."""
        _, scales = _AXES[self.experiment]
        nbytes = (
            self.buffer_bytes if self.algorithm == "aes128"
            else self.message_bytes * self.message_count
        ) * (self.sweep[-1] if scales else 1)
        if nbytes > machine.usable_dpus * machine.mram_bytes:
            raise ProfileError(
                f"a {nbytes} B workload exceeds the MRAM of all {machine.usable_dpus} DPUs"
            )
        return self

    @classmethod
    def from_config(cls, experiment: str, section: dict | None) -> "ExperimentSpec":
        _check_experiment(experiment)
        if section is not None and not isinstance(section, dict):
            raise ProfileError(f"experiment {experiment} must be a JSON object")
        entry = {**mc.bundled_default_config().experiments[experiment], **(section or {})}
        entry.pop("notes", None)  # free text, as in every other config object
        types = {f.name: f.type for f in fields(cls) if f.name != "experiment"}
        unknown = set(entry) - set(types)
        if unknown:
            raise ProfileError(f"unknown experiment fields: {sorted(unknown)}")
        for name in ("sweep", "strategies"):
            if not isinstance(entry[name], (list, tuple)):
                raise ProfileError(f"{name} must be a list")
        try:
            entry["strategies"] = tuple(Strategy.parse(s) for s in entry["strategies"])
        except ValueError as exc:
            raise ProfileError(str(exc)) from None
        entry["sweep"] = tuple(
            mc.parse_number("experiment", "sweep", v, integer=True) for v in entry["sweep"]
        )
        for name, ftype in types.items():
            if ftype == "int":
                entry[name] = mc.parse_number("experiment", name, entry[name], integer=True)
        return cls(experiment=experiment, **entry).validate()


# experiment -> (plan_job argument it sweeps, whether the workload grows with it)
_AXES = {
    "tasklet_scaling": ("tasklets", False),
    "strong_scaling": ("dpus_per_rank", False),
    "weak_scaling": ("dpus_per_rank", True),
    "rank_scaling": ("n_ranks", True),
}


def _topology(spec: ExperimentSpec, value: int, machine: mc.MachineProfile) -> dict[str, int]:
    """plan_job's topology arguments at one sweep value: one full rank, or
    a single DPU for tasklet scaling, with the swept argument set."""
    axis, _ = _AXES[spec.experiment]
    topology = {
        "n_ranks": 1,
        "dpus_per_rank": 1 if axis == "tasklets" else machine.dpus_per_rank,
        "tasklets": spec.tasklets,
    }
    topology[axis] = value
    return topology


# bytes of workload the host software baseline is measured on
BASELINE_CAP_BYTES = 1 << 20


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
    return ShaWorkload(np.full(spec.message_count * scale, spec.message_bytes, dtype=np.int64))


def run_experiment(
    spec: ExperimentSpec,
    config: mc.Config | None = None,
    include_baseline: bool = True,
) -> ExperimentResult:
    """Plan the spec's workload at every sweep value under every strategy.

    _AXES names the plan_job argument swept and _topology the others. Rows are
    ordered by sweep value, one per strategy (in spec order) at each value,
    and carry the kernel speedup over the first row. Every point is planned
    before anything is measured, so a point the planner rejects fails the
    run at once. rank_scaling alone spans several ranks, so it alone records
    the strategies and, unless include_baseline is false, a host software
    baseline measured once on about BASELINE_CAP_BYTES (whole messages, for
    hashing) and extrapolated linearly per byte.
    """
    if config is None:
        config = mc.bundled_default_config()
    spec.validate().check_machine(config.machine)
    _, scales = _AXES[spec.experiment]
    cost = config.kernel_costs.get(spec.algorithm)
    rows: list[ExperimentRow] = []
    for value in spec.sweep:
        topology = _topology(spec, value, config.machine)
        for strategy in spec.strategies:
            # a workload per plan, so no two sweep values' workloads are alive at once
            plan = _checked_plan(
                _workload_for(spec, value if scales else 1),
                strategy=strategy, profile=config.machine, cost=cost, **topology,
            )
            kernel = plan.phase_times.kernel
            rows.append(ExperimentRow(
                sweep_value=value,
                strategy=strategy,
                kernel_s=kernel,
                to_dpu_s=plan.phase_times.cpu_to_dpu,
                from_dpu_s=plan.phase_times.dpu_to_cpu,
                prepare_s=plan.phase_times.prepare,
                total_s=plan.makespan,
                speedup=(rows[0].kernel_s if rows else kernel) / kernel if kernel else None,
                bytes_to_dpu=plan.payload_bytes_to_dpu,
                bytes_from_dpu=plan.payload_bytes_from_dpu,
            ))
    meta = _metadata(spec)
    if spec.experiment == "rank_scaling":
        meta["strategies"] = ",".join(s.value for s in spec.strategies)
        if include_baseline:
            rate = _measure_baseline(spec, meta)
            rows = [replace(row, baseline_s=rate * row.bytes_to_dpu) for row in rows]
    return ExperimentResult(spec=spec, rows=rows, metadata=meta)


def _measure_baseline(spec: ExperimentSpec, meta: dict[str, object]) -> float:
    """Seconds per byte of the single-thread software kernel on this host;
    the all-cores rate is recorded in meta alongside."""
    if spec.algorithm == "aes128":
        workload: int | tuple[int, int] = BASELINE_CAP_BYTES
        measured_bytes = BASELINE_CAP_BYTES
    else:
        count = max(1, BASELINE_CAP_BYTES // spec.message_bytes)
        workload = (spec.message_bytes, count)
        measured_bytes = spec.message_bytes * count
    reps = max(5, spec.repetitions)
    rate = run_host_baseline(
        spec.algorithm, workload, threads=1, repetitions=reps, seed=spec.seed,
    ) / measured_bytes
    meta["baseline"] = (
        f"single-thread software, measured at {measured_bytes} B, "
        "extrapolated per byte"
    )
    meta["baseline_s_per_byte_1_thread"] = rate
    n_cores = os.cpu_count() or 1
    if n_cores > 1:
        meta["baseline_s_per_byte_all_cores"] = run_host_baseline(
            spec.algorithm, workload, threads=n_cores, repetitions=reps,
            seed=spec.seed,
        ) / measured_bytes
    return rate


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
    if threads > 1:  # imported here, so a CLI run without threads never pays for it
        from concurrent.futures import ThreadPoolExecutor
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
    return float(np.median(times))


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
        host = mc.bundled_default_config().host
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


def emit_csv(result: ExperimentResult, path: str) -> None:
    """Write a result as CSV: '#'-prefixed metadata, header, one row per entry."""
    lines = []
    for key, value in result.metadata.items():
        lines.append(f"# {key}={value}")
    lines.append(",".join(CSV_COLUMNS))
    for row in result.rows:
        lines.append(
            ",".join(
                (
                    str(row.sweep_value),
                    _format_value(row.kernel_s),
                    _format_value(row.to_dpu_s),
                    _format_value(row.from_dpu_s),
                    _format_value(row.prepare_s),
                    _format_value(row.total_s),
                    _format_value(row.baseline_s),
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
