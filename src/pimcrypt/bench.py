"""Scaling experiments, host baseline measurement, kernel characterization.

Four experiments sweep one plan_job argument each (machine.EXPERIMENTS) and
report modeled per-phase times, one row per (sweep value, strategy); a
sweep value is priced once and rescheduled for each strategy. Only
rank_scaling lists strategies; the others run on one rank, under sync:

* tasklet_scaling — fixed workload on a single DPU, tasklet count swept.
* strong_scaling  — fixed total workload, DPU count swept within one rank.
* weak_scaling    — fixed per-DPU workload, DPU count swept within one rank.
* rank_scaling    — fixed per-rank workload, rank count swept, optionally
  alongside a host software baseline.

All experiment times are outputs of the deterministic machine model, so a
result is reproducible bit-for-bit from (spec, config); only
run_host_baseline touches a wall clock, timing the median of
BASELINE_REPETITIONS runs on data drawn from BASELINE_SEED. Results
serialize to CSV with the fixed column set
sweep,kernel_s,to_dpu_s,from_dpu_s,prepare_s,total_s,baseline_s.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import aes, sha256
from . import machine as mc
from .aes import aes128_encrypt_buffer, key_expansion
from .errors import ProfileError
from .machine import ExperimentSpec, HostProfile, Strategy
from .orchestrator import (
    AesWorkload,
    SameLengths,
    ShaWorkload,
    plan_job,
    validate_timeline,
)
from .sha256 import sha256_many

CSV_COLUMNS = ("sweep", "kernel_s", "to_dpu_s", "from_dpu_s", "prepare_s", "total_s", "baseline_s")


# bytes of workload the host software baseline is measured on
BASELINE_CAP_BYTES = 1 << 20
# seed of the generator that draws the host baseline's data
BASELINE_SEED = 20250808
# timed runs the host baseline takes the median of
BASELINE_REPETITIONS = 5


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


def _point(spec: ExperimentSpec, value: int,
           machine: mc.MachineProfile) -> tuple[AesWorkload | ShaWorkload, dict[str, int]]:
    """plan_job's workload and topology at one sweep value: the spec's
    workload, scaled by value if EXPERIMENTS says it grows with the sweep,
    on one full rank (one DPU for tasklet scaling) with the swept argument
    set. A workload larger than all the machine's MRAM is rejected before
    it is built; a hashing one's equal lengths are SameLengths, which
    partition_sha prices from the one length."""
    axis, grows = mc.EXPERIMENTS[spec.experiment]
    scale = value if grows else 1
    aes_job = spec.algorithm == "aes128"
    nbytes = (spec.buffer_bytes if aes_job else spec.message_bytes * spec.message_count) * scale
    if nbytes > machine.usable_dpus * machine.mram_bytes:
        raise ProfileError(
            f"a {nbytes} B workload exceeds the MRAM of all {machine.usable_dpus} DPUs")
    topology = {
        "n_ranks": 1,
        "dpus_per_rank": 1 if axis == "tasklets" else machine.dpus_per_rank,
        "tasklets": spec.tasklets,
    }
    topology[axis] = value
    if aes_job:
        return AesWorkload(nbytes), topology
    return ShaWorkload(SameLengths(spec.message_bytes, spec.message_count * scale)), topology


def run_experiment(
    spec: ExperimentSpec,
    config: mc.Config | None = None,
    include_baseline: bool = True,
) -> ExperimentResult:
    """Plan the spec's workload at every sweep value under every strategy.

    _point gives plan_job's workload and topology at each sweep value. Each
    is priced once, by plan_job under the first strategy; a strategy
    changes only the schedule, so each other strategy's plan is
    plan.rescheduled(s). No row comes from a plan whose timeline fails
    validate_timeline. Rows are ordered by sweep value, one per strategy
    (in spec order) at each value, and carry the kernel speedup over the
    first row. Every point is planned before anything is measured, so the
    first point that _point or the planner rejects fails the run.
    The experiment whose axis is n_ranks (rank_scaling) alone spans several
    ranks, so it alone lists strategies, records them and, unless
    include_baseline is false, a host software baseline: the median of
    BASELINE_REPETITIONS runs on about BASELINE_CAP_BYTES (whole messages,
    for hashing), extrapolated linearly per byte.
    """
    if config is None:
        config = mc.bundled_default_config()
    axis = mc.EXPERIMENTS[spec.experiment][0]
    rows: list[ExperimentRow] = []
    for value in spec.sweep:
        workload, topology = _point(spec, value, config.machine)
        plan = plan_job(workload, strategy=spec.strategies[0], config=config, **topology)
        for strategy in spec.strategies:
            if strategy is not plan.strategy:
                plan = plan.rescheduled(strategy)
            violations = validate_timeline(plan.timeline)
            if violations:
                raise RuntimeError("planner produced an invalid timeline: "
                                   + "; ".join(map(str, violations)))
            prepare, to_dpu, kernel, from_dpu = plan.phase_times
            rows.append(ExperimentRow(
                sweep_value=value,
                strategy=strategy,
                kernel_s=kernel,
                to_dpu_s=to_dpu,
                from_dpu_s=from_dpu,
                prepare_s=prepare,
                total_s=plan.makespan,
                speedup=(rows[0].kernel_s if rows else kernel) / kernel if kernel else None,
                bytes_to_dpu=plan.payload_bytes_to_dpu,
                bytes_from_dpu=plan.payload_bytes_from_dpu,
            ))
    meta: dict[str, object] = {
        "experiment": spec.experiment,
        "algorithm": spec.algorithm,
        "seed": BASELINE_SEED,
        "generator": "numpy-default_rng",
    }
    if axis == "n_ranks":
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
    measure = partial(run_host_baseline, spec.algorithm, workload)
    rate = measure(threads=1) / measured_bytes
    meta["baseline"] = (
        f"single-thread software, measured at {measured_bytes} B, "
        "extrapolated per byte"
    )
    meta["baseline_s_per_byte_1_thread"] = rate
    n_cores = os.cpu_count() or 1
    if n_cores > 1:
        meta["baseline_s_per_byte_all_cores"] = measure(threads=n_cores) / measured_bytes
    return rate


def run_host_baseline(
    algorithm: str,
    workload: int | tuple[int, int],
    threads: int = 1,
) -> float:
    """Wall-clock time of the production kernels on this host, the median
    of BASELINE_REPETITIONS runs.

    workload is a byte count (encryption) or (message_bytes, message_count)
    (hashing). The workload content is drawn by a generator seeded with
    BASELINE_SEED, so repeated calls measure identical work. Values are
    host-dependent by nature; no contract is attached to them beyond output
    correctness.
    """
    if threads > 1:  # imported here, so a CLI run without threads never pays for it
        from concurrent.futures import ThreadPoolExecutor
    rng = np.random.default_rng(BASELINE_SEED)
    if algorithm == "aes128":
        whole = rng.integers(0, 256, int(workload), dtype=np.uint8).tobytes()
        ks = key_expansion(rng.integers(0, 256, 16, dtype=np.uint8).tobytes())
        kernel, join, unit = partial(aes128_encrypt_buffer, ks=ks), b"".join, aes.BLOCK_BYTES
    elif algorithm == "sha256":
        msg_bytes, count = workload
        whole = [rng.integers(0, 256, msg_bytes, dtype=np.uint8).tobytes() for _ in range(count)]
        kernel, join, unit = sha256_many, lambda parts: [d for part in parts for d in part], 1
    else:
        raise ProfileError(f"unknown algorithm {algorithm!r}")
    # threads in-order pieces of whole units: AES blocks, or messages
    cuts = [len(whole) // unit * t // threads * unit for t in range(threads)] + [len(whole)]
    pieces = [whole[a:b] for a, b in zip(cuts, cuts[1:])]

    def job():
        if threads <= 1:
            return kernel(whole)
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return join(pool.map(kernel, pieces))

    reference_out = kernel(whole)
    times = []
    for _ in range(BASELINE_REPETITIONS):
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
    if algorithm not in mc.ALGORITHMS:
        raise ProfileError(f"unknown algorithm {algorithm!r}")
    if host is None:
        host = mc.bundled_default_config().host
    block_bytes = aes.BLOCK_BYTES if algorithm == "aes128" else sha256.BLOCK_BYTES
    intensity = cost.instructions_per_unit / block_bytes
    ridge = host.ridge_point
    return KernelCharacterization(
        operations_per_byte=intensity,
        machine_ridge_point=ridge,
        classification="memory_bound" if intensity < ridge else "compute_bound",
    )


def _format_value(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def emit_csv(result: ExperimentResult, path: str) -> None:
    """Write a result as CSV: '#'-prefixed metadata, header, one row per entry."""
    lines = []
    for key, value in result.metadata.items():
        lines.append(f"# {key}={value}")
    lines.append(",".join(CSV_COLUMNS))
    for row in result.rows:
        lines.append(",".join((str(row.sweep_value),
                               *(_format_value(getattr(row, c)) for c in CSV_COLUMNS[1:]))))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
