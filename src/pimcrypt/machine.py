"""Deterministic model of a rank-organized near-memory machine.

The machine consists of ranks of DPUs. Each DPU is a multithreaded in-order
core whose pipeline only retires one instruction per cycle once enough
hardware threads (tasklets) are resident; below that threshold throughput
scales with the tasklet count. Each DPU owns a small WRAM scratchpad and a
large MRAM backing store; kernels stream data MRAM -> WRAM cache -> compute
-> MRAM, and an MRAM access has a fixed floor cost so small transfers are
disproportionately expensive. The host reaches DPUs through per-rank
transfer channels with direction-dependent bandwidth.

Everything here is closed-form and pure: a simulation is a function of
(profile, workload, cost) and never looks at wall clocks, so results are
bit-reproducible anywhere. This module prices work; it never executes
crypto — functional results come from the kernel modules.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Iterable, Literal

from .errors import CapacityError, MramAccessError, ProfileError

TransferDirection = Literal["to_dpu", "from_dpu"]


@dataclass(frozen=True)
class MachineProfile:
    """Every parameter of the simulated machine, in base units (bytes, Hz)."""

    dpus_per_rank: int
    num_ranks: int
    usable_dpus: int
    dpu_frequency: float            # Hz
    max_tasklets: int
    pipeline_saturation_tasklets: int
    wram_bytes: int
    mram_bytes: int
    iram_bytes: int
    cpu_to_dpu_bandwidth_per_rank: float   # bytes/second, per rank channel
    dpu_to_cpu_bandwidth_per_rank: float   # bytes/second, per rank channel
    host_prepare_rate: float               # bytes/second, host-side staging
    mram_fixed_cycles: float               # floor cost of one MRAM access
    mram_cycles_per_byte: float
    max_mram_access_bytes: int

    def violations(self) -> list[str]:
        """Invariant violations as human-readable strings (empty if valid)."""
        bad = []
        if self.usable_dpus > self.dpus_per_rank * self.num_ranks:
            bad.append(
                "usable_dpus exceeds dpus_per_rank * num_ranks "
                f"({self.usable_dpus} > {self.dpus_per_rank * self.num_ranks})"
            )
        if self.pipeline_saturation_tasklets > self.max_tasklets:
            bad.append("pipeline_saturation_tasklets exceeds max_tasklets")
        if self.max_mram_access_bytes % 8:
            bad.append("max_mram_access_bytes must be a multiple of 8")
        for f in dataclasses.fields(self):
            if getattr(self, f.name) <= 0:
                bad.append(f"{f.name} must be strictly positive")
        return bad

    def validate(self) -> "MachineProfile":
        bad = self.violations()
        if bad:
            raise ProfileError("; ".join(bad))
        return self

    def to_json(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_json(cls, doc: dict) -> "MachineProfile":
        """Parse a profile object; unknown or missing fields are rejected."""
        return _parse_fields(cls, doc, "profile").validate()


def parse_number(where: str, name: str, value: object, integer: bool) -> int | float:
    """Check one numeric config value: a finite JSON number, whole if integer."""
    try:
        finite = not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        finite = False
    if not finite:
        raise ProfileError(f"{where} field {name} must be a finite number")
    if integer and value != int(value):
        raise ProfileError(f"{where} field {name} must be an integer")
    return int(value) if integer else float(value)


def _parse_fields(cls, doc: object, where: str):
    """Build a numeric dataclass from a JSON object holding exactly its
    fields (plus an optional free-text "notes")."""
    if not isinstance(doc, dict):
        raise ProfileError(f"{where} must be a JSON object")
    fields = {f.name: f.type for f in dataclasses.fields(cls)}
    unknown = set(doc) - set(fields) - {"notes"}
    if unknown:
        raise ProfileError(f"unknown {where} fields: {sorted(unknown)}")
    missing = set(fields) - set(doc)
    if missing:
        raise ProfileError(f"missing {where} fields: {sorted(missing)}")
    return cls(**{
        name: parse_number(where, name, doc[name], ftype == "int")
        for name, ftype in fields.items()
    })


def default_profile() -> MachineProfile:
    """Profile of the reference machine: the bundled config's machine section.

    Topology, memory sizes and the 11-tasklet saturation point describe the
    real hardware generation being modeled. Transfer bandwidths, the host
    staging rate and the MRAM access constants are model calibration
    parameters (the hardware is characterized qualitatively: linear
    transfer scaling, a strong to/from asymmetry, and a fixed MRAM floor
    cost); they are chosen so the scaling-experiment shapes reproduce, and
    absolute times carry no hardware claim.
    """
    return bundled_default_config().machine


@dataclass(frozen=True)
class KernelCost:
    """Per-unit cost of a kernel; a unit is one 16-byte AES block or one
    64-byte hash block."""

    instructions_per_unit: float
    mram_read_bytes_per_unit: float
    mram_write_bytes_per_unit: float
    wram_cache_bytes: int
    unit_bytes: int

    def validate(self, profile: MachineProfile, tasklets: int) -> "KernelCost":
        if self.instructions_per_unit <= 0 or self.unit_bytes <= 0:
            raise ProfileError("kernel cost instruction/unit sizes must be positive")
        if self.mram_read_bytes_per_unit < 0 or self.mram_write_bytes_per_unit < 0:
            raise ProfileError("kernel cost MRAM traffic must be non-negative")
        if self.wram_cache_bytes <= 0 or self.wram_cache_bytes % 8:
            # the cache is refilled in whole 8-byte MRAM accesses
            raise ProfileError("wram_cache_bytes must be a positive multiple of 8")
        if self.wram_cache_bytes * tasklets > profile.wram_bytes:
            raise CapacityError(
                f"{tasklets} tasklets x {self.wram_cache_bytes} B cache "
                f"exceeds WRAM ({profile.wram_bytes} B)"
            )
        return self


@dataclass(frozen=True)
class DpuWorkload:
    """Work assigned to one DPU: how many units, spread over how many tasklets."""

    dpu_id: int
    total_units: int
    tasklets: int


EVENT_KINDS = (
    "prepare_start",
    "prepare_end",
    "transfer_to_start",
    "transfer_to_end",
    "launch",
    "kernel_end",
    "transfer_from_start",
    "transfer_from_end",
)


@dataclass(frozen=True)
class TimelineEvent:
    time: float
    rank: int
    kind: str


@dataclass(frozen=True)
class ExecutionTimeline:
    """Timestamped per-rank events of one job, sorted by time."""

    events: tuple[TimelineEvent, ...]

    @property
    def makespan(self) -> float:
        return max((e.time for e in self.events), default=0.0)

    @property
    def ranks(self) -> tuple[int, ...]:
        return tuple(sorted({e.rank for e in self.events}))

    def rank_events(self, rank: int) -> dict[str, float]:
        return {e.kind: e.time for e in self.events if e.rank == rank}

    def phase_intervals(self, start_kind: str, end_kind: str) -> list[tuple[float, float]]:
        """Per-rank (start, end) pairs for one phase, where both ends exist."""
        spans = []
        for rank in self.ranks:
            ev = self.rank_events(rank)
            if start_kind in ev and end_kind in ev:
                spans.append((ev[start_kind], ev[end_kind]))
        return spans


def busy_time(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length of the union of intervals (overlap counted once)."""
    spans = sorted(intervals)
    total = 0.0
    cur_start = cur_end = None
    for start, end in spans:
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def effective_ipc(tasklets: int, profile: MachineProfile) -> float:
    """Pipeline throughput in instructions/cycle for a given tasklet count.

    The pipeline is full (one instruction retired per cycle) at the
    saturation threshold and above; below it, throughput is proportional
    to the resident tasklet count.
    """
    if not 1 <= tasklets <= profile.max_tasklets:
        raise ValueError(
            f"tasklets must be in 1..{profile.max_tasklets}, got {tasklets}"
        )
    sat = profile.pipeline_saturation_tasklets
    return min(tasklets, sat) / sat


def mram_access_cycles(nbytes: int, profile: MachineProfile) -> float:
    """Cycle cost of one MRAM access: a fixed floor, linear beyond it."""
    if nbytes <= 0 or nbytes > profile.max_mram_access_bytes:
        raise MramAccessError(
            f"MRAM access of {nbytes} B outside 1..{profile.max_mram_access_bytes}"
        )
    if nbytes % 8:
        raise MramAccessError(f"MRAM access of {nbytes} B is not 8-byte aligned")
    return max(profile.mram_fixed_cycles, profile.mram_cycles_per_byte * nbytes)


def _align8(nbytes: int) -> int:
    return (nbytes + 7) & ~7


def _streamed_access_cycles(total_bytes: float, chunk: int, profile: MachineProfile) -> float:
    """Cycles to stream total_bytes through WRAM in chunk-sized accesses.

    Partial trailing chunks are rounded up to the 8-byte DMA granule.
    """
    if total_bytes <= 0:
        return 0.0
    whole = math.ceil(total_bytes)
    full, rem = divmod(whole, chunk)
    cycles = full * mram_access_cycles(chunk, profile)
    if rem:
        cycles += mram_access_cycles(_align8(rem), profile)
    return cycles


def simulate_dpu_kernel(
    workload: DpuWorkload, cost: KernelCost, profile: MachineProfile
) -> float:
    """Kernel time in seconds for one DPU.

    Units are divided among tasklets as evenly as possible, remainder to
    the lowest tasklet ids. Compute cycles are total work divided by the
    pipeline throughput; MRAM cycles are accumulated per tasklet as it
    refills its private WRAM cache, and all tasklets' accesses serialize
    on the single MRAM port.
    """
    if workload.total_units < 0:
        raise ValueError("total_units must be non-negative")
    cost.validate(profile, workload.tasklets)
    ipc = effective_ipc(workload.tasklets, profile)
    if workload.total_units == 0:
        return 0.0

    compute_cycles = workload.total_units * cost.instructions_per_unit / ipc

    chunk = min(cost.wram_cache_bytes, profile.max_mram_access_bytes)
    base, rem = divmod(workload.total_units, workload.tasklets)
    mram_cycles = 0.0
    for t in range(workload.tasklets):
        units = base + (1 if t < rem else 0)
        if units == 0:
            continue
        mram_cycles += _streamed_access_cycles(
            units * cost.mram_read_bytes_per_unit, chunk, profile
        )
        mram_cycles += _streamed_access_cycles(
            units * cost.mram_write_bytes_per_unit, chunk, profile
        )
    return (compute_cycles + mram_cycles) / profile.dpu_frequency


def simulate_rank_kernel(
    workloads: list[DpuWorkload], cost: KernelCost, profile: MachineProfile
) -> float:
    """Rank kernel time: DPUs run independently, the slowest one finishes last."""
    return max(
        (simulate_dpu_kernel(w, cost, profile) for w in workloads), default=0.0
    )


def simulate_transfer(
    bytes_per_dpu: list[int], direction: TransferDirection, profile: MachineProfile
) -> float:
    """Time of one batched rank transfer in the given direction.

    All per-DPU buffers of the rank move as a single batched operation over
    the rank channel, so the time is the byte sum over the directional
    bandwidth.
    """
    if any(b < 0 for b in bytes_per_dpu):
        raise ValueError("per-DPU byte counts must be non-negative")
    total = sum(bytes_per_dpu)
    if direction == "to_dpu":
        bw = profile.cpu_to_dpu_bandwidth_per_rank
    elif direction == "from_dpu":
        bw = profile.dpu_to_cpu_bandwidth_per_rank
    else:
        raise ValueError(f"unknown transfer direction: {direction!r}")
    return total / bw


# ---------------------------------------------------------------------------
# Config documents: a machine profile plus optional kernel-cost, host and
# experiment sections, shared by the CLI and the benchmark harness.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Config:
    machine: MachineProfile
    kernel_costs: dict[str, KernelCost]
    host: dict[str, float]
    experiments: dict[str, dict]


def _section(doc: dict, name: str) -> dict:
    section = doc.get(name, {})
    if not isinstance(section, dict):
        raise ProfileError(f"config section {name} must be a JSON object")
    return section


def parse_config(doc: dict) -> Config:
    """Parse a config document; accepts a bare profile object as well."""
    if not isinstance(doc, dict):
        raise ProfileError("config document must be a JSON object")
    if "machine" not in doc:
        # bare machine-profile document
        return Config(
            machine=MachineProfile.from_json(doc),
            kernel_costs={},
            host={},
            experiments={},
        )
    known = {"machine", "kernel_costs", "host", "experiments", "notes"}
    unknown = set(doc) - known
    if unknown:
        raise ProfileError(f"unknown config sections: {sorted(unknown)}")
    return Config(
        machine=MachineProfile.from_json(doc["machine"]),
        kernel_costs={
            name: _parse_fields(KernelCost, entry, f"kernel cost {name}")
            for name, entry in _section(doc, "kernel_costs").items()
            if name != "notes"
        },
        host={
            k: parse_number("host", k, v, integer=False)
            for k, v in _section(doc, "host").items()
            if k != "notes"
        },
        experiments=dict(_section(doc, "experiments")),
    )


def load_config(path: str) -> Config:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ProfileError(f"config is not valid JSON: {exc}") from exc
    return parse_config(doc)


@lru_cache(maxsize=1)
def bundled_default_config() -> Config:
    """The config shipped with the package (profiles/default.json).

    Cached: callers share the returned object and must not mutate it.
    """
    text = resources.files("pimcrypt").joinpath("profiles/default.json").read_text()
    return parse_config(json.loads(text))
