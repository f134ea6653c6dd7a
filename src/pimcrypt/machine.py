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
import enum
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Iterable, Literal

import numpy as np

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


def _parse_fields(cls, doc: object, where: str, derived: dict | None = None):
    """Build a config dataclass from a JSON object holding exactly its fields
    (plus an optional free-text "notes"), each read by its annotation, but
    those in derived: the parser fills these in, and a document naming one
    is rejected."""
    derived = derived or {}
    if not isinstance(doc, dict):
        raise ProfileError(f"{where} must be a JSON object")
    named = sorted(set(derived) & set(doc))
    if named:
        raise ProfileError(f"{where} field {named[0]} is derived and may not be set")
    fields = {f.name: f.type for f in dataclasses.fields(cls) if f.name not in derived}
    _reject_unknown(doc, fields, f"{where} fields")
    missing = set(fields) - set(doc)
    if missing:
        raise ProfileError(f"missing {where} fields: {sorted(missing)}")
    return cls(**derived, **{
        name: _parse_value(where, name, ftype, doc[name]) for name, ftype in fields.items()
    })


def _parse_value(where: str, name: str, ftype: str, value: object):
    """One field's value: an int, float, str, tuple[int, ...] or
    tuple[Strategy, ...], as its annotation says."""
    if ftype in ("int", "float"):
        return parse_number(where, name, value, integer=ftype == "int")
    if ftype == "str":
        if not isinstance(value, str):
            raise ProfileError(f"{where} field {name} must be a string")
        return value
    if not isinstance(value, (list, tuple)):
        raise ProfileError(f"{where} field {name} must be a list")
    if ftype == "tuple[int, ...]":
        return tuple(parse_number(where, name, v, integer=True) for v in value)
    try:
        return tuple(Strategy.parse(v) for v in value)
    except ValueError as exc:
        raise ProfileError(f"{where} field {name}: {exc}") from None


def _reject_unknown(names: Iterable[str], known: Iterable[str], what: str) -> None:
    unknown = set(names) - set(known) - {"notes"}
    if unknown:
        raise ProfileError(f"unknown {what}: {sorted(unknown)}, valid: {', '.join(known)}")


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


ALGORITHMS = ("aes128", "sha256")  # the kernels a config may price
# the scaling experiments a config may set up:
# name -> (plan_job argument it sweeps, whether the workload grows with it)
EXPERIMENTS = {
    "tasklet_scaling": ("tasklets", False),
    "strong_scaling": ("dpus_per_rank", False),
    "weak_scaling": ("dpus_per_rank", True),
    "rank_scaling": ("n_ranks", True),
}


@dataclass(frozen=True)
class KernelCost:
    """Per-unit cost of a kernel; a unit is one 16-byte AES block or one
    64-byte hash block."""

    instructions_per_unit: float
    mram_read_bytes_per_unit: float
    mram_write_bytes_per_unit: float
    wram_cache_bytes: int

    def validate(self, profile: MachineProfile, tasklets: int) -> "KernelCost":
        if self.instructions_per_unit <= 0:
            raise ProfileError("kernel cost instructions_per_unit must be positive")
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


class ExecutionTimeline:
    """Event times of one job: times[r, k] is when rank r's EVENT_KINDS[k]
    event happens, and phase k runs from column 2k to column 2k + 1.

    times is the timeline, a read-only copy of the (ranks, 8) array given,
    which must be finite: every rank has every event. Timelines with equal
    times are equal.
    """

    __hash__ = None  # type: ignore[assignment]

    def __init__(self, times: Iterable[Iterable[float]]) -> None:
        self.times = np.array(times, dtype=np.float64)
        if self.times.ndim != 2 or self.times.shape[1] != len(EVENT_KINDS):
            raise ValueError(f"timeline times must be a (ranks, {len(EVENT_KINDS)}) array")
        if not np.isfinite(self.times).all():
            raise ValueError("timeline times must be finite")
        self.times.flags.writeable = False

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExecutionTimeline):
            return NotImplemented
        return np.array_equal(self.times, other.times)

    def __repr__(self) -> str:
        return f"ExecutionTimeline(times={self.times.tolist()!r})"

    @property
    def makespan(self) -> float:
        """The latest time in the array, 0.0 for an empty timeline."""
        return float(self.times.max()) if self.times.size else 0.0

    def phase_intervals(self, phase: int) -> list[tuple[float, float]]:
        """Per-rank (start, end) pairs of phase 0..3, in rank order."""
        return list(zip(*self.times[:, 2 * phase:2 * phase + 2].T.tolist()))


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
    if not math.isfinite(total_bytes):
        raise MramAccessError(f"MRAM traffic of {total_bytes} B is not finite")
    if total_bytes <= 0:
        return 0.0
    whole = math.ceil(total_bytes)
    full, rem = divmod(whole, chunk)
    cycles = full * mram_access_cycles(chunk, profile)
    if rem:
        cycles += mram_access_cycles(_align8(rem), profile)
    return cycles


def simulate_dpu_kernel(
    units: int, tasklets: int, cost: KernelCost, profile: MachineProfile
) -> float:
    """Kernel time in seconds for one DPU running units spread over tasklets.

    Units are divided among tasklets as evenly as possible, remainder to
    the lowest tasklet ids. Compute cycles are total work divided by the
    pipeline throughput; MRAM cycles are accumulated per tasklet as it
    refills its private WRAM cache, and all tasklets' accesses serialize
    on the single MRAM port.
    """
    if units < 0:
        raise ValueError("units must be non-negative")
    cost.validate(profile, tasklets)
    ipc = effective_ipc(tasklets, profile)
    if units == 0:
        return 0.0

    compute_cycles = units * cost.instructions_per_unit / ipc

    chunk = min(cost.wram_cache_bytes, profile.max_mram_access_bytes)
    base, rem = divmod(units, tasklets)
    mram_cycles = 0.0
    # the first rem tasklets take base + 1 units, the rest base. Each share
    # is priced once but still added once per tasklet, never multiplied, so
    # the float sum rounds exactly as a per-tasklet loop does
    for share, count in ((base + 1, rem), (base, tasklets - rem)):
        if share == 0:
            continue
        read = _streamed_access_cycles(share * cost.mram_read_bytes_per_unit, chunk, profile)
        write = _streamed_access_cycles(share * cost.mram_write_bytes_per_unit, chunk, profile)
        for _ in range(count):
            mram_cycles += read
            mram_cycles += write
    return (compute_cycles + mram_cycles) / profile.dpu_frequency


def simulate_rank_kernel(
    units: np.ndarray, tasklets: np.ndarray, cost: KernelCost, profile: MachineProfile
) -> list[float]:
    """Kernel time of each rank of a job; row r of the (ranks, DPUs per rank)
    int64 arrays units and tasklets holds rank r's DPUs.

    The DPUs of a rank run independently and the rank finishes with its
    slowest one. A DPU's time depends only on its (units, tasklets) pair, so
    each distinct pair of the job is priced once, in the order of its first
    DPU (row-major): the first invalid pair raises first.
    """
    # one key per pair, as tasklets - low lies in 0..high - low
    low, high = int(tasklets.min(initial=0)), int(tasklets.max(initial=0))
    key = units * (high - low + 1) + (tasklets - low)
    _, first, inverse = np.unique(key.ravel(), return_index=True, return_inverse=True)
    order = np.argsort(first)
    pairs = zip(units.flat[first[order]].tolist(), tasklets.flat[first[order]].tolist())
    times = np.empty(first.size)
    times[order] = [simulate_dpu_kernel(u, t, cost, profile) for u, t in pairs]
    return times[inverse].reshape(units.shape).max(axis=1, initial=0.0).tolist()


def simulate_transfer(
    total_bytes: int | np.ndarray, direction: TransferDirection, profile: MachineProfile
) -> float | np.ndarray:
    """Time of one batched rank transfer in the given direction, or of each
    rank's given an int64 array of rank totals.

    All per-DPU buffers of the rank move as a single batched operation over
    the rank channel, so the time is the rank's byte total over the
    directional bandwidth.
    """
    if (np.asarray(total_bytes) < 0).any():
        raise ValueError("a rank's byte total must be non-negative")
    if direction == "to_dpu":
        bw = profile.cpu_to_dpu_bandwidth_per_rank
    elif direction == "from_dpu":
        bw = profile.dpu_to_cpu_bandwidth_per_rank
    else:
        raise ValueError(f"unknown transfer direction: {direction!r}")
    return total_bytes / bw


# ---------------------------------------------------------------------------
# Config documents: a machine profile plus kernel-cost, host and experiment
# sections, shared by the CLI and the benchmark harness. parse_config alone
# reads them and returns every section complete: a section or entry the
# document leaves out is the bundled one.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HostProfile:
    """Roofline parameters of the host CPU the kernels are plotted against."""

    peak_ops_per_second: float
    peak_bandwidth_bytes_per_second: float

    @property
    def ridge_point(self) -> float:
        return self.peak_ops_per_second / self.peak_bandwidth_bytes_per_second

    @classmethod
    def from_json(cls, doc: dict) -> "HostProfile":
        """Parse a host object; unknown, missing or non-positive fields are rejected."""
        host = _parse_fields(cls, doc, "host")
        for f in dataclasses.fields(cls):
            if getattr(host, f.name) <= 0:
                raise ProfileError(f"host field {f.name} must be strictly positive")
        return host


class Strategy(enum.Enum):
    SYNC = "sync"
    ASYNC_RANK_TRANSFER = "async_rank_transfer"   # pim1
    ASYNC_RANK_EXECUTION = "async_rank_execution"  # pim2

    @classmethod
    def parse(cls, name: str) -> "Strategy":
        aliases = {
            "sync": cls.SYNC,
            "pim1": cls.ASYNC_RANK_TRANSFER,
            "async_rank_transfer": cls.ASYNC_RANK_TRANSFER,
            "pim2": cls.ASYNC_RANK_EXECUTION,
            "async_rank_execution": cls.ASYNC_RANK_EXECUTION,
        }
        try:
            return aliases[str(name).lower()]
        except KeyError:
            raise ValueError(f"unknown strategy {name!r} (use sync, pim1 or pim2)") from None


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
        sweep = list(self.sweep)
        for ok, problem in (
            (self.experiment in EXPERIMENTS, f"must be one of {', '.join(EXPERIMENTS)}"),
            (self.algorithm in ALGORITHMS, f"algorithm must be one of {', '.join(ALGORITHMS)}"),
            (sweep, "sweep must not be empty"),
            (min(sweep, default=1) > 0 and sweep == sorted(sweep),
             "sweep values must be positive and sorted"),
            (self.strategies, "strategies must not be empty"),
            (self.buffer_bytes >= 16 and self.buffer_bytes % 16 == 0,
             "buffer_bytes must be a positive multiple of 16"),
            (min(self.message_bytes, self.message_count) >= 1,
             "message_bytes and message_count must be at least 1"),
            (self.repetitions >= 1, "repetitions must be at least 1"),
            (self.seed >= 0, "seed must not be negative"),
        ):
            if not ok:
                raise ProfileError(f"experiment {self.experiment}: {problem}")
        return self

    def check_machine(self, machine: MachineProfile) -> "ExperimentSpec":
        """Reject a spec whose largest workload is larger than all the
        machine's MRAM, which no plan could hold, before it is allocated."""
        _, scales = EXPERIMENTS[self.experiment]
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
        """The experiment's config entry (None for none) overlaid field by
        field on the bundled one, parsed and validated."""
        if experiment not in EXPERIMENTS:
            raise ProfileError(f"unknown experiment {experiment!r}, valid: {', '.join(EXPERIMENTS)}")
        where = f"experiment {experiment}"
        if section is not None and not isinstance(section, dict):
            raise ProfileError(f"{where} must be a JSON object")
        entry = {**_bundled_doc()["experiments"][experiment], **(section or {})}
        return _parse_fields(cls, entry, where, {"experiment": experiment}).validate()


# Kernel-cost fields plan_job sets per job, and the value a parsed cost holds:
# sha256's 32-byte digest over a 32 KiB message's 513 padded blocks.
_DERIVED_COSTS = {"sha256": {"mram_write_bytes_per_unit": 32 / 513}}


@dataclass(frozen=True)
class Config:
    machine: MachineProfile
    kernel_costs: dict[str, KernelCost]  # one per name in ALGORITHMS
    host: HostProfile
    experiments: dict[str, ExperimentSpec]  # one per name in EXPERIMENTS


def _section(doc: dict, name: str, known: Iterable[str], what: str) -> dict:
    """A section of the document, {} if absent, whose names must be known."""
    section = doc.get(name, {})
    if not isinstance(section, dict):
        raise ProfileError(f"config section {name} must be a JSON object")
    _reject_unknown(section, known, what)
    return section


def parse_config(doc: object) -> Config:
    """Parse a config document into a complete Config; a bare profile
    object is read as {"machine": doc}.

    A host section, kernel_costs entry or experiment entry that the document
    leaves out is the bundled one; an experiment entry that it gives is
    overlaid field by field on the bundled entry.
    """
    if not isinstance(doc, dict):
        raise ProfileError("config document must be a JSON object")
    if "machine" not in doc:
        doc = {"machine": doc}
    _reject_unknown(doc, ("machine", "kernel_costs", "host", "experiments"), "config sections")
    bundled = _bundled_doc()
    costs = {**bundled["kernel_costs"],
             **_section(doc, "kernel_costs", ALGORITHMS, "kernel_costs entries")}
    experiments = _section(doc, "experiments", EXPERIMENTS, "experiments")
    return Config(
        machine=MachineProfile.from_json(doc["machine"]),
        kernel_costs={
            name: _parse_fields(KernelCost, costs[name], f"kernel cost {name}",
                                _DERIVED_COSTS.get(name))
            for name in ALGORITHMS
        },
        host=HostProfile.from_json(doc.get("host", bundled["host"])),
        experiments={
            name: ExperimentSpec.from_config(name, experiments.get(name))
            for name in EXPERIMENTS
        },
    )


def load_config(path: str) -> Config:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ProfileError("config is nested too deeply to parse") from None
        except ValueError as exc:  # not JSON, not UTF-8, or an overlong integer
            raise ProfileError(f"config is not valid JSON: {exc}") from exc
    return parse_config(doc)


@lru_cache(maxsize=1)
def _bundled_doc() -> dict:
    """profiles/default.json as JSON values; cached, so callers must not mutate it."""
    return json.loads(resources.files("pimcrypt").joinpath("profiles/default.json").read_text())


@lru_cache(maxsize=1)
def bundled_default_config() -> Config:
    """The config shipped with the package; cached, so callers must not mutate it."""
    return parse_config(_bundled_doc())
