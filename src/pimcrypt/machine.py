"""Deterministic model of a rank-organized near-memory machine.

The machine consists of ranks of DPUs. Each DPU is a multithreaded in-order
core whose pipeline only retires one instruction per cycle once enough
hardware threads (tasklets) are resident; below that threshold throughput
scales with the tasklet count. Each DPU owns a small WRAM scratchpad and a
large MRAM backing store; each tasklet streams its data MRAM -> WRAM ->
compute -> MRAM in accesses of at most max_mram_access_bytes, and an MRAM
access has a fixed floor cost so small transfers are disproportionately
expensive. The host reaches DPUs through per-rank
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
from collections import abc
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from itertools import chain
from operator import index, le
from typing import Iterable, Literal, Sequence

import numpy as np

from . import aes, costs, sha256
from .errors import MramAccessError, ProfileError

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

    def __post_init__(self) -> None:
        _require(
            (self.usable_dpus <= self.dpus_per_rank * self.num_ranks,
             "usable_dpus exceeds dpus_per_rank * num_ranks "
             f"({self.usable_dpus} > {self.dpus_per_rank * self.num_ranks})"),
            (self.pipeline_saturation_tasklets <= self.max_tasklets,
             "pipeline_saturation_tasklets exceeds max_tasklets"),
            (self.max_mram_access_bytes % 8 == 0, "max_mram_access_bytes must be a multiple of 8"),
            # every tasklet of a job may hold one whole MRAM access in WRAM
            (self.max_tasklets * self.max_mram_access_bytes <= self.wram_bytes,
             "max_tasklets * max_mram_access_bytes exceeds wram_bytes "
             f"({self.max_tasklets} * {self.max_mram_access_bytes} > {self.wram_bytes})"),
            *((getattr(self, f.name) > 0, f"{f.name} must be strictly positive")
              for f in dataclasses.fields(self)),
        )


def _require(*checks: tuple[object, str]) -> None:
    """Raise one ProfileError naming each problem whose check is false."""
    bad = [problem for ok, problem in checks if not ok]
    if bad:
        raise ProfileError("; ".join(bad))


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
    is rejected. A value check the record fails is prefixed with where."""
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
    values = {name: _parse_value(where, name, ftype, doc[name]) for name, ftype in fields.items()}
    try:
        return cls(**derived, **values)
    except ProfileError as exc:  # the record's own value checks, named by where
        raise ProfileError(f"{where}: {exc}") from None


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
        try:  # a list of JSON integers that floats hold, as parse_number takes them, in one pass
            if set(map(type, value)) <= {int} and all(map(math.isfinite, value)):
                return tuple(value)
        except OverflowError:
            pass
        # a float, or a value parse_number rejects, value by value
        return tuple(parse_number(where, name, v, integer=True) for v in value)
    try:
        return tuple(Strategy.parse(v) for v in value)
    except ValueError as exc:
        raise ProfileError(f"{where} field {name}: {exc}") from None


def _reject_unknown(names: Iterable[str], known: Iterable[str], what: str) -> None:
    unknown = set(names) - set(known) - {"notes"}
    if unknown:
        raise ProfileError(f"unknown {what}: {sorted(unknown)}, valid: {', '.join(known)}")


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
    64-byte hash block. Its values are checked when it is built. A config
    takes each kernel's cost from its code (see _derived_costs); a library
    caller may build and price any other."""

    instructions_per_unit: float
    mram_read_bytes_per_unit: float
    mram_write_bytes_per_unit: float

    def __post_init__(self) -> None:
        _require(
            (self.instructions_per_unit > 0, "instructions_per_unit must be positive"),
            (min(self.mram_read_bytes_per_unit, self.mram_write_bytes_per_unit) >= 0,
             "MRAM traffic must be non-negative"),
        )


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


class Columns(abc.Sequence):
    """Columns of one float per rank that cannot change: Columns(columns)
    keeps its own copy of each column as a list, and column k reads as a
    tuple made on access. Columns with equal values are equal.

    A planner's columns are never copied to tuples: that costs a copy per
    column, and CPython 3.11 keeps every freed 20-item tuple on a free
    list that it never takes from.
    """

    __slots__ = ("_lists",)
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, columns: Iterable[Iterable[float]]) -> None:
        self._lists = [list(column) for column in columns]

    @classmethod
    def _adopt(cls, lists: list[list[float]]) -> "Columns":
        """Columns of lists that no one else holds, kept without a copy."""
        held = cls.__new__(cls)
        held._lists = lists
        return held

    def __len__(self) -> int:
        return len(self._lists)

    def __getitem__(self, k: int) -> tuple[float, ...]:
        return tuple(self._lists[index(k)])  # a slice would hand out the lists

    def __eq__(self, other: object) -> bool:
        return self._lists == other._lists if isinstance(other, Columns) else NotImplemented

    def __repr__(self) -> str:
        return repr(tuple(self))


class ExecutionTimeline:
    """Event times of one job: columns[k][r] is when rank r's EVENT_KINDS[k]
    event happens, and phase k runs from column 2k to column 2k + 1. Every
    rank has every event, at a finite time. Timelines with equal times are
    equal.

    ExecutionTimeline(times) reads a (ranks, 8) array of times, and
    from_columns takes the 8 columns; columns is a Columns, which cannot
    change, and times is the same as a read-only (ranks, 8) float64 array,
    built on first access.
    """

    __hash__ = None  # type: ignore[assignment]

    def __init__(self, times: Iterable[Iterable[float]]) -> None:
        array = np.array(times, dtype=np.float64)
        if array.ndim != 2 or array.shape[1] != len(EVENT_KINDS):
            raise ValueError(f"timeline times must be a (ranks, {len(EVENT_KINDS)}) array")
        self._hold(Columns._adopt(array.T.tolist()))

    @classmethod
    def from_columns(cls, columns: Iterable[Iterable[float]]) -> "ExecutionTimeline":
        """The timeline of 8 columns of one time per rank."""
        timeline = cls.__new__(cls)
        timeline._hold(columns if isinstance(columns, Columns) else Columns(columns))
        return timeline

    def _hold(self, columns: Columns) -> None:
        """Keep columns; a time that is not finite raises ValueError. Finite
        times have a finite sum unless it overflows, and only then is each
        time tested. The sum starts from 0.0, so an int that no float holds
        raises OverflowError, as math.isfinite of it does."""
        lists = columns._lists
        if not (math.isfinite(sum(chain.from_iterable(lists), 0.0))
                or all(map(math.isfinite, chain.from_iterable(lists)))):
            raise ValueError("timeline times must be finite")
        self.columns, self._times = columns, None
        # whether every rank starts at or after 0 and never goes back, read
        # by makespan and validate_timeline: adjacent columns side by side,
        # a column given twice being in order with itself
        self._in_order = min(lists[0], default=0.0) >= 0 and all(
            a is b or all(map(le, a, b)) for a, b in zip(lists, lists[1:]))

    @property
    def times(self) -> np.ndarray:
        if self._times is None:
            self._times = np.array(self.columns._lists, dtype=np.float64).T.copy()
            self._times.flags.writeable = False
        return self._times

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExecutionTimeline):
            return NotImplemented
        return self.columns == other.columns

    def __repr__(self) -> str:
        return f"ExecutionTimeline(times={self.times.tolist()!r})"

    @property
    def makespan(self) -> float:
        """The latest time, 0.0 for an empty timeline. A timeline in order
        ends in its last column; a latest time of 0.0 is sought over every
        column, as which zero comes first sets its sign."""
        columns = self.columns._lists
        if not columns[0]:
            return 0.0
        if self._in_order and (latest := max(columns[-1])):
            return latest
        return max(map(max, columns))

    def phase_intervals(self, phase: int) -> list[tuple[float, float]]:
        """Per-rank (start, end) pairs of phase 0..3, in rank order."""
        columns = self.columns._lists
        return list(zip(columns[2 * phase], columns[2 * phase + 1]))


def busy_time(intervals: Iterable[Sequence[float]]) -> float:
    """Total length of the union of (start, end) intervals (overlap counted
    once), adding each merged stretch in start order to 0.0."""
    spans = iter(sorted(intervals))
    first = next(spans, None)
    if first is None:
        return 0.0
    total = 0.0
    cur_start, cur_end = first
    for start, end in spans:
        if start > cur_end:
            total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    return total + (cur_end - cur_start)


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
    streams its share through WRAM in max_mram_access_bytes accesses, and
    all tasklets' accesses serialize on the single MRAM port.
    """
    if units < 0:
        raise ValueError("units must be non-negative")
    ipc = effective_ipc(tasklets, profile)
    if units == 0:
        return 0.0

    compute_cycles = units * cost.instructions_per_unit / ipc

    chunk = profile.max_mram_access_bytes
    base, rem = divmod(units, tasklets)
    mram_cycles = 0.0
    # the first rem tasklets take base + 1 units, the rest base. Each share
    # that a tasklet holds is priced once but still added once per tasklet,
    # never multiplied, so the float sum rounds exactly as a per-tasklet
    # loop does
    for share, count in ((base + 1, rem), (base, tasklets - rem)):
        if share == 0 or count == 0:
            continue
        read = _streamed_access_cycles(share * cost.mram_read_bytes_per_unit, chunk, profile)
        write = _streamed_access_cycles(share * cost.mram_write_bytes_per_unit, chunk, profile)
        for _ in range(count):
            mram_cycles += read
            mram_cycles += write
    return (compute_cycles + mram_cycles) / profile.dpu_frequency


def simulate_rank_kernel(
    units: Sequence[Sequence[int]], tasklets: Sequence[Sequence[int]],
    cost: KernelCost, profile: MachineProfile,
) -> list[float]:
    """Kernel time of each rank of a job; row r of units and tasklets holds
    the (units, tasklets) pairs of rank r's DPUs, or of its distinct ones.

    The DPUs of a rank run independently and the rank finishes with its
    slowest one (0.0 for a rank of none). A DPU's time depends only on its
    pair, so each distinct pair of the job is priced once, in the order of
    its first DPU (row-major): the first invalid pair raises first. A job
    of one pair is priced once, with no walk over its DPUs.
    """
    counts = set().union(*tasklets)
    if len(counts) == 1 and len(sizes := set().union(*units)) == 1:
        seconds = simulate_dpu_kernel(*sizes, *counts, cost, profile)
        return [seconds if rank else 0.0 for rank in units]
    priced: dict[tuple[int, int], float] = {}
    times = []
    for rank in map(zip, units, tasklets):
        slowest = 0.0
        for pair in dict.fromkeys(rank):  # the rank's distinct pairs, in DPU order
            seconds = priced.get(pair)
            if seconds is None:
                seconds = priced[pair] = simulate_dpu_kernel(*pair, cost, profile)
            if seconds > slowest:
                slowest = seconds
        times.append(slowest)
    return times


def simulate_transfer(
    total_bytes: int | Sequence[int], direction: TransferDirection, profile: MachineProfile
) -> float | list[float]:
    """Time of one batched rank transfer in the given direction, or a list
    of each rank's given a sequence of rank totals; a negative total raises
    ValueError.

    All per-DPU buffers of the rank move as a single batched operation over
    the rank channel, so the time is the rank's byte total over the
    directional bandwidth.
    """
    many = hasattr(total_bytes, "__len__")
    if (min(total_bytes, default=0) if many else total_bytes) < 0:
        raise ValueError("a rank's byte total must be non-negative")
    if direction == "to_dpu":
        bw = profile.cpu_to_dpu_bandwidth_per_rank
    elif direction == "from_dpu":
        bw = profile.dpu_to_cpu_bandwidth_per_rank
    else:
        raise ValueError(f"unknown transfer direction: {direction!r}")
    return [total / bw for total in total_bytes] if many else total_bytes / bw


# ---------------------------------------------------------------------------
# Config documents: a machine profile plus host and experiment sections,
# shared by the CLI and the benchmark harness. parse_config alone reads
# them and returns a complete Config: a section or entry the document
# leaves out is the bundled one, and each kernel's cost comes from its
# code. Each record checks its values when built, so a bad value fails at
# load.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HostProfile:
    """Roofline parameters of the host CPU the kernels are plotted against."""

    peak_ops_per_second: float
    peak_bandwidth_bytes_per_second: float

    @property
    def ridge_point(self) -> float:
        return self.peak_ops_per_second / self.peak_bandwidth_bytes_per_second

    def __post_init__(self) -> None:
        _require(*((getattr(self, f.name) > 0, f"{f.name} must be strictly positive")
                   for f in dataclasses.fields(self)))


class Strategy(enum.Enum):
    SYNC = "sync"
    ASYNC_RANK_TRANSFER = "async_rank_transfer"   # pim1
    ASYNC_RANK_EXECUTION = "async_rank_execution"  # pim2

    @classmethod
    def parse(cls, name: str) -> "Strategy":
        try:
            return STRATEGY_NAMES[str(name).lower()]
        except KeyError:
            raise ValueError(
                f"unknown strategy {name!r}, valid: {', '.join(STRATEGY_NAMES)}") from None


# every name a strategy goes by: its value, and pim1/pim2 for the async ones
STRATEGY_NAMES = {
    "sync": Strategy.SYNC,
    "pim1": Strategy.ASYNC_RANK_TRANSFER,
    "pim2": Strategy.ASYNC_RANK_EXECUTION,
    "async_rank_transfer": Strategy.ASYNC_RANK_TRANSFER,
    "async_rank_execution": Strategy.ASYNC_RANK_EXECUTION,
}


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment configuration.

    buffer_bytes (AES) and message_bytes/message_count (hashing) describe
    the workload at the granularity the experiment sweeps: total size for
    tasklet and strong scaling, per-DPU size for weak scaling, per-rank
    size for rank scaling. from_config overlays a user's experiment entry
    on the bundled one. experiment is the entry's name, and strategies is
    set only for rank_scaling: the other experiments run on one rank,
    where every strategy gives the same schedule, so they run sync alone.
    tasklet_scaling sweeps tasklets, so it may not set them either: its
    tasklets is a placeholder 0, which bench._point overwrites with the
    sweep value at every point.
    """

    experiment: str
    algorithm: str
    buffer_bytes: int
    message_bytes: int
    message_count: int
    sweep: tuple[int, ...]
    strategies: tuple[Strategy, ...]
    tasklets: int

    def __post_init__(self) -> None:
        sweep = list(self.sweep)
        _require(
            (self.experiment in EXPERIMENTS, f"experiment must be one of {', '.join(EXPERIMENTS)}"),
            (self.algorithm in ALGORITHMS, f"algorithm must be one of {', '.join(ALGORITHMS)}"),
            (sweep, "sweep must not be empty"),
            (min(sweep, default=1) > 0 and sweep == sorted(sweep),
             "sweep values must be positive and sorted"),
            (len(set(sweep)) == len(sweep), "sweep values must be distinct"),
            (self.strategies, "strategies must not be empty"),
            (len(set(self.strategies)) == len(self.strategies), "strategies must be distinct"),
            (self.buffer_bytes >= aes.BLOCK_BYTES and self.buffer_bytes % aes.BLOCK_BYTES == 0,
             f"buffer_bytes must be a positive multiple of {aes.BLOCK_BYTES}"),
            (min(self.message_bytes, self.message_count) >= 1,
             "message_bytes and message_count must be at least 1"),
        )

    @classmethod
    def from_config(cls, experiment: str, section: dict | None) -> "ExperimentSpec":
        """The experiment's config entry (None for none) overlaid field by
        field on the bundled one, parsed and checked."""
        if experiment not in EXPERIMENTS:
            raise ProfileError(f"unknown experiment {experiment!r}, valid: {', '.join(EXPERIMENTS)}")
        where = f"experiment {experiment}"
        if section is not None and not isinstance(section, dict):
            raise ProfileError(f"{where} must be a JSON object")
        entry = {**_bundled_doc()["experiments"][experiment], **(section or {})}
        derived: dict[str, object] = {"experiment": experiment}
        axis = EXPERIMENTS[experiment][0]
        if axis != "n_ranks":
            derived["strategies"] = (Strategy.SYNC,)
        if axis == "tasklets":
            derived["tasklets"] = 0  # a placeholder; the sweep sets tasklets
        return _parse_fields(cls, entry, where, derived)


@lru_cache(maxsize=1)
def _derived_costs() -> dict[str, KernelCost]:
    """Each kernel's cost, by name in ALGORITHMS, worked out from its code
    once per process. The op counts are measured by pimcrypt.costs, a unit
    reads its own bytes and AES writes its block back. plan_job sets
    sha256's write per job; the value here is a 32-byte digest spread over
    a 32 KiB message's padded blocks."""
    return {
        "aes128": KernelCost(
            instructions_per_unit=float(costs.aes_instructions_per_block()),
            mram_read_bytes_per_unit=float(aes.BLOCK_BYTES),
            mram_write_bytes_per_unit=float(aes.BLOCK_BYTES),
        ),
        "sha256": KernelCost(
            instructions_per_unit=float(costs.sha256_instructions_per_block()),
            mram_read_bytes_per_unit=float(sha256.BLOCK_BYTES),
            mram_write_bytes_per_unit=sha256.DIGEST_BYTES / sha256.padded_block_count(32 << 10),
        ),
    }


@dataclass(frozen=True)
class Config:
    machine: MachineProfile
    kernel_costs: dict[str, KernelCost]  # one per name in ALGORITHMS
    host: HostProfile
    experiments: dict[str, ExperimentSpec]  # one per name in EXPERIMENTS


_CONFIG_SECTIONS = ("machine", "host", "experiments")


def parse_config(doc: object) -> Config:
    """Parse a config document into a complete Config; a bare profile
    object, one that names no config section, is read as {"machine": doc}.

    A host section or experiment entry that the document leaves out is the
    bundled one; an experiment entry that it gives is overlaid field by
    field on the bundled entry. The kernel costs are _derived_costs().
    """
    if not isinstance(doc, dict):
        raise ProfileError("config document must be a JSON object")
    if "machine" not in doc:
        named = sorted(doc.keys() & _CONFIG_SECTIONS)
        if named:
            raise ProfileError(
                f"config document has no machine section (it has {', '.join(named)})")
        doc = {"machine": doc}
    _reject_unknown(doc, _CONFIG_SECTIONS, "config sections")
    experiments = doc.get("experiments", {})
    if not isinstance(experiments, dict):
        raise ProfileError("config section experiments must be a JSON object")
    _reject_unknown(experiments, EXPERIMENTS, "experiments")
    return Config(
        machine=_parse_fields(MachineProfile, doc["machine"], "profile"),
        kernel_costs=dict(_derived_costs()),
        host=_parse_fields(HostProfile, doc.get("host", _bundled_doc()["host"]), "host"),
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
    return json.loads(resources.files(__package__).joinpath("profiles/default.json").read_text())


@lru_cache(maxsize=1)
def bundled_default_config() -> Config:
    """The config shipped with the package; cached, so callers must not mutate it."""
    return parse_config(_bundled_doc())
