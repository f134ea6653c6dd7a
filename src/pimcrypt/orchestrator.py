"""Host-side orchestration: partitioning, key broadcast, execution strategies.

A job takes a workload (an AES buffer or a set of messages to hash), splits
it across the DPUs of one or more ranks, and produces both the functional
result (via the crypto kernels) and a priced ExecutionTimeline (via the
machine model). A partition and a plan hold Python ints and floats:
JobPlan.rank_phases holds the four phase durations, one column per phase
with one entry per rank, and phase k runs from event column 2k to 2k + 1
of the timeline, in which every rank has every event; the phase times,
the makespan and validation are read from those columns. A strategy
changes only the schedule: a JobPlan derives its timeline from its
strategy and rank phases, so plan.rescheduled(s), which equals
replace(plan, strategy=s), reschedules the same priced job. Three
strategies are supported:

* sync — ranks are staged, transferred and drained strictly one after the
  other; all DPUs launch together once every transfer has finished.
* async_rank_transfer (pim1) — the host stages rank data serially but each
  rank's inbound transfer runs on its own channel while the host already
  stages the next rank; all ranks still launch together.
* async_rank_execution (pim2) — each rank is staged and transferred
  synchronously, then launched immediately while the host moves on to the
  next rank, so earlier ranks compute while later ones are still loading.

A rank may never launch before its inbound transfer has completed; overlap
only ever exists across ranks, so with a single rank all three strategies
degenerate to the same schedule. Outbound retrieval in the two async
strategies starts per rank as soon as that rank's kernel ends.

Key expansion always runs on the host (each schedule word depends on the
previous one, so it cannot be spread over workers) and the 176-byte
schedule is broadcast to every DPU exactly once per job, priced as a
transfer ahead of the payload staging.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_left, bisect_right
from collections import abc
from dataclasses import dataclass, field, replace
from itertools import accumulate, chain, repeat
from operator import add, index, mul
from typing import BinaryIO, Iterator, NamedTuple, Sequence

from . import aes
from . import machine as mc
from .aes import EXPANDED_KEY_BYTES, aes128_encrypt_buffer, key_expansion
from .errors import AlignmentError, CapacityError, ProfileError
from .machine import Strategy
from .sha256 import DIGEST_BYTES, MAX_MESSAGE_BYTES, padded_block_count, sha256_many

MRAM_RESERVE_BYTES = 1 << 20  # runtime metadata head-room per DPU
# A file is encrypted through one buffer of this size, a whole number of
# aes.BATCH_BLOCKS batches, so streaming adds no kernel batch
CHUNK_BYTES = 1 << 20


@dataclass(frozen=True)
class AesWorkload:
    """Shape of an encryption job: buffer length in bytes (multiple of 16)."""

    buffer_len: int


@dataclass(frozen=True, eq=False)
class ShaWorkload:
    """Shape of a hashing job: the length of every message, in input order."""

    message_lengths: Sequence[int]


@dataclass(frozen=True)
class SameLengths(abc.Sequence):
    """count message lengths that all equal length, held in O(1) memory;
    partition_sha prices them from the one length."""

    length: int
    count: int

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, i: int) -> int:
        range(self.count)[index(i)]  # an index out of range raises IndexError
        return self.length

    def __iter__(self) -> Iterator[int]:
        return repeat(self.length, self.count)


@dataclass(frozen=True, eq=False)
class PartitionPlan:
    """Per-DPU work assignment as DPU-ordered runs of DPUs with equal
    counts: run i is dpus[i] DPUs in a row, each holding units[i],
    items[i], in_bytes[i] and out_bytes[i], all exact Python ints.

    units are AES blocks or padded hash blocks; items are AES blocks or
    whole messages (messages are never split, their block chain is
    sequential) and cap the tasklets a DPU keeps busy; in_bytes and
    out_bytes are what the DPU receives and returns.
    """

    dpus: list[int]
    units: list[int]
    items: list[int]
    in_bytes: list[int]
    out_bytes: list[int]


def partition_aes(buffer_len: int, n_dpus: int) -> PartitionPlan:
    """Split a block-aligned buffer into contiguous per-DPU slices.

    Block counts differ by at most one across DPUs and the earlier DPUs take
    the extra blocks, so the partition is at most two runs. A block comes
    back the size it went, so in_bytes and out_bytes are one list. The
    length must be a non-negative integer and n_dpus a positive one, each
    read by operator.index with a bool rejected, so a bool or a float is
    rejected, not truncated.
    """
    n_dpus = _integer(n_dpus, "n_dpus must be an integer, got {!r}")
    if n_dpus < 1:
        raise ValueError("n_dpus must be at least 1")
    bounds = "buffer length must be a non-negative integer, got {!r}"
    buffer_len = _integer(buffer_len, bounds)
    if buffer_len < 0:
        raise ValueError(bounds.format(buffer_len))
    if buffer_len % aes.BLOCK_BYTES:
        raise AlignmentError(
            f"buffer length {buffer_len} is not a multiple of {aes.BLOCK_BYTES}")
    dpus, blocks = _spread(buffer_len // aes.BLOCK_BYTES, n_dpus)
    nbytes = [aes.BLOCK_BYTES * n for n in blocks]
    return PartitionPlan(dpus, units=blocks, items=blocks, in_bytes=nbytes, out_bytes=nbytes)


def _integer(value: object, error: str) -> int:
    """operator.index(value), an int, so any object with __index__ is taken;
    a bool, or a value index rejects, raises ValueError(error.format(value))."""
    if not isinstance(value, bool):
        try:
            return index(value)
        except TypeError:
            pass
    raise ValueError(error.format(value))


def _spread(count: int, n_dpus: int) -> tuple[list[int], list[int]]:
    """count split over n_dpus as evenly as possible, the extra ones to the
    earlier DPUs, as runs: the DPUs of each run and the count of each DPU."""
    base, rem = divmod(count, n_dpus)
    return ([rem, n_dpus - rem], [base + 1, base]) if rem else ([n_dpus], [base])


def partition_sha(message_lengths: Sequence[int], n_dpus: int) -> PartitionPlan:
    """Assign whole messages to DPUs round-robin by index: DPU d holds
    messages d, d + n_dpus, ...

    Each length must be an integer in 0..MAX_MESSAGE_BYTES and n_dpus a
    positive one, each read by operator.index with a bool rejected, so a
    bool or a float is rejected, not truncated. SameLengths is priced from its one length, which is
    checked once: each DPU's sums are its message count times it, in at
    most two runs, and no per-message list is made. Other lengths are dealt
    straight into per-DPU sums (see _deal), one run per DPU."""
    n_dpus = _integer(n_dpus, "n_dpus must be an integer, got {!r}")
    if n_dpus < 1:
        raise ValueError("n_dpus must be at least 1")
    bounds = f"message lengths must be integers in 0..{MAX_MESSAGE_BYTES}"
    if isinstance(message_lengths, SameLengths):
        length = _integer(message_lengths.length, bounds)
        if not 0 <= length <= MAX_MESSAGE_BYTES:
            raise ValueError(bounds)
        dpus, messages = _spread(len(message_lengths), n_dpus)
        blocks = padded_block_count(length)
        return PartitionPlan(dpus, [blocks * n for n in messages], messages,
                             [length * n for n in messages], [DIGEST_BYTES * n for n in messages])
    try:
        lengths = list(message_lengths)
        if bool in set(map(type, lengths)):
            raise TypeError
        lengths = list(map(index, lengths))
    except TypeError:
        raise ValueError(bounds) from None
    if lengths and (min(lengths) < 0 or max(lengths) > MAX_MESSAGE_BYTES):
        raise ValueError(bounds)
    base, rem = divmod(len(lengths), n_dpus)
    messages = [base + 1] * rem + [base] * (n_dpus - rem)
    return PartitionPlan([1] * n_dpus, _deal(list(map(padded_block_count, lengths)), n_dpus),
                         messages, _deal(lengths, n_dpus), [DIGEST_BYTES * n for n in messages])


def _deal(values: list[int], n_dpus: int) -> list[int]:
    """Per-DPU sums of values dealt round-robin: DPU d sums values d,
    d + n_dpus, ..., added one round of n_dpus values at a time."""
    sums = [0] * n_dpus
    for start in range(0, len(values), n_dpus):
        dealt = values[start:start + n_dpus]
        sums[:len(dealt)] = map(add, sums, dealt)
    return sums


class PhaseTimes(NamedTuple):
    """Busy time of each phase: the union of that phase's per-rank intervals."""

    prepare: float
    cpu_to_dpu: float
    kernel: float
    dpu_to_cpu: float


# the error of a plan whose durations or times are not all finite
_NON_FINITE = "the model gives a non-finite time: a machine or kernel cost value is out of range"


@dataclass(frozen=True)
class JobPlan:
    """Everything the model derives from a workload before/without running it.

    rank_phases holds each phase's duration per rank, one column per phase
    in PhaseTimes order, as machine.Columns (which the plan builds from any
    other sequence of sequences), so it cannot change. The schedule
    (timeline, makespan, phase_times) is derived on construction from
    strategy, rank_phases and broadcast_seconds, so it always matches them.

    Every duration and broadcast_seconds must be finite and at least 0
    (-0.0 is): a NaN or an infinity raises the non-finite ProfileError,
    and a negative value a ValueError that names it. The phases are
    checked once (see _check_durations), and a plan rescheduled from the
    same rank_phases does not check them again. Such inputs make the
    schedule in order by construction, so the timeline is not checked
    event by event: only its latest time is tested, as a sum may still
    overflow to inf (see ExecutionTimeline._of_schedule).
    """

    strategy: Strategy
    n_ranks: int
    dpus_per_rank: int
    tasklets: int
    rank_phases: mc.Columns = field(compare=False)
    timeline: mc.ExecutionTimeline = field(init=False)
    makespan: float = field(init=False)
    phase_times: PhaseTimes = field(init=False)
    payload_bytes_to_dpu: int
    payload_bytes_from_dpu: int
    broadcast_bytes: int
    broadcast_seconds: float

    def __post_init__(self) -> None:
        if not isinstance(self.strategy, Strategy):
            raise ValueError(f"strategy must be a Strategy, not {self.strategy!r} "
                             f"(Strategy.parse reads the names {', '.join(mc.STRATEGY_NAMES)})")
        rank_phases = self.rank_phases
        if not isinstance(rank_phases, mc.Columns):
            rank_phases = mc.Columns(rank_phases)
            object.__setattr__(self, "rank_phases", rank_phases)
        if not rank_phases._durations_checked:
            _check_durations(rank_phases._lists)
            rank_phases._durations_checked = True
        t0 = self.broadcast_seconds
        if not (t0 >= 0 and math.isfinite(t0)):
            if not math.isfinite(t0):
                raise ProfileError(_NON_FINITE)
            raise ValueError(f"broadcast_seconds must be non-negative, got {t0!r}")
        columns = _schedule(self.strategy, rank_phases._lists, t0)
        try:
            timeline = mc.ExecutionTimeline._of_schedule(mc.Columns._adopt(columns))
        except ValueError:  # a time that overflows to inf
            raise ProfileError(_NON_FINITE) from None
        object.__setattr__(self, "timeline", timeline)
        object.__setattr__(self, "makespan", timeline.makespan)
        object.__setattr__(self, "phase_times", PhaseTimes._make(
            map(mc.busy_time, map(timeline.phase_intervals, range(4)))))

    def rescheduled(self, strategy: Strategy) -> "JobPlan":
        """replace(self, strategy=strategy): the same priced job under
        another strategy, built without replace's walk over the fields."""
        return JobPlan(
            strategy=strategy, n_ranks=self.n_ranks, dpus_per_rank=self.dpus_per_rank,
            tasklets=self.tasklets, rank_phases=self.rank_phases,
            payload_bytes_to_dpu=self.payload_bytes_to_dpu,
            payload_bytes_from_dpu=self.payload_bytes_from_dpu,
            broadcast_bytes=self.broadcast_bytes, broadcast_seconds=self.broadcast_seconds,
        )


@dataclass(frozen=True)
class JobResult:
    """A job: functional output plus the priced timeline.

    output is the ciphertext of a buffer, the digests of messages, or, for
    a file, an iterator that reads, encrypts and yields the ciphertext one
    chunk at a time, so it is consumed once, while the file is open. Every
    chunk is a view of one buffer that the next chunk overwrites, so a
    caller that keeps a chunk copies it (bytes(chunk)).
    """

    output: bytearray | list[bytes] | Iterator[memoryview]
    plan: JobPlan


def _check_durations(rank_phases: list[list[float]]) -> None:
    """Raise unless every duration of rank_phases is finite and at least 0
    (-0.0 is): a NaN or an infinity is the non-finite ProfileError
    (tested by machine._all_finite), and a negative value a ValueError
    naming its phase and rank."""
    if not mc._all_finite(rank_phases):
        raise ProfileError(_NON_FINITE)
    if min(chain.from_iterable(rank_phases), default=0.0) < 0:
        for phase, column in zip(PhaseTimes._fields, rank_phases):
            for rank, t in enumerate(column):
                if t < 0:
                    raise ValueError(
                        f"rank {rank}'s {phase} duration must be non-negative, got {t!r}")


def _sha_cost_for(base: mc.KernelCost, total_messages: int, total_units: int) -> mc.KernelCost:
    """Spread the per-message digest write over that job's hash blocks."""
    if total_units == 0:
        return base
    return replace(base, mram_write_bytes_per_unit=DIGEST_BYTES * total_messages / total_units)


def plan_job(
    workload: AesWorkload | ShaWorkload,
    *,
    strategy: Strategy = Strategy.SYNC,
    n_ranks: int = 1,
    tasklets: int = 16,
    dpus_per_rank: int | None = None,
    config: mc.Config | None = None,
) -> JobPlan:
    """Partition a workload, price each rank's phases and schedule them
    under a strategy; only the schedule depends on the strategy.

    The job is priced on config's machine (the bundled config if None),
    with the kernel cost of the workload's own algorithm;
    dpus_per_rank=None uses every DPU of a rank. Each topology argument
    is read by operator.index with a bool rejected, and the plan keeps the
    int it gives.
    """
    if config is None:
        config = mc.bundled_default_config()
    profile = config.machine
    if dpus_per_rank is None:
        dpus_per_rank = profile.dpus_per_rank
    n_ranks = _integer(n_ranks, "n_ranks must be an integer, got {!r}")
    dpus_per_rank = _integer(dpus_per_rank, "dpus_per_rank must be an integer, got {!r}")
    tasklets = _integer(tasklets, "tasklets must be an integer, got {!r}")
    if not 1 <= tasklets <= profile.max_tasklets:
        raise ValueError(f"tasklets must be in 1..{profile.max_tasklets}, got {tasklets}")
    if not 1 <= n_ranks <= profile.num_ranks:
        raise ValueError(f"n_ranks must be in 1..{profile.num_ranks}, got {n_ranks}")
    if not 1 <= dpus_per_rank <= profile.dpus_per_rank:
        raise ValueError(
            f"dpus_per_rank must be in 1..{profile.dpus_per_rank}, got {dpus_per_rank}"
        )
    total_dpus = n_ranks * dpus_per_rank
    if total_dpus > profile.usable_dpus:
        raise CapacityError(
            f"{total_dpus} DPUs requested but only {profile.usable_dpus} usable"
        )

    if isinstance(workload, AesWorkload):
        partition = partition_aes(workload.buffer_len, total_dpus)
        job_cost = config.kernel_costs["aes128"]
        broadcast_bytes = EXPANDED_KEY_BYTES * total_dpus
    else:
        partition = partition_sha(workload.message_lengths, total_dpus)
        job_cost = _sha_cost_for(config.kernel_costs["sha256"], len(workload.message_lengths),
                                 sum(map(mul, partition.dpus, partition.units)))
        broadcast_bytes = 0

    mram_budget = profile.mram_bytes - MRAM_RESERVE_BYTES
    need = list(map(add, partition.in_bytes, partition.out_bytes))
    if max(need) > mram_budget:  # the first DPU over budget is sought only then
        run = next(i for i, n in enumerate(need) if n > mram_budget)
        raise CapacityError(f"DPU {sum(partition.dpus[:run])} needs {need[run]} B of MRAM, "
                            f"budget is {mram_budget} B")

    # Ranks of one make-up are priced once, from their byte sums and the
    # (units, active tasklets) of their runs, and then repeated; an idle DPU
    # runs as one tasklet.
    repeats, firsts, counts = _rank_classes(partition.dpus, n_ranks, dpus_per_rank)
    held = [slice(first, first + len(n)) for first, n in zip(firsts, counts)]
    rank_in = [sum(map(mul, n, partition.in_bytes[runs])) for runs, n in zip(held, counts)]
    rank_out = (rank_in if partition.out_bytes is partition.in_bytes  # as partition_aes gives
                else [sum(map(mul, n, partition.out_bytes[runs]))
                      for runs, n in zip(held, counts)])
    busy = {n: min(max(n, 1), tasklets) for n in set(partition.items)}
    active = list(map(busy.__getitem__, partition.items))
    kernels = mc.simulate_rank_kernel([partition.units[runs] for runs in held],
                                      [active[runs] for runs in held], job_cost, profile)
    # Key broadcast happens once, ahead of payload staging, on every rank
    # channel in parallel, so it costs one rank's worth of transfer time.
    broadcast_seconds = (
        mc.simulate_transfer(EXPANDED_KEY_BYTES * dpus_per_rank, "to_dpu", profile)
        if broadcast_bytes
        else 0.0
    )
    phases = ([n / profile.host_prepare_rate for n in rank_in],
              mc.simulate_transfer(rank_in, "to_dpu", profile),
              kernels,
              mc.simulate_transfer(rank_out, "from_dpu", profile))
    return JobPlan(
        strategy=strategy,
        n_ranks=n_ranks,
        dpus_per_rank=dpus_per_rank,
        tasklets=tasklets,
        rank_phases=mc.Columns._adopt([_repeated(phase, repeats) for phase in phases]),
        payload_bytes_to_dpu=sum(map(mul, rank_in, repeats)),
        payload_bytes_from_dpu=sum(map(mul, rank_out, repeats)),
        broadcast_bytes=broadcast_bytes,
        broadcast_seconds=broadcast_seconds,
    )


def _rank_classes(dpus: list[int], n_ranks: int,
                  dpus_per_rank: int) -> tuple[list[int], list[int], list[list[int]]]:
    """The ranks of a partition whose runs hold dpus[i] DPUs each, as
    classes of consecutive ranks of one make-up, in rank order: how many
    ranks each class has, the first run a rank of it holds DPUs of, and
    how many DPUs of that run and of each next one it holds. The ranks that
    lie in one run are one class; a rank cut from several runs is a class
    of its own."""
    ends = list(accumulate(dpus))  # the DPU after each run
    repeats: list[int] = []
    firsts: list[int] = []
    counts: list[list[int]] = []
    rank = 0
    while rank < n_ranks:
        lo, hi = rank * dpus_per_rank, (rank + 1) * dpus_per_rank
        first, last = bisect_right(ends, lo), bisect_left(ends, hi)
        if first == last:  # this rank, and the next ones up to the run's end
            repeats.append((ends[first] - lo) // dpus_per_rank)
            counts.append([dpus_per_rank])
        else:
            repeats.append(1)
            counts.append([ends[first] - lo, *dpus[first + 1:last], hi - ends[last - 1]])
        firsts.append(first)
        rank += repeats[-1]
    return repeats, firsts, counts


def _repeated(values: list[float], repeats: list[int]) -> list[float]:
    """Each of values as many times in a row as repeats says."""
    if len(values) == 1:
        return values * repeats[0]
    return list(chain.from_iterable(map(repeat, values, repeats)))


# Strategy -> (host_waits_for_inbound, launch_barrier, serial_drain).
# host_waits_for_inbound: the host stages the next rank only once this
# rank's inbound transfer has finished. launch_barrier: all ranks launch
# together after the last inbound transfer. serial_drain: outbound transfers
# run one rank after the other once every kernel has ended; otherwise each
# rank drains as soon as its own kernel ends.
_SCHEDULES = {
    Strategy.SYNC: (True, True, True),
    Strategy.ASYNC_RANK_TRANSFER: (False, True, False),
    Strategy.ASYNC_RANK_EXECUTION: (True, False, False),
}


def _schedule(strategy: Strategy, rank_phases: list[list[float]],
              t0: float) -> list[list[float]]:
    """The 8 event columns: phase starts set by the strategy from t0, and
    ends as start + duration, for each phase's durations of at least one
    rank. A chain of phases that run one after the other is one running
    sum (accumulate, which adds left to right), so every time is the float
    a rank-by-rank loop gives. One rank runs its phases back to back under
    every strategy: each phase starts as the one before it ends."""
    prepare, to_dpu, kernel, from_dpu = rank_phases
    if len(prepare) == 1:
        a, b, c, d, e = accumulate((prepare[0], to_dpu[0], kernel[0], from_dpu[0]), initial=t0)
        return [[a], [b], [b], [c], [c], [d], [d], [e]]
    waits_for_inbound, launch_barrier, serial_drain = _SCHEDULES[strategy]
    # the host stages one rank after the other, each after the previous
    # rank's inbound transfer if it waits for it
    if waits_for_inbound:
        steps = [0.0] * (2 * len(prepare))
        steps[::2], steps[1::2] = prepare, to_dpu
        staged = list(accumulate(steps, initial=t0))
        prepare_start, prepare_end, loaded = staged[:-1:2], staged[1::2], staged[2::2]
    else:
        staged = list(accumulate(prepare, initial=t0))
        prepare_start, prepare_end = staged[:-1], staged[1:]
        loaded = list(map(add, prepare_end, to_dpu))
    # the inbound transfer starts as staging ends
    launch = [max(loaded)] * len(loaded) if launch_barrier else loaded
    done = list(map(add, launch, kernel))
    if serial_drain:  # one rank after the other, once the last kernel ends
        drained = list(accumulate(from_dpu, initial=max(done)))
        drain_start, drain_end = drained[:-1], drained[1:]
    else:
        drain_start, drain_end = done, list(map(add, done, from_dpu))
    return [prepare_start, prepare_end, prepare_end, loaded, launch, done,
            drain_start, drain_end]


def _encrypt_file(
    src: BinaryIO, nbytes: int, padded: int, ks: bytes
) -> Iterator[memoryview]:
    """The ciphertext of src's nbytes, zero-filled to padded, one
    CHUNK_BYTES chunk at a time through one reused buffer, sized to the
    input if that is smaller.

    Each chunk is read whole and encrypted in place, in the buffer it was
    read into, before it is yielded, so a caller may write it over the
    bytes it came from. A chunk stays valid until the next one is
    requested, which overwrites it. A file that ends early or runs past
    nbytes raises OSError.
    """
    buf = memoryview(bytearray(min(CHUNK_BYTES, padded)))
    for lo in range(0, max(padded, 1), CHUNK_BYTES):  # an empty file is one empty chunk
        size = min(CHUNK_BYTES, padded - lo)
        want = min(size, nbytes - lo)
        got = 0
        while got < want:  # a short read is not the end of the file
            n = src.readinto(buf[got:want])
            if not n:
                raise OSError(
                    f"input ended at byte {lo + got}, short of the {nbytes} bytes planned"
                )
            got += n
        buf[want:size] = bytes(size - want)
        if lo + size == padded and src.read(1):
            raise OSError(
                f"input holds more than the {nbytes} bytes planned from its size "
                "(it grew, or its size is not known up front, as for a pipe)"
            )
        chunk = buf[:size]
        yield aes128_encrypt_buffer(chunk, ks, out=chunk)


def run_job(
    workload: bytes | bytearray | memoryview | BinaryIO | Sequence[bytes],
    key: bytes | None = None,
    **options,
) -> JobResult:
    """Execute a workload functionally and price it with plan_job, which
    takes the options (strategy, n_ranks, tasklets, dpus_per_rank, config).

    A workload that exports the buffer protocol is encrypted by its bytes
    (key required). A binary file (readinto, and a fileno for fstat) is
    encrypted too: the job is planned from its fstat size, zero-filled to a
    whole block, and output streams its ciphertext (see JobResult). A
    sequence of messages is hashed (digests in input order); it takes no key.
    """
    if hasattr(workload, "readinto"):
        if key is None:
            raise ValueError("encryption requires a key")
        nbytes = os.fstat(workload.fileno()).st_size
        padded = nbytes + -nbytes % aes.BLOCK_BYTES
        plan = plan_job(AesWorkload(padded), **options)
        output = _encrypt_file(workload, nbytes, padded, key_expansion(key))
        return JobResult(output=output, plan=plan)
    try:
        nbytes = memoryview(workload).nbytes
    except TypeError:  # not a buffer: messages to hash
        nbytes = None
    if nbytes is not None:
        if key is None:
            raise ValueError("encryption requires a key")
        plan = plan_job(AesWorkload(nbytes), **options)
        # blocks are independent, so one pass over the whole buffer gives
        # what the DPUs' slices would
        return JobResult(
            output=aes128_encrypt_buffer(workload, key_expansion(key)), plan=plan
        )

    if key is not None:
        raise ValueError("hashing takes no key; a key is only for a buffer to encrypt")
    messages = [bytes(m) for m in workload]
    plan = plan_job(ShaWorkload(tuple(len(m) for m in messages)), **options)
    return JobResult(output=sha256_many(messages), plan=plan)


@dataclass(frozen=True)
class TimelineViolation:
    rank: int
    rule: str
    detail: str

    def __str__(self) -> str:
        return f"rank {self.rank}: {self.rule} ({self.detail})"


def validate_timeline(timeline: mc.ExecutionTimeline) -> list[TimelineViolation]:
    """Check every timeline invariant; returns all violations (empty = ok).

    Each rank's times must be non-negative and follow EVENT_KINDS order.
    A plan's timeline is in order by construction, as its durations are
    finite and at least 0 (see JobPlan), so it is clean with no test.
    Whether a timeline from outside (ExecutionTimeline(times) or
    from_columns) is clean it worked out event by event when it was built,
    by one comparison of its adjacent columns, side by side; if it is not,
    each rank's row, read from the columns, is checked kind by kind:
    negative times in (time, kind index) order, then each kind that comes
    before the kind ahead of it.
    """
    if timeline._in_order:
        return []
    kinds, violations = mc.EVENT_KINDS, []
    for rank, times in enumerate(zip(*timeline.columns)):
        row = list(enumerate(times))
        for t, k in sorted((t, k) for k, t in row if t < 0):
            violations.append(TimelineViolation(rank, "negative timestamp", f"{kinds[k]}@{t}"))
        for (k0, t0), (k1, t1) in zip(row, row[1:]):
            if t1 < t0:
                violations.append(TimelineViolation(
                    rank, f"{kinds[k1]} before {kinds[k0]}", f"{t1} < {t0}"))
    return violations
