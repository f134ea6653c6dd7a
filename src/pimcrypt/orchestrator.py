"""Host-side orchestration: partitioning, key broadcast, execution strategies.

A job takes a workload (an AES buffer or a set of messages to hash), splits
it across the DPUs of one or more ranks, and produces both the functional
result (via the crypto kernels) and a priced ExecutionTimeline (via the
machine model). Row r of JobPlan.rank_phases holds rank r's four phase
durations, and phase k runs from column 2k to 2k + 1 of the timeline's
(ranks, 8) times array, in which every rank has every event; the phase
times, the makespan, validation and the CLI's event listing are all read
from that array. A strategy changes only the schedule: a JobPlan derives
its timeline from its strategy and rank phases, so replace(plan,
strategy=s) reschedules the same priced job. Three strategies are supported:

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

import os
from dataclasses import dataclass, field, replace
from typing import BinaryIO, Iterator, NamedTuple, Sequence

import numpy as np

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


@dataclass(frozen=True, eq=False)
class PartitionPlan:
    """Per-DPU work assignment: four int64 arrays indexed by DPU.

    units are AES blocks or padded hash blocks; items are AES blocks or
    whole messages (messages are never split, their block chain is
    sequential) and cap the tasklets a DPU keeps busy; in_bytes and
    out_bytes are what the DPU receives and returns.
    """

    units: np.ndarray
    items: np.ndarray
    in_bytes: np.ndarray
    out_bytes: np.ndarray


def partition_aes(buffer_len: int, n_dpus: int) -> PartitionPlan:
    """Split a block-aligned buffer into contiguous per-DPU slices.

    Block counts differ by at most one across DPUs and the earlier DPUs take
    the extra blocks.
    """
    if n_dpus < 1:
        raise ValueError("n_dpus must be at least 1")
    if buffer_len % aes.BLOCK_BYTES:
        raise AlignmentError(
            f"buffer length {buffer_len} is not a multiple of {aes.BLOCK_BYTES}")
    base, rem = divmod(buffer_len // aes.BLOCK_BYTES, n_dpus)
    blocks = np.full(n_dpus, base, dtype=np.int64)
    blocks[:rem] += 1
    nbytes = aes.BLOCK_BYTES * blocks
    return PartitionPlan(units=blocks, items=blocks, in_bytes=nbytes, out_bytes=nbytes)


def partition_sha(message_lengths: Sequence[int], n_dpus: int) -> PartitionPlan:
    """Assign whole messages to DPUs round-robin by index: DPU d holds
    messages d, d + n_dpus, ...

    Each length must be an integer in 0..MAX_MESSAGE_BYTES. It is checked
    before it is cast to int64, which would wrap a larger one or truncate
    a fraction."""
    if n_dpus < 1:
        raise ValueError("n_dpus must be at least 1")
    lengths = np.asarray(message_lengths)
    if lengths.size and (lengths.ndim != 1 or lengths.dtype.kind not in "iu"
                         or lengths.min() < 0 or lengths.max() > MAX_MESSAGE_BYTES):
        raise ValueError(f"message lengths must be integers in 0..{MAX_MESSAGE_BYTES}")
    lengths = lengths.astype(np.int64, copy=False)
    n = len(lengths)
    # per message: blocks, 1, bytes; message i in row i // n_dpus, column i % n_dpus
    grid = np.zeros((3, -(-n // n_dpus) * n_dpus), dtype=np.int64)
    grid[:, :n] = padded_block_count(lengths), np.ones_like(lengths), lengths
    units, messages, in_bytes = grid.reshape(3, -1, n_dpus).sum(axis=1)
    return PartitionPlan(units, messages, in_bytes, out_bytes=DIGEST_BYTES * messages)


class PhaseTimes(NamedTuple):
    """Busy time of each phase: the union of that phase's per-rank intervals."""

    prepare: float
    cpu_to_dpu: float
    kernel: float
    dpu_to_cpu: float


@dataclass(frozen=True)
class JobPlan:
    """Everything the model derives from a workload before/without running it.

    The schedule (timeline, makespan, phase_times) is derived on construction
    from strategy, rank_phases and broadcast_seconds, so it always matches them.
    """

    strategy: Strategy
    n_ranks: int
    dpus_per_rank: int
    tasklets: int
    rank_phases: np.ndarray = field(compare=False)  # read-only (ranks, 4), PhaseTimes order
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
        self.rank_phases.flags.writeable = False
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite time is rejected below
            times = _schedule(self.strategy, self.rank_phases, self.broadcast_seconds)
        if not np.isfinite(times).all():
            raise ProfileError(
                "the model gives a non-finite time: a machine or kernel cost value is out of range"
            )
        timeline = mc.ExecutionTimeline(times)
        object.__setattr__(self, "timeline", timeline)
        object.__setattr__(self, "makespan", timeline.makespan)
        object.__setattr__(self, "phase_times", PhaseTimes(
            *(mc.busy_time(timeline.phase_intervals(k)) for k in range(4))
        ))


@dataclass(frozen=True)
class JobResult:
    """A job: functional output plus the priced timeline.

    output is the ciphertext of a buffer, the digests of messages, or, for
    a file, an iterator that reads, encrypts and yields the ciphertext one
    chunk at a time, so it is consumed once, while the file is open.
    """

    output: bytearray | list[bytes] | Iterator[bytearray]
    plan: JobPlan


def _sha_cost_for(base: mc.KernelCost, total_messages: int, total_units: int) -> mc.KernelCost:
    """Spread the per-message digest write over that job's hash blocks."""
    if total_units == 0:
        return base
    return replace(base, mram_write_bytes_per_unit=DIGEST_BYTES * total_messages / total_units)


def _mram_error(dpu: int, need: int, budget: int) -> CapacityError:
    return CapacityError(f"DPU {dpu} needs {need} B of MRAM, budget is {budget} B")


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
    dpus_per_rank=None uses every DPU of a rank.
    """
    if config is None:
        config = mc.bundled_default_config()
    profile = config.machine
    if dpus_per_rank is None:
        dpus_per_rank = profile.dpus_per_rank
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

    mram_budget = profile.mram_bytes - MRAM_RESERVE_BYTES
    if isinstance(workload, AesWorkload):
        # DPU 0 takes the most blocks and holds them in and out. Its need is
        # checked on Python ints first, as a larger buffer's int64 counts wrap
        most = 2 * aes.BLOCK_BYTES * -(-(workload.buffer_len // aes.BLOCK_BYTES) // total_dpus)
        if most > mram_budget:
            raise _mram_error(0, most, mram_budget)
        partition = partition_aes(workload.buffer_len, total_dpus)
        job_cost = config.kernel_costs["aes128"]
        broadcast_bytes = EXPANDED_KEY_BYTES * total_dpus
    else:
        partition = partition_sha(workload.message_lengths, total_dpus)
        job_cost = _sha_cost_for(config.kernel_costs["sha256"],
                                 len(workload.message_lengths), int(partition.units.sum()))
        broadcast_bytes = 0

    need = partition.in_bytes + partition.out_bytes
    over = np.flatnonzero(need > mram_budget)
    if over.size:
        raise _mram_error(over[0], need[over[0]], mram_budget)

    # Each rank is priced from its byte sums and its DPUs' (units, active
    # tasklets); row r of rank_phases holds its durations in PhaseTimes order.
    shape = (n_ranks, dpus_per_rank)
    rank_in, rank_out = (b.reshape(shape).sum(axis=1)
                         for b in (partition.in_bytes, partition.out_bytes))
    active = np.where(partition.items > 0, np.minimum(partition.items, tasklets), 1)
    kernels = mc.simulate_rank_kernel(
        partition.units.reshape(shape), active.reshape(shape), job_cost, profile
    )
    # Key broadcast happens once, ahead of payload staging, on every rank
    # channel in parallel, so it costs one rank's worth of transfer time.
    broadcast_seconds = (
        mc.simulate_transfer(EXPANDED_KEY_BYTES * dpus_per_rank, "to_dpu", profile)
        if broadcast_bytes
        else 0.0
    )
    with np.errstate(over="ignore", invalid="ignore"):  # JobPlan rejects a non-finite time
        rank_phases = np.array((
            rank_in / profile.host_prepare_rate,
            mc.simulate_transfer(rank_in, "to_dpu", profile),
            kernels,
            mc.simulate_transfer(rank_out, "from_dpu", profile),
        )).T
    return JobPlan(
        strategy=strategy,
        n_ranks=n_ranks,
        dpus_per_rank=dpus_per_rank,
        tasklets=tasklets,
        rank_phases=rank_phases,
        payload_bytes_to_dpu=int(rank_in.sum()),
        payload_bytes_from_dpu=int(rank_out.sum()),
        broadcast_bytes=broadcast_bytes,
        broadcast_seconds=broadcast_seconds,
    )


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


def _schedule(strategy: Strategy, rank_phases: np.ndarray, t0: float) -> np.ndarray:
    """The (ranks, 8) event times: phase starts set by the strategy from t0,
    and ends as start + duration, for the (ranks, 4) durations of at least
    one rank. cumsum adds left to right (not pairwise), so every time is the
    float a rank-by-rank loop gives."""
    waits_for_inbound, launch_barrier, serial_drain = _SCHEDULES[strategy]
    prepare, to_dpu, kernel, from_dpu = rank_phases.T
    times = np.empty((len(rank_phases), len(mc.EVENT_KINDS)))
    starts = times[:, ::2]
    # the host stages one rank after the other, each after the previous
    # rank's inbound transfer if it waits for it
    steps = rank_phases[:, :2] if waits_for_inbound else rank_phases[:, :1]
    staged = np.concatenate(([t0], steps.ravel())).cumsum()
    starts[:, 0] = staged[:-1:steps.shape[1]]
    starts[:, 1] = starts[:, 0] + prepare  # the inbound transfer starts as staging ends
    to_ends = starts[:, 1] + to_dpu
    starts[:, 2] = to_ends.max() if launch_barrier else to_ends
    kernel_ends = starts[:, 2] + kernel
    starts[:, 3] = (
        np.concatenate(([kernel_ends.max()], from_dpu[:-1])).cumsum()
        if serial_drain else kernel_ends
    )
    times[:, 1::2] = starts + rank_phases
    return times


def _encrypt_file(
    src: BinaryIO, nbytes: int, padded: int, ks: bytes
) -> Iterator[bytearray]:
    """The ciphertext of src's nbytes, zero-filled to padded, one
    CHUNK_BYTES chunk at a time through one reused buffer.

    Each chunk is read whole before it is yielded, so a caller may write it
    over the bytes it came from. A file that ends early or runs past
    nbytes raises OSError.
    """
    buf = memoryview(bytearray(CHUNK_BYTES))
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
        yield aes128_encrypt_buffer(buf[:size], ks)


def run_job(
    workload: bytes | bytearray | memoryview | BinaryIO | Sequence[bytes],
    key: bytes | None = None,
    **options,
) -> JobResult:
    """Execute a workload functionally and price it with plan_job, which
    takes the options (strategy, n_ranks, tasklets, dpus_per_rank, config).

    A workload that exports the buffer protocol is encrypted by its bytes
    (key required). A binary file (it has readinto) is encrypted too: the
    job is planned from its fstat size, zero-filled to a whole block, and
    output streams its ciphertext (see JobResult). A sequence of messages
    is hashed, with digests returned in input order, and takes no key.
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
    One pass over the times array finds the ranks that may break a rule: a
    negative or decreasing time. Only those rows are checked kind by kind:
    negative times in (time, kind index) order, then each kind that comes
    before the kind ahead of it.
    """
    # a clean row starts at or after 0 and never decreases
    times = timeline.times
    clean = (times[:, 0] >= 0) & (times[:, 1:] >= times[:, :-1]).all(axis=1)
    violations = []
    for rank in np.flatnonzero(~clean).tolist():
        row = list(enumerate(times[rank].tolist()))
        for t, k in sorted((t, k) for k, t in row if t < 0):
            violations.append(
                TimelineViolation(rank, "negative timestamp", f"{mc.EVENT_KINDS[k]}@{t}")
            )
        for (k0, t0), (k1, t1) in zip(row, row[1:]):
            if t1 < t0:
                violations.append(
                    TimelineViolation(
                        rank,
                        f"{mc.EVENT_KINDS[k1]} before {mc.EVENT_KINDS[k0]}",
                        f"{t1} < {t0}",
                    )
                )
    return violations
