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
_INT64_MAX = int(np.iinfo(np.int64).max)


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
    """Per-DPU work assignment: four count arrays indexed by DPU, int64 or,
    if the job's bytes could pass int64, Python ints (see _count_dtype).

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
    the extra blocks. A block comes back the size it went, so in_bytes and
    out_bytes are one array. The length must be a non-negative integer; a
    bool or a float is rejected, not truncated.
    """
    if n_dpus < 1:
        raise ValueError("n_dpus must be at least 1")
    if not _is_integer(buffer_len) or buffer_len < 0:
        raise ValueError(f"buffer length must be a non-negative integer, got {buffer_len!r}")
    buffer_len = int(buffer_len)
    if buffer_len % aes.BLOCK_BYTES:
        raise AlignmentError(
            f"buffer length {buffer_len} is not a multiple of {aes.BLOCK_BYTES}")
    # any sum of a DPU's or rank's bytes in and out is at most 2 * buffer_len
    blocks = _spread(buffer_len // aes.BLOCK_BYTES, n_dpus, _count_dtype(2 * buffer_len))
    nbytes = aes.BLOCK_BYTES * blocks
    return PartitionPlan(units=blocks, items=blocks, in_bytes=nbytes, out_bytes=nbytes)


def _is_integer(value: object) -> bool:
    """Whether value is a Python or numpy integer; a bool or a float is not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _count_dtype(bound: int) -> type:
    """The dtype of a job's counts that are at most bound: int64 if it holds
    bound, else object, which keeps exact Python ints."""
    return np.int64 if bound <= _INT64_MAX else object


def _spread(count: int, n_dpus: int, dtype: type = np.int64) -> np.ndarray:
    """count split over n_dpus as evenly as possible, the extra ones to the
    earlier DPUs."""
    base, rem = divmod(count, n_dpus)
    share = np.empty(n_dpus, dtype=dtype)
    share[:rem] = base + 1
    share[rem:] = base
    return share


def partition_sha(message_lengths: Sequence[int], n_dpus: int) -> PartitionPlan:
    """Assign whole messages to DPUs round-robin by index: DPU d holds
    messages d, d + n_dpus, ...

    The lengths must be one-dimensional, each an integer in
    0..MAX_MESSAGE_BYTES. They are checked before they are cast to int64,
    which would wrap a larger one or truncate a fraction. Each DPU's blocks
    and bytes are summed as dealt (see _deal), so the one per-message array
    made is the padded block counts; int64 lengths are read in place, and a
    view with stride 0 (as bench._point builds) is priced from the one length
    it repeats."""
    if n_dpus < 1:
        raise ValueError("n_dpus must be at least 1")
    lengths = np.asarray(message_lengths)
    integral = lengths.ndim == 1 and (lengths.dtype.kind in "iu" or not lengths.size)
    repeated = integral and lengths.size > 1 and not lengths.strides[0]
    distinct = lengths[:1] if repeated else lengths
    longest = int(distinct.max()) if integral and lengths.size else 0
    if not integral or lengths.size and (distinct.min() < 0 or longest > MAX_MESSAGE_BYTES):
        raise ValueError(f"message lengths must be integers in 0..{MAX_MESSAGE_BYTES}")
    n = len(lengths)
    messages = _spread(n, n_dpus)
    # any sum of a DPU's or rank's bytes and digests is at most this
    dtype = _count_dtype((longest + DIGEST_BYTES) * n)
    if repeated:
        per_dpu = messages.astype(dtype, copy=False)
        units, in_bytes = per_dpu * padded_block_count(longest), per_dpu * longest
    else:
        lengths = lengths.astype(np.int64, copy=False)
        units = _deal(padded_block_count(lengths), n_dpus, dtype)
        in_bytes = _deal(lengths, n_dpus, dtype)
    return PartitionPlan(units, messages, in_bytes, out_bytes=DIGEST_BYTES * messages)


def _deal(values: np.ndarray, n_dpus: int, dtype: type) -> np.ndarray:
    """Per-DPU sums, in dtype, of values dealt round-robin: DPU d sums values
    d, d + n_dpus, ... The whole rounds are summed as rows of a reshape,
    then the short last round is added to the first DPUs."""
    rounds, rem = divmod(len(values), n_dpus)
    whole = rounds * n_dpus
    sums = values[:whole].reshape(rounds, n_dpus).sum(axis=0, dtype=dtype)
    sums[:rem] += values[whole:]
    return sums


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
        times = _schedule(self.strategy, self.rank_phases, self.broadcast_seconds)
        try:
            timeline = mc.ExecutionTimeline(times)
        except ValueError:  # _schedule's times are (ranks, 8), so only a non-finite time
            raise ProfileError(
                "the model gives a non-finite time: a machine or kernel cost value is out of range"
            ) from None
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
    chunk at a time, so it is consumed once, while the file is open. Every
    chunk is a view of one buffer that the next chunk overwrites, so a
    caller that keeps a chunk copies it (bytes(chunk)).
    """

    output: bytearray | list[bytes] | Iterator[memoryview]
    plan: JobPlan


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
    dpus_per_rank=None uses every DPU of a rank. A topology argument that
    is a bool or not an integer is rejected, not truncated.
    """
    if config is None:
        config = mc.bundled_default_config()
    profile = config.machine
    if dpus_per_rank is None:
        dpus_per_rank = profile.dpus_per_rank
    for name, value in (("n_ranks", n_ranks), ("dpus_per_rank", dpus_per_rank),
                        ("tasklets", tasklets)):
        if not _is_integer(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
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
        job_cost = _sha_cost_for(config.kernel_costs["sha256"],
                                 len(workload.message_lengths), int(partition.units.sum()))
        broadcast_bytes = 0

    mram_budget = profile.mram_bytes - MRAM_RESERVE_BYTES
    need = partition.in_bytes + partition.out_bytes
    if need.max() > mram_budget:  # the first DPU over budget is sought only then
        over = int(np.argmax(need > mram_budget))
        raise CapacityError(
            f"DPU {over} needs {need[over]} B of MRAM, budget is {mram_budget} B")

    # Each rank is priced from its byte sums and its DPUs' (units, active
    # tasklets); row r of rank_phases holds its durations in PhaseTimes order.
    shape = (n_ranks, dpus_per_rank)
    rank_in = partition.in_bytes.reshape(shape).sum(axis=1)
    rank_out = (rank_in if partition.out_bytes is partition.in_bytes  # as partition_aes gives
                else partition.out_bytes.reshape(shape).sum(axis=1))
    active = np.minimum(np.maximum(partition.items, 1), tasklets)  # an idle DPU as one tasklet
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
    # filled column by column, as float64 also when the byte sums are Python
    # ints (see _count_dtype); JobPlan rejects a non-finite time
    rank_phases = np.empty((n_ranks, 4))
    with np.errstate(over="ignore", invalid="ignore"):
        rank_phases[:, 0] = rank_in / profile.host_prepare_rate
        rank_phases[:, 1] = mc.simulate_transfer(rank_in, "to_dpu", profile)
        rank_phases[:, 2] = kernels
        rank_phases[:, 3] = mc.simulate_transfer(rank_out, "from_dpu", profile)
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


# a lone rank's (1, 8) event times, as indices into its running sums: t0,
# then each phase's end
_BACK_TO_BACK = np.array([[0, 1, 1, 2, 2, 3, 3, 4]])


@np.errstate(over="ignore", invalid="ignore")  # the timeline rejects a non-finite time
def _schedule(strategy: Strategy, rank_phases: np.ndarray, t0: float) -> np.ndarray:
    """The (ranks, 8) event times: phase starts set by the strategy from t0,
    and ends as start + duration, for the (ranks, 4) durations of at least
    one rank. _running_sums adds left to right (not pairwise), so every
    time is the float a rank-by-rank loop gives. One rank runs its phases
    back to back under every strategy: each phase starts as the one before
    it ends."""
    if len(rank_phases) == 1:
        return _running_sums(t0, rank_phases)[_BACK_TO_BACK]
    waits_for_inbound, launch_barrier, serial_drain = _SCHEDULES[strategy]
    _, to_dpu, kernel, from_dpu = rank_phases.T
    times = np.empty((len(rank_phases), len(mc.EVENT_KINDS)))
    # the host stages one rank after the other, each after the previous
    # rank's inbound transfer if it waits for it
    step = 2 if waits_for_inbound else 1
    staged = _running_sums(t0, rank_phases[:, :step])
    times[:, 0] = staged[:-1:step]
    times[:, 1] = times[:, 2] = staged[1::step]  # the inbound transfer starts as staging ends
    times[:, 3] = staged[2::2] if waits_for_inbound else times[:, 2] + to_dpu
    times[:, 4] = times[:, 3].max() if launch_barrier else times[:, 3]
    times[:, 5] = times[:, 4] + kernel
    if serial_drain:  # one rank after the other, once the last kernel ends
        drained = _running_sums(times[:, 5].max(), from_dpu)
        times[:, 6], times[:, 7] = drained[:-1], drained[1:]
    else:
        times[:, 6], times[:, 7] = times[:, 5], times[:, 5] + from_dpu
    return times


def _running_sums(t0: float, steps: np.ndarray) -> np.ndarray:
    """t0, then t0 plus each of steps in C order, added one at a time."""
    sums = np.empty(steps.size + 1)
    sums[0], sums[1:] = t0, steps.ravel()
    return sums.cumsum()


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
    A clean timeline passes one test of the whole array; otherwise one pass
    finds the ranks that may break a rule: a negative or decreasing time.
    Only those rows are checked kind by kind: negative times in (time, kind
    index) order, then each kind that comes before the kind ahead of it.
    """
    # a clean row starts at or after 0 and never decreases
    times = timeline.times
    ordered, nonnegative = times[:, 1:] >= times[:, :-1], times[:, 0] >= 0
    if ordered.all() and nonnegative.all():
        return []
    clean = nonnegative & ordered.all(axis=1)
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
