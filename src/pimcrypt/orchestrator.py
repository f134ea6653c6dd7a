"""Host-side orchestration: partitioning, key broadcast, execution strategies.

A job takes a workload (an AES buffer or a set of messages to hash), splits
it across the DPUs of one or more ranks, and produces both the functional
result (via the crypto kernels) and a priced ExecutionTimeline (via the
machine model). Three strategies are supported:

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

import enum
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from . import machine as mc
from .aes import EXPANDED_KEY_BYTES, aes128_encrypt_buffer, key_expansion
from .errors import AlignmentError, CapacityError
from .sha256 import DIGEST_BYTES, padded_block_count, sha256_many

MRAM_RESERVE_BYTES = 1 << 20  # runtime metadata head-room per DPU


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
class AesWorkload:
    """Shape of an encryption job: buffer length in bytes (multiple of 16)."""

    buffer_len: int

    @property
    def payload_bytes(self) -> int:
        return self.buffer_len


@dataclass(frozen=True)
class ShaWorkload:
    """Shape of a hashing job: the length of every message, in input order."""

    message_lengths: tuple[int, ...]

    @property
    def payload_bytes(self) -> int:
        return sum(self.message_lengths)


@dataclass(frozen=True)
class PartitionPlan:
    """Per-DPU work assignment.

    For AES, slices holds contiguous (offset, length) byte ranges covering
    the buffer exactly. For hashing, message_ids holds whole-message index
    tuples (messages are never split; their block chain is sequential).
    """

    alignment_unit: int | str  # 16 for AES blocks, "message" for hashing
    slices: tuple[tuple[int, int], ...] | None = None
    message_ids: tuple[tuple[int, ...], ...] | None = None

    @property
    def n_dpus(self) -> int:
        entries = self.slices if self.slices is not None else self.message_ids
        return len(entries)


def partition_aes(buffer_len: int, n_dpus: int) -> PartitionPlan:
    """Split a block-aligned buffer into per-DPU slices, linearly.

    Block counts differ by at most one across DPUs and the earlier DPUs take
    the extra blocks.
    """
    if n_dpus < 1:
        raise ValueError("n_dpus must be at least 1")
    if buffer_len % 16:
        raise AlignmentError(f"buffer length {buffer_len} is not a multiple of 16")
    blocks = buffer_len // 16
    base, rem = divmod(blocks, n_dpus)
    slices = []
    offset = 0
    for d in range(n_dpus):
        length = (base + (1 if d < rem else 0)) * 16
        slices.append((offset, length))
        offset += length
    return PartitionPlan(alignment_unit=16, slices=tuple(slices))


def partition_sha(message_lengths: Sequence[int], n_dpus: int) -> PartitionPlan:
    """Assign whole messages to DPUs round-robin by index."""
    if n_dpus < 1:
        raise ValueError("n_dpus must be at least 1")
    ids: list[list[int]] = [[] for _ in range(n_dpus)]
    for idx in range(len(message_lengths)):
        ids[idx % n_dpus].append(idx)
    return PartitionPlan(
        alignment_unit="message", message_ids=tuple(tuple(x) for x in ids)
    )


class PhaseTimes(NamedTuple):
    """Busy time of each phase: the union of that phase's per-rank intervals."""

    prepare: float
    cpu_to_dpu: float
    kernel: float
    dpu_to_cpu: float


@dataclass(frozen=True)
class RankPhases:
    """Modeled durations of one rank's four phases."""

    prepare: float
    to_dpu: float
    kernel: float
    from_dpu: float


@dataclass(frozen=True)
class JobPlan:
    """Everything the model derives from a workload before/without running it."""

    strategy: Strategy
    n_ranks: int
    dpus_per_rank: int
    tasklets: int
    partition: PartitionPlan
    workloads: tuple[mc.DpuWorkload, ...]
    rank_phases: tuple[RankPhases, ...]
    timeline: mc.ExecutionTimeline
    makespan: float
    phase_times: PhaseTimes
    payload_bytes_to_dpu: int
    payload_bytes_from_dpu: int
    broadcast_bytes: int
    broadcast_seconds: float


@dataclass(frozen=True)
class JobResult:
    """A finished job: functional output plus the priced timeline."""

    output: bytes | list[bytes]
    plan: JobPlan

    @property
    def timeline(self) -> mc.ExecutionTimeline:
        return self.plan.timeline

    @property
    def makespan(self) -> float:
        return self.plan.makespan

    @property
    def phase_times(self) -> PhaseTimes:
        return self.plan.phase_times


def _sha_cost_for(base: mc.KernelCost, total_messages: int, total_units: int) -> mc.KernelCost:
    """Spread the per-message digest write over that job's hash blocks."""
    if total_units == 0:
        return base
    write = DIGEST_BYTES * total_messages / total_units
    return mc.KernelCost(
        instructions_per_unit=base.instructions_per_unit,
        mram_read_bytes_per_unit=base.mram_read_bytes_per_unit,
        mram_write_bytes_per_unit=write,
        wram_cache_bytes=base.wram_cache_bytes,
        unit_bytes=base.unit_bytes,
    )


def plan_job(
    workload: AesWorkload | ShaWorkload,
    *,
    strategy: Strategy = Strategy.SYNC,
    n_ranks: int = 1,
    tasklets: int = 16,
    profile: mc.MachineProfile | None = None,
    dpus_per_rank: int | None = None,
    cost: mc.KernelCost | None = None,
) -> JobPlan:
    """Partition a workload and price its execution under a strategy."""
    if profile is None:
        profile = mc.default_profile()
    if dpus_per_rank is None:
        dpus_per_rank = profile.dpus_per_rank
    if not 1 <= tasklets <= profile.max_tasklets:
        raise ValueError(f"tasklets must be in 1..{profile.max_tasklets}")
    if not 1 <= n_ranks <= profile.num_ranks:
        raise ValueError(f"n_ranks must be in 1..{profile.num_ranks}")
    if not 1 <= dpus_per_rank <= profile.dpus_per_rank:
        raise ValueError(f"dpus_per_rank must be in 1..{profile.dpus_per_rank}")
    total_dpus = n_ranks * dpus_per_rank
    if total_dpus > profile.usable_dpus:
        raise CapacityError(
            f"{total_dpus} DPUs requested but only {profile.usable_dpus} usable"
        )

    is_aes = isinstance(workload, AesWorkload)
    if is_aes:
        partition = partition_aes(workload.buffer_len, total_dpus)
        in_bytes = [length for _, length in partition.slices]
        out_bytes = list(in_bytes)
        units = [length // 16 for length in in_bytes]
        base_cost = cost or mc.bundled_default_config().kernel_costs["aes128"]
        job_cost = base_cost
        broadcast_bytes = EXPANDED_KEY_BYTES * total_dpus
    else:
        lengths = workload.message_lengths
        partition = partition_sha(lengths, total_dpus)
        in_bytes = [sum(lengths[i] for i in ids) for ids in partition.message_ids]
        out_bytes = [DIGEST_BYTES * len(ids) for ids in partition.message_ids]
        units = [
            sum(padded_block_count(lengths[i]) for i in ids)
            for ids in partition.message_ids
        ]
        base_cost = cost or mc.bundled_default_config().kernel_costs["sha256"]
        job_cost = _sha_cost_for(base_cost, len(lengths), sum(units))
        broadcast_bytes = 0

    mram_budget = profile.mram_bytes - MRAM_RESERVE_BYTES
    for d in range(total_dpus):
        if in_bytes[d] + out_bytes[d] > mram_budget:
            raise CapacityError(
                f"DPU {d} needs {in_bytes[d] + out_bytes[d]} B of MRAM, "
                f"budget is {mram_budget} B"
            )

    workloads = []
    for d in range(total_dpus):
        if is_aes:
            active = min(tasklets, units[d]) if units[d] else 1
        else:
            n_msgs = len(partition.message_ids[d])
            active = min(tasklets, n_msgs) if n_msgs else 1
        workloads.append(mc.DpuWorkload(dpu_id=d, total_units=units[d], tasklets=active))

    rank_phases = []
    for r in range(n_ranks):
        lo, hi = r * dpus_per_rank, (r + 1) * dpus_per_rank
        rank_in = in_bytes[lo:hi]
        rank_phases.append(
            RankPhases(
                prepare=sum(rank_in) / profile.host_prepare_rate,
                to_dpu=mc.simulate_transfer(rank_in, "to_dpu", profile),
                kernel=mc.simulate_rank_kernel(workloads[lo:hi], job_cost, profile),
                from_dpu=mc.simulate_transfer(out_bytes[lo:hi], "from_dpu", profile),
            )
        )

    # Key broadcast happens once, ahead of payload staging, on every rank
    # channel in parallel, so it costs one rank's worth of transfer time.
    broadcast_seconds = (
        mc.simulate_transfer([EXPANDED_KEY_BYTES] * dpus_per_rank, "to_dpu", profile)
        if broadcast_bytes
        else 0.0
    )

    timeline = _build_timeline(strategy, rank_phases, broadcast_seconds)
    phase_times = PhaseTimes(
        prepare=mc.busy_time(timeline.phase_intervals("prepare_start", "prepare_end")),
        cpu_to_dpu=mc.busy_time(
            timeline.phase_intervals("transfer_to_start", "transfer_to_end")
        ),
        kernel=mc.busy_time(timeline.phase_intervals("launch", "kernel_end")),
        dpu_to_cpu=mc.busy_time(
            timeline.phase_intervals("transfer_from_start", "transfer_from_end")
        ),
    )
    return JobPlan(
        strategy=strategy,
        n_ranks=n_ranks,
        dpus_per_rank=dpus_per_rank,
        tasklets=tasklets,
        partition=partition,
        workloads=tuple(workloads),
        rank_phases=tuple(rank_phases),
        timeline=timeline,
        makespan=timeline.makespan,
        phase_times=phase_times,
        payload_bytes_to_dpu=sum(in_bytes),
        payload_bytes_from_dpu=sum(out_bytes),
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


def _build_timeline(
    strategy: Strategy, rank_phases: Sequence[RankPhases], t0: float
) -> mc.ExecutionTimeline:
    waits_for_inbound, launch_barrier, serial_drain = _SCHEDULES[strategy]
    prep_starts, prep_ends, to_ends = [], [], []
    cursor = t0
    for ph in rank_phases:
        prep_starts.append(cursor)
        cursor += ph.prepare
        prep_ends.append(cursor)
        to_ends.append(cursor + ph.to_dpu)
        if waits_for_inbound:
            cursor = to_ends[-1]
    barrier = max(to_ends, default=t0)
    launches = [barrier if launch_barrier else end for end in to_ends]
    kernel_ends = [launch + ph.kernel for launch, ph in zip(launches, rank_phases)]
    from_starts = list(kernel_ends)
    if serial_drain:
        cursor = max(kernel_ends, default=t0)
        for r, ph in enumerate(rank_phases):
            from_starts[r] = cursor
            cursor += ph.from_dpu

    keyed = []
    for r, ph in enumerate(rank_phases):
        times = (  # in EVENT_KINDS order; inbound transfer starts as staging ends
            prep_starts[r], prep_ends[r], prep_ends[r], to_ends[r],
            launches[r], kernel_ends[r], from_starts[r], from_starts[r] + ph.from_dpu,
        )
        keyed.extend((time, r, k) for k, time in enumerate(times))
    keyed.sort()
    return mc.ExecutionTimeline(
        events=tuple(
            mc.TimelineEvent(time=time, rank=r, kind=mc.EVENT_KINDS[k])
            for time, r, k in keyed
        )
    )


def run_job(
    workload: bytes | Sequence[bytes],
    key: bytes | None = None,
    *,
    strategy: Strategy = Strategy.SYNC,
    n_ranks: int = 1,
    tasklets: int = 16,
    profile: mc.MachineProfile | None = None,
    dpus_per_rank: int | None = None,
    cost: mc.KernelCost | None = None,
) -> JobResult:
    """Execute a workload functionally and price it under a strategy.

    A bytes workload is encrypted (key required); a sequence of messages is
    hashed, with digests returned in input order.
    """
    common = dict(
        strategy=strategy,
        n_ranks=n_ranks,
        tasklets=tasklets,
        profile=profile,
        dpus_per_rank=dpus_per_rank,
        cost=cost,
    )
    if isinstance(workload, (bytes, bytearray, memoryview)):
        if key is None:
            raise ValueError("encryption requires a key")
        buffer = bytes(workload)
        plan = plan_job(AesWorkload(len(buffer)), **common)
        ks = key_expansion(key)
        out = bytearray(len(buffer))
        for offset, length in plan.partition.slices:
            out[offset : offset + length] = aes128_encrypt_buffer(
                buffer[offset : offset + length], ks
            )
        return JobResult(output=bytes(out), plan=plan)

    messages = [bytes(m) for m in workload]
    plan = plan_job(ShaWorkload(tuple(len(m) for m in messages)), **common)
    # gather per-DPU message sets, hash, scatter back to input order
    order = [i for ids in plan.partition.message_ids for i in ids]
    digests = sha256_many([messages[i] for i in order])
    out_digests: list[bytes] = [b""] * len(messages)
    for i, d in zip(order, digests):
        out_digests[i] = d
    return JobResult(output=out_digests, plan=plan)


@dataclass(frozen=True)
class TimelineViolation:
    rank: int
    rule: str
    detail: str

    def __str__(self) -> str:
        return f"rank {self.rank}: {self.rule} ({self.detail})"


def validate_timeline(timeline: mc.ExecutionTimeline) -> list[TimelineViolation]:
    """Check every timeline invariant; returns all violations (empty = ok)."""
    violations = []
    for rank in timeline.ranks:
        seen: dict[str, float] = {}
        for event in timeline.events:
            if event.rank != rank:
                continue
            if event.kind not in mc.EVENT_KINDS:
                violations.append(
                    TimelineViolation(rank, "unknown event kind", event.kind)
                )
                continue
            if event.kind in seen:
                violations.append(
                    TimelineViolation(rank, "duplicate event", event.kind)
                )
                continue
            if event.time < 0:
                violations.append(
                    TimelineViolation(
                        rank, "negative timestamp", f"{event.kind}@{event.time}"
                    )
                )
            seen[event.kind] = event.time
        present = [k for k in mc.EVENT_KINDS if k in seen]
        for earlier, later in zip(present, present[1:]):
            if seen[later] < seen[earlier]:
                violations.append(
                    TimelineViolation(
                        rank,
                        f"{later} before {earlier}",
                        f"{seen[later]} < {seen[earlier]}",
                    )
                )
    return violations
