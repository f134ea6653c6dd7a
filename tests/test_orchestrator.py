import dataclasses
import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pimcrypt.aes import aes128_encrypt_buffer, key_expansion
from pimcrypt.errors import AlignmentError, CapacityError
from pimcrypt.machine import (
    ExecutionTimeline,
    KernelCost,
    TimelineEvent,
    busy_time,
    default_profile,
)
from pimcrypt.orchestrator import (
    AesWorkload,
    ShaWorkload,
    Strategy,
    partition_aes,
    partition_sha,
    plan_job,
    run_job,
    validate_timeline,
)

KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
PROFILE = default_profile()


def _random_buffer(n_bytes, seed=0):
    return random.Random(seed).randbytes(n_bytes)


class TestPartitionAes:
    def test_even_split(self):
        plan = partition_aes(8 << 20, 64)
        assert all(length == 131072 for _, length in plan.slices)

    def test_remainder_to_earlier_dpus(self):
        plan = partition_aes(1600, 3)
        assert [length for _, length in plan.slices] == [544, 528, 528]

    def test_single_dpu_identity(self):
        plan = partition_aes(4096, 1)
        assert plan.slices == ((0, 4096),)

    def test_misaligned_rejected(self):
        with pytest.raises(AlignmentError):
            partition_aes(100, 4)

    def test_zero_dpus_rejected(self):
        with pytest.raises(ValueError):
            partition_aes(160, 0)

    @settings(max_examples=60, deadline=None)
    @given(
        blocks=st.integers(min_value=0, max_value=4000),
        n_dpus=st.integers(min_value=1, max_value=96),
    )
    def test_coverage_and_balance(self, blocks, n_dpus):
        plan = partition_aes(blocks * 16, n_dpus)
        offset = 0
        counts = []
        for off, length in plan.slices:
            assert off == offset and length % 16 == 0
            offset += length
            counts.append(length // 16)
        assert offset == blocks * 16
        assert max(counts) - min(counts) <= 1
        assert counts == sorted(counts, reverse=True)


class TestPartitionSha:
    def test_even_split(self):
        plan = partition_sha([32768] * 1024, 64)
        assert all(len(ids) == 16 for ids in plan.message_ids)

    def test_round_robin_remainder(self):
        plan = partition_sha([10] * 5, 2)
        assert plan.message_ids == ((0, 2, 4), (1, 3))

    def test_single_message_leaves_rest_idle(self):
        plan = partition_sha([100], 8)
        assert plan.message_ids[0] == (0,)
        assert all(ids == () for ids in plan.message_ids[1:])

    def test_no_message_split_and_full_coverage(self):
        plan = partition_sha(list(range(50)), 7)
        seen = sorted(i for ids in plan.message_ids for i in ids)
        assert seen == list(range(50))


class TestSyncSingleRank:
    def test_phases_strictly_serial(self):
        buf = _random_buffer(1 << 20)
        result = run_job(buf, KEY, strategy=Strategy.SYNC, n_ranks=1, tasklets=16)
        plan = result.plan
        ph = plan.rank_phases[0]
        expected = (
            plan.broadcast_seconds + ph.prepare + ph.to_dpu + ph.kernel + ph.from_dpu
        )
        assert plan.makespan == pytest.approx(expected, rel=1e-12)
        ev = plan.timeline.rank_events(0)
        assert ev["prepare_start"] == pytest.approx(plan.broadcast_seconds)
        assert ev["transfer_to_start"] == ev["prepare_end"]
        assert ev["launch"] == ev["transfer_to_end"]
        assert ev["transfer_from_start"] == ev["kernel_end"]

    def test_sha_has_no_broadcast(self):
        msgs = [b"hello"] * 32
        result = run_job(msgs, n_ranks=1, tasklets=4)
        assert result.plan.broadcast_bytes == 0
        assert result.plan.broadcast_seconds == 0.0


def _pipeline_profile():
    """Per rank: prepare 2 ms, inbound 10 ms, kernel 30 ms, outbound 5 ms
    for a 1 MiB per-DPU payload with one DPU per rank."""
    return dataclasses.replace(
        default_profile(),
        dpus_per_rank=1,
        num_ranks=8,
        usable_dpus=8,
        host_prepare_rate=(1 << 20) / 0.002,
        cpu_to_dpu_bandwidth_per_rank=(1 << 20) / 0.010,
        dpu_to_cpu_bandwidth_per_rank=(1 << 20) / 0.005,
        dpu_frequency=65536 * 9 / 0.030,
    )


_PIPELINE_COST = KernelCost(
    instructions_per_unit=9,
    mram_read_bytes_per_unit=0,
    mram_write_bytes_per_unit=0,
    wram_cache_bytes=2048,
    unit_bytes=16,
)


class TestStrategyPipelines:
    def test_async_transfer_overlaps_prepare_with_transfers(self):
        profile = _pipeline_profile()
        plan = plan_job(
            AesWorkload(4 << 20),
            strategy=Strategy.ASYNC_RANK_TRANSFER,
            n_ranks=4,
            tasklets=11,
            profile=profile,
            dpus_per_rank=1,
            cost=_PIPELINE_COST,
        )
        t0 = plan.broadcast_seconds
        launch = plan.timeline.rank_events(0)["launch"]
        # transfers finish at max over i of ((i+1)*2ms + 10ms) = 18 ms
        assert launch - t0 == pytest.approx(0.018, rel=1e-9)
        # every rank launches at the same instant
        for r in range(4):
            assert plan.timeline.rank_events(r)["launch"] == launch
        assert plan.makespan - t0 == pytest.approx(0.018 + 0.030 + 0.005, rel=1e-9)

    def test_sync_serializes_the_same_job(self):
        profile = _pipeline_profile()
        plan = plan_job(
            AesWorkload(4 << 20),
            strategy=Strategy.SYNC,
            n_ranks=4,
            tasklets=11,
            profile=profile,
            dpus_per_rank=1,
            cost=_PIPELINE_COST,
        )
        t0 = plan.broadcast_seconds
        launch = plan.timeline.rank_events(0)["launch"]
        # 4 x (2ms + 10ms) of staging precede the single launch
        assert launch - t0 == pytest.approx(0.048, rel=1e-9)
        # retrieval is serial too: 4 x 5 ms after the kernels finish
        assert plan.makespan - t0 == pytest.approx(0.048 + 0.030 + 0.020, rel=1e-9)

    def test_async_execution_staggers_launches(self):
        profile = _pipeline_profile()
        plan = plan_job(
            AesWorkload(4 << 20),
            strategy=Strategy.ASYNC_RANK_EXECUTION,
            n_ranks=4,
            tasklets=11,
            profile=profile,
            dpus_per_rank=1,
            cost=_PIPELINE_COST,
        )
        t0 = plan.broadcast_seconds
        for r in range(4):
            ev = plan.timeline.rank_events(r)
            assert ev["launch"] - t0 == pytest.approx(0.012 * (r + 1), rel=1e-9)
            assert ev["launch"] == ev["transfer_to_end"]
        assert plan.makespan - t0 == pytest.approx(0.048 + 0.030 + 0.005, rel=1e-9)


class TestStrategyOrdering:
    @settings(max_examples=25, deadline=None)
    @given(
        n_ranks=st.integers(min_value=2, max_value=8),
        blocks_per_dpu=st.integers(min_value=8, max_value=512),
        dpus=st.integers(min_value=1, max_value=8),
    )
    def test_async_never_slower_than_sync(self, n_ranks, blocks_per_dpu, dpus):
        workload = AesWorkload(16 * blocks_per_dpu * dpus * n_ranks)
        makespans = {}
        for strategy in Strategy:
            plan = plan_job(
                workload, strategy=strategy, n_ranks=n_ranks,
                tasklets=16, dpus_per_rank=dpus,
            )
            makespans[strategy] = plan.makespan
        sync = makespans[Strategy.SYNC]
        assert makespans[Strategy.ASYNC_RANK_TRANSFER] <= sync * (1 + 1e-12)
        assert makespans[Strategy.ASYNC_RANK_EXECUTION] <= sync * (1 + 1e-12)

    def test_single_rank_degeneracy(self):
        buf_len = 2 << 20
        makespans = [
            plan_job(AesWorkload(buf_len), strategy=s, n_ranks=1, tasklets=16).makespan
            for s in Strategy
        ]
        assert makespans[0] == pytest.approx(makespans[1], rel=1e-12)
        assert makespans[0] == pytest.approx(makespans[2], rel=1e-12)


class TestFunctionalEquivalence:
    def test_aes_grid(self):
        buf = _random_buffer(64 << 10, seed=42)
        ks = key_expansion(KEY)
        expected = aes128_encrypt_buffer(buf, ks)
        for dpus in (1, 3, 17):
            for tasklets in (1, 16):
                for strategy in Strategy:
                    for ranks in (1, 2):
                        result = run_job(
                            buf, KEY, strategy=strategy, n_ranks=ranks,
                            tasklets=tasklets, dpus_per_rank=dpus,
                        )
                        assert result.output == expected

    def test_sha_grid(self):
        rng = random.Random(13)
        msgs = [rng.randbytes(rng.randrange(0, 600)) for _ in range(128)]
        expected = [hashlib.sha256(m).digest() for m in msgs]
        for dpus in (1, 3, 17):
            for strategy in Strategy:
                result = run_job(
                    msgs, strategy=strategy, n_ranks=2, tasklets=8, dpus_per_rank=dpus
                )
                assert result.output == expected

    def test_missing_key_rejected(self):
        with pytest.raises(ValueError, match="key"):
            run_job(bytes(32))


class TestCapacityChecks:
    def test_oversized_slice_rejected(self):
        # one DPU holding input + output of a 48 MiB buffer overflows the
        # 64 MiB MRAM minus the 1 MiB reserve
        with pytest.raises(CapacityError):
            plan_job(AesWorkload(48 << 20), n_ranks=1, dpus_per_rank=1)

    def test_usable_dpus_respected(self):
        profile = dataclasses.replace(default_profile(), usable_dpus=4)
        with pytest.raises(CapacityError):
            plan_job(AesWorkload(16 << 10), n_ranks=1, dpus_per_rank=8, profile=profile)

    def test_parameter_ranges(self):
        with pytest.raises(ValueError):
            plan_job(AesWorkload(160), tasklets=0)
        with pytest.raises(ValueError):
            plan_job(AesWorkload(160), tasklets=25)
        with pytest.raises(ValueError):
            plan_job(AesWorkload(160), n_ranks=41)


class TestBroadcast:
    def test_once_per_job_regardless_of_rank_count(self):
        for ranks, dpus in ((1, 32), (2, 16), (4, 8)):
            plan = plan_job(
                AesWorkload(1 << 20), n_ranks=ranks, dpus_per_rank=dpus
            )
            assert plan.broadcast_bytes == 176 * 32

    def test_priced_ahead_of_payload(self):
        plan = plan_job(AesWorkload(1 << 20), n_ranks=2, dpus_per_rank=8)
        first_event = min(e.time for e in plan.timeline.events)
        assert first_event == pytest.approx(plan.broadcast_seconds)


class TestConservation:
    def test_aes_byte_accounting(self):
        buf = _random_buffer(640 << 10, seed=3)
        result = run_job(buf, KEY, n_ranks=2, dpus_per_rank=32)
        assert result.plan.payload_bytes_to_dpu == len(buf)
        assert result.plan.payload_bytes_from_dpu == len(result.output)

    def test_sha_byte_accounting(self):
        msgs = [bytes(37)] * 100
        result = run_job(msgs, n_ranks=1, dpus_per_rank=16)
        assert result.plan.payload_bytes_to_dpu == 3700
        assert result.plan.payload_bytes_from_dpu == 32 * 100


class TestPhaseTimes:
    def test_consistent_with_timeline(self):
        plan = plan_job(
            AesWorkload(4 << 20),
            strategy=Strategy.ASYNC_RANK_EXECUTION,
            n_ranks=4,
            dpus_per_rank=16,
        )
        tl = plan.timeline
        assert plan.phase_times.prepare == pytest.approx(
            busy_time(tl.phase_intervals("prepare_start", "prepare_end"))
        )
        assert plan.phase_times.kernel == pytest.approx(
            busy_time(tl.phase_intervals("launch", "kernel_end"))
        )
        assert plan.makespan == max(e.time for e in tl.events)

    def test_phases_bounded_by_makespan(self):
        for strategy in Strategy:
            plan = plan_job(
                AesWorkload(8 << 20), strategy=strategy, n_ranks=4, dpus_per_rank=32
            )
            for phase in plan.phase_times:
                assert phase <= plan.makespan * (1 + 1e-12)


class TestValidateTimeline:
    def test_generated_plans_are_valid(self):
        for strategy in Strategy:
            for workload in (AesWorkload(1 << 20), ShaWorkload((1000,) * 64)):
                plan = plan_job(workload, strategy=strategy, n_ranks=3, dpus_per_rank=8)
                assert validate_timeline(plan.timeline) == []

    def test_launch_before_transfer_end_flagged(self):
        plan = plan_job(AesWorkload(1 << 20), n_ranks=2, dpus_per_rank=8)
        mutated = []
        for event in plan.timeline.events:
            if event.rank == 1 and event.kind == "launch":
                event = TimelineEvent(time=0.0, rank=1, kind="launch")
            mutated.append(event)
        violations = validate_timeline(ExecutionTimeline(events=tuple(mutated)))
        assert violations
        assert any(v.rank == 1 and "launch" in v.rule for v in violations)

    def test_negative_timestamp_flagged(self):
        timeline = ExecutionTimeline(
            events=(TimelineEvent(time=-1.0, rank=0, kind="prepare_start"),)
        )
        assert any("negative" in v.rule for v in validate_timeline(timeline))

    def test_empty_timeline_ok(self):
        assert validate_timeline(ExecutionTimeline(events=())) == []
        assert ExecutionTimeline(events=()).makespan == 0.0


# sha256 of repr([(time, rank, kind), ...]) for a 3-rank, 5-DPU-per-rank job
# with uneven ranks; pins every modeled timestamp bit for bit.
_GOLDEN_TIMELINES = {
    ("aes", "sync"): "9484a18c539bff0da2e8a81f4aaf4ebb79a055f92d7126ca9b8ef45643e31d02",
    ("aes", "async_rank_transfer"): "db67fed715b395883ebef0cb806c60da38cfa385963899227071b742641d01e3",
    ("aes", "async_rank_execution"): "dbe67aef1b4ac1c3ab67c4fde27b65c26beba9ab6a9b8b60cbfeb7f00aa36a1a",
    ("sha", "sync"): "f5ee26e8410f0e1e88e730be6c645db2b2eb6ac6b8962c3eb6bc8f5b1ce2ed10",
    ("sha", "async_rank_transfer"): "92c2e2ee1a5f5480496e3057a91b06d7fad5210dc62d3feb77f15752d2661ab1",
    ("sha", "async_rank_execution"): "7d98812cdbf1c679e857ef90e66d39c9cd81e413aa3bdeb2a4c000e7514b757d",
}


@pytest.mark.parametrize("algorithm,strategy", sorted(_GOLDEN_TIMELINES))
def test_timeline_bit_exact(algorithm, strategy):
    workload = (
        AesWorkload((1 << 20) + 48) if algorithm == "aes"
        else ShaWorkload(tuple(range(0, 4000, 37)))
    )
    plan = plan_job(
        workload, strategy=Strategy(strategy), n_ranks=3, dpus_per_rank=5, tasklets=16
    )
    text = repr([(e.time, e.rank, e.kind) for e in plan.timeline.events])
    assert len(plan.timeline.events) == 24
    assert hashlib.sha256(text.encode()).hexdigest() == _GOLDEN_TIMELINES[algorithm, strategy]


class TestShaTaskletAssignment:
    def test_fewer_messages_than_tasklets_idles_tasklets(self):
        plan = plan_job(ShaWorkload((5000,) * 3), n_ranks=1, dpus_per_rank=1, tasklets=16)
        assert plan.workloads[0].tasklets == 3

    def test_dpu_without_messages_has_no_work(self):
        plan = plan_job(ShaWorkload((5000,)), n_ranks=1, dpus_per_rank=4, tasklets=16)
        assert plan.workloads[0].total_units > 0
        assert all(w.total_units == 0 for w in plan.workloads[1:])
