import dataclasses
import hashlib
import inspect
import math
import random
import re
import tracemalloc
from array import array
from itertools import chain

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pimcrypt import machine as mc
from pimcrypt import orchestrator
from pimcrypt import bench, cli, reference
from pimcrypt.aes import BATCH_BLOCKS, aes128_encrypt_buffer, key_expansion
from pimcrypt.errors import AlignmentError, CapacityError, ProfileError
from pimcrypt.machine import (
    ALGORITHMS,
    EVENT_KINDS,
    EXPERIMENTS,
    ExecutionTimeline,
    ExperimentSpec,
    KernelCost,
    MachineProfile,
    bundled_default_config,
    simulate_dpu_kernel,
)
from pimcrypt.orchestrator import (
    AesWorkload,
    JobPlan,
    PhaseTimes,
    ShaWorkload,
    Strategy,
    TimelineViolation,
    _sha_cost_for,
    partition_aes,
    partition_sha,
    plan_job,
    run_job,
    validate_timeline,
)
from pimcrypt.sha256 import MAX_MESSAGE_BYTES, padded_block_count

KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
PROFILE = bundled_default_config().machine
_SHA_COST = bundled_default_config().kernel_costs["sha256"]


def _config(machine=PROFILE, **costs):
    """The bundled config with its machine and the named kernel costs replaced."""
    config = bundled_default_config()
    return dataclasses.replace(
        config, machine=machine, kernel_costs={**config.kernel_costs, **costs})


def _random_buffer(n_bytes, seed=0):
    return random.Random(seed).randbytes(n_bytes)


def _aes_loop_partition(buffer_len, n_dpus):
    """Oracle: per-DPU (offset, length) slices laid down one DPU at a time."""
    base, rem = divmod(buffer_len // 16, n_dpus)
    slices, offset = [], 0
    for d in range(n_dpus):
        length = (base + (1 if d < rem else 0)) * 16
        slices.append((offset, length))
        offset += length
    return slices


def _sha_loop_partition(lengths, n_dpus):
    """Oracle: per-DPU message ids, one message at a time, round-robin."""
    ids = [[] for _ in range(n_dpus)]
    for idx in range(len(lengths)):
        ids[idx % n_dpus].append(idx)
    return ids


class _Index:
    """An integer only through __index__, as operator.index takes one."""

    def __init__(self, n):
        self.n = n

    def __index__(self):
        return self.n


def _arrays(plan):
    """A partition's units, items, in_bytes and out_bytes, each as one list
    entry per DPU, its runs written out."""
    return [[value for n, value in zip(plan.dpus, column) for _ in range(n)]
            for column in (plan.units, plan.items, plan.in_bytes, plan.out_bytes)]


class TestPartitionAes:
    def test_even_split(self):
        plan = partition_aes(8 << 20, 64)
        assert _arrays(plan)[2] == [131072] * 64
        assert _arrays(plan)[0] == [8192] * 64

    def test_remainder_to_earlier_dpus(self):
        plan = partition_aes(1600, 3)
        assert _arrays(plan)[2] == [544, 528, 528]
        assert _arrays(plan)[0] == [34, 33, 33]

    def test_single_dpu_identity(self):
        plan = partition_aes(4096, 1)
        assert _arrays(plan) == [[256], [256], [4096], [4096]]

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
        slices = _aes_loop_partition(blocks * 16, n_dpus)
        offset = 0
        for off, length in slices:
            assert off == offset and length % 16 == 0
            offset += length
        assert offset == blocks * 16
        counts = [length // 16 for _, length in slices]
        assert _arrays(plan) == [counts, counts, [16 * c for c in counts], [16 * c for c in counts]]
        assert max(counts) - min(counts) <= 1
        assert counts == sorted(counts, reverse=True)


class TestPartitionSha:
    def test_even_split(self):
        plan = partition_sha([32768] * 1024, 64)
        assert _arrays(plan)[1] == [16] * 64
        assert _arrays(plan)[2] == [16 * 32768] * 64

    def test_round_robin_remainder(self):
        # messages 0, 2, 4 on DPU 0 and 1, 3 on DPU 1
        plan = partition_sha([10, 11, 12, 13, 14], 2)
        _, items, in_bytes, out_bytes = _arrays(plan)
        assert items == [3, 2]
        assert in_bytes == [10 + 12 + 14, 11 + 13]
        assert out_bytes == [3 * 32, 2 * 32]

    def test_single_message_leaves_rest_idle(self):
        plan = partition_sha([100], 8)
        assert _arrays(plan) == [[2] + [0] * 7, [1] + [0] * 7, [100] + [0] * 7, [32] + [0] * 7]

    def test_no_message_split_and_full_coverage(self):
        # one message longer than all others together: a split would show
        # as bytes or blocks of it on a second DPU
        lengths = [10_000] + list(range(49))
        units, items, in_bytes, _ = _arrays(partition_sha(lengths, 7))
        assert sum(items) == 50
        assert sum(in_bytes) == sum(lengths)
        assert in_bytes[0] == sum(lengths[::7]) and in_bytes[0] >= 10_000
        assert sum(units) == sum(padded_block_count(n) for n in lengths)

    def test_memory_is_one_array_per_message(self):
        """Partitioning bench's largest hashing plan, 40 x 1,024 messages of
        32 KiB over 2,560 DPUs given as SameLengths, traces less than one
        int64 per message plus 128 KiB. A zero-filled (2, n) grid, with the
        (2, n) copy of the blocks and lengths assigned into it, traced 981
        KiB."""
        lengths = orchestrator.SameLengths(32768, 40960)
        partition_sha(lengths, 2560)
        tracemalloc.start()
        try:
            partition_sha(lengths, 2560)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * len(lengths) + (128 << 10)

    @pytest.mark.parametrize("length,count,n_ranks,mram_bytes", [
        (32768, 40 * 1024, 40, None),  # bench's largest hashing plan
        (5000, 2 * 64 * 3 + 77, 2, None),  # not a whole number of rounds
        (100, 50, 1, None),  # fewer messages than DPUs
        (MAX_MESSAGE_BYTES, 5, 1, 1 << 64),  # counts past int64: exact Python ints
    ])
    def test_zero_stride_view_plans_like_its_list(self, length, count, n_ranks, mram_bytes):
        """Equal lengths as SameLengths, counted once, and as a numpy view
        with stride 0 give the partition and the plan that the same lengths
        as a list give, with rank phases equal bit for bit, and exact
        Python int counts past int64 too."""
        same = orchestrator.SameLengths(length, count)
        view = np.broadcast_to(np.int64(length), count)
        dpus = 64 if mram_bytes is None else 2
        part = partition_sha(same, n_ranks * dpus)
        assert _arrays(part) == _arrays(partition_sha([length] * count, n_ranks * dpus))
        assert _arrays(part) == _arrays(partition_sha(view, n_ranks * dpus))
        assert {type(n) for column in _arrays(part) for n in column} == {int}
        assert (sum(_arrays(part)[2]) > 2 ** 63) == (mram_bytes is not None)
        config = None if mram_bytes is None else _config(
            dataclasses.replace(PROFILE, mram_bytes=mram_bytes))
        plans = [plan_job(ShaWorkload(lengths), n_ranks=n_ranks, dpus_per_rank=dpus,
                          strategy=Strategy.ASYNC_RANK_EXECUTION, config=config)
                 for lengths in (same, [length] * count, view)]
        assert plans[0] == plans[1] == plans[2]
        assert repr(plans[0].rank_phases) == repr(plans[1].rank_phases) == repr(
            plans[2].rank_phases)

    def test_same_lengths_is_a_sequence_of_its_length(self):
        """SameLengths reads as count copies of its length by index, with
        an index out of range an IndexError and a slice a TypeError."""
        same = orchestrator.SameLengths(7, 3)
        assert list(same) == [same[0], same[2], same[-3]] == [7, 7, 7] and len(same) == 3
        for i in (3, -4):
            with pytest.raises(IndexError):
                same[i]
        with pytest.raises(TypeError):
            same[1:]

    @settings(max_examples=100, deadline=None)
    @given(
        lengths=st.lists(st.integers(0, 5000), max_size=200),
        n_ranks=st.integers(1, 3),
        dpus_per_rank=st.integers(1, 32),
        tasklets=st.integers(1, 24),
    )
    def test_equals_loop_definition(self, lengths, n_ranks, dpus_per_rank, tasklets):
        """The per-DPU arrays, and the rank times plan_job prices from them,
        equal the message-by-message loops they replaced."""
        n_dpus = n_ranks * dpus_per_rank
        ids = _sha_loop_partition(lengths, n_dpus)
        units = [sum(padded_block_count(lengths[i]) for i in x) for x in ids]
        in_bytes = [sum(lengths[i] for i in x) for x in ids]
        assert _arrays(partition_sha(lengths, n_dpus)) == [
            units, [len(x) for x in ids], in_bytes, [32 * len(x) for x in ids],
        ]
        # bench's hashing workloads: equal lengths as SameLengths
        length = lengths[-1] if lengths else 0
        view = orchestrator.SameLengths(length, len(lengths))
        assert _arrays(partition_sha(view, n_dpus)) == [
            [padded_block_count(length) * len(x) for x in ids], [len(x) for x in ids],
            [length * len(x) for x in ids], [32 * len(x) for x in ids],
        ]

        plan = plan_job(
            ShaWorkload(tuple(lengths)),
            n_ranks=n_ranks, dpus_per_rank=dpus_per_rank, tasklets=tasklets,
        )
        cost = _sha_cost_for(_SHA_COST, len(lengths), sum(units))
        for r, (prepare, _, kernel, _) in enumerate(_phase_rows(plan)):
            rank = range(r * dpus_per_rank, (r + 1) * dpus_per_rank)
            assert kernel == max(
                simulate_dpu_kernel(units[d], min(len(ids[d]), tasklets) or 1, cost, PROFILE)
                for d in rank
            )
            assert prepare == sum(in_bytes[d] for d in rank) / PROFILE.host_prepare_rate
        assert plan.payload_bytes_to_dpu == sum(lengths)


class TestSyncSingleRank:
    def test_phases_strictly_serial(self):
        buf = _random_buffer(1 << 20)
        result = run_job(buf, KEY, strategy=Strategy.SYNC, n_ranks=1, tasklets=16)
        plan = result.plan
        prepare, to_dpu, kernel, from_dpu = _phase_rows(plan)[0]
        expected = plan.broadcast_seconds + prepare + to_dpu + kernel + from_dpu
        assert plan.makespan == pytest.approx(expected, rel=1e-12)
        ev = dict(zip(EVENT_KINDS, plan.timeline.times[0].tolist()))
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
        PROFILE,
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
)


class TestStrategyPipelines:
    def test_async_transfer_overlaps_prepare_with_transfers(self):
        profile = _pipeline_profile()
        plan = plan_job(
            AesWorkload(4 << 20),
            strategy=Strategy.ASYNC_RANK_TRANSFER,
            n_ranks=4,
            tasklets=11,
            dpus_per_rank=1,
            config=_config(profile, aes128=_PIPELINE_COST),
        )
        t0 = plan.broadcast_seconds
        launch = plan.timeline.times[0, EVENT_KINDS.index("launch")]
        # transfers finish at max over i of ((i+1)*2ms + 10ms) = 18 ms
        assert launch - t0 == pytest.approx(0.018, rel=1e-9)
        # every rank launches at the same instant
        for r in range(4):
            assert plan.timeline.times[r, EVENT_KINDS.index("launch")] == launch
        assert plan.makespan - t0 == pytest.approx(0.018 + 0.030 + 0.005, rel=1e-9)

    def test_sync_serializes_the_same_job(self):
        profile = _pipeline_profile()
        plan = plan_job(
            AesWorkload(4 << 20),
            strategy=Strategy.SYNC,
            n_ranks=4,
            tasklets=11,
            dpus_per_rank=1,
            config=_config(profile, aes128=_PIPELINE_COST),
        )
        t0 = plan.broadcast_seconds
        launch = plan.timeline.times[0, EVENT_KINDS.index("launch")]
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
            dpus_per_rank=1,
            config=_config(profile, aes128=_PIPELINE_COST),
        )
        t0 = plan.broadcast_seconds
        for r in range(4):
            ev = dict(zip(EVENT_KINDS, plan.timeline.times[r].tolist()))
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

    def test_strategy_name_rejected(self):
        """The library takes Strategy members only; a name gets a ValueError
        that lists the names Strategy.parse reads, not a KeyError from the
        schedule table."""
        names = re.escape(f"(Strategy.parse reads the names {', '.join(mc.STRATEGY_NAMES)})")
        with pytest.raises(ValueError, match=rf"^strategy must be a Strategy, not 'sync' {names}$"):
            plan_job(AesWorkload(16), strategy="sync")
        with pytest.raises(ValueError, match="not 'pim1'"):
            run_job([b"a"], strategy="pim1")
        with pytest.raises(ValueError, match="not 'pim2'"):
            dataclasses.replace(plan_job(AesWorkload(16)), strategy="pim2")

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

    @pytest.mark.parametrize(
        "blocks", [0, 1, BATCH_BLOCKS - 1, BATCH_BLOCKS, BATCH_BLOCKS + 1]
    )
    def test_aes_matches_reference_across_batches(self, blocks):
        # 61 distinct blocks repeat through the buffer; 61 does not divide
        # BATCH_BLOCKS, so a batch written at a wrong offset changes the output
        distinct = [_random_buffer(16, seed=i) for i in range(61)]
        expected = [reference.encrypt_block(b, KEY) for b in distinct]
        plain = b"".join(distinct[i % 61] for i in range(blocks))
        result = run_job(plain, KEY, n_ranks=2, dpus_per_rank=3)
        assert result.output == b"".join(expected[i % 61] for i in range(blocks))

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
        config = _config(dataclasses.replace(PROFILE, usable_dpus=4))
        with pytest.raises(CapacityError):
            plan_job(AesWorkload(16 << 10), n_ranks=1, dpus_per_rank=8, config=config)

    def test_first_over_budget_dpu_named(self):
        with pytest.raises(CapacityError, match=r"^DPU 3 needs 67108896 B of MRAM"):
            plan_job(ShaWorkload((10, 10, 10, 64 << 20)), n_ranks=1, dpus_per_rank=4)

    def test_first_of_several_over_budget_named_aes(self, monkeypatch):
        """An AES split gives the extra blocks to the earlier DPUs, so DPU 0
        is over first; with the slices reversed (in and out bytes still one
        array) DPU 3 is the first over and DPU 0 is within budget."""
        split = orchestrator.partition_aes

        def reversed_split(buffer_len, n_dpus):
            part = split(buffer_len, n_dpus)
            nbytes = part.in_bytes[::-1]
            return orchestrator.PartitionPlan(part.dpus[::-1], part.units[::-1],
                                              part.items[::-1], nbytes, nbytes)

        monkeypatch.setattr(orchestrator, "partition_aes", reversed_split)
        fit = (PROFILE.mram_bytes - orchestrator.MRAM_RESERVE_BYTES) // 32  # blocks in + out
        with pytest.raises(CapacityError,
                           match=rf"^DPU 3 needs {32 * (fit + 1)} B of MRAM, budget is "):
            plan_job(AesWorkload(16 * (4 * fit + 1)), n_ranks=1, dpus_per_rank=4)

    def test_first_of_several_over_budget_named_sha(self):
        """DPUs 1 and 3 are over, DPU 3 by more: DPU 1 is named."""
        with pytest.raises(CapacityError, match=r"^DPU 1 needs 67108896 B of MRAM"):
            plan_job(ShaWorkload((10, 64 << 20, 10, 65 << 20)), n_ranks=1, dpus_per_rank=4)

    def test_first_of_several_over_budget_named_past_int64(self):
        """Per-DPU byte sums past int64 are Python ints; DPU 1 (two longest
        messages) is named, not DPU 3 (three)."""
        big = MAX_MESSAGE_BYTES
        lengths = [3, big, 3, big] * 2 + [3, 3, 3, big]
        assert sum(_arrays(partition_sha(lengths, 4))[2]) > 2 ** 63
        with pytest.raises(CapacityError, match=rf"^DPU 1 needs {2 * big + 3 + 3 * 32} B of MRAM"):
            plan_job(ShaWorkload(lengths), n_ranks=1, dpus_per_rank=4)

    def test_job_beyond_int64_counts_gets_the_mram_error(self):
        """A buffer whose per-DPU byte counts would wrap in int64 gets the
        per-DPU MRAM error, with the same text as an in-range one; it used
        to wrap every DPU's bytes to 0 and plan a 7.9e11 s job. So does the
        longest message a SHA-256 length field holds."""
        with pytest.raises(CapacityError,
                           match=r"^DPU 0 needs 100663296 B of MRAM, budget is 66060288 B$"):
            plan_job(AesWorkload(48 << 20), n_ranks=1, dpus_per_rank=1)
        with pytest.raises(CapacityError,
                           match=r"^DPU 0 needs 9223372036854775808 B of MRAM, budget is 66060288 B$"):
            plan_job(AesWorkload(2 ** 68))
        with pytest.raises(CapacityError, match=r"^DPU 0 needs 2305843009213693983 B of MRAM"):
            plan_job(ShaWorkload([MAX_MESSAGE_BYTES]))

    def test_messages_summing_beyond_int64_get_the_mram_error(self):
        """Five longest messages on one DPU sum past int64. The DPU gets the
        per-DPU MRAM error with its exact need as a Python int; the int64
        sum used to wrap negative, and simulate_transfer raised ValueError."""
        need = 5 * (MAX_MESSAGE_BYTES + 32)
        assert need > 2 ** 63
        with pytest.raises(CapacityError,
                           match=rf"^DPU 0 needs {need} B of MRAM, budget is 66060288 B$"):
            plan_job(ShaWorkload([MAX_MESSAGE_BYTES] * 5), dpus_per_rank=1)
        # on a machine whose MRAM holds them, the same job is planned from
        # its exact byte count
        roomy = _config(dataclasses.replace(PROFILE, mram_bytes=1 << 64))
        plan = plan_job(ShaWorkload([MAX_MESSAGE_BYTES] * 5 + [3]), dpus_per_rank=2,
                        config=roomy)
        assert plan.payload_bytes_to_dpu == 5 * MAX_MESSAGE_BYTES + 3
        assert plan.payload_bytes_from_dpu == 6 * 32
        assert {type(t) for phase in plan.rank_phases for t in phase} == {float}
        assert math.isfinite(plan.makespan)

    def test_buffer_beyond_int64_counts_planned_exactly(self):
        """On a machine whose MRAM holds it, a buffer is planned from its
        exact byte counts, as Python ints once its bytes in and out pass
        int64, as messages are; partition_aes used to raise OverflowError
        and plan_job a CapacityError."""
        roomy = _config(dataclasses.replace(PROFILE, mram_bytes=1 << 80))
        for buffer_len in (2 ** 62 - 16, 2 ** 62, 2 ** 72):
            plan = plan_job(AesWorkload(buffer_len), dpus_per_rank=1, config=roomy)
            assert plan.payload_bytes_to_dpu == plan.payload_bytes_from_dpu == buffer_len
            assert {type(t) for phase in plan.rank_phases for t in phase} == {float}
            assert math.isfinite(plan.makespan)
        units, items, in_bytes, out_bytes = _arrays(partition_aes(2 ** 72, 1))
        assert units == items == [2 ** 68]
        assert in_bytes == out_bytes == [2 ** 72]

    @pytest.mark.parametrize("length", [2 ** 70, 1.5, -1, MAX_MESSAGE_BYTES + 1, []])
    def test_message_length_out_of_range_rejected(self, length):
        """A length that int64 cannot hold, or that is not a whole number of
        bytes, is rejected before it is cast: 2**70 used to raise a bare
        OverflowError and 1.5 was planned as a 1-byte message. So is an
        empty list as a length: the (1, 0) lengths [[]] used to get numpy's
        "setting an array element with a sequence"."""
        bounds = rf"^message lengths must be integers in 0\.\.{MAX_MESSAGE_BYTES}$"
        with pytest.raises(ValueError, match=bounds):
            plan_job(ShaWorkload([length]))

    @pytest.mark.parametrize("length", [-16, -8, 32.0, 8.5, True, "32", None])
    def test_buffer_length_not_a_count_rejected(self, length):
        """A buffer length that is negative or not an integer is rejected
        before its alignment is checked: -16 used to give a partition of -1
        blocks, and 32.0 a TypeError from slicing."""
        bounds = r"^buffer length must be a non-negative integer, got "
        with pytest.raises(ValueError, match=bounds):
            partition_aes(length, 1)
        with pytest.raises(ValueError, match=bounds):
            plan_job(AesWorkload(length))

    def test_parameter_ranges(self):
        with pytest.raises(ValueError):
            plan_job(AesWorkload(160), tasklets=0)
        with pytest.raises(ValueError):
            plan_job(AesWorkload(160), tasklets=25)
        with pytest.raises(ValueError):
            plan_job(AesWorkload(160), n_ranks=41)

    @pytest.mark.parametrize("name", ["n_ranks", "dpus_per_rank", "tasklets", "n_dpus"])
    @pytest.mark.parametrize("value", [7.5, 2.5, 3.0, True, np.bool_(True), np.float64(2.0), "2"])
    def test_topology_not_an_integer_rejected(self, name, value):
        """A topology argument, or a partitioner's n_dpus, that is not an
        integer is rejected by name: tasklets=7.5 used to give a plan that
        said 7.5 and was priced at 7, tasklets=True was planned as 1,
        n_ranks=2.5 got numpy's TypeError, partition_aes(160, 2.5) planned
        64.0 of the 160 bytes on 2.5 DPUs and partition_sha([1, 2, 3], 2.5)
        raised a bare TypeError. run_job forwards the topology to plan_job,
        so it rejects it too."""
        bounds = rf"^{name} must be an integer, got "
        if name == "n_dpus":
            calls = (lambda: partition_aes(160, value), lambda: partition_sha([1, 2, 3], value))
        else:
            calls = (lambda: plan_job(AesWorkload(1 << 20), **{name: value}),
                     lambda: run_job([b"a"], **{name: value}))
        for call in calls:
            with pytest.raises(ValueError, match=bounds):
                call()

    @pytest.mark.parametrize("name", ["n_ranks", "dpus_per_rank", "tasklets"])
    @pytest.mark.parametrize("integer", [np.int64, _Index], ids=["numpy", "index"])
    def test_topology_numpy_integer_accepted(self, name, integer):
        """A numpy integer, or any object with __index__, is an integer, as
        it is in partition_sha's list of lengths: plan_job takes it as a
        topology argument, partition_aes as its length and DPU count, and
        partition_sha as a SameLengths length and its DPU count. Each keeps
        the int that operator.index gives."""
        plan, expected = (plan_job(AesWorkload(1 << 20), **{name: v}) for v in (integer(2), 2))
        assert (plan.makespan, getattr(plan, name)) == (expected.makespan, 2)
        assert type(getattr(plan, name)) is int
        for taken, plain in ((partition_aes(integer(160), integer(3)), partition_aes(160, 3)),
                             (partition_sha(orchestrator.SameLengths(integer(100), 5), integer(3)),
                              partition_sha(orchestrator.SameLengths(100, 5), 3))):
            assert _arrays(taken) == _arrays(plain)
            assert {type(n) for column in _arrays(taken) for n in column} == {int}


class TestBroadcast:
    def test_once_per_job_regardless_of_rank_count(self):
        for ranks, dpus in ((1, 32), (2, 16), (4, 8)):
            plan = plan_job(
                AesWorkload(1 << 20), n_ranks=ranks, dpus_per_rank=dpus
            )
            assert plan.broadcast_bytes == 176 * 32

    def test_priced_ahead_of_payload(self):
        plan = plan_job(AesWorkload(1 << 20), n_ranks=2, dpus_per_rank=8)
        # staging starts at the end of the broadcast, the first element of its cumsum
        assert plan.timeline.times.min() == plan.broadcast_seconds


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

    @pytest.mark.parametrize("strategy", list(Strategy))
    @pytest.mark.parametrize("n_ranks", [1, 3])
    def test_empty_hash_job_costs_nothing(self, n_ranks, strategy):
        """No messages means no hash blocks to spread the digest writes
        over: the job moves no byte and takes no modeled time."""
        result = run_job([], strategy=strategy, n_ranks=n_ranks)
        plan = result.plan
        assert result.output == []
        assert tuple(plan.phase_times) == (0.0, 0.0, 0.0, 0.0)
        assert plan.makespan == 0.0
        assert (plan.payload_bytes_to_dpu, plan.payload_bytes_from_dpu,
                plan.broadcast_bytes) == (0, 0, 0)
        assert not validate_timeline(plan.timeline)


class TestPhaseTimes:
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
        times = plan.timeline.times.copy()
        times[1, EVENT_KINDS.index("launch")] = 0.0
        violations = validate_timeline(ExecutionTimeline(times))
        assert violations
        assert any(v.rank == 1 and "launch" in v.rule for v in violations)

    def test_negative_timestamp_flagged(self):
        timeline = ExecutionTimeline([[-1.0] + [0.0] * (len(EVENT_KINDS) - 1)])
        assert any("negative" in v.rule for v in validate_timeline(timeline))

    def test_empty_timeline_ok(self):
        assert validate_timeline(ExecutionTimeline(np.empty((0, 8)))) == []
        assert ExecutionTimeline(np.empty((0, 8))).makespan == 0.0

    @pytest.mark.parametrize("dirty", [
        {"prepare_start": -1.0},
        {"launch": 0.0},
        {"prepare_start": -1.0, "launch": 0.0},
    ], ids=["negative", "out-of-order", "both"])
    def test_only_last_rank_dirty_gives_every_violation(self, dirty):
        """A timeline whose one dirty row is its last still fails the
        whole-array test, and that row gets the full violation list."""
        plan = plan_job(AesWorkload(40 << 20), n_ranks=40, strategy=Strategy.SYNC)
        times = plan.timeline.times.copy()
        for kind, value in dirty.items():
            times[-1, EVENT_KINDS.index(kind)] = value
        violations = validate_timeline(ExecutionTimeline(times))
        assert violations == _row_walk(times.tolist())
        assert [(v.rank, v.rule) for v in violations] == [
            (39, rule) for kind, rule in (("prepare_start", "negative timestamp"),
                                          ("launch", "launch before transfer_to_end"))
            if kind in dirty
        ]


# sha256 of repr([(time, rank, kind), ...]), sorted, for a 3-rank,
# 5-DPU-per-rank job with uneven ranks; pins every modeled timestamp bit for bit.
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
    times = plan.timeline.times
    assert times.shape == (3, len(EVENT_KINDS))
    keyed = sorted((t, r, k) for r, row in enumerate(times.tolist()) for k, t in enumerate(row))
    text = repr([(t, r, EVENT_KINDS[k]) for t, r, k in keyed])
    assert hashlib.sha256(text.encode()).hexdigest() == _GOLDEN_TIMELINES[algorithm, strategy]


def _row_walk(rows):
    """Oracle: per rank, its negative times in (time, kind) order, then each
    kind whose time is below the time of the kind before it."""
    violations = []
    for rank, row in enumerate(rows):
        violations += [
            TimelineViolation(rank, "negative timestamp", f"{EVENT_KINDS[k]}@{t}")
            for t, k in sorted(zip(row, range(len(row)))) if t < 0
        ]
        violations += [
            TimelineViolation(rank, f"{EVENT_KINDS[k]} before {EVENT_KINDS[k - 1]}",
                              f"{row[k]} < {row[k - 1]}")
            for k in range(1, len(row)) if row[k] < row[k - 1]
        ]
    return violations


_TIMES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.25, 1.0, 1.0, -1.0, 2.5]),
    st.floats(-5, 5, allow_nan=False),
)


@st.composite
def _time_rows(draw):
    """Rows of a times array: in kind order or not, with -0.0, negative
    and equal times common. Each example is drawn as one array, with the
    rows a drawn mask picks sorted."""
    n = draw(st.integers(0, 5))
    times = draw(arrays(np.float64, (n, len(EVENT_KINDS)), elements=_TIMES,
                        fill=st.sampled_from([0.0, -0.0, 1.0, -1.0])))
    in_order = draw(arrays(np.bool_, n))
    times[in_order] = np.sort(times[in_order], axis=1)
    return times.tolist()


@st.composite
def _jobs(draw):
    """A plan_job call of 1-40 ranks with drawn staging and channel rates,
    on an AES buffer or on few enough messages that ranks with no work
    (all durations zero) and equal event times are common."""
    n_ranks, dpus = draw(st.integers(1, 40)), draw(st.integers(1, 4))
    rate = st.sampled_from([1e8, 1e9, 1e10, 1e11])
    profile = dataclasses.replace(
        PROFILE, host_prepare_rate=draw(rate),
        cpu_to_dpu_bandwidth_per_rank=draw(rate), dpu_to_cpu_bandwidth_per_rank=draw(rate),
    )
    if draw(st.booleans()):
        workload = AesWorkload(16 * draw(st.integers(0, 64 * n_ranks * dpus)))
    else:
        workload = ShaWorkload(tuple(draw(st.lists(st.integers(0, 3000), max_size=100))))
    return workload, dict(n_ranks=n_ranks, dpus_per_rank=dpus,
                          tasklets=draw(st.integers(1, 24)), config=_config(profile))


class TestTimelineArray:
    @settings(max_examples=200, deadline=None)
    @given(job=_jobs(), strategy=st.sampled_from(list(Strategy)),
           other=st.sampled_from(list(Strategy)))
    def test_plan_matches_reference_schedule(self, job, strategy, other):
        """A plan's event times, phase times and makespan are, bit for bit,
        what the reference scheduler and interval union give for its rank
        phases from the end of its key broadcast; so are those of the plan
        rescheduled for another strategy, which is the plan priced for it."""
        workload, kwargs = job
        plan = plan_job(workload, strategy=strategy, **kwargs)
        rescheduled = dataclasses.replace(plan, strategy=other)
        priced = plan_job(workload, strategy=other, **kwargs)
        assert rescheduled == priced
        assert rescheduled.rank_phases == priced.rank_phases
        for scheduled in (plan, rescheduled):
            rows = reference.schedule(
                scheduled.strategy.value, _phase_rows(scheduled),
                scheduled.broadcast_seconds,
            )
            assert scheduled.timeline.times.tolist() == rows
            assert scheduled.phase_times == tuple(
                reference.union_length([(row[2 * k], row[2 * k + 1]) for row in rows])
                for k in range(4)
            )
            assert scheduled.makespan == max(map(max, rows))
            assert validate_timeline(scheduled.timeline) == []

    @settings(max_examples=300, deadline=None)
    @given(rows=_time_rows())
    # in order, latest time zero: the first zero in column order is -0.0
    @example(rows=[[-0.0] + [0.0] * (len(EVENT_KINDS) - 1)])
    def test_validator_matches_event_walk(self, rows):
        """Negative and out-of-order times give the violations a walk over
        each row gives, in the same order and text, from a timeline of the
        array and from one of its columns; the timeline keeps a read-only
        copy of the array it was given."""
        times = np.array(rows, dtype=np.float64).reshape(-1, len(EVENT_KINDS))
        timeline = ExecutionTimeline(times)
        assert validate_timeline(timeline) == _row_walk(rows)
        columns = ExecutionTimeline.from_columns(times.T.tolist())
        assert columns == timeline and validate_timeline(columns) == _row_walk(rows)
        # in order exactly when nothing is reported; the makespan is the
        # latest time, the first of equal ones in column order (so a zero
        # keeps its sign), in or out of order
        assert timeline._in_order == columns._in_order == (not _row_walk(rows))
        latest = max(map(max, zip(*rows))) if rows else 0.0
        assert repr(timeline.makespan) == repr(columns.makespan) == repr(latest)
        assert not timeline.times.flags.writeable
        with pytest.raises(ValueError):
            timeline.times[...] = 0.0
        assert ExecutionTimeline(times) == timeline
        before = times.copy()
        times[...] = 1.0  # the timeline holds its own copy
        assert np.array_equal(timeline.times, before)

    def test_nothing_reads_times(self, monkeypatch, tmp_path, capsys):
        """validate_timeline's report, a timeline's repr and encrypt -v read
        the columns: with ExecutionTimeline.times raising, each still gives
        what it gave from the times array."""
        def unread(timeline):
            raise AssertionError("ExecutionTimeline.times was read")

        monkeypatch.setattr(ExecutionTimeline, "times", property(unread))
        rows = [[0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0],
                [-1.0, 1.0, 0.5, 2.0, 2.0, -0.0, 3.0, 4.0]]
        timeline = ExecutionTimeline.from_columns(list(zip(*rows)))
        assert validate_timeline(timeline) == _row_walk(rows) != []
        assert repr(timeline) == f"ExecutionTimeline(times={rows!r})"
        src = tmp_path / "plain.bin"
        src.write_bytes(bytes(64))
        argv = ["encrypt", "--key", KEY.hex(), "--in", str(src), "--out",
                str(tmp_path / "cipher.bin"), "--ranks", "2", "-v"]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.count("\nevent t=") == 2 * len(EVENT_KINDS)

    def test_columns_cannot_change(self):
        """A timeline keeps its own copy of the columns it is built from: a
        caller's lists changed after from_columns leave it, and its lazily
        built times, as they were. Its columns read as tuples, take no
        assignment and hand out no list, not even through a slice."""
        given = [[float(k + 10 * r) for r in range(3)] for k in range(len(EVENT_KINDS))]
        timeline = ExecutionTimeline.from_columns(given)
        kept = tuple(map(tuple, given))
        given[0][0] = given[7][2] = -1.0
        assert tuple(timeline.columns) == kept and repr(timeline.columns) == repr(kept)
        assert timeline.times.tolist() == [list(row) for row in zip(*kept)]
        assert timeline == ExecutionTimeline(list(zip(*kept)))
        assert timeline.columns == ExecutionTimeline.from_columns(kept).columns
        with pytest.raises(TypeError):
            timeline.columns[0][0] = 1.0
        with pytest.raises(TypeError):
            timeline.columns[0] = ()
        with pytest.raises(TypeError):
            timeline.columns[:1]

    def test_columns_hold_python_floats(self):
        """Columns(columns) keeps float(t) of every real time, so a timeline
        of int or numpy times reads as the one of the (ranks, 8) array."""
        ints = ExecutionTimeline.from_columns([[1]] * len(EVENT_KINDS))
        assert repr(ints.makespan) == "1.0"
        assert repr(ints) == repr(ExecutionTimeline([[1] * len(EVENT_KINDS)]))
        numpy = ExecutionTimeline.from_columns(np.ones((len(EVENT_KINDS), 1)))
        assert {type(t) for column in numpy.columns for t in column} == {float}
        assert type(numpy.makespan) is float and numpy == ints

    @pytest.mark.parametrize("value", ["1.5", b"1.5", None])
    def test_columns_reject_what_is_not_a_real(self, value):
        """A time that is not a numbers.Real raises TypeError naming it,
        though float() would read a string, and so does a plan's phase."""
        columns = [[1.0, 2.0] for _ in EVENT_KINDS]
        columns[3][1] = value
        with pytest.raises(TypeError, match=re.escape(repr(value))):
            ExecutionTimeline.from_columns(columns)
        with pytest.raises(TypeError, match=re.escape(repr(value))):
            _plan_of(columns[:4], 0.0, Strategy.SYNC)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_times_rejected(self, value):
        """Every rank has every event, so no cell may be NaN or infinite."""
        times = np.zeros((2, len(EVENT_KINDS)))
        times[1, EVENT_KINDS.index("launch")] = value
        with pytest.raises(ValueError, match="finite"):
            ExecutionTimeline(times)

    def test_finite_times_whose_sum_overflows_accepted(self):
        """Finiteness is tested on the sum of the times first and on each
        time only if that sum is not finite: eight columns of 1e308 sum to
        inf and are still accepted."""
        timeline = ExecutionTimeline.from_columns([[1e308]] * len(EVENT_KINDS))
        assert timeline.makespan == 1e308 and validate_timeline(timeline) == []

    @pytest.mark.parametrize("values", [[math.inf], [math.nan], [math.inf, -math.inf]])
    def test_non_finite_columns_rejected(self, values):
        """One inf or NaN among finite times is rejected, and so are +inf
        and -inf together, whose sum is NaN."""
        columns = [[1.0, 2.0] for _ in EVENT_KINDS]
        for k, value in enumerate(values):
            columns[3 + k][1] = value
        with pytest.raises(ValueError, match="finite"):
            ExecutionTimeline.from_columns(columns)

    @pytest.mark.parametrize("shape", [(8,), (0,), (2, 7), (2, 9), (1, 2, 8)])
    def test_wrong_shape_rejected(self, shape):
        """The type holds a (ranks, 8) array and nothing else, which the
        validator relies on."""
        with pytest.raises(ValueError, match="ranks, 8"):
            ExecutionTimeline(np.zeros(shape))


# durations a plan may hold: zeros of both signs, ragged values, and
# values near 1e308, whose sums may overflow
_DURATIONS = (st.sampled_from([0.0, -0.0, 5e-324, 0.5, 1.0, 8.9e307, 1e308])
              | st.floats(0, 10) | st.floats(0, 1e308))


@st.composite
def _phase_columns(draw):
    """The four phase columns of 1-6 ranks."""
    n = draw(st.integers(1, 6))
    return [draw(st.lists(_DURATIONS, min_size=n, max_size=n)) for _ in range(4)]


def _plan_of(phases, t0, strategy):
    """The JobPlan of rank phases given as four columns, from t0."""
    return JobPlan(strategy=strategy, n_ranks=len(phases[0]), dpus_per_rank=1, tasklets=1,
                   rank_phases=phases, payload_bytes_to_dpu=0, payload_bytes_from_dpu=0,
                   broadcast_bytes=0, broadcast_seconds=t0)


class TestScheduleInOrder:
    """A plan checks its durations and trusts the order they give its
    timeline; each test here checks that trust against the event-by-event
    checks of a timeline from outside."""

    @settings(max_examples=400, deadline=None)
    @given(phases=_phase_columns(), t0=_DURATIONS, strategy=st.sampled_from(list(Strategy)))
    @example(phases=[[1e308, 1e308]] * 4, t0=0.0, strategy=Strategy.SYNC)
    @example(phases=[[-0.0]] * 4, t0=-0.0, strategy=Strategy.SYNC)
    def test_plan_timeline_passes_the_event_checks(self, phases, t0, strategy):
        """The plan's timeline equals the one from_columns checks event by
        event from its columns, with the same order flag (True), the same
        makespan bit for bit and no violation; where the reference
        scheduler gives a time that is not finite, the plan raises the
        non-finite ProfileError."""
        rows = reference.schedule(strategy.value, [list(row) for row in zip(*phases)], t0)
        if not all(map(math.isfinite, chain.from_iterable(rows))):
            with pytest.raises(ProfileError, match="non-finite"):
                _plan_of(phases, t0, strategy)
            return
        plan = _plan_of(phases, t0, strategy)
        checked = ExecutionTimeline.from_columns(plan.timeline.columns)
        assert plan.timeline == checked and plan.timeline.times.tolist() == rows
        assert plan.timeline._in_order is checked._in_order is True
        assert repr(plan.makespan) == repr(checked.makespan)
        assert validate_timeline(checked) == [] == validate_timeline(plan.timeline)

    @pytest.mark.parametrize("strategy", list(Strategy))
    @pytest.mark.parametrize("phase,rank,value", [
        (0, 0, -1.0), (2, 3, -5e-324), (3, 5, -1e308), (1, 2, -1.0),
    ])
    def test_negative_duration_rejected(self, strategy, phase, rank, value):
        """A negative phase is a ValueError that names it, not a timeline
        out of order."""
        phases = [[1.0] * 6 for _ in range(4)]
        phases[phase][rank] = value
        name = PhaseTimes._fields[phase]
        with pytest.raises(ValueError, match=re.escape(
                f"rank {rank}'s {name} duration must be non-negative, got {value!r}")):
            _plan_of(phases, 0.0, strategy)

    @pytest.mark.parametrize("t0", [-1.0, -5e-324])
    def test_negative_broadcast_rejected(self, t0):
        with pytest.raises(ValueError, match=re.escape(
                f"broadcast_seconds must be non-negative, got {t0!r}")):
            _plan_of([[1.0] * 3 for _ in range(4)], t0, Strategy.SYNC)

    @pytest.mark.parametrize("strategy", list(Strategy))
    @pytest.mark.parametrize("phase,rank,value", [
        (0, 0, math.nan), (0, 2, math.nan), (1, 5, math.nan), (3, 4, math.nan),
        (2, 3, math.inf), (0, 1, -math.inf),
    ])
    def test_non_finite_duration_rejected(self, strategy, phase, rank, value):
        """A NaN, wherever it is, or an infinity is the non-finite
        ProfileError: no max or min over the phases passes it by."""
        phases = [[1.0] * 6 for _ in range(4)]
        phases[phase][rank] = value
        with pytest.raises(ProfileError, match="non-finite"):
            _plan_of(phases, 0.0, strategy)

    @pytest.mark.parametrize("t0", [math.nan, math.inf, -math.inf])
    def test_non_finite_broadcast_rejected(self, t0):
        with pytest.raises(ProfileError, match="non-finite"):
            _plan_of([[1.0] * 3 for _ in range(4)], t0, Strategy.SYNC)

    def test_phases_are_checked_once(self, monkeypatch):
        """A plan rescheduled from the same rank_phases does not check them
        again; a plan built from a copy of them does."""
        checks = []
        check = orchestrator._check_durations
        monkeypatch.setattr(orchestrator, "_check_durations",
                            lambda phases: checks.append(phases) or check(phases))
        plan = plan_job(AesWorkload(16 << 20), n_ranks=40)
        for strategy in Strategy:
            plan = plan.rescheduled(strategy)
        assert len(checks) == 1
        _plan_of([list(phase) for phase in plan.rank_phases], 0.0, Strategy.SYNC)
        assert len(checks) == 2


def _phase_rows(plan):
    """A plan's rank phases as one [prepare, to_dpu, kernel, from_dpu] list per rank."""
    return [list(row) for row in zip(*plan.rank_phases)]


def _planned(workload, strategy, config, **topology):
    """A plan_job call's rank phases, broadcast time, event times, makespan
    and phase times, as their repr (which tells -0.0 from 0.0), or the
    error it raises: a CapacityError by its text, a ProfileError by name."""
    try:
        plan = plan_job(workload, strategy=strategy, config=config, **topology)
    except CapacityError as exc:
        return "CapacityError", str(exc)
    except ProfileError:
        return "ProfileError"
    return repr((_phase_rows(plan), plan.broadcast_seconds, plan.timeline.times.tolist(),
                 plan.makespan, tuple(plan.phase_times)))


def _oracle(workload, strategy, config, n_ranks, dpus_per_rank, tasklets):
    """What reference.plan and reference.schedule give for the same call,
    in _planned's form: a time that is not finite is a ProfileError."""
    algorithm = "aes128" if isinstance(workload, AesWorkload) else "sha256"
    size = (workload.buffer_len if algorithm == "aes128"
            else [int(n) for n in workload.message_lengths])
    try:
        phases, t0 = reference.plan(algorithm, size, n_ranks, dpus_per_rank, tasklets,
                                    dataclasses.asdict(config.machine),
                                    config.kernel_costs[algorithm].instructions_per_unit)
    except ValueError as exc:
        return "CapacityError", str(exc)
    rows = reference.schedule(strategy.value, phases, t0)
    if not all(math.isfinite(t) for row in rows for t in row):
        return "ProfileError"
    phase_times = tuple(reference.union_length([(row[2 * k], row[2 * k + 1]) for row in rows])
                        for k in range(4))
    return repr((phases, t0, rows, max(map(max, rows)), phase_times))


# a rate or a frequency: a bundled one, or any in a wide range
_RATE = st.sampled_from([1.5e8, 4.5e8, 6e8, 8e9]) | st.floats(1e3, 1e12)
# values that drive some modeled time past the float range
_OVERFLOWS = [("dpu_frequency", 5e-324), ("host_prepare_rate", 5e-324),
              ("cpu_to_dpu_bandwidth_per_rank", 1e-300),
              ("dpu_to_cpu_bandwidth_per_rank", 5e-324), ("mram_fixed_cycles", 1.7e308)]


@st.composite
def _oracle_jobs(draw):
    """A machine of up to 4 ranks x 8 DPUs with every field drawn within
    its valid range (now and then one that overflows a time), and a job on
    it: an AES buffer or ragged message lengths (none, too), a topology,
    tasklets and a strategy."""
    dpus_per_rank, num_ranks = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    usable = draw(st.integers(1, dpus_per_rank * num_ranks))
    max_tasklets = draw(st.integers(1, 24))
    access = 8 * draw(st.integers(1, 256))
    fields = dict(
        dpus_per_rank=dpus_per_rank, num_ranks=num_ranks, usable_dpus=usable,
        dpu_frequency=draw(_RATE), max_tasklets=max_tasklets,
        pipeline_saturation_tasklets=draw(st.integers(1, max_tasklets)),
        wram_bytes=max_tasklets * access + draw(st.integers(0, 4096)),
        mram_bytes=draw(st.sampled_from([64 << 20, 1 << 80]) if draw(st.integers(0, 3))
                        else st.integers(1, 1 << 22)),
        cpu_to_dpu_bandwidth_per_rank=draw(_RATE), dpu_to_cpu_bandwidth_per_rank=draw(_RATE),
        host_prepare_rate=draw(_RATE),
        mram_fixed_cycles=draw(st.floats(1e-3, 1e4) | st.just(128.0)),
        mram_cycles_per_byte=draw(st.floats(1e-6, 100) | st.just(0.5)),
        max_mram_access_bytes=access,
    )
    if draw(st.integers(0, 9)) == 0:
        fields.update([draw(st.sampled_from(_OVERFLOWS))])
    n_ranks = draw(st.integers(1, min(num_ranks, usable)))
    topology = dict(n_ranks=n_ranks,
                    dpus_per_rank=draw(st.integers(1, min(dpus_per_rank, usable // n_ranks))),
                    tasklets=draw(st.integers(1, max_tasklets)))
    if draw(st.booleans()):
        blocks = (st.integers(0, 4096) | st.integers(0, 64) if draw(st.integers(0, 4))
                  else st.integers(0, 1 << 70))
        workload = AesWorkload(16 * draw(blocks))
    else:
        length = st.integers(0, 5000) | st.sampled_from([0, 55, 56, 64, 119, 120])
        lengths = draw(st.lists(length, max_size=60))
        if draw(st.integers(0, 4)) == 0:  # an 8 MiB message
            lengths.insert(draw(st.integers(0, len(lengths))), 1 << 23)
        workload = ShaWorkload(lengths)
    strategy = draw(st.sampled_from(list(Strategy)))
    return workload, strategy, _config(MachineProfile(**fields)), topology


class TestReferencePlan:
    """plan_job prices and schedules a job exactly as reference.plan and
    reference.schedule do from the machine model's rules, bit for bit:
    its rank phases, every event time, the makespan and the phase times,
    or the same error."""

    @settings(max_examples=300, deadline=None)
    @given(job=_oracle_jobs())
    def test_plan_equals_reference(self, job):
        workload, strategy, config, topology = job
        assert _planned(workload, strategy, config, **topology) == _oracle(
            workload, strategy, config, **topology)

    @pytest.mark.parametrize("end", [0, -1], ids=["first", "last"])
    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_bundled_experiments_equal_reference(self, algorithm, experiment, end):
        """Each bundled experiment at both ends of its sweep, as bench plans
        it, under each strategy."""
        config = bundled_default_config()
        spec = ExperimentSpec.from_config(experiment, {"algorithm": algorithm})
        workload, topology = bench._point(spec, spec.sweep[end], config.machine)
        for strategy in Strategy:
            assert _planned(workload, strategy, config, **topology) == _oracle(
                workload, strategy, config, **topology)


class TestShaTaskletAssignment:
    def test_fewer_messages_than_tasklets_idles_tasklets(self):
        plan = plan_job(ShaWorkload((5000,) * 3), n_ranks=1, dpus_per_rank=1, tasklets=16)
        units = 3 * padded_block_count(5000)
        cost = _sha_cost_for(_SHA_COST, 3, units)
        kernel_s = plan.phase_times.kernel
        assert kernel_s == simulate_dpu_kernel(units, 3, cost, PROFILE)
        assert kernel_s != simulate_dpu_kernel(units, 16, cost, PROFILE)

    def test_dpu_without_messages_has_no_work(self):
        units = _arrays(partition_sha((5000,), 4))[0]
        assert units[0] > 0
        assert units[1:] == [0, 0, 0]
        # the idle DPUs price at zero, so the rank costs what DPU 0 does
        plan = plan_job(ShaWorkload((5000,)), n_ranks=1, dpus_per_rank=4, tasklets=16)
        cost = _sha_cost_for(_SHA_COST, 1, units[0])
        assert plan.phase_times.kernel == simulate_dpu_kernel(units[0], 1, cost, PROFILE)


def test_job_prices_each_distinct_dpu_workload_once(monkeypatch):
    """One pricing call per plan, and one DPU pricing per distinct (units,
    active tasklets) pair of the job, however many ranks share it: a 16 MiB
    split over 40 ranks gives the DPUs of ranks 0-23 410 blocks each and
    those of ranks 24-39 409."""
    priced, jobs = [], []
    price_dpu, price_job = mc.simulate_dpu_kernel, mc.simulate_rank_kernel
    monkeypatch.setattr(mc, "simulate_dpu_kernel",
                        lambda *args: priced.append(args[:2]) or price_dpu(*args))
    monkeypatch.setattr(mc, "simulate_rank_kernel",
                        lambda *args: jobs.append(args) or price_job(*args))
    plan = plan_job(AesWorkload(16 << 20), n_ranks=40)
    assert len(jobs) == 1
    assert priced == [(410, 16), (409, 16)]
    cost = bundled_default_config().kernel_costs["aes128"]
    assert plan.rank_phases[2] == (
        (price_dpu(410, 16, cost, PROFILE),) * 24
        + (price_dpu(409, 16, cost, PROFILE),) * 16
    )


def test_typed_buffer_is_sized_in_bytes():
    """A memoryview of a typed array is planned and encrypted by its bytes,
    not its item count, exactly like the bytes it holds."""
    plain = _random_buffer(16 * 50, seed=4)
    typed = run_job(memoryview(array("I", plain)), KEY, n_ranks=2)
    expected = run_job(plain, KEY, n_ranks=2)
    assert typed.plan == expected.plan
    assert typed.plan.rank_phases == expected.plan.rank_phases
    assert typed.plan.payload_bytes_to_dpu == len(plain)
    assert typed.output == expected.output


@pytest.mark.parametrize("wrap", [
    lambda b: np.frombuffer(b, np.uint8),
    lambda b: np.frombuffer(b, np.uint32),
    lambda b: array("B", b),
], ids=["numpy-uint8", "numpy-uint32", "array-B"])
def test_any_buffer_is_encrypted_with_its_key(wrap):
    """A numpy array or an array.array is a buffer to encrypt under the key,
    not a sequence of byte values to hash."""
    plain = _random_buffer(16 * 50, seed=5)
    result = run_job(wrap(plain), KEY, n_ranks=2)
    expected = run_job(plain, KEY, n_ranks=2)
    assert result.output == expected.output
    assert result.plan == expected.plan
    assert result.plan.rank_phases == expected.plan.rank_phases


def test_file_is_planned_and_encrypted_like_its_padded_bytes(tmp_path):
    """An open file is planned from its size, zero-filled to a whole block,
    and its output yields the ciphertext of those bytes chunk by chunk."""
    plain = _random_buffer(16 * 50 + 7, seed=6)
    path = tmp_path / "plain.bin"
    path.write_bytes(plain)
    expected = run_job(plain + bytes(9), KEY, n_ranks=2)
    with open(path, "rb") as fh:
        result = run_job(fh, KEY, n_ranks=2)
        assert b"".join(result.output) == expected.output
    assert result.plan == expected.plan
    assert result.plan.rank_phases == expected.plan.rank_phases
    with open(path, "rb") as fh, pytest.raises(ValueError, match="key"):
        run_job(fh)


def test_file_chunks_are_one_buffer_to_copy(tmp_path, monkeypatch):
    """A file's output yields every chunk in the one buffer it was read
    into, which the next chunk overwrites: a caller who copies each chunk
    as it comes gets the whole ciphertext."""
    monkeypatch.setattr(orchestrator, "CHUNK_BYTES", 48)
    plain = _random_buffer(16 * 10 + 7, seed=7)
    path = tmp_path / "plain.bin"
    path.write_bytes(plain)
    expected = run_job(plain + bytes(9), KEY).output
    with open(path, "rb") as fh:
        chunks = [bytes(chunk) for chunk in run_job(fh, KEY).output]
    assert [len(chunk) for chunk in chunks] == [48, 48, 48, 32]
    assert b"".join(chunks) == expected
    with open(path, "rb") as fh:
        views = list(run_job(fh, KEY).output)
    assert all(view.obj is views[0].obj for view in views)


@pytest.mark.parametrize("n", [0, 7, 16])
def test_file_buffer_is_sized_to_a_small_input(tmp_path, n):
    """A file smaller than a chunk is read into a buffer of its padded
    size, not a whole CHUNK_BYTES."""
    path = tmp_path / "plain.bin"
    path.write_bytes(bytes(range(n)))
    with open(path, "rb") as fh:
        [chunk] = run_job(fh, KEY).output
    assert len(chunk.obj) == len(chunk) == n + -n % 16


def test_key_with_messages_rejected():
    with pytest.raises(ValueError, match="key"):
        run_job([b"abc", b"de"], KEY)


class TestJobConfig:
    """A job is priced under one Config, with the kernel cost of its own
    workload's algorithm; no caller pairs a cost with a workload."""

    @staticmethod
    def _slower(algorithm):
        cost = bundled_default_config().kernel_costs[algorithm]
        return dataclasses.replace(cost, instructions_per_unit=3 * cost.instructions_per_unit)

    @pytest.mark.parametrize("workload,algorithm,other", [
        (AesWorkload(1 << 20), "aes128", "sha256"),
        (ShaWorkload((1000,) * 300), "sha256", "aes128"),
    ], ids=["aes", "sha"])
    def test_cost_follows_algorithm(self, workload, algorithm, other):
        options = dict(strategy=Strategy.ASYNC_RANK_EXECUTION, n_ranks=2)
        bundled = plan_job(workload, **options)
        unaffected = plan_job(workload, config=_config(**{other: self._slower(other)}), **options)
        assert unaffected == bundled
        assert unaffected.rank_phases == bundled.rank_phases
        # the job's own cost does take effect
        priced = plan_job(workload, config=_config(**{algorithm: self._slower(algorithm)}),
                          **options)
        assert priced.phase_times.kernel > bundled.phase_times.kernel

    def test_run_job_forwards_options(self):
        config = _config(dataclasses.replace(PROFILE, host_prepare_rate=1e8),
                         aes128=self._slower("aes128"))
        options = dict(strategy=Strategy.ASYNC_RANK_TRANSFER, n_ranks=3, tasklets=5,
                       dpus_per_rank=7, config=config)
        plan = run_job(bytes(4096), KEY, **options).plan
        expected = plan_job(AesWorkload(4096), **options)
        assert plan == expected
        assert plan.rank_phases == expected.rank_phases

    def test_no_profile_or_cost_parameter(self):
        for fn in (plan_job, run_job):
            assert not {"profile", "cost"} & set(inspect.signature(fn).parameters), fn
        for name, value in (("profile", PROFILE), ("cost", _SHA_COST)):
            with pytest.raises(TypeError, match=name):
                run_job(bytes(16), KEY, **{name: value})
            with pytest.raises(TypeError, match=name):
                run_job([b"abc"], **{name: value})


@pytest.mark.parametrize("n_ranks", [1, 7, 40])
@pytest.mark.parametrize("workload,calls", [
    (AesWorkload(16 << 20), 3),
    (ShaWorkload((100,) * 500), 2),
], ids=["aes", "sha"])
def test_plan_prices_each_transfer_direction_once(monkeypatch, n_ranks, workload, calls):
    """One transfer pricing call per direction over every rank's total, and
    one more for an AES job's key broadcast, however many ranks; the rank
    phases are 4 read-only sequences of one float per rank, and phase k of
    rank r runs from times[r, 2k] to times[r, 2k] + rank_phases[k][r]."""
    transfers = []
    price = mc.simulate_transfer
    monkeypatch.setattr(mc, "simulate_transfer",
                        lambda *args: transfers.append(args) or price(*args))
    plan = plan_job(workload, n_ranks=n_ranks)
    assert len(transfers) == calls
    phases = plan.rank_phases
    assert [len(phase) for phase in phases] == [n_ranks] * 4
    assert {type(t) for phase in phases for t in phase} == {float}
    with pytest.raises(TypeError):
        phases[0][0] = 1.0
    with pytest.raises(TypeError):
        phases[0] = ()
    times = plan.timeline.times
    assert np.array_equal(times[:, 1::2], times[:, ::2] + np.array(phases).T)


def test_plan_keeps_its_own_phases():
    """A plan built from lists of phases copies them, so changing the
    lists afterwards leaves its phases and its schedule as they were; a
    plan rescheduled by replace equals the one priced for its strategy."""
    priced = plan_job(AesWorkload(16 << 20), n_ranks=3)
    lists = [list(phase) for phase in priced.rank_phases]
    fields = {f.name: getattr(priced, f.name) for f in dataclasses.fields(JobPlan) if f.init}
    built = JobPlan(**{**fields, "rank_phases": lists})
    lists[2][0] = 1e9
    assert built == priced and built.rank_phases == priced.rank_phases
    assert built.makespan == priced.makespan < 1e9
    pim2 = Strategy.ASYNC_RANK_EXECUTION
    assert dataclasses.replace(built, strategy=pim2) == plan_job(
        AesWorkload(16 << 20), n_ranks=3, strategy=pim2)


# each rank's 512 KiB drains in 1e308 s: pim2 drains the ranks side by
# side, sync one after the other, which overflows
_SERIAL_DRAIN_OVERFLOW = ("dpu_to_cpu_bandwidth_per_rank", (1 << 19) / 1e308)


@pytest.mark.parametrize("field,value", [
    ("host_prepare_rate", 5e-324),
    ("cpu_to_dpu_bandwidth_per_rank", 5e-324),
    ("dpu_frequency", 5e-324),
    ("mram_fixed_cycles", 1.7e308),
    _SERIAL_DRAIN_OVERFLOW,
])
def test_non_finite_time_rejected(field, value):
    """A machine value that drives a modeled time to inf or nan is a
    profile error, not a plan printing inf, also when a plan whose times
    are finite is rescheduled for a strategy under which they are not."""
    config = _config(dataclasses.replace(PROFILE, **{field: value}))
    with pytest.raises(ProfileError, match="non-finite"):
        plan_job(AesWorkload(1 << 20), n_ranks=2, config=config)
    if (field, value) == _SERIAL_DRAIN_OVERFLOW:
        plan = plan_job(AesWorkload(1 << 20), n_ranks=2, config=config,
                        strategy=Strategy.ASYNC_RANK_EXECUTION)
        assert math.isfinite(plan.makespan)
        with pytest.raises(ProfileError, match="non-finite"):
            dataclasses.replace(plan, strategy=Strategy.SYNC)
