"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one `criterion N (<name>): PASS|FAIL` line (visible with
`pytest -s`); tolerances are pinned here and nowhere else. Functional
checks are bit-exact; model checks reproduce the shape of each scaling
experiment. Absolute hardware timings are out of scope by design — the
only wall-clock measurement is the host software baseline, which the
simulated full-scale totals must beat by the stated margin.
"""

import contextlib
import random
import time

import pytest

from pimcrypt import reference as ref
from pimcrypt.aes import aes128_encrypt_buffer, key_expansion
from pimcrypt.bench import (
    ExperimentSpec,
    characterize_kernel,
    run_experiment,
    run_host_baseline,
)
from pimcrypt.machine import EVENT_KINDS, ExecutionTimeline, bundled_default_config
from pimcrypt.orchestrator import (
    AesWorkload,
    ShaWorkload,
    Strategy,
    plan_job,
    run_job,
    validate_timeline,
)
from pimcrypt.sha256 import sha256_many

ALGORITHMS = ("aes128", "sha256")


@contextlib.contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({name}): FAIL")
        raise
    print(f"criterion {number} ({name}): PASS")


def _spec(experiment, **overrides):
    return ExperimentSpec.from_config(experiment, overrides)


def test_criterion_1_crypto_exactness():
    start = time.perf_counter()
    with criterion(1, "crypto exactness"):
        rng = random.Random(0xC1)

        # AES: published vector, then >= 10^4 random blocks, LUT vs non-LUT
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        ks = key_expansion(key)
        vector = aes128_encrypt_buffer(bytes.fromhex("00112233445566778899aabbccddeeff"), ks)
        assert vector == bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")

        n_blocks = 10_000
        buf = rng.randbytes(16 * n_blocks)
        got = aes128_encrypt_buffer(buf, ks)
        for i in range(n_blocks):
            expected = ref.encrypt_block(buf[16 * i : 16 * i + 16], key)
            assert got[16 * i : 16 * i + 16] == expected

        # SHA: published vectors, then >= 10^4 random messages vs the oracle
        assert sha256_many([b"abc"])[0].hex() == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )
        assert sha256_many([b""])[0].hex() == (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        )
        two_block = b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
        assert sha256_many([two_block])[0].hex() == (
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        )

        messages = [rng.randbytes(rng.randrange(0, 200)) for _ in range(10_000)]
        digests = sha256_many(messages)
        for msg, digest in zip(messages, digests):
            assert digest == ref.sha256(msg)

        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s (budget 10s)"


def test_criterion_2_distributed_equivalence():
    start = time.perf_counter()
    with criterion(2, "distributed equivalence"):
        rng = random.Random(0xC2)
        key = rng.randbytes(16)
        buf = rng.randbytes(1 << 20)
        expected_ct = aes128_encrypt_buffer(buf, key_expansion(key))
        # spot-check the sequential result against the slow oracle
        for _ in range(16):
            i = rng.randrange(0, len(buf) // 16) * 16
            assert expected_ct[i : i + 16] == ref.encrypt_block(buf[i : i + 16], key)

        messages = [rng.randbytes(512) for _ in range(2048)]  # 1 MiB total
        expected_digests = sha256_many(messages)
        for i in rng.sample(range(len(messages)), 8):
            assert expected_digests[i] == ref.sha256(messages[i])

        for dpus in (1, 2, 3, 17, 64):
            for tasklets in (1, 11, 16, 24):
                for strategy in Strategy:
                    for ranks in (1, 2, 5):
                        result = run_job(
                            buf, key, strategy=strategy, n_ranks=ranks,
                            tasklets=tasklets, dpus_per_rank=dpus,
                        )
                        assert result.output == expected_ct
                        result = run_job(
                            messages, strategy=strategy, n_ranks=ranks,
                            tasklets=tasklets, dpus_per_rank=dpus,
                        )
                        assert result.output == expected_digests

        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"criterion 2 took {elapsed:.1f}s (budget 60s)"


def test_criterion_3_tasklet_scaling_shape():
    with criterion(3, "tasklet scaling shape"):
        for algorithm in ALGORITHMS:
            result = run_experiment(_spec("tasklet_scaling", algorithm=algorithm))
            rows = {row.sweep_value: row for row in result.rows}

            assert rows[11].speedup >= 10.0, algorithm
            plateau = [rows[t].kernel_s for t in range(11, 25)]
            assert max(plateau) / min(plateau) <= 1.001, algorithm
            for t in range(1, 12):
                assert rows[t].speedup == pytest.approx(min(t, 11), rel=0.05), (
                    algorithm, t,
                )


def test_criterion_4_strong_scaling():
    with criterion(4, "strong scaling"):
        for algorithm in ALGORITHMS:
            spec = _spec("strong_scaling", algorithm=algorithm)
            assert spec.tasklets == 16
            result = run_experiment(spec)
            rows = {row.sweep_value: row for row in result.rows}
            assert rows[64].kernel_s == pytest.approx(rows[1].kernel_s / 64, rel=0.02), (
                algorithm
            )


def _r_squared_through_origin(xs, ys):
    a = sum(x * y for x, y in zip(xs, ys)) / sum(x * x for x in xs)
    mean = sum(ys) / len(ys)
    ss_res = sum((y - a * x) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - mean) ** 2 for y in ys)
    return 1.0 - ss_res / ss_tot


def test_criterion_5_weak_scaling():
    with criterion(5, "weak scaling"):
        for algorithm in ALGORITHMS:
            result = run_experiment(_spec("weak_scaling", algorithm=algorithm))
            assert [row.sweep_value for row in result.rows] == [1, 4, 16, 64]

            kernels = [row.kernel_s for row in result.rows]
            assert max(kernels) / min(kernels) <= 1.02, algorithm

            xs = [row.sweep_value for row in result.rows]
            ys = [row.to_dpu_s for row in result.rows]
            assert _r_squared_through_origin(xs, ys) >= 0.999, algorithm

        sha = run_experiment(_spec("weak_scaling", algorithm="sha256"))
        last = sha.rows[-1]
        assert last.from_dpu_s < 0.01 * last.to_dpu_s


def test_criterion_6_rank_scaling_and_baseline():
    start = time.perf_counter()
    with criterion(6, "rank scaling and software baseline"):
        tol = 1 + 1e-12
        for algorithm in ALGORITHMS:
            spec = _spec(
                "rank_scaling",
                algorithm=algorithm,
                strategies=["pim1", "pim2", "sync"],
            )
            assert spec.buffer_bytes == 32 << 20
            assert list(spec.sweep) == list(range(1, 41))
            result = run_experiment(spec, include_baseline=False)
            by_key = {(r.sweep_value, r.strategy): r.total_s for r in result.rows}

            for ranks in spec.sweep:
                pim1 = by_key[(ranks, Strategy.ASYNC_RANK_TRANSFER)]
                pim2 = by_key[(ranks, Strategy.ASYNC_RANK_EXECUTION)]
                sync = by_key[(ranks, Strategy.SYNC)]
                assert pim1 <= pim2 * tol, (algorithm, ranks)
                assert pim2 <= sync * tol, (algorithm, ranks)
            one = [by_key[(1, s)] for s in Strategy]
            assert max(one) == pytest.approx(min(one), rel=1e-12)

            # full-scale PIM vs measured single-thread software, per byte
            full_scale_bytes = 40 * (32 << 20)
            pim_rate = by_key[(40, Strategy.ASYNC_RANK_TRANSFER)] / full_scale_bytes
            if algorithm == "aes128":
                cap = 1 << 20
                baseline = run_host_baseline("aes128", cap, threads=1, repetitions=5)
                baseline_rate = baseline / cap
            else:
                msg_bytes, count = 4096, 64
                baseline = run_host_baseline(
                    "sha256", (msg_bytes, count), threads=1, repetitions=5
                )
                baseline_rate = baseline / (msg_bytes * count)
            assert baseline_rate >= 5 * pim_rate, (
                f"{algorithm}: software {baseline_rate:.3e} s/B vs "
                f"PIM {pim_rate:.3e} s/B"
            )

        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"criterion 6 took {elapsed:.1f}s (budget 120s)"


def test_criterion_7_roofline_classification():
    with criterion(7, "roofline classification"):
        costs = bundled_default_config().kernel_costs
        for algorithm in ALGORITHMS:
            ch = characterize_kernel(algorithm, costs[algorithm])
            assert ch.classification == "memory_bound", algorithm
            assert ch.operations_per_byte < ch.machine_ridge_point


def _experiment_runs():
    for algorithm in ALGORITHMS:
        yield run_experiment(_spec("tasklet_scaling", algorithm=algorithm))
        yield run_experiment(_spec("strong_scaling", algorithm=algorithm))
        yield run_experiment(_spec("weak_scaling", algorithm=algorithm))
        yield run_experiment(
            _spec("rank_scaling", algorithm=algorithm, sweep=[1, 2, 8, 40]),
            include_baseline=False,
        )


def test_criterion_8_byte_conservation():
    with criterion(8, "byte conservation"):
        for result in _experiment_runs():
            spec = result.spec
            for row in result.rows:
                if spec.experiment in ("tasklet_scaling", "strong_scaling"):
                    scale = 1
                else:
                    scale = row.sweep_value
                if spec.algorithm == "aes128":
                    payload = spec.buffer_bytes * scale
                    returned = payload
                else:
                    payload = spec.message_bytes * spec.message_count * scale
                    returned = 32 * spec.message_count * scale
                assert row.bytes_to_dpu == payload, (spec.experiment, row.sweep_value)
                assert row.bytes_from_dpu == returned, (spec.experiment, row.sweep_value)


def test_criterion_9_timeline_validity():
    with criterion(9, "timeline validity"):
        # all experiment runs produce validator-clean schedules (the harness
        # itself refuses invalid ones; re-check a sample here)
        for algorithm in ALGORITHMS:
            for strategy in Strategy:
                plan = plan_job(
                    AesWorkload(8 << 20) if algorithm == "aes128"
                    else ShaWorkload((32768,) * 64),
                    strategy=strategy, n_ranks=4, dpus_per_rank=16,
                )
                assert validate_timeline(plan.timeline) == []
        for result in _experiment_runs():
            assert result.rows  # harness validated every plan while running

        # fuzz: 10^3 random valid plans pass, mutated plans are flagged
        rng = random.Random(0xC9)
        strategies = list(Strategy)
        for i in range(1000):
            algorithm = rng.choice(ALGORITHMS)
            ranks = rng.randint(1, 6)
            dpus = rng.randint(1, 8)
            tasklets = rng.randint(1, 24)
            strategy = rng.choice(strategies)
            if algorithm == "aes128":
                workload = AesWorkload(16 * rng.randint(0, 2048))
            else:
                workload = ShaWorkload(
                    tuple(rng.randrange(0, 4096) for _ in range(rng.randint(0, 48)))
                )
            plan = plan_job(
                workload, strategy=strategy, n_ranks=ranks,
                dpus_per_rank=dpus, tasklets=tasklets,
            )
            assert validate_timeline(plan.timeline) == [], (i, strategy)

            if i % 10 == 0 and plan.makespan > 0:
                victim = rng.randrange(ranks)
                times = plan.timeline.times.copy()
                times[victim, EVENT_KINDS.index("launch")] = -1e-9
                violations = validate_timeline(ExecutionTimeline(times))
                assert any(
                    v.rank == victim and "launch" in v.rule for v in violations
                ), i
