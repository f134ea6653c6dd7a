import dataclasses

import pytest

from pimcrypt.bench import (
    CSV_COLUMNS,
    EXPERIMENT_NAMES,
    ExperimentResult,
    ExperimentRow,
    ExperimentSpec,
    HostProfile,
    characterize_kernel,
    default_host_profile,
    emit_csv,
    read_csv,
    run_experiment,
    run_host_baseline,
)
from pimcrypt.errors import ProfileError
from pimcrypt.machine import KernelCost, bundled_default_config
from pimcrypt.orchestrator import AesWorkload, Strategy, plan_job

AES_COST = bundled_default_config().kernel_costs["aes128"]
SHA_COST = bundled_default_config().kernel_costs["sha256"]


def _spec(experiment, **overrides):
    return ExperimentSpec.from_config(experiment, overrides)


class TestSpecValidation:
    def test_unknown_experiment(self):
        with pytest.raises(ProfileError, match="valid"):
            _spec("quantum_scaling")

    def test_unsorted_sweep(self):
        with pytest.raises(ProfileError, match="sorted"):
            _spec("tasklet_scaling", sweep=[4, 2])

    def test_bad_repetitions(self):
        with pytest.raises(ProfileError, match="repetitions"):
            _spec("tasklet_scaling", repetitions=0)

    def test_unknown_field(self):
        with pytest.raises(ProfileError, match="unknown"):
            _spec("tasklet_scaling", turbo=True)

    def test_defaults(self):
        spec = _spec("tasklet_scaling")
        assert spec.sweep == tuple(range(1, 25))
        assert spec.algorithm == "aes128"

    @pytest.mark.parametrize("experiment", EXPERIMENT_NAMES)
    def test_missing_section_takes_bundled_values(self, experiment):
        bundled = bundled_default_config().experiments[experiment]
        assert ExperimentSpec.from_config(experiment, None) == ExperimentSpec.from_config(
            experiment, bundled
        )


@pytest.fixture(scope="module", params=["aes128", "sha256"])
def tasklet_result(request):
    return run_experiment(_spec("tasklet_scaling", algorithm=request.param))


@pytest.fixture(scope="module", params=["aes128", "sha256"])
def strong_result(request):
    return run_experiment(_spec("strong_scaling", algorithm=request.param))


@pytest.fixture(scope="module", params=["aes128", "sha256"])
def weak_result(request):
    return run_experiment(_spec("weak_scaling", algorithm=request.param))


@pytest.fixture(scope="module")
def rank_result():
    spec = _spec(
        "rank_scaling",
        sweep=[1, 2, 4, 8],
        strategies=["pim1", "pim2", "sync"],
    )
    return run_experiment(spec, include_baseline=False)


class TestTaskletScaling:
    def test_normalized_to_one_tasklet(self, tasklet_result):
        assert tasklet_result.rows[0].speedup == 1.0

    def test_speedup_exceeds_ten_at_saturation(self, tasklet_result):
        by_sweep = {row.sweep_value: row for row in tasklet_result.rows}
        assert by_sweep[11].speedup > 10

    def test_plateau_after_saturation(self, tasklet_result):
        kernels = [row.kernel_s for row in tasklet_result.rows if row.sweep_value >= 11]
        assert max(kernels) / min(kernels) <= 1.001

    def test_transfer_times_constant_across_sweep(self, tasklet_result):
        to_times = [row.to_dpu_s for row in tasklet_result.rows]
        from_times = [row.from_dpu_s for row in tasklet_result.rows]
        assert max(to_times) == pytest.approx(min(to_times), rel=1e-9)
        assert max(from_times) == pytest.approx(min(from_times), rel=1e-9)

    def test_speedup_tracks_pipeline_occupancy(self, tasklet_result):
        for row in tasklet_result.rows:
            expected = min(row.sweep_value, 11)
            assert row.speedup == pytest.approx(expected, rel=0.05)

    def test_speedup_exact_when_cost_is_pure_compute(self):
        """With the whole per-unit cost in the instruction stream the curve
        is min(T, 11) exactly: the pipeline is the only bottleneck."""
        pure = KernelCost(
            instructions_per_unit=AES_COST.instructions_per_unit
            + AES_COST.mram_read_bytes_per_unit
            + AES_COST.mram_write_bytes_per_unit,
            mram_read_bytes_per_unit=0,
            mram_write_bytes_per_unit=0,
            wram_cache_bytes=AES_COST.wram_cache_bytes,
            unit_bytes=16,
        )
        base = None
        for t in range(1, 25):
            plan = plan_job(
                AesWorkload(8 << 20), strategy=Strategy.SYNC, n_ranks=1,
                dpus_per_rank=1, tasklets=t, cost=pure,
            )
            if base is None:
                base = plan.phase_times.kernel
            speedup = base / plan.phase_times.kernel
            assert speedup == pytest.approx(min(t, 11), rel=0.01)
            if t >= 11:
                assert plan.phase_times.kernel == pytest.approx(
                    base / 11, rel=1e-12
                )


class TestStrongScaling:
    def test_normalized_to_one_dpu(self, strong_result):
        assert strong_result.rows[0].speedup == 1.0

    def test_near_linear_kernel_scaling(self, strong_result):
        by_sweep = {row.sweep_value: row for row in strong_result.rows}
        ratio = by_sweep[1].kernel_s / by_sweep[64].kernel_s
        assert ratio == pytest.approx(64, rel=0.02)

    def test_uses_sixteen_tasklets(self):
        assert _spec("strong_scaling").tasklets == 16


class TestWeakScaling:
    def test_kernel_time_flat(self, weak_result):
        kernels = [row.kernel_s for row in weak_result.rows]
        assert max(kernels) / min(kernels) <= 1.02

    def test_transfer_grows_linearly(self, weak_result):
        for row in weak_result.rows:
            per_dpu = row.to_dpu_s / row.sweep_value
            base = weak_result.rows[0].to_dpu_s
            assert per_dpu == pytest.approx(base, rel=1e-9)

    def test_sha_retrieval_negligible(self):
        result = run_experiment(_spec("weak_scaling", algorithm="sha256"))
        last = result.rows[-1]
        assert last.from_dpu_s < 0.01 * last.to_dpu_s


class TestRankScaling:
    def test_row_per_rank_strategy_pair(self, rank_result):
        assert len(rank_result.rows) == 4 * 3
        pairs = {(row.sweep_value, row.strategy) for row in rank_result.rows}
        assert len(pairs) == 12

    def test_async_transfer_preferred(self, rank_result):
        by_key = {(row.sweep_value, row.strategy): row.total_s for row in rank_result.rows}
        for ranks in (1, 2, 4, 8):
            pim1 = by_key[(ranks, Strategy.ASYNC_RANK_TRANSFER)]
            pim2 = by_key[(ranks, Strategy.ASYNC_RANK_EXECUTION)]
            sync = by_key[(ranks, Strategy.SYNC)]
            assert pim1 <= pim2 * (1 + 1e-12)
            assert pim2 <= sync * (1 + 1e-12)

    def test_single_rank_equality(self, rank_result):
        totals = [row.total_s for row in rank_result.rows if row.sweep_value == 1]
        assert totals[0] == pytest.approx(totals[1], rel=1e-12)
        assert totals[0] == pytest.approx(totals[2], rel=1e-12)

    def test_baseline_column_when_enabled(self):
        spec = _spec("rank_scaling", sweep=[1, 2], strategies=["pim1"])
        result = run_experiment(spec)
        assert all(row.baseline_s and row.baseline_s > 0 for row in result.rows)
        # extrapolation is linear in the payload
        assert result.rows[1].baseline_s == pytest.approx(2 * result.rows[0].baseline_s)

    def test_reproducible(self):
        spec = _spec("rank_scaling", sweep=[1, 2, 4], strategies=["pim1", "pim2"])
        a = run_experiment(spec, include_baseline=False)
        b = run_experiment(spec, include_baseline=False)
        assert a.rows == b.rows


class TestHostBaseline:
    def test_aes_median_of_reps(self):
        t = run_host_baseline("aes128", 16 << 10, repetitions=5, seed=1)
        assert t > 0

    def test_sha_threads(self):
        t1 = run_host_baseline("sha256", (256, 64), threads=1, repetitions=3, seed=1)
        t2 = run_host_baseline("sha256", (256, 64), threads=2, repetitions=3, seed=1)
        assert t1 > 0 and t2 > 0

    def test_aes_threads_assemble_correctly(self):
        # correctness of the threaded assembly is asserted inside
        assert run_host_baseline("aes128", 32 << 10, threads=4, repetitions=2, seed=2) > 0

    def test_unknown_algorithm(self):
        with pytest.raises(ProfileError):
            run_host_baseline("md5", 1024)


class TestCharacterization:
    def test_aes_memory_bound(self):
        ch = characterize_kernel("aes128", AES_COST)
        assert ch.classification == "memory_bound"
        assert ch.operations_per_byte == AES_COST.instructions_per_unit / 16

    def test_sha_memory_bound(self):
        ch = characterize_kernel("sha256", SHA_COST)
        assert ch.classification == "memory_bound"

    def test_synthetic_cost_above_ridge_is_compute_bound(self):
        host = default_host_profile()
        dense = dataclasses.replace(
            AES_COST, instructions_per_unit=(host.ridge_point + 1) * 16
        )
        assert characterize_kernel("aes128", dense).classification == "compute_bound"

    def test_classification_boundary(self):
        host = HostProfile(peak_ops_per_second=100.0, peak_bandwidth_bytes_per_second=1.0)
        at_ridge = dataclasses.replace(AES_COST, instructions_per_unit=100.0 * 16)
        assert characterize_kernel("aes128", at_ridge, host).classification == "compute_bound"
        below = dataclasses.replace(AES_COST, instructions_per_unit=100.0 * 16 - 1)
        assert characterize_kernel("aes128", below, host).classification == "memory_bound"


def _dummy_rows(n):
    return [
        ExperimentRow(
            sweep_value=i + 1,
            strategy=Strategy.SYNC,
            kernel_s=0.1 * (i + 1),
            to_dpu_s=0.01,
            from_dpu_s=0.02,
            prepare_s=0.003,
            total_s=0.2 * (i + 1),
            baseline_s=1.5 if i % 2 else None,
        )
        for i in range(n)
    ]


class TestCsv:
    def test_empty_result_header_only(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_csv(ExperimentResult(spec=_spec("weak_scaling"), rows=[]), str(path))
        assert path.read_text() == ",".join(CSV_COLUMNS) + "\n"

    def test_three_rows_four_lines(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_csv(ExperimentResult(spec=_spec("weak_scaling"), rows=_dummy_rows(3)), str(path))
        assert len(path.read_text().splitlines()) == 4

    def test_round_trip_exact(self, tmp_path):
        path = tmp_path / "out.csv"
        rows = _dummy_rows(5)
        emit_csv(
            ExperimentResult(
                spec=_spec("weak_scaling"), rows=rows, metadata={"seed": 7}
            ),
            str(path),
        )
        metadata, parsed = read_csv(str(path))
        assert metadata["seed"] == "7"
        for row, got in zip(rows, parsed):
            assert got["sweep"] == row.sweep_value
            assert got["kernel_s"] == row.kernel_s
            assert got["total_s"] == row.total_s
            assert got["baseline_s"] == row.baseline_s

    def test_header_exact(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_csv(ExperimentResult(spec=_spec("weak_scaling"), rows=[]), str(path))
        assert path.read_text().splitlines()[0] == (
            "sweep,kernel_s,to_dpu_s,from_dpu_s,prepare_s,total_s,baseline_s"
        )


class TestRunExperiment:
    def test_dispatch(self):
        res = run_experiment(_spec("weak_scaling", sweep=[1, 4]))
        assert len(res.rows) == 2

    def test_metadata_records_seed_and_generator(self):
        res = run_experiment(_spec("weak_scaling", sweep=[1, 4], seed=99))
        assert res.metadata["seed"] == 99
        assert "generator" in res.metadata
