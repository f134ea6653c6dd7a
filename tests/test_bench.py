import csv
import dataclasses
import hashlib

import numpy as np
import pytest

from pimcrypt import bench, orchestrator
from pimcrypt.bench import (
    CSV_COLUMNS,
    ExperimentResult,
    ExperimentRow,
    ExperimentSpec,
    HostProfile,
    characterize_kernel,
    emit_csv,
    run_experiment,
    run_host_baseline,
)
from pimcrypt.errors import CapacityError, ProfileError
from pimcrypt.machine import ALGORITHMS, EXPERIMENTS, KernelCost, bundled_default_config
from pimcrypt.orchestrator import AesWorkload, Strategy, plan_job, validate_timeline

AES_COST = bundled_default_config().kernel_costs["aes128"]
SHA_COST = bundled_default_config().kernel_costs["sha256"]


def _spec(experiment, **overrides):
    return ExperimentSpec.from_config(experiment, overrides)


def _read_csv(path):
    """A CSV emit_csv wrote: its '# key=value' metadata, and its rows as
    dicts of the cells' text."""
    with open(path, encoding="utf-8", newline="") as fh:
        lines = fh.read().splitlines()
    metadata = dict(line[2:].split("=", 1) for line in lines if line.startswith("# "))
    return metadata, list(csv.DictReader(line for line in lines if not line.startswith("#")))


class TestSpecValidation:
    def test_unknown_experiment(self):
        with pytest.raises(ProfileError, match="valid"):
            _spec("quantum_scaling")

    def test_unsorted_sweep(self):
        with pytest.raises(ProfileError, match="sorted"):
            _spec("tasklet_scaling", sweep=[4, 2])

    def test_bad_repetitions(self):
        """The host baseline's repetitions are fixed in bench, so an
        experiment may not set them."""
        with pytest.raises(ProfileError, match=r"unknown experiment tasklet_scaling fields: "
                                               r"\['repetitions'\]"):
            _spec("tasklet_scaling", repetitions=5)

    def test_unknown_field(self):
        with pytest.raises(ProfileError, match="unknown"):
            _spec("tasklet_scaling", turbo=True)

    def test_defaults(self):
        spec = _spec("tasklet_scaling")
        assert spec.sweep == tuple(range(1, 25))
        assert spec.algorithm == "aes128"

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_missing_section_takes_bundled_values(self, experiment):
        bundled = bundled_default_config().experiments[experiment]
        assert ExperimentSpec.from_config(experiment, None) == bundled


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
        )
        config = bundled_default_config()
        config = dataclasses.replace(
            config, kernel_costs={**config.kernel_costs, "aes128": pure})
        base = None
        for t in range(1, 25):
            plan = plan_job(
                AesWorkload(8 << 20), strategy=Strategy.SYNC, n_ranks=1,
                dpus_per_rank=1, tasklets=t, config=config,
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

    def test_each_sweep_value_priced_once(self, monkeypatch):
        """A strategy changes only the schedule: each sweep value is one
        plan_job call, rescheduled for the other strategies, and every
        row's plan is validated. The rows are those of one plan_job call per
        (sweep value, strategy)."""
        priced, validated = [], []
        monkeypatch.setattr(bench, "plan_job",
                            lambda *args, **kw: priced.append(args) or plan_job(*args, **kw))
        monkeypatch.setattr(bench, "validate_timeline",
                            lambda t: validated.append(t) or validate_timeline(t))
        spec = _spec("rank_scaling", algorithm="aes128", sweep=[1, 2, 4, 8],
                     strategies=["pim1", "pim2", "sync"])
        rows = run_experiment(spec, include_baseline=False).rows
        assert len(priced) == len(spec.sweep)
        assert len(validated) == 3 * len(spec.sweep) == len(rows)
        for row, timeline in zip(rows, validated):
            plan = plan_job(AesWorkload(spec.buffer_bytes * row.sweep_value),
                            strategy=row.strategy, n_ranks=row.sweep_value,
                            tasklets=spec.tasklets)
            assert timeline == plan.timeline
            assert (row.prepare_s, row.to_dpu_s, row.kernel_s, row.from_dpu_s, row.total_s) == (
                *plan.phase_times, plan.makespan)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("n_ranks", [1, 2, 40])
    def test_reschedule_is_replace_and_plan_job(self, algorithm, n_ranks):
        """plan.rescheduled(s), bench's reschedule of a priced plan, is
        replace(plan, strategy=s) and plan_job(..., strategy=s): the same
        timeline, makespan and phase times, to the bit (by repr), under
        every strategy."""
        spec = _spec("rank_scaling", algorithm=algorithm)
        workload, topology = bench._point(spec, n_ranks, bundled_default_config().machine)
        plan = plan_job(workload, strategy=Strategy.SYNC, **topology)
        for strategy in Strategy:
            plans = (plan.rescheduled(strategy), dataclasses.replace(plan, strategy=strategy),
                     plan_job(workload, strategy=strategy, **topology))
            assert len({repr((p.timeline, p.makespan, p.phase_times)) for p in plans}) == 1
            assert plans[0] == plans[1] == plans[2]

    def test_reproducible(self):
        spec = _spec("rank_scaling", sweep=[1, 2, 4], strategies=["pim1", "pim2"])
        a = run_experiment(spec, include_baseline=False)
        b = run_experiment(spec, include_baseline=False)
        assert a.rows == b.rows


class TestHostBaseline:
    def test_aes_median_of_reps(self):
        t = run_host_baseline("aes128", 16 << 10)
        assert t > 0

    def test_sha_threads(self):
        t1 = run_host_baseline("sha256", (256, 64), threads=1)
        t2 = run_host_baseline("sha256", (256, 64), threads=2)
        assert t1 > 0 and t2 > 0
        # 65 messages over 2 threads: pieces of 32 and 33, joined in order
        assert run_host_baseline("sha256", (256, 65), threads=2) > 0

    def test_aes_threads_assemble_correctly(self):
        # correctness of the threaded assembly is asserted inside
        assert run_host_baseline("aes128", 32 << 10, threads=4) > 0
        # 2051 blocks over 4 threads: pieces of whole blocks, not all one size
        assert run_host_baseline("aes128", 2051 * 16, threads=4) > 0

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
        host = bundled_default_config().host
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
        metadata, parsed = _read_csv(str(path))
        assert metadata == {"seed": "7"}
        assert len(parsed) == len(rows)
        for row, got in zip(rows, parsed):
            assert int(got["sweep"]) == row.sweep_value
            assert float(got["kernel_s"]) == row.kernel_s
            assert float(got["total_s"]) == row.total_s
            assert (float(got["baseline_s"]) if got["baseline_s"] else None) == row.baseline_s

    def test_values_written_as_python_floats(self, tmp_path):
        """An int, a numpy float and a -0.0 are written as repr of their
        float, and a baseline of None as an empty cell: the bytes the
        per-value writer wrote before rows took one f-string."""
        rows = [
            ExperimentRow(sweep_value=3, strategy=Strategy.SYNC, kernel_s=1,
                          to_dpu_s=np.float64(1.0), from_dpu_s=np.float64(0.1), prepare_s=-0.0,
                          total_s=1e-300),
            ExperimentRow(sweep_value=np.int64(40), strategy=Strategy.SYNC, kernel_s=0.5,
                          to_dpu_s=0.25, from_dpu_s=2, prepare_s=np.float32(0.5),
                          total_s=3.75, baseline_s=np.float64(2.5)),
        ]
        path = tmp_path / "out.csv"
        emit_csv(ExperimentResult(spec=_spec("weak_scaling"), rows=rows,
                                  metadata={"experiment": "weak_scaling", "seed": 7}), str(path))
        assert path.read_bytes() == (
            b"# experiment=weak_scaling\n# seed=7\n"
            b"sweep,kernel_s,to_dpu_s,from_dpu_s,prepare_s,total_s,baseline_s\n"
            b"3,1.0,1.0,0.1,-0.0,1e-300,\n"
            b"40,0.5,0.25,2.0,0.5,3.75,2.5\n"
        )

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
        """Every CSV records the seed and generator of the host baseline's
        data, which no config sets."""
        res = run_experiment(_spec("weak_scaling", sweep=[1, 4]))
        assert res.metadata["seed"] == bench.BASELINE_SEED == 20250808
        assert res.metadata["generator"] == "numpy-default_rng"


# sha256 of each `bench --no-baseline` CSV of the bundled experiments (with
# `algorithm` set); pins every modeled row of the paper's figures bit for bit.
_PAPER_CSVS = {
    ("aes128", "tasklet_scaling"): "cbc5e617af89fa40e454ecbbe22a9048dd95e0c8d79f0844dfbcd94816d9542b",
    ("aes128", "strong_scaling"): "d08554acd1018fc9e5c4887a4622b20c7272d864eaf3dc711561efdd26f22592",
    ("aes128", "weak_scaling"): "670274322498cef482c02b0865e307185aeaaf79cd7ecaad55eeee1acc3e9915",
    ("aes128", "rank_scaling"): "77c9ca5380e67d8dce23205dea51f53cc50308323fe8dbc74834f0fb4ac549ea",
    ("sha256", "tasklet_scaling"): "8a2636f777955f906f3617d4970496b2c109a87a09b9ab1b0f4adf0718ea9e1f",
    ("sha256", "strong_scaling"): "c8e1e18e77ca26cde44c3f61fc354b106371f0407bd4d6d1a28077c1a3d76e7c",
    ("sha256", "weak_scaling"): "51899da226e23e027c6f20a715be05f537059dc6d7e37e8e1af0544cc021351e",
    ("sha256", "rank_scaling"): "6c1f6736069875d9fc556f72df01ba6f355e734fc860a8f9ee76f5cec0a0fff8",
}


def test_paper_csvs_bit_identical(tmp_path):
    for algorithm in ALGORITHMS:
        for experiment in EXPERIMENTS:
            spec = _spec(experiment, algorithm=algorithm)
            path = tmp_path / f"{algorithm}_{experiment}.csv"
            emit_csv(run_experiment(spec, include_baseline=False), str(path))
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            assert digest == _PAPER_CSVS[algorithm, experiment], (algorithm, experiment)


def test_baseline_metadata_names_measured_bytes(tmp_path):
    """The hash baseline runs on whole messages: 349 of 3000 B under the
    1 MiB cap, and the CSV names those 1,047,000 B."""
    spec = _spec("rank_scaling", algorithm="sha256", message_bytes=3000, sweep=[1],
                 strategies=["pim1"])
    path = tmp_path / "rank_scaling.csv"
    emit_csv(run_experiment(spec), str(path))
    metadata, _ = _read_csv(str(path))
    assert "measured at 1047000 B," in metadata["baseline"]


def test_unholdable_job_fails_before_the_baseline(monkeypatch):
    """A job the machine cannot hold fails before the host baseline, which
    on a 64 MiB message would take minutes, is measured."""
    calls = []
    monkeypatch.setattr(bench, "run_host_baseline",
                        lambda *args, **kwargs: calls.append(args) or 1.0)
    spec = _spec("rank_scaling", algorithm="sha256", message_bytes=64 << 20,
                 message_count=1, sweep=[1])
    with pytest.raises(CapacityError, match="DPU 0 needs 67108896 B"):
        run_experiment(spec)
    assert calls == []


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_sha_point_lengths_are_one_length_repeated(monkeypatch, experiment):
    """At every sweep value a hashing workload's lengths are SameLengths of
    the right length, and partition_sha prices them from the one length,
    as it prices the same lengths as a list, without dealing them one by
    one."""
    spec = _spec(experiment, algorithm="sha256")
    machine = bundled_default_config().machine
    points = [bench._point(spec, value, machine) for value in spec.sweep]
    dealt = [orchestrator.partition_sha(list(w.message_lengths),
                                        t["n_ranks"] * t["dpus_per_rank"]) for w, t in points]

    def no_deal(*args):
        raise AssertionError("_deal called on SameLengths")

    monkeypatch.setattr(orchestrator, "_deal", no_deal)
    grows = EXPERIMENTS[experiment][1]
    for value, (workload, topology), expected in zip(spec.sweep, points, dealt):
        lengths = workload.message_lengths
        assert isinstance(lengths, orchestrator.SameLengths)
        assert len(lengths) == spec.message_count * (value if grows else 1)
        assert lengths[0] == lengths[-1] == spec.message_bytes
        part = orchestrator.partition_sha(lengths, topology["n_ranks"] * topology["dpus_per_rank"])
        assert len(part.dpus) <= 2
        assert _per_dpu(part) == _per_dpu(expected)


def _per_dpu(part):
    """A partition's units, items, in_bytes and out_bytes, one entry per DPU."""
    return [[value for n, value in zip(part.dpus, column) for _ in range(n)]
            for column in (part.units, part.items, part.in_bytes, part.out_bytes)]


def test_zero_kernel_time_has_no_speedup():
    """A kernel time that rounds to 0.0 gives no speedup, not a division
    by zero."""
    config = bundled_default_config()
    config = dataclasses.replace(
        config, machine=dataclasses.replace(config.machine, dpu_frequency=1e300)
    )
    rows = run_experiment(_spec("tasklet_scaling"), config, include_baseline=False).rows
    zero = [row for row in rows if row.kernel_s == 0.0]
    assert zero and all(row.speedup is None for row in zero)


def test_no_baseline_before_a_failing_point(monkeypatch):
    """Every point is planned before the host baseline is measured: sync's
    serial drain overflows from 17 ranks, where the overlapped strategies
    listed before it do not, and the run fails with no baseline call."""
    calls = []
    monkeypatch.setattr(bench, "run_host_baseline",
                        lambda *args, **kwargs: calls.append(args) or 1.0)
    config = bundled_default_config()
    config = dataclasses.replace(config, machine=dataclasses.replace(
        config.machine, dpu_to_cpu_bandwidth_per_rank=3e-300))
    with pytest.raises(ProfileError, match="non-finite time"):
        run_experiment(_spec("rank_scaling"), config)
    assert calls == []
