import ast
import dataclasses
import json
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pimcrypt import machine as mc
from pimcrypt import reference
from pimcrypt.errors import MramAccessError, ProfileError
from pimcrypt.machine import (
    EVENT_KINDS,
    ExecutionTimeline,
    KernelCost,
    MachineProfile,
    _streamed_access_cycles,
    bundled_default_config,
    busy_time,
    effective_ipc,
    load_config,
    mram_access_cycles,
    parse_config,
    simulate_dpu_kernel,
    simulate_rank_kernel,
    simulate_transfer,
)
from pimcrypt.orchestrator import _sha_cost_for, partition_aes, partition_sha

PROFILE = bundled_default_config().machine

NO_MRAM_COST = KernelCost(
    instructions_per_unit=11,
    mram_read_bytes_per_unit=0,
    mram_write_bytes_per_unit=0,
)

AES_COST = bundled_default_config().kernel_costs["aes128"]
SHA_COST = bundled_default_config().kernel_costs["sha256"]


class TestDefaultProfile:
    def test_topology(self):
        assert PROFILE.num_ranks == 40
        assert PROFILE.dpus_per_rank == 64
        assert PROFILE.dpus_per_rank * PROFILE.num_ranks == 2560
        assert PROFILE.usable_dpus == 2560

    def test_core_parameters(self):
        assert PROFILE.dpu_frequency == 450e6
        assert PROFILE.max_tasklets == 24
        assert PROFILE.pipeline_saturation_tasklets == 11
        assert PROFILE.wram_bytes == 64 * 1024
        assert PROFILE.mram_bytes == 64 * 1024 * 1024

    def test_valid(self):
        """The bundled profile passes its own checks when it is rebuilt."""
        assert MachineProfile(**dataclasses.asdict(PROFILE)) == PROFILE


class TestProfileJson:
    def test_round_trip(self):
        doc = dataclasses.asdict(PROFILE)
        assert parse_config(doc).machine == PROFILE

    def test_unknown_field_rejected(self):
        doc = dataclasses.asdict(PROFILE)
        doc["turbo"] = 1
        with pytest.raises(ProfileError, match="unknown"):
            parse_config(doc).machine

    def test_missing_field_rejected(self):
        doc = dataclasses.asdict(PROFILE)
        del doc["wram_bytes"]
        with pytest.raises(ProfileError, match="missing"):
            parse_config(doc).machine

    def test_non_numeric_field_rejected(self):
        doc = dataclasses.asdict(PROFILE)
        doc["num_ranks"] = "forty"
        with pytest.raises(ProfileError, match="number"):
            parse_config(doc).machine

    def test_invariant_violation_rejected(self):
        doc = dataclasses.asdict(PROFILE)
        doc["usable_dpus"] = 99999
        with pytest.raises(ProfileError, match="usable_dpus"):
            parse_config(doc).machine

    def test_bare_profile_document(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(dataclasses.asdict(PROFILE)))
        assert load_config(str(path)).machine == PROFILE

    def test_config_unknown_section_rejected(self):
        with pytest.raises(ProfileError, match="sections"):
            parse_config({"machine": dataclasses.asdict(PROFILE), "warp_drive": {}})


_CONFIG = bundled_default_config()


_BAD_VALUES = [
    (PROFILE, "usable_dpus", 99999, "usable_dpus exceeds dpus_per_rank"),
    (PROFILE, "max_mram_access_bytes", 2044, "max_mram_access_bytes must be a multiple of 8"),
    (PROFILE, "dpu_frequency", 0.0, "dpu_frequency must be strictly positive"),
    (AES_COST, "instructions_per_unit", 0.0, "instructions_per_unit must be positive"),
    (AES_COST, "mram_read_bytes_per_unit", -1.0, "MRAM traffic must be non-negative"),
    (_CONFIG.host, "peak_bandwidth_bytes_per_second", -1.0,
     "peak_bandwidth_bytes_per_second must be strictly positive"),
    (_CONFIG.experiments["weak_scaling"], "sweep", (4, 1),
     "sweep values must be positive and sorted"),
    (_CONFIG.experiments["rank_scaling"], "strategies", (), "strategies must not be empty"),
    (_CONFIG.experiments["tasklet_scaling"], "buffer_bytes", 8,
     "buffer_bytes must be a positive multiple of 16"),
    # every tasklet may hold one whole MRAM access in WRAM
    (PROFILE, "wram_bytes", 32768,
     re.escape("max_tasklets * max_mram_access_bytes exceeds wram_bytes (24 * 2048 > 32768)")),
    (PROFILE, "max_tasklets", 33,
     re.escape("max_tasklets * max_mram_access_bytes exceeds wram_bytes (33 * 2048 > 65536)")),
]


@pytest.mark.parametrize("record,name,value,match", [
    pytest.param(*case, id=f"{type(case[0]).__name__}-{case[1]}") for case in _BAD_VALUES
])
def test_record_checks_itself(record, name, value, match):
    """Each config record checks its values when it is built, so neither
    direct construction nor dataclasses.replace makes an invalid one."""
    fields = {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}
    assert type(record)(**fields) == record
    with pytest.raises(ProfileError, match=match):
        type(record)(**{**fields, name: value})
    with pytest.raises(ProfileError, match=match):
        dataclasses.replace(record, **{name: value})


class TestEffectiveIpc:
    def test_saturation_point(self):
        assert effective_ipc(11, PROFILE) == 1.0

    def test_single_tasklet(self):
        assert effective_ipc(1, PROFILE) == pytest.approx(1 / 11)

    def test_beyond_saturation(self):
        assert effective_ipc(16, PROFILE) == 1.0
        assert effective_ipc(24, PROFILE) == 1.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            effective_ipc(0, PROFILE)
        with pytest.raises(ValueError):
            effective_ipc(25, PROFILE)

    def test_monotone_and_flat_after_saturation(self):
        values = [effective_ipc(t, PROFILE) for t in range(1, 25)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert all(v == 1.0 for v in values[10:])


class TestMramAccessCycles:
    def test_flat_regime(self):
        # 8 bytes: the per-byte term (4 cycles) is under the 128-cycle floor
        assert mram_access_cycles(8, PROFILE) == PROFILE.mram_fixed_cycles

    def test_crossover(self):
        crossover = int(PROFILE.mram_fixed_cycles / PROFILE.mram_cycles_per_byte)
        assert crossover == 256
        assert mram_access_cycles(crossover, PROFILE) == PROFILE.mram_fixed_cycles
        assert (
            PROFILE.mram_cycles_per_byte * crossover == PROFILE.mram_fixed_cycles
        )

    def test_linear_doubling(self):
        assert mram_access_cycles(1024, PROFILE) == 2 * mram_access_cycles(512, PROFILE)

    def test_misaligned_rejected(self):
        with pytest.raises(MramAccessError):
            mram_access_cycles(12, PROFILE)

    def test_oversize_and_zero_rejected(self):
        with pytest.raises(MramAccessError):
            mram_access_cycles(PROFILE.max_mram_access_bytes + 8, PROFILE)
        with pytest.raises(MramAccessError):
            mram_access_cycles(0, PROFILE)


def _cycles(seconds):
    return seconds * PROFILE.dpu_frequency


class TestSimulateDpuKernel:
    def test_single_tasklet_pipeline_penalty(self):
        # 100 units x 11 instructions = 1100 compute cycles, no MRAM cost
        assert _cycles(simulate_dpu_kernel(100, 1, NO_MRAM_COST, PROFILE)) == pytest.approx(12100)

    def test_saturated_pipeline(self):
        assert _cycles(simulate_dpu_kernel(100, 11, NO_MRAM_COST, PROFILE)) == pytest.approx(1100)

    def test_beyond_saturation_equals_saturation(self):
        # unit count chosen so every tasklet's byte share chunks exactly:
        # 22528 units split over 11 or 16 tasklets both give whole 2048-byte
        # cache refills, so the MRAM cost is identical.
        units = 22528
        t11 = simulate_dpu_kernel(units, 11, AES_COST, PROFILE)
        t16 = simulate_dpu_kernel(units, 16, AES_COST, PROFILE)
        assert t16 == t11

    def test_non_increasing_in_tasklets(self):
        times = [simulate_dpu_kernel(52800, t, AES_COST, PROFILE) for t in range(1, 25)]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(times, times[1:]))

    def test_linear_in_units(self):
        def t(units):
            return simulate_dpu_kernel(units, 11, AES_COST, PROFILE)

        # 1408 units = 128 blocks per tasklet = exactly one cache refill each
        assert t(2 * 1408) == pytest.approx(2 * t(1408), rel=1e-12)

    def test_zero_units(self):
        assert simulate_dpu_kernel(0, 4, AES_COST, PROFILE) == 0.0

    def test_overflowing_traffic_rejected(self):
        """A tasklet's MRAM traffic that overflows a float is rejected, not
        priced as an infinite time: 2 units of 1e308 B each."""
        cost = KernelCost(instructions_per_unit=1216.0, mram_read_bytes_per_unit=1e308,
                          mram_write_bytes_per_unit=16.0)
        with pytest.raises(MramAccessError, match="not finite"):
            simulate_dpu_kernel(32, 16, cost, PROFILE)

    @settings(max_examples=200, deadline=None)
    @given(
        units=st.integers(1, 5000),
        tasklets=st.integers(1, 24),
        read=st.floats(0, 80),
        write=st.floats(0, 80),
        per_byte=st.floats(0.01, 3),
        fixed=st.floats(1, 200),
    )
    def test_equals_per_tasklet_loop(self, units, tasklets, read, write, per_byte, fixed):
        """Pricing each tasklet share once keeps the per-tasklet sum bit for
        bit, with fractional MRAM traffic and non-dyadic cycle costs."""
        profile = dataclasses.replace(
            PROFILE, mram_cycles_per_byte=per_byte, mram_fixed_cycles=fixed
        )
        cost = dataclasses.replace(
            AES_COST, mram_read_bytes_per_unit=read, mram_write_bytes_per_unit=write
        )
        chunk = profile.max_mram_access_bytes
        base, rem = divmod(units, tasklets)
        mram = 0.0
        for t in range(tasklets):
            share = base + (1 if t < rem else 0)
            if share:
                mram += _streamed_access_cycles(share * read, chunk, profile)
                mram += _streamed_access_cycles(share * write, chunk, profile)
        compute = units * cost.instructions_per_unit / effective_ipc(tasklets, profile)
        assert simulate_dpu_kernel(units, tasklets, cost, profile) == \
            (compute + mram) / profile.dpu_frequency


# a DPU's (units, tasklets): repeated unit counts, and now and then an invalid entry
_DPU_PAIR = st.tuples(
    st.sampled_from([0, 1, 7, 4096]) | st.integers(0, 5000) | st.just(-1),
    st.integers(1, 24) | st.sampled_from([-1, 0, 25]),
)


def _grid(rows):
    """(units, tasklets) arrays of shape (ranks, DPUs per rank) from rows of pairs."""
    pairs = np.array(rows, dtype=np.int64).reshape(len(rows), len(rows[0]) if rows else 0, 2)
    return pairs[..., 0], pairs[..., 1]


class TestSimulateRankKernel:
    def test_identical_workloads_match_single_dpu(self):
        assert simulate_rank_kernel(*_grid([[(4096, 16)] * 64]), AES_COST, PROFILE) == [
            simulate_dpu_kernel(4096, 16, AES_COST, PROFILE)
        ]

    def test_slowest_dpu_wins(self):
        units, tasklets = _grid([[(1000, 16), (2000, 16)], [(500, 16), (1000, 16)]])
        assert simulate_rank_kernel(units, tasklets, AES_COST, PROFILE) == [
            simulate_dpu_kernel(u, 16, AES_COST, PROFILE)
            for u in (2000, 1000)
        ]

    def test_empty(self):
        assert simulate_rank_kernel(*_grid([[], []]), AES_COST, PROFILE) == [0.0, 0.0]
        assert simulate_rank_kernel(*_grid([]), AES_COST, PROFILE) == []

    @pytest.mark.parametrize("pairs,units_vary", [
        (1, True), (2, True), (35, True), (2560, True), (24, False),
    ])
    def test_prices_each_distinct_pair_once_in_first_dpu_order(
        self, monkeypatch, pairs, units_vary
    ):
        """On a whole machine's 40 x 64 grid, each distinct (units,
        tasklets) pair is priced exactly once, in the row-major order of
        its first DPU, whether the DPUs share one pair or hold 2,560, and
        also when every DPU holds the same units and only tasklets vary."""
        rng = np.random.default_rng(pairs)
        # pair i is (i + 1 units, or 7 for every pair, and tasklets
        # 1 + i % 24), dealt in a shuffled order
        which = rng.permutation(np.arange(40 * 64) % pairs).reshape(40, 64)
        units = which + 1 if units_vary else np.full_like(which, 7)
        tasklets = 1 + which % 24
        priced = []
        price = mc.simulate_dpu_kernel
        monkeypatch.setattr(mc, "simulate_dpu_kernel",
                            lambda *args: priced.append(args[:2]) or price(*args))
        times = simulate_rank_kernel(units, tasklets, AES_COST, PROFILE)
        assert priced == list(dict.fromkeys(zip(units.flat, tasklets.flat)))
        assert len(priced) == pairs
        assert times == [
            max(price(u, t, AES_COST, PROFILE) for u, t in zip(*rank))
            for rank in zip(units.tolist(), tasklets.tolist())
        ]

    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.tuples(st.integers(1, 3), st.integers(0, 16)).flatmap(
            lambda shape: st.lists(
                st.lists(_DPU_PAIR, min_size=shape[1], max_size=shape[1]),
                min_size=shape[0], max_size=shape[0],
            )
        ),
        cost=st.sampled_from([AES_COST, SHA_COST]),
        # a machine with 256 B MRAM accesses streams a share in more of them
        profile=st.sampled_from([PROFILE, dataclasses.replace(PROFILE, max_mram_access_bytes=256)]),
    )
    # (1, -1) keys like (0, 24) unless the key is offset by the smallest count
    @example(rows=[[(0, 24), (1, -1)]], cost=AES_COST, profile=PROFILE)
    def test_equals_bruteforce_max(self, rows, cost, profile):
        """Each rank's slowest DPU, and the error the first invalid DPU in
        row-major order raises."""
        def outcome(price):
            try:
                return price()
            except ValueError as exc:
                return type(exc), str(exc)

        assert outcome(lambda: simulate_rank_kernel(*_grid(rows), cost, profile)) == outcome(
            lambda: [
                max((simulate_dpu_kernel(u, t, cost, profile) for u, t in row),
                    default=0.0)
                for row in rows
            ]
        )

    @pytest.mark.parametrize("algorithm,workload", [
        # 32 MiB per rank plus 37 blocks: the first 37 DPUs take one more
        ("aes128", 40 * (32 << 20) + 37 * 16),
        # 3 messages per DPU, and 4 on the first 1,001
        ("sha256", 3 * 40 * 64 + 1001),
        # fewer messages than DPUs: the last 1,560 hold none
        ("sha256", 1000),
    ], ids=["aes-remainder", "sha-uneven", "sha-fewer-messages"])
    def test_full_size_partition_equals_bruteforce_max(self, algorithm, workload):
        """On a whole machine's partition, as plan_job builds it, each
        rank's time is its slowest DPU's; a DPU priced as another pair would
        show here, where the Hypothesis grids are at most 3 x 16."""
        if algorithm == "aes128":
            part, cost = partition_aes(workload, 40 * 64), AES_COST
        else:
            lengths = np.random.default_rng(7).integers(0, 5000, workload)
            part = partition_sha(lengths, 40 * 64)
            cost = _sha_cost_for(SHA_COST, workload, int(part.units.sum()))
        active = np.where(part.items > 0, np.minimum(part.items, 16), 1)
        units, tasklets = part.units.reshape(40, 64), active.reshape(40, 64)
        assert len(set(zip(units.flat, tasklets.flat))) > 1
        assert simulate_rank_kernel(units, tasklets, cost, PROFILE) == [
            max(simulate_dpu_kernel(u, t, cost, PROFILE) for u, t in zip(*rank))
            for rank in zip(units.tolist(), tasklets.tolist())
        ]


# an interval end: zeros of both signs, repeated points that make intervals
# touch, nest and repeat, and any other finite float
_POINT = st.sampled_from([0.0, -0.0, 0.1, 0.2, 1.1, 2.5, 4.0, -3.0]) | st.floats(
    allow_nan=False, allow_infinity=False)
_INTERVAL = st.tuples(_POINT, _POINT).map(sorted).map(tuple)


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


class TestBusyTime:
    @settings(max_examples=300, deadline=None)
    @given(intervals=st.lists(_INTERVAL, max_size=12))
    @example(intervals=[(2.5, 4.0), (0.0, 1.1), (1.1, 2.5)])   # unsorted, touching
    # merged, not added piece by piece: 1.1 - 0.1 is 1.0, (0.2 - 0.1) + (1.1 - 0.2) is not
    @example(intervals=[(0.2, 1.1), (0.1, 0.2)])
    @example(intervals=[(0.0, 4.0), (1.1, 2.5), (1.1, 2.5)])   # nested, duplicate
    @example(intervals=[(1.1, 1.1), (-3.0, -3.0), (4.0, 4.0)])  # zero length
    @example(intervals=[(0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0), (-3.0, -0.0)])
    def test_equals_reference_union(self, intervals):
        """busy_time is reference.union_length bit for bit, on tuples and on
        the [start, end] lists ExecutionTimeline.phase_intervals returns."""
        expected = _bits(reference.union_length(intervals))
        assert _bits(busy_time(intervals)) == expected
        assert _bits(busy_time([list(pair) for pair in intervals])) == expected
        times = np.zeros((len(intervals), len(EVENT_KINDS)))
        times[:, 4:6] = np.array(intervals).reshape(-1, 2)
        phase = ExecutionTimeline(times).phase_intervals(2)
        assert phase == [list(pair) for pair in intervals]
        assert _bits(busy_time(phase)) == expected


class TestHostProfile:
    def test_section_parsed(self):
        host = parse_config({
            "machine": dataclasses.asdict(PROFILE),
            "host": {"peak_ops_per_second": 2e9, "peak_bandwidth_bytes_per_second": 1e9},
        }).host
        assert host.ridge_point == 2.0

    def test_absent_section_takes_bundled_host(self):
        bundled = bundled_default_config().host
        assert parse_config({"machine": dataclasses.asdict(PROFILE)}).host == bundled
        assert parse_config(dataclasses.asdict(PROFILE)).host == bundled

    @pytest.mark.parametrize("host,match", [
        ({"peak_ops_per_second": 1.0}, "missing"),
        ({"peak_ops_per_second": 1.0, "peak_bandwidth_bytes_per_second": 1.0, "foo": 1},
         "unknown"),
        ({"peak_ops_per_second": 1.0, "peak_bandwidth_bytes_per_second": 0}, "positive"),
    ])
    def test_bad_section_rejected(self, host, match):
        with pytest.raises(ProfileError, match=match):
            parse_config({"machine": dataclasses.asdict(PROFILE), "host": host})


class TestSimulateTransfer:
    def test_zero_bytes(self):
        assert simulate_transfer(0, "to_dpu", PROFILE) == 0.0

    def test_linear(self):
        one = simulate_transfer(8000, "to_dpu", PROFILE)
        two = simulate_transfer(16000, "to_dpu", PROFILE)
        assert two == pytest.approx(2 * one)

    def test_direction_asymmetry_ratio(self):
        to = simulate_transfer(4096 * 64, "to_dpu", PROFILE)
        back = simulate_transfer(4096 * 64, "from_dpu", PROFILE)
        expected_ratio = (
            PROFILE.cpu_to_dpu_bandwidth_per_rank / PROFILE.dpu_to_cpu_bandwidth_per_rank
        )
        assert back / to == pytest.approx(expected_ratio)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            simulate_transfer(-1, "to_dpu", PROFILE)

    def test_unknown_direction_rejected(self):
        with pytest.raises(ValueError):
            simulate_transfer(1, "sideways", PROFILE)

    @settings(max_examples=50, deadline=None)
    @given(
        totals=st.lists(st.integers(0, 1 << 50), max_size=8),
        direction=st.sampled_from(["to_dpu", "from_dpu"]),
    )
    def test_array_equals_scalar_calls(self, totals, direction):
        """An int64 array of rank totals prices each total as the scalar
        call does, bit for bit."""
        times = simulate_transfer(np.array(totals, dtype=np.int64), direction, PROFILE)
        assert times.tolist() == [simulate_transfer(t, direction, PROFILE) for t in totals]

    def test_negative_element_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            simulate_transfer(np.array([0, 5, -1, 7], dtype=np.int64), "from_dpu", PROFILE)

    # rank totals as plan_job may pass them: a Python int or numpy scalar
    # (totals[1]), int64 rank sums, and rank sums past int64 as Python ints
    _KINDS = {
        "int": lambda totals: totals[1],
        "int64": lambda totals: np.int64(totals[1]),
        "int64 array": lambda totals: np.array(totals, dtype=np.int64),
        "object array": lambda totals: np.array([2 ** 70, *totals], dtype=object),
    }

    @pytest.mark.parametrize("kind", _KINDS)
    def test_one_negative_total_rejected_in_every_form(self, kind):
        with pytest.raises(ValueError, match="non-negative"):
            simulate_transfer(self._KINDS[kind]([5, -1, 0]), "to_dpu", PROFILE)

    @pytest.mark.parametrize("kind", _KINDS)
    @pytest.mark.parametrize("direction", ["to_dpu", "from_dpu"])
    def test_every_form_is_its_totals_over_the_bandwidth(self, kind, direction):
        """Each total, in each form, is priced as the float it over the
        directional bandwidth is, bit for bit."""
        bw = (PROFILE.cpu_to_dpu_bandwidth_per_rank if direction == "to_dpu"
              else PROFILE.dpu_to_cpu_bandwidth_per_rank)
        total = self._KINDS[kind]([0, 3 << 40, 123_456_789])
        times = simulate_transfer(total, direction, PROFILE)
        assert np.atleast_1d(times).astype(np.float64).tolist() == [
            int(t) / bw for t in np.atleast_1d(total).tolist()]
        assert type(times) is type(total / bw)


@pytest.mark.parametrize("first", ["machine", "orchestrator", "bench", "cli"])
def test_moved_names_are_one_object_whatever_is_imported_first(first):
    """Strategy and ExperimentSpec are defined in machine and re-exported by
    orchestrator, bench and the package. In a fresh interpreter that asks
    for each module first, every name is the one object, so no import
    cycle hands out a half-built module."""
    import pimcrypt

    code = (
        f"import pimcrypt.{first}\n"
        "import pimcrypt\n"
        "from pimcrypt import bench, machine, orchestrator\n"
        "assert orchestrator.Strategy is machine.Strategy is pimcrypt.Strategy\n"
        "assert bench.ExperimentSpec is machine.ExperimentSpec is pimcrypt.ExperimentSpec\n"
    )
    src = os.path.dirname(os.path.dirname(pimcrypt.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_all_names_resolve():
    """Every name the package exports is defined, once, and the retired
    names are gone: the per-event timeline type (a timeline is only its
    times array), the AES table record and its builder (the tables are
    aes module constants), bench's copies of machine's names, and
    default_profile (the bundled machine is bundled_default_config().machine)."""
    import pimcrypt
    from pimcrypt import bench

    assert len(pimcrypt.__all__) == 40
    assert len(set(pimcrypt.__all__)) == len(pimcrypt.__all__)
    for name in pimcrypt.__all__:
        assert getattr(pimcrypt, name) is not None, name
    assert not [name for name in dir(pimcrypt) + dir(mc) if name.endswith("Event")]
    for name in ("GfLookupTables", "build_gf_tables", "default_profile"):
        assert not hasattr(pimcrypt, name), name
    assert not hasattr(mc, "default_profile")
    for name in ("ALGORITHMS", "EXPERIMENT_NAMES"):
        assert not hasattr(bench, name), name


_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _run_fresh(code, env_update=()):
    """The stdout of code run in a fresh interpreter that has pimcrypt on
    its path and, of the BLAS thread variables, only those in env_update."""
    import pimcrypt

    src = os.path.dirname(os.path.dirname(pimcrypt.__file__))
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_THREAD_VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.update(env_update)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _threads_after(imports, env_update):
    """The native thread count of a fresh interpreter after imports; checks
    that the imports left os.environ as they found it."""
    code = (
        "import os\n"
        "before = dict(os.environ)\n"
        f"{imports}\n"
        "with open('/proc/self/status') as fh:\n"
        "    print(*[line.split()[1] for line in fh if line.startswith('Threads:')])\n"
        "print(os.environ == before)\n"
    )
    threads, unchanged = _run_fresh(code, env_update).split()
    assert unchanged == "True", imports
    return int(threads)


def _numpy_blas_name():
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy before 1.26 has no dicts mode
        return "unknown"


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="counts threads from /proc/self/status")
@pytest.mark.parametrize("env_update, imports, expected", [
    ({}, "import pimcrypt", 1),
    ({"OPENBLAS_NUM_THREADS": "2"}, "import pimcrypt.orchestrator", None),
    ({"OMP_NUM_THREADS": "2"}, "import pimcrypt.orchestrator", None),
    ({}, "import numpy\nimport pimcrypt.orchestrator", None),
])
def test_numpy_starts_with_one_blas_thread_unless_the_caller_decides(
    env_update, imports, expected
):
    """Importing pimcrypt first loads numpy without OpenBLAS's worker pool,
    and leaves os.environ as it was. A caller who sets a thread variable or
    imports numpy first gets the threads a plain import numpy starts under
    the same environment (expected None), once pimcrypt has loaded numpy."""
    if "openblas" not in _numpy_blas_name().lower():
        pytest.skip("numpy's BLAS is not OpenBLAS")
    if expected is None:
        expected = _threads_after("import numpy", env_update)
    assert _threads_after(imports, env_update) == expected


def test_no_blas_call_in_the_package():
    """pimcrypt calls no BLAS routine: no matrix product, dot, einsum or
    linalg. The package imports numpy with one OpenBLAS thread on that
    ground; whoever adds such a call revisits that guard in __init__."""
    import pimcrypt

    blas = {"dot", "vdot", "matmul", "inner", "outer", "tensordot", "einsum", "linalg"}
    found = []
    for path in sorted(Path(pimcrypt.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.Name):
                names = {node.id}
            elif isinstance(node, ast.alias):
                names = set(node.name.split("."))
            elif isinstance(node, ast.ImportFrom):
                names = set((node.module or "").split("."))
            else:
                names = set()
            if names & blas or isinstance(node, ast.MatMult):
                found.append(f"{path.name}:{getattr(node, 'lineno', '?')}: {names or '@'}")
    assert not found


def test_package_and_cli_load_only_what_they_use():
    """import pimcrypt loads no submodule; an exported name loads its own on
    first use (the config records and Strategy are machine's, with what
    machine imports), and the command line loads bench only to run bench
    or validate."""
    code = (
        "import sys\n"
        "import pimcrypt\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('pimcrypt.'))\n"
        "print(loaded())\n"
        "pimcrypt.HostProfile, pimcrypt.ExperimentSpec, pimcrypt.Strategy\n"
        "print(loaded())\n"
        "import pimcrypt.cli\n"
        "print('pimcrypt.bench' in sys.modules)\n"
        "pimcrypt.run_experiment\n"
        "print('pimcrypt.bench' in sys.modules)\n"
    )
    machine = ["pimcrypt.aes", "pimcrypt.costs", "pimcrypt.errors", "pimcrypt.machine",
               "pimcrypt.sha256"]
    assert _run_fresh(code).splitlines() == ["[]", str(machine), "False", "True"]
