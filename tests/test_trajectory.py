"""tools/trajectory.py times the planner's layers of two or more source
trees in one process and checks every output it times, so a fast wrong
planner cannot read as a win. This runs it on two copies of this tree for
two rounds, checks the keys of the report it writes, checks that a
wrong planner output is reported as a failure, and checks that only
changes under a source tree mark it dirty."""

import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

from pimcrypt import machine as mc

_PATH = Path(__file__).resolve().parents[1] / "tools" / "trajectory.py"
_ALGORITHMS = ("aes128", "sha256")
_RANK_STRATEGIES = mc.bundled_default_config().experiments["rank_scaling"].strategies


def _load():
    spec = importlib.util.spec_from_file_location("trajectory", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_report_holds_every_curve_point():
    trajectory = _load()
    src = str(_PATH.parents[1] / "src")
    report = json.loads(json.dumps(trajectory.run([("parent", src), ("change", src)], 2)))
    assert set(report) == {"repetitions", "baseline", "host", "runs"}
    assert (report["repetitions"], report["baseline"]) == (2, "parent")
    assert set(report["host"]) == {"nproc", "cpu_model", "python", "numpy"}
    assert set(report["runs"]) == {"parent", "change"}
    for name, run in report["runs"].items():
        assert set(run) == {"commit", "dirty", "source_sha256", "correct", "failures", "curves"}
        assert run["source_sha256"] == trajectory.source_digest(src)
        assert run["correct"] and run["failures"] == []
        assert {curve: set(points) for curve, points in run["curves"].items()} == {
            "plan_job": {f"{a}/{n}" for a in _ALGORITHMS for n in (1, 10, 40)},
            "schedule": {f"{a}/{n}/{s.value}" for a in _ALGORITHMS for n in (1, 10, 40)
                         for s in _RANK_STRATEGIES},
            "simulate_rank_kernel": {"1", "2", "35", "2560"},
            "run_experiment": {f"{a}/{e}" for a in _ALGORITHMS for e in mc.EXPERIMENTS},
            "sweep": {"paper-sweep"},
        }
        for points in run["curves"].values():
            for point in points.values():
                keys = {"median_s", "q1_s", "q3_s", "samples"}
                if name == "change":  # compared round by round with the baseline
                    keys |= {"median_ratio", "q1_ratio", "q3_ratio", "wins"}
                    assert 0 < point["q1_ratio"] <= point["median_ratio"] <= point["q3_ratio"]
                    assert point["wins"] in (0, 0.5, 1)
                assert set(point) == keys
                assert point["samples"] == 2
                assert 0 < point["q1_s"] <= point["median_s"] <= point["q3_s"]


def _price_off_by_a_ulp(monkeypatch):
    price = mc.simulate_dpu_kernel
    monkeypatch.setattr(mc, "simulate_dpu_kernel", lambda *args: price(*args) * (1 + 2**-52))
    return {f"{point} {a}/{e}: CSV differs from its fingerprint"
            for point in ("run_experiment", "sweep") for a in _ALGORITHMS for e in mc.EXPERIMENTS}


def _rank_priced_by_its_first_dpu(monkeypatch):
    def first_dpu(units, tasklets, cost, profile):
        return [mc.simulate_dpu_kernel(int(u[0]), int(t[0]), cost, profile)
                for u, t in zip(units, tasklets)]

    monkeypatch.setattr(mc, "simulate_rank_kernel", first_dpu)
    return {f"simulate_rank_kernel with {n} pairs: a rank is not its slowest DPU"
            for n in (2, 35, 2560)}


@pytest.mark.parametrize("fault", [_price_off_by_a_ulp, _rank_priced_by_its_first_dpu])
def test_wrong_planner_output_is_a_failure(monkeypatch, fault):
    """A DPU priced one ulp off changes every CSV, from run_experiment and
    from the sweep's bench calls alike; a rank priced by its
    first DPU, not its slowest, leaves every bench CSV as it was (each
    bench plan has one pair) and shows only in the rank-kernel check."""
    expected = fault(monkeypatch)
    failures = _load().measure({"change": "pimcrypt"}, 1)["failures"]
    assert set(failures) == {"change"} and set(failures["change"]) == expected


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_only_changes_under_the_source_tree_make_it_dirty(tmp_path):
    """An untracked file at the root of the checkout leaves its src tree
    clean; an edit under src marks it dirty."""
    def git(*args):
        subprocess.run(["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t",
                        *args], check=True, capture_output=True)

    src = tmp_path / "src"
    src.mkdir()
    (src / "module.py").write_text("x = 1\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "tree")
    trajectory = _load()
    commit, dirty = trajectory.tree_state(str(src))
    assert len(commit) == 40 and dirty is False
    (tmp_path / "notes.txt").write_text("untracked\n")
    assert trajectory.tree_state(str(src)) == (commit, False)
    (src / "module.py").write_text("x = 2\n")
    assert trajectory.tree_state(str(src)) == (commit, True)
