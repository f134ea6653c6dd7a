"""The benchmark's paper-sweep workload runs bench on copies of
profiles/default.json that hostbench/gen.py writes. A config-format change
that breaks those copies, or moves a modeled number, would otherwise show
only in a benchmark run; this writes the workload's inputs at full scale,
runs its cli.main calls and checks every CSV against the digest that
hostbench/fingerprints.json records for it."""

import contextlib
import hashlib
import importlib.util
import io
import json
from pathlib import Path

from pimcrypt import cli

_GEN_PATH = Path(__file__).resolve().parents[1] / "hostbench" / "gen.py"


def _load_gen():
    spec = importlib.util.spec_from_file_location("hostbench_gen", _GEN_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_paper_sweep_csvs_match_recorded_digests(tmp_path):
    _load_gen().write_inputs("paper-sweep", 0, str(tmp_path), 1)
    inputs = json.loads((tmp_path / "inputs.json").read_text())
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [cli.main(argv) for argv in inputs["calls"]]
    assert codes == [0] * 8
    expect = inputs["expect"]
    digests = {name: hashlib.sha256(Path(path).read_bytes()).hexdigest()
               for name, path in expect["csvs"].items()}
    assert len(digests) == 8
    assert digests == expect["csv_sha256"]
