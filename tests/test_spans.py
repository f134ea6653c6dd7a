"""The host-clock benchmark wraps pimcrypt's entry points at the module
attributes their callers look up (hostbench/spans.py). A refactor that
inlines one of them, or calls it by another name, silently drops its span;
this runs a small operation of each benchmark workload twice under the
tracer and checks that every span the benchmark expects fires, with the
same call counts in both operations, as a traced benchmark run requires,
and that each span fires exactly as often as the planner's structure
says, so a merged or dropped wrapped call fails here too."""

import contextlib
import importlib.util
import io
import json
from importlib import resources
from pathlib import Path

import pytest

from pimcrypt import cli

_SPANS_PATH = Path(__file__).resolve().parents[1] / "hostbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("hostbench_spans", _SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _calls(workload, tmp):
    """A small instance of each benchmark workload's cli.main calls."""
    if workload == "encrypt-bulk":
        (tmp / "plain.bin").write_bytes(bytes(64 << 10))
        return [["encrypt", "--key", "00" * 16, "--in", str(tmp / "plain.bin"),
                 "--out", str(tmp / "cipher.bin"), "--ranks", "4", "--strategy", "pim1"]]
    if workload == "hash-mixed":
        (tmp / "msgs").mkdir()
        for i, size in enumerate((32, 200, 2048, 32768)):
            (tmp / "msgs" / f"m{i}.bin").write_bytes(bytes(size))
        return [["hash", "--in", str(tmp / "msgs"), "--out", str(tmp / "digests.txt"),
                 "--ranks", "4", "--strategy", "pim2"]]
    doc = json.loads(resources.files("pimcrypt").joinpath("profiles/default.json").read_text())
    doc["experiments"]["weak_scaling"]["algorithm"] = "sha256"
    (tmp / "sha256.json").write_text(json.dumps(doc))
    bench = ["bench", "--experiment", "weak_scaling", "--no-baseline", "--out-dir", str(tmp)]
    return [bench, [*bench, "--config", str(tmp / "sha256.json")]]


# Each span's calls per operation of _calls' instance, spans that fire only.
# One plan prices each transfer direction once and the key broadcast once
# more (AES), each distinct (units, active tasklets) pair of its DPUs once
# (the 4 messages on 4 x 64 DPUs give 4 pairs and the idle DPUs' one), and
# unions each of its 4 phases once. paper-sweep plans weak_scaling's 4
# sweep values under sync, for aes128 and then sha256.
_CALLS = {
    "encrypt-bulk": {
        "cli.main": 1, "orchestrator.run_job": 1, "orchestrator.plan_job": 1,
        "orchestrator.partition_aes": 1, "aes.encrypt_buffer": 1,
        "machine.simulate_dpu_kernel": 1, "machine.simulate_rank_kernel": 1,
        "machine.simulate_transfer": 3, "machine.phase_intervals": 4, "machine.busy_time": 4,
    },
    "hash-mixed": {
        "cli.main": 1, "orchestrator.run_job": 1, "orchestrator.plan_job": 1,
        "orchestrator.partition_sha": 1, "sha256.many": 1,
        "machine.simulate_dpu_kernel": 5, "machine.simulate_rank_kernel": 1,
        "machine.simulate_transfer": 2, "machine.phase_intervals": 4, "machine.busy_time": 4,
    },
    "paper-sweep": {
        "cli.main": 2, "bench.run_experiment": 2, "bench.emit_csv": 2,
        "orchestrator.plan_job": 8, "orchestrator.partition_aes": 4,
        "orchestrator.partition_sha": 4, "orchestrator.validate_timeline": 8,
        "machine.simulate_dpu_kernel": 8, "machine.simulate_rank_kernel": 8,
        "machine.simulate_transfer": 20, "machine.phase_intervals": 32, "machine.busy_time": 32,
    },
}


@pytest.mark.parametrize("workload", ["encrypt-bulk", "hash-mixed", "paper-sweep"])
def test_every_expected_span_fires(tmp_path, workload):
    spans = _load_spans()
    calls = _calls(workload, tmp_path)
    summaries = []
    for _ in range(2):
        with spans.Tracer() as tracer, contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(argv) for argv in calls]
        assert codes == [0] * len(calls)
        assert tracer.unresolved == []
        summaries.append(tracer.summary())
    assert spans.missing_spans(workload, summaries) == []
    assert spans.unstable_counts(summaries) == []
    assert {name: s["calls"] for name, s in summaries[0].items() if s["calls"]} == _CALLS[workload]
