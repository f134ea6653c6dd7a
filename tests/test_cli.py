import contextlib
import io
import json
import tempfile
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pimcrypt.bench import read_csv
from pimcrypt.cli import main
from pimcrypt.machine import bundled_default_config, default_profile
from pimcrypt.sha256 import sha256_digest

FIPS_KEY_HEX = "000102030405060708090a0b0c0d0e0f"
FIPS_PLAINTEXT = bytes.fromhex("00112233445566778899aabbccddeeff")
FIPS_CIPHERTEXT = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")


def _summary(capsys):
    out = capsys.readouterr().out
    pairs = {}
    for line in out.splitlines():
        if "=" in line and not line.startswith("event "):
            key, _, value = line.partition("=")
            pairs[key] = value
    return pairs


class TestEncrypt:
    def test_published_vector_file(self, tmp_path, capsys):
        src = tmp_path / "plain.bin"
        dst = tmp_path / "cipher.bin"
        src.write_bytes(FIPS_PLAINTEXT)
        code = main([
            "encrypt", "--key", FIPS_KEY_HEX, "--in", str(src), "--out", str(dst),
        ])
        assert code == 0
        assert dst.read_bytes() == FIPS_CIPHERTEXT
        assert _summary(capsys)["bytes_out"] == "16"

    def test_single_rank_strategies_identical(self, tmp_path, capsys):
        src = tmp_path / "plain.bin"
        src.write_bytes(bytes(64 * 16))
        summaries = []
        for strategy in ("sync", "pim1", "pim2"):
            dst = tmp_path / f"out-{strategy}.bin"
            assert main([
                "encrypt", "--key", FIPS_KEY_HEX, "--in", str(src),
                "--out", str(dst), "--ranks", "1", "--strategy", strategy,
            ]) == 0
            pairs = _summary(capsys)
            summaries.append((pairs["makespan_s"], pairs["kernel_s"], dst.read_bytes()))
        assert summaries[0] == summaries[1] == summaries[2]

    def test_empty_input(self, tmp_path):
        src = tmp_path / "empty.bin"
        dst = tmp_path / "out.bin"
        src.write_bytes(b"")
        assert main(["encrypt", "--key", FIPS_KEY_HEX, "--in", str(src), "--out", str(dst)]) == 0
        assert dst.read_bytes() == b""

    def test_bad_key_hex_is_usage_error(self, tmp_path):
        src = tmp_path / "p.bin"
        src.write_bytes(bytes(16))
        assert main(["encrypt", "--key", "zz", "--in", str(src), "--out", str(tmp_path / "c")]) == 2

    def test_short_key_is_usage_error(self, tmp_path):
        src = tmp_path / "p.bin"
        src.write_bytes(bytes(16))
        assert main(["encrypt", "--key", "abcd", "--in", str(src), "--out", str(tmp_path / "c")]) == 2

    def test_misaligned_without_pad_is_data_error(self, tmp_path):
        src = tmp_path / "p.bin"
        src.write_bytes(bytes(15))
        assert main(["encrypt", "--key", FIPS_KEY_HEX, "--in", str(src), "--out", str(tmp_path / "c")]) == 3

    def test_pad_flag_zero_fills(self, tmp_path, capsys):
        src = tmp_path / "p.bin"
        dst = tmp_path / "c.bin"
        src.write_bytes(bytes(15))
        assert main([
            "encrypt", "--key", FIPS_KEY_HEX, "--in", str(src), "--out", str(dst), "--pad",
        ]) == 0
        assert len(dst.read_bytes()) == 16
        assert _summary(capsys)["padded_from"] == "15"

    def test_missing_input_is_io_error(self, tmp_path):
        assert main([
            "encrypt", "--key", FIPS_KEY_HEX,
            "--in", str(tmp_path / "absent.bin"), "--out", str(tmp_path / "c"),
        ]) == 4


class TestHash:
    def test_single_file_vector(self, tmp_path, capsys):
        src = tmp_path / "msg.txt"
        dst = tmp_path / "digests.txt"
        src.write_bytes(b"abc")
        assert main(["hash", "--in", str(src), "--out", str(dst)]) == 0
        assert dst.read_text().strip() == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )
        assert _summary(capsys)["messages"] == "1"

    def test_n_inputs_n_lines_order_preserved(self, tmp_path):
        paths = []
        for i in range(7):
            p = tmp_path / f"m{i}.bin"
            p.write_bytes(bytes([i]) * (i * 10))
            paths.append(str(p))
        dst = tmp_path / "digests.txt"
        assert main(["hash", "--in", *paths, "--out", str(dst), "--dpus-per-rank", "3"]) == 0
        lines = dst.read_text().splitlines()
        assert len(lines) == 7
        for i, line in enumerate(lines):
            assert line == sha256_digest(bytes([i]) * (i * 10)).hex()

    def test_directory_input_sorted(self, tmp_path):
        d = tmp_path / "msgs"
        d.mkdir()
        (d / "b.bin").write_bytes(b"second")
        (d / "a.bin").write_bytes(b"first")
        dst = tmp_path / "digests.txt"
        assert main(["hash", "--in", str(d), "--out", str(dst)]) == 0
        lines = dst.read_text().splitlines()
        assert lines[0] == sha256_digest(b"first").hex()
        assert lines[1] == sha256_digest(b"second").hex()

    def test_unreadable_input_is_io_error(self, tmp_path):
        assert main([
            "hash", "--in", str(tmp_path / "nope.bin"), "--out", str(tmp_path / "d"),
        ]) == 4


class TestBench:
    def test_tasklet_scaling_csv(self, tmp_path, capsys):
        assert main([
            "bench", "--experiment", "tasklet_scaling", "--out-dir", str(tmp_path),
        ]) == 0
        lines = (tmp_path / "tasklet_scaling.csv").read_text().splitlines()
        data_rows = [l for l in lines if l and not l.startswith("#")][1:]
        assert len(data_rows) == 24

    def test_unknown_experiment_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--experiment", "banana_scaling", "--out-dir", "."])
        assert exc.value.code == 2
        assert "tasklet_scaling" in capsys.readouterr().err

    def test_custom_config(self, tmp_path):
        config = {
            "machine": default_profile().to_json(),
            "experiments": {
                "weak_scaling": {"algorithm": "sha256", "sweep": [1, 4], "message_count": 4},
            },
        }
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        assert main([
            "bench", "--experiment", "weak_scaling", "--config", str(cfg),
            "--out-dir", str(tmp_path),
        ]) == 0
        lines = (tmp_path / "weak_scaling.csv").read_text().splitlines()
        assert len([l for l in lines if l and not l.startswith("#")]) == 3

    def test_invalid_spec_is_usage_error(self, tmp_path):
        config = {
            "machine": default_profile().to_json(),
            "experiments": {"weak_scaling": {"sweep": [4, 1]}},
        }
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        assert main([
            "bench", "--experiment", "weak_scaling", "--config", str(cfg),
            "--out-dir", str(tmp_path),
        ]) == 2

    def test_idempotent_given_identical_inputs(self, tmp_path):
        config = {
            "machine": default_profile().to_json(),
            "experiments": {"weak_scaling": {"sweep": [1, 4, 16]}},
        }
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        outputs = []
        for d in ("run1", "run2"):
            out_dir = tmp_path / d
            assert main([
                "bench", "--experiment", "weak_scaling", "--config", str(cfg),
                "--out-dir", str(out_dir),
            ]) == 0
            outputs.append((out_dir / "weak_scaling.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_no_baseline_flag(self, tmp_path):
        config = {
            "machine": default_profile().to_json(),
            "experiments": {
                "rank_scaling": {"sweep": [1, 2], "strategies": ["pim1", "pim2"]},
            },
        }
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        assert main([
            "bench", "--experiment", "rank_scaling", "--config", str(cfg),
            "--out-dir", str(tmp_path), "--no-baseline",
        ]) == 0
        body = (tmp_path / "rank_scaling.csv").read_text().splitlines()
        data = [l for l in body if l and not l.startswith("#")][1:]
        assert len(data) == 4
        assert all(line.endswith(",") for line in data)  # empty baseline cells


class TestValidate:
    def test_default_profile_ok(self, tmp_path, capsys):
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(default_profile().to_json()))
        assert main(["validate", "--profile", str(path)]) == 0
        assert "profile=ok" in capsys.readouterr().out

    def test_usable_dpus_violation(self, tmp_path, capsys):
        doc = default_profile().to_json()
        doc["usable_dpus"] = 100000
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--profile", str(path)]) == 3
        assert "usable_dpus" in capsys.readouterr().out

    def test_missing_field(self, tmp_path, capsys):
        doc = default_profile().to_json()
        del doc["dpu_frequency"]
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--profile", str(path)]) == 3
        assert "dpu_frequency" in capsys.readouterr().out

    def test_missing_file_is_io_error(self, tmp_path):
        assert main(["validate", "--profile", str(tmp_path / "none.json")]) == 4

    def test_malformed_json_is_data_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["validate", "--profile", str(path)]) == 3


def _config(tmp_path, value, *keys):
    """The bundled config with the field at keys set to value, as a file."""
    doc = json.loads(resources.files("pimcrypt").joinpath("profiles/default.json").read_text())
    node = doc
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestConfigErrors:
    @pytest.mark.parametrize("command", ["encrypt", "hash", "bench", "validate"])
    @pytest.mark.parametrize("keys,value", [
        (("kernel_costs", "aes128", "instructions_per_unit"), "abc"),
        (("kernel_costs", "sha256", "wram_cache_bytes"), 2048.5),
        (("host", "peak_ops_per_second"), "x"),
        (("host",), 5),
    ])
    def test_bad_config_value_is_data_error(self, tmp_path, capsys, command, keys, value):
        cfg = _config(tmp_path, value, *keys)
        plain = tmp_path / "plain.bin"
        plain.write_bytes(bytes(32))
        out = str(tmp_path / "out")
        argv = {
            "encrypt": ["encrypt", "--key", FIPS_KEY_HEX, "--in", str(plain), "--out", out,
                        "--profile"],
            "hash": ["hash", "--in", str(plain), "--out", out, "--profile"],
            "bench": ["bench", "--experiment", "weak_scaling", "--out-dir", out, "--config"],
            "validate": ["validate", "--profile"],
        }[command]
        assert main(argv + [cfg]) == 3
        captured = capsys.readouterr()
        assert keys[-1] in captured.out + captured.err

    @pytest.mark.parametrize("keys,value,argv,code,text", [
        # ranks beyond the machine: the planner's range check, as for encrypt/hash
        (("experiments", "rank_scaling", "sweep"), [1, 41],
         ["bench", "--experiment", "rank_scaling", "--no-baseline"], 3, "n_ranks"),
        # whole numbers only; 2.5 used to be truncated to 2
        (("experiments", "weak_scaling", "sweep"), [1, 2.5],
         ["bench", "--experiment", "weak_scaling"], 2, "integer"),
        (("experiments", "weak_scaling"), 5,
         ["bench", "--experiment", "weak_scaling"], 2, "weak_scaling"),
        (("experiments", "weak_scaling", "sweep"), "1,4",
         ["bench", "--experiment", "weak_scaling"], 2, "sweep"),
        (("experiments", "weak_scaling", "tasklets"), "16",
         ["bench", "--experiment", "weak_scaling"], 2, "tasklets"),
        (("experiments", "weak_scaling", "strategies"), ["sync", 1],
         ["bench", "--experiment", "weak_scaling"], 2, "unknown strategy"),
        # validate rejects what the planner rejects
        (("kernel_costs", "aes128", "instructions_per_unit"), -1,
         ["validate"], 3, "violation: aes128"),
        (("experiments", "weak_scaling", "strategies"), [],
         ["bench", "--experiment", "weak_scaling"], 2, "strategies"),
        # empty workloads: a division by zero, and an all-zero CSV
        (("experiments", "tasklet_scaling", "buffer_bytes"), 0,
         ["bench", "--experiment", "tasklet_scaling"], 2, "buffer_bytes"),
        (("experiments", "weak_scaling", "message_count"), -3,
         ["bench", "--experiment", "weak_scaling"], 2, "message_count"),
        # more of what validate rejects, as the planner does
        (("experiments", "rank_scaling", "sweep"), [1, 41], ["validate"], 3, "n_ranks"),
        (("experiments", "strong_scaling", "sweep"), [1, 65], ["validate"], 3, "dpus_per_rank"),
        (("experiments", "weak_scaling", "tasklets"), 0, ["validate"], 3, "tasklets"),
        # the config's kernel costs reach the planner
        (("kernel_costs", "aes128", "instructions_per_unit"), -1,
         ["bench", "--experiment", "weak_scaling", "--no-baseline"], 3, "instruction"),
        # MRAM is accessed in whole 8-byte granules
        (("kernel_costs", "aes128", "wram_cache_bytes"), 100, ["validate"], 3, "wram_cache_bytes"),
        (("machine", "max_mram_access_bytes"), 2044, ["validate"], 3, "max_mram_access_bytes"),
    ])
    def test_bad_experiment_or_cost(self, tmp_path, capsys, keys, value, argv, code, text):
        cfg = _config(tmp_path, value, *keys)
        flags = ["--profile", cfg] if argv[0] == "validate" else [
            "--config", cfg, "--out-dir", str(tmp_path)]
        assert main(argv + flags) == code
        captured = capsys.readouterr()
        assert text in captured.out + captured.err

    def test_config_kernel_costs_take_effect(self, tmp_path, capsys):
        base = bundled_default_config().kernel_costs["aes128"].instructions_per_unit
        plain = tmp_path / "plain.bin"
        plain.write_bytes(bytes(4096))
        kernels = []
        for factor in (1, 2):
            cfg = _config(tmp_path, base * factor, "kernel_costs", "aes128", "instructions_per_unit")
            out = tmp_path / f"x{factor}"
            assert main(["bench", "--experiment", "weak_scaling", "--no-baseline",
                         "--config", cfg, "--out-dir", str(out)]) == 0
            _, rows = read_csv(str(out / "weak_scaling.csv"))
            assert main(["encrypt", "--key", FIPS_KEY_HEX, "--in", str(plain),
                         "--out", str(out / "c.bin"), "--profile", cfg]) == 0
            kernels.append(([row["kernel_s"] for row in rows], _summary(capsys)["kernel_s"]))
        (bench1, encrypt1), (bench2, encrypt2) = kernels
        assert all(b > a for a, b in zip(bench1, bench2))
        assert float(encrypt2) > float(encrypt1)


# Arbitrary JSON, with integers bounded so that no example builds a large
# workload, plus values a field may hold, so that some examples validate.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-4096, 4096)
    | st.floats(-4096, 4096, allow_nan=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=6,
)
_PLAUSIBLE = (
    st.integers(1, 64) | st.integers(1, 256).map(lambda n: 16 * n)
    | st.lists(st.integers(-4, 70), min_size=1, max_size=4).map(sorted)
    | st.lists(st.sampled_from(["sync", "pim1", "pim2"]), max_size=3)
    | st.sampled_from(["aes128", "sha256"])
)
_DELETE = object()
_FIELDS = [("experiments", "weak_scaling", name) for name in (
    "algorithm", "buffer_bytes", "message_bytes", "message_count", "sweep", "strategies",
    "tasklets", "repetitions", "seed", "turbo",
)] + [("kernel_costs", "aes128", name) for name in (
    "instructions_per_unit", "mram_read_bytes_per_unit", "mram_write_bytes_per_unit",
    "wram_cache_bytes", "unit_bytes",
)]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    return code


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_FIELDS), _PLAUSIBLE | _JSON | st.just(_DELETE)),
                min_size=1, max_size=3))
def test_mutated_config_keeps_exit_contract(mutations):
    """validate and bench exit 0/2/3/4 for any mutated config, and bench
    accepts every config validate accepts."""
    doc = json.loads(resources.files("pimcrypt").joinpath("profiles/default.json").read_text())
    for (*path, name), value in mutations:
        node = doc
        for key in path:
            node = node[key]
        if value is _DELETE:
            node.pop(name, None)
        else:
            node[name] = value
    with tempfile.TemporaryDirectory() as tmp:
        cfg = f"{tmp}/config.json"
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        validated = _run(["validate", "--profile", cfg])
        benched = _run(["bench", "--experiment", "weak_scaling", "--no-baseline",
                        "--config", cfg, "--out-dir", tmp])
    assert validated in (0, 2, 3, 4) and benched in (0, 2, 3, 4)
    if validated == 0:
        assert benched == 0
