import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import sys
import tempfile
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pimcrypt import bench as bh
from pimcrypt import machine as mc
from pimcrypt import cli, orchestrator, reference
from pimcrypt.cli import main
from pimcrypt.errors import CapacityError
from pimcrypt.machine import bundled_default_config
from pimcrypt.sha256 import sha256_digest

FIPS_KEY_HEX = "000102030405060708090a0b0c0d0e0f"
_PROFILE = bundled_default_config().machine
FIPS_PLAINTEXT = bytes.fromhex("00112233445566778899aabbccddeeff")
FIPS_CIPHERTEXT = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")


def _csv_column(path, name):
    """One column of a CSV emit_csv wrote, as floats, its '#' metadata
    lines skipped."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = csv.DictReader(line for line in fh if not line.startswith("#"))
        return [float(row[name]) for row in rows]


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

    def test_spaced_key_is_usage_error(self, tmp_path, capsys):
        """bytes.fromhex skips whitespace; a key is exactly 32 hex digits."""
        src = tmp_path / "p.bin"
        src.write_bytes(bytes(16))
        spaced = " ".join(FIPS_KEY_HEX[i:i + 2] for i in range(0, 32, 2))
        assert main(["encrypt", "--key", spaced, "--in", str(src), "--out", str(tmp_path / "c")]) == 2
        assert "32 hex characters" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()

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

    def test_in_place(self, tmp_path):
        """--in and --out naming one file leave it holding the ciphertext
        of what it held: the output opens without truncation, and each
        chunk is written over bytes already read."""
        path = tmp_path / "data.bin"
        plain = bytes(range(256)) * 4
        path.write_bytes(plain)
        key = bytes.fromhex(FIPS_KEY_HEX)
        expected = b"".join(
            reference.encrypt_block(plain[i : i + 16], key) for i in range(0, len(plain), 16))
        assert main(["encrypt", "--key", FIPS_KEY_HEX, "--in", str(path), "--out", str(path),
                     "--ranks", "2"]) == 0
        assert path.read_bytes() == expected

    def test_missing_input_is_io_error(self, tmp_path):
        assert main([
            "encrypt", "--key", FIPS_KEY_HEX,
            "--in", str(tmp_path / "absent.bin"), "--out", str(tmp_path / "c"),
        ]) == 4


def _expected_ciphertext(plain):
    padded = plain + bytes(-len(plain) % 16)
    key = bytes.fromhex(FIPS_KEY_HEX)
    return b"".join(reference.encrypt_block(padded[i:i + 16], key)
                    for i in range(0, len(padded), 16))


class TestEncryptStream:
    """encrypt reads, encrypts and writes its input one chunk at a time;
    CHUNK_BYTES is cut to three blocks so small inputs span chunks."""

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(orchestrator, "CHUNK_BYTES", 48)

    @pytest.mark.parametrize("n", [0, 16, 47, 48, 49, 97])
    def test_ciphertext_by_chunk(self, tmp_path, monkeypatch, capsys, n):
        plain = bytes(range(n))
        src, dst = tmp_path / "p.bin", tmp_path / "c.bin"
        src.write_bytes(plain)
        lengths = []
        encrypt = orchestrator.aes128_encrypt_buffer

        def spy(buffer, ks, out=None):
            lengths.append(len(buffer))
            return encrypt(buffer, ks, out=out)

        monkeypatch.setattr(orchestrator, "aes128_encrypt_buffer", spy)
        argv = ["encrypt", "--key", FIPS_KEY_HEX, "--in", str(src), "--out", str(dst)]
        assert main(argv + ["--pad"] * (n % 16 > 0)) == 0
        expected = _expected_ciphertext(plain)
        assert dst.read_bytes() == expected
        assert max(lengths) <= orchestrator.CHUNK_BYTES
        assert sum(lengths) == len(expected)
        pairs = _summary(capsys)
        assert (pairs["bytes_in"], pairs["bytes_out"]) == (str(n), str(len(expected)))
        assert pairs.get("padded_from") == (str(n) if n % 16 else None)

    @pytest.mark.parametrize("args", [
        lambda chunk: (chunk, bytearray(len(chunk) + 16)),
        lambda chunk: (chunk, bytes(len(chunk))),
        lambda chunk: (chunk[16:], chunk[:-16]),
    ], ids=["wrong-length", "read-only", "partial-overlap"])
    def test_bad_out_is_data_error(self, tmp_path, monkeypatch, capsys, args):
        """A kernel call whose out the kernel rejects raises ValueError, so
        encrypt exits 3 with one message, not a traceback."""
        src, dst = tmp_path / "p.bin", tmp_path / "c.bin"
        src.write_bytes(bytes(96))
        encrypt = orchestrator.aes128_encrypt_buffer

        def bad_call(buffer, ks, out=None):
            buffer, out = args(buffer)
            return encrypt(buffer, ks, out=out)

        monkeypatch.setattr(orchestrator, "aes128_encrypt_buffer", bad_call)
        assert main(["encrypt", "--key", FIPS_KEY_HEX, "--in", str(src),
                     "--out", str(dst)]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error: out ")
        assert "Traceback" not in captured.out + captured.err

    def test_in_place_across_chunks(self, tmp_path, monkeypatch):
        """The padded last chunk grows the file only after the whole input
        was read, so in place works with --pad over several chunks. That
        chunk is larger than the writer's 8 KiB buffer, which would
        otherwise hold it back until the end."""
        monkeypatch.setattr(orchestrator, "CHUNK_BYTES", 1 << 14)
        path = tmp_path / "data.bin"
        plain = bytes(range(256)) * 99 + bytes(range(41))  # chunks of 16384 and 9008 B
        path.write_bytes(plain)
        assert main(["encrypt", "--key", FIPS_KEY_HEX, "--in", str(path), "--out", str(path),
                     "--pad"]) == 0
        assert path.read_bytes() == _expected_ciphertext(plain)

    def test_longer_output_is_cut(self, tmp_path):
        plain = bytes(range(97))
        src, dst = tmp_path / "p.bin", tmp_path / "c.bin"
        src.write_bytes(plain)
        dst.write_bytes(b"\xff" * 1000)
        assert main(["encrypt", "--key", FIPS_KEY_HEX, "--in", str(src), "--out", str(dst),
                     "--pad"]) == 0
        assert dst.read_bytes() == _expected_ciphertext(plain)

    @pytest.mark.parametrize("device,code", [("/dev/null", 0), ("/dev/full", 4)])
    def test_device_output(self, tmp_path, capsys, device, code):
        """A device is written in place and never truncated: /dev/null takes
        the ciphertext, and /dev/full's refusal exits 4."""
        if not os.path.exists(device):
            pytest.skip(f"{device} is absent")
        src = tmp_path / "p.bin"
        src.write_bytes(bytes(97))
        assert main(["encrypt", "--key", FIPS_KEY_HEX, "--in", str(src), "--out", device,
                     "--pad"]) == code
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        if code:
            assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("size", [60, 200], ids=["shrinks", "grows"])
    def test_input_resized_mid_read_is_io_error(self, tmp_path, monkeypatch, capsys, size):
        """A file that another writer cuts or extends after its first chunk
        was read does not match its plan: exit 4. The resize runs inside
        the source's first read, so nothing races."""
        src, dst = tmp_path / "p.bin", tmp_path / "c.bin"
        src.write_bytes(bytes(96))
        run_job = cli.run_job

        def resize_after_first_read(source, key, **options):
            readinto = source.readinto

            def read_then_resize(buffer):
                source.readinto = readinto
                n = readinto(buffer)
                os.truncate(src, size)
                return n

            source.readinto = read_then_resize
            return run_job(source, key, **options)

        monkeypatch.setattr(cli, "run_job", resize_after_first_read)
        assert main(["encrypt", "--key", FIPS_KEY_HEX, "--in", str(src),
                     "--out", str(dst)]) == 4
        captured = capsys.readouterr()
        assert captured.err.startswith("error: input ")
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize("size", [16, 41], ids=["shrinks", "grows"])
    def test_input_resized_before_planning_is_io_error(self, tmp_path, monkeypatch, capsys,
                                                       size):
        """run_job plans from its own fstat of the input: a file resized
        after the CLI checked its 32 bytes does not match its plan, so it
        exits 4 and writes no output, with or without --pad."""
        src, dst = tmp_path / "p.bin", tmp_path / "c.bin"
        src.write_bytes(bytes(32))
        run_job = cli.run_job

        def resize_then_run(source, key, **options):
            os.truncate(src, size)
            return run_job(source, key, **options)

        monkeypatch.setattr(cli, "run_job", resize_then_run)
        argv = ["encrypt", "--key", FIPS_KEY_HEX, "--in", str(src), "--out", str(dst)]
        for pad in ([], ["--pad"]):
            assert main(argv + pad) == 4
            captured = capsys.readouterr()
            assert captured.err.startswith("error: input changed size: 32 bytes checked")
            assert captured.out == ""
            assert not dst.exists()
            src.write_bytes(bytes(32))

    def test_short_reads_are_not_the_end(self, tmp_path, monkeypatch):
        """A read may return fewer bytes than asked for before the end of
        the file; the chunk is filled by reading again."""
        plain = bytes(range(97))
        src, dst = tmp_path / "p.bin", tmp_path / "c.bin"
        src.write_bytes(plain)
        run_job = cli.run_job

        def short_reads(source, key, **options):
            readinto = source.readinto
            source.readinto = lambda buffer: readinto(buffer[:5])
            return run_job(source, key, **options)

        monkeypatch.setattr(cli, "run_job", short_reads)
        assert main(["encrypt", "--key", FIPS_KEY_HEX, "--in", str(src), "--out", str(dst),
                     "--pad"]) == 0
        assert dst.read_bytes() == _expected_ciphertext(plain)

    @pytest.mark.parametrize("case", ["bad key", "misaligned", "beyond MRAM"])
    def test_refused_job_writes_no_output(self, tmp_path, case):
        """A usage or data error is found before the output opens."""
        src, dst = tmp_path / "p.bin", tmp_path / "c.bin"
        key, code = FIPS_KEY_HEX, 3
        src.write_bytes(bytes(32))
        if case == "bad key":
            key, code = "zz" * 16, 2
        elif case == "misaligned":
            src.write_bytes(bytes(33))
        else:  # sparse: one DPU cannot hold it, and nothing is read
            os.truncate(src, _PROFILE.mram_bytes // 2)
        argv = ["encrypt", "--key", key, "--in", str(src), "--out", str(dst),
                "--ranks", "1", "--dpus-per-rank", "1"]
        assert main(argv) == code
        assert not dst.exists()


# The peak resident size of this process's own memory, in KiB: VmHWM, as
# ru_maxrss also counts the parent's size at fork.
_MEMORY_PROBE = """
import contextlib, io, sys
from pimcrypt.cli import main
key, empty, big, out = sys.argv[1:]

def peak():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

with contextlib.redirect_stdout(io.StringIO()):
    assert main(["encrypt", "--key", key, "--in", empty, "--out", out]) == 0
    before = peak()
    assert main(["encrypt", "--key", key, "--in", big, "--out", out,
                 "--ranks", "40", "--strategy", "pim1"]) == 0
print(peak() - before)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux's VmHWM")
def test_encrypt_memory_is_bounded_by_a_chunk(tmp_path):
    """Encrypting 16 MiB raises the peak resident size of a warmed-up
    process by less than two chunks: the file passes through one chunk
    buffer, encrypted in place, plus the kernel's working set of one batch.
    A new ciphertext per chunk, with the previous one still held, would add
    two more chunks, and a whole-file read and its ciphertext 32 MiB."""
    import subprocess

    import pimcrypt

    empty, big = tmp_path / "empty.bin", tmp_path / "big.bin"
    empty.write_bytes(b"")
    big.write_bytes(os.urandom(16 << 20))
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(pimcrypt.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _MEMORY_PROBE, FIPS_KEY_HEX, str(empty), str(big),
         str(tmp_path / "out.bin")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 2 * orchestrator.CHUNK_BYTES >> 10  # KiB


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

    def test_unreadable_input_is_io_error(self, tmp_path, capsys):
        assert main([
            "hash", "--in", str(tmp_path / "nope.bin"), "--out", str(tmp_path / "d"),
        ]) == 4
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("case", ["unreadable", "directory"])
    def test_refused_input_is_io_error(self, tmp_path, monkeypatch, capsys, case):
        """A message that exists but cannot be read exits 4. Root reads past
        chmod, so the refusal is simulated, as is a directory met where a
        file was listed."""
        path = tmp_path / "m.bin"
        if case == "unreadable":
            path.write_bytes(b"abc")
            os_open = os.open

            def refuse(name, *args, **kwargs):
                if os.fspath(name) == str(path):
                    raise PermissionError(13, "Permission denied", str(path))
                return os_open(name, *args, **kwargs)

            monkeypatch.setattr(os, "open", refuse)
        elif case == "directory":
            path.mkdir()
            monkeypatch.setattr(os.path, "isdir", lambda p: False)
        assert main(["hash", "--in", str(path), "--out", str(tmp_path / "d")]) == 4
        assert capsys.readouterr().err.startswith("error: ")

    def test_input_read_to_the_end(self, tmp_path, monkeypatch):
        """A file's bytes are read until os.read returns none, whatever
        size fstat gives: a special file or a growing one reports too few."""
        path = tmp_path / "m.bin"
        path.write_bytes(bytes(range(256)) * 40)
        fstat = os.fstat

        def one_byte(fd):
            st = fstat(fd)
            return os.stat_result((*st[:6], 1, *st[7:10]))

        monkeypatch.setattr(os, "fstat", one_byte)
        dst = tmp_path / "d.txt"
        assert main(["hash", "--in", str(path), "--out", str(dst)]) == 0
        assert dst.read_text() == sha256_digest(path.read_bytes()).hex() + "\n"

    def test_directory_keeps_files_and_links_to_files(self, tmp_path):
        """A directory contributes its regular files and symlinks to files,
        by name; subdirectories and dangling links are skipped."""
        d = tmp_path / "msgs"
        d.mkdir()
        (d / "c.bin").write_bytes(b"file")
        (d / "a.link").symlink_to(d / "c.bin")
        (d / "b.dir").mkdir()
        (d / "d.dangling").symlink_to(d / "missing")
        dst = tmp_path / "digests.txt"
        assert main(["hash", "--in", str(d), "--out", str(dst)]) == 0
        assert dst.read_text().splitlines() == [sha256_digest(b"file").hex()] * 2


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
            "machine": dataclasses.asdict(_PROFILE),
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

    def test_invalid_spec_is_data_error(self, tmp_path):
        config = {
            "machine": dataclasses.asdict(_PROFILE),
            "experiments": {"weak_scaling": {"sweep": [4, 1]}},
        }
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        assert main([
            "bench", "--experiment", "weak_scaling", "--config", str(cfg),
            "--out-dir", str(tmp_path),
        ]) == 3

    def test_idempotent_given_identical_inputs(self, tmp_path):
        config = {
            "machine": dataclasses.asdict(_PROFILE),
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
            "machine": dataclasses.asdict(_PROFILE),
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
        path.write_text(json.dumps(dataclasses.asdict(_PROFILE)))
        assert main(["validate", "--profile", str(path)]) == 0
        assert "profile=ok" in capsys.readouterr().out

    def test_usable_dpus_violation(self, tmp_path, capsys):
        doc = dataclasses.asdict(_PROFILE)
        doc["usable_dpus"] = 100000
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--profile", str(path)]) == 3
        assert "usable_dpus" in capsys.readouterr().out

    def test_missing_field(self, tmp_path, capsys):
        doc = dataclasses.asdict(_PROFILE)
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
    """The bundled config with the field at keys set to value, as a file;
    a section or entry on the way that the bundled config lacks is added."""
    doc = json.loads(resources.files("pimcrypt").joinpath("profiles/default.json").read_text())
    node = doc
    for key in keys[:-1]:
        node = node.setdefault(key, {})
    node[keys[-1]] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _document_value(value):
    """A parsed config value as a config document writes it."""
    if isinstance(value, tuple):
        return [v.value if isinstance(v, mc.Strategy) else v for v in value]
    return value


_NO_KERNEL_COSTS = "unknown config sections: ['kernel_costs'], valid: machine, host, experiments"


def test_every_config_value_is_settable_or_derived(tmp_path, capsys):
    """Each field of each record a document configures is either set by
    the bundled document or derived: a document that sets a derived field,
    even to the value it is derived as, is rejected naming it. 40 values
    are settable. Kernel costs come from the kernels' code, so a document
    has no kernel_costs section, and one that has it is rejected."""
    config = bundled_default_config()
    doc = json.loads(_BUNDLED_TEXT)
    records = [(("machine",), "profile", config.machine), (("host",), "host", config.host)]
    records += [(("experiments", name), f"experiment {name}", spec)
                for name, spec in config.experiments.items()]
    settable = derived = 0
    for keys, where, record in records:
        entry = doc
        for key in keys:
            entry = entry[key]
        for f in dataclasses.fields(record):
            if f.name in entry:
                settable += 1
                continue
            derived += 1
            cfg = _config(tmp_path, _document_value(getattr(record, f.name)), *keys, f.name)
            assert main(["validate", "--profile", cfg]) == 3
            assert capsys.readouterr().out == (
                f"violation: {where} field {f.name} is derived and may not be set\n")
    assert (settable, derived) == (40, 8)
    cfg = _config(tmp_path, 2048, "kernel_costs", "aes128", "wram_cache_bytes")
    assert main(["validate", "--profile", cfg]) == 3
    assert capsys.readouterr().out == f"violation: {_NO_KERNEL_COSTS}\n"


class TestConfigErrors:
    @pytest.mark.parametrize("command", ["encrypt", "hash", "bench", "validate"])
    @pytest.mark.parametrize("keys,value", [
        (("machine", "wram_bytes"), "abc"),
        (("machine", "max_mram_access_bytes"), 2048.5),
        (("host", "peak_ops_per_second"), "x"),
        (("host",), 5),
        (("host", "foo"), 1),
        # values that would only repeat CSV rows
        (("experiments", "rank_scaling", "sweep"), [2, 2]),
        (("experiments", "rank_scaling", "strategies"), ["sync", "sync"]),
        (("experiments", "rank_scaling", "strategies"), ["pim1", "async_rank_transfer"]),
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
         ["bench", "--experiment", "weak_scaling"], 3, "integer"),
        (("experiments", "weak_scaling"), 5,
         ["bench", "--experiment", "weak_scaling"], 3, "weak_scaling"),
        (("experiments", "weak_scaling", "sweep"), "1,4",
         ["bench", "--experiment", "weak_scaling"], 3, "sweep"),
        (("experiments", "weak_scaling", "tasklets"), "16",
         ["bench", "--experiment", "weak_scaling"], 3, "tasklets"),
        (("experiments", "rank_scaling", "strategies"), ["sync", 1],
         ["bench", "--experiment", "rank_scaling"], 3, "unknown strategy"),
        # kernel costs come from the kernels' code, not from a config section
        pytest.param(("kernel_costs", "aes128", "instructions_per_unit"), -1, ["validate"], 3,
                     "violation: unknown config sections: ['kernel_costs']",
                     id="kernel-costs-section-validate"),
        (("experiments", "rank_scaling", "strategies"), [],
         ["bench", "--experiment", "rank_scaling"], 3, "strategies"),
        # empty workloads: a division by zero, and an all-zero CSV
        (("experiments", "tasklet_scaling", "buffer_bytes"), 0,
         ["bench", "--experiment", "tasklet_scaling"], 3, "buffer_bytes"),
        (("experiments", "weak_scaling", "message_count"), -3,
         ["bench", "--experiment", "weak_scaling"], 3, "message_count"),
        # more of what validate rejects, as the planner does
        (("experiments", "rank_scaling", "sweep"), [1, 41], ["validate"], 3, "n_ranks"),
        (("experiments", "strong_scaling", "sweep"), [1, 65], ["validate"], 3, "dpus_per_rank"),
        (("experiments", "weak_scaling", "tasklets"), 0, ["validate"], 3, "tasklets"),
        # bench rejects a kernel_costs section, as validate does
        pytest.param(("kernel_costs", "aes128", "instructions_per_unit"), -1,
                     ["bench", "--experiment", "weak_scaling", "--no-baseline"], 3,
                     "unknown config sections: ['kernel_costs']",
                     id="kernel-costs-section-bench"),
        # every tasklet may hold one whole MRAM access in WRAM
        pytest.param(("machine", "max_mram_access_bytes"), 4096, ["validate"], 3,
                     "violation: profile: max_tasklets * max_mram_access_bytes exceeds wram_bytes",
                     id="wram-fit-validate"),
        # MRAM is accessed in whole 8-byte granules
        (("machine", "max_mram_access_bytes"), 2044, ["validate"], 3, "max_mram_access_bytes"),
        # a workload beyond a DPU's MRAM, which bench rejects at its first sweep value
        (("experiments", "weak_scaling", "buffer_bytes"), 64 << 20, ["validate"], 3,
         "violation: weak_scaling: DPU 0 needs 134217728 B of MRAM"),
        # a workload beyond all MRAM, rejected before it is allocated
        (("experiments", "weak_scaling", "buffer_bytes"), 1e300, ["validate"], 3,
         "B workload exceeds the MRAM of all 2560 DPUs"),
        (("experiments", "weak_scaling", "buffer_bytes"), 1e300,
         ["bench", "--experiment", "weak_scaling", "--no-baseline"], 3, "exceeds the MRAM"),
        # and a hashing one, whose lengths would pass int64 if they were built
        *(pytest.param(("experiments", "weak_scaling"), {"algorithm": "sha256", field: 1e300},
                       argv, 3, "exceeds the MRAM", id=f"sha-{field}-{argv[0]}")
          for field in ("message_bytes", "message_count")
          for argv in (["validate"], ["bench", "--experiment", "weak_scaling", "--no-baseline"])),
        # a JSON integer too large for a float is not a finite number
        (("experiments", "rank_scaling", "sweep"), [1, 10 ** 400],
         ["bench", "--experiment", "rank_scaling", "--no-baseline"], 3,
         "experiment rank_scaling field sweep must be a finite number"),
        (("experiments", "rank_scaling", "sweep"), [1, 10 ** 400], ["validate"], 3,
         "experiment rank_scaling field sweep must be a finite number"),
    ])
    def test_bad_experiment_or_cost(self, tmp_path, capsys, keys, value, argv, code, text):
        cfg = _config(tmp_path, value, *keys)
        flags = ["--profile", cfg] if argv[0] == "validate" else [
            "--config", cfg, "--out-dir", str(tmp_path)]
        assert main(argv + flags) == code
        captured = capsys.readouterr()
        assert text in captured.out + captured.err
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize("command", ["encrypt", "hash", "bench", "validate"])
    @pytest.mark.parametrize("section,text", [
        ("experiments", "config document has no machine section (it has experiments)"),
        ("host", "config document has no machine section (it has host)"),
        # no config section, so a document of one is a bare profile with an unknown field
        ("kernel_costs", "unknown profile fields: ['kernel_costs']"),
    ], ids=["experiments", "host", "kernel_costs"])
    def test_document_without_machine_section(self, tmp_path, capsys, command, section, text):
        """A document that names a config section but no machine section is
        not a bare profile: it is rejected for the missing section, not for
        an unknown profile field named after the section. Each exits 3."""
        doc = json.loads(_BUNDLED_TEXT)
        path = tmp_path / "config.json"
        path.write_text(json.dumps({section: doc.get(section, {})}))
        argvs = {argv[0]: argv for argv in _raw_config_argvs(str(tmp_path), str(path))}
        assert main(argvs[command]) == 3
        captured = capsys.readouterr()
        assert text in captured.out + captured.err

    @pytest.mark.parametrize("command", ["validate", "encrypt", "bench"])
    def test_misnamed_kernel_cost_rejected(self, tmp_path, capsys, command):
        """A kernel_costs entry would silently not take effect, as a kernel's
        cost comes from its code, so the section is rejected, whatever entry
        it names and however plausible its fields."""
        cfg = _config(tmp_path, {"wram_cache_bytes": 1024}, "kernel_costs", "aes")
        plain = tmp_path / "plain.bin"
        plain.write_bytes(bytes(32))
        argv = {
            "validate": ["validate", "--profile", cfg],
            "encrypt": ["encrypt", "--key", FIPS_KEY_HEX, "--in", str(plain),
                        "--out", str(tmp_path / "c.bin"), "--profile", cfg],
            "bench": ["bench", "--experiment", "weak_scaling", "--no-baseline",
                      "--config", cfg, "--out-dir", str(tmp_path)],
        }[command]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert _NO_KERNEL_COSTS in captured.out + captured.err

    @pytest.mark.parametrize("command", ["validate", "encrypt", "hash", "bench"])
    def test_misnamed_experiment_rejected(self, tmp_path, capsys, command):
        """An experiment section that names no experiment would silently not
        take effect, so it is rejected by every subcommand."""
        doc = json.loads(resources.files("pimcrypt").joinpath("profiles/default.json").read_text())
        cfg = _config(tmp_path, doc["experiments"]["rank_scaling"],
                      "experiments", "rank_scalng")
        plain = tmp_path / "plain.bin"
        plain.write_bytes(bytes(32))
        argv = {
            "validate": ["validate", "--profile", cfg],
            "encrypt": ["encrypt", "--key", FIPS_KEY_HEX, "--in", str(plain),
                        "--out", str(tmp_path / "c.bin"), "--profile", cfg],
            "hash": ["hash", "--in", str(plain), "--out", str(tmp_path / "d.txt"),
                     "--profile", cfg],
            "bench": ["bench", "--experiment", "weak_scaling", "--no-baseline",
                      "--config", cfg, "--out-dir", str(tmp_path)],
        }[command]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert "unknown experiments: ['rank_scalng']" in captured.out + captured.err

    @pytest.mark.parametrize("command", ["encrypt", "hash", "bench", "validate"])
    @pytest.mark.parametrize("keys,value,text", [
        (("experiments", "weak_scaling", "sweep"), [4, 1],
         "experiment weak_scaling: sweep values must be positive and sorted"),
        # kernel costs come from the kernels' code, so a document that sets
        # any field of the kernel_costs section it once had fails at load
        *[(("kernel_costs", name, field), value, _NO_KERNEL_COSTS) for name, field, value in (
            ("sha256", "wram_cache_bytes", 12),
            ("aes128", "instructions_per_unit", -1),
            ("aes128", "mram_read_bytes_per_unit", 16),
            ("aes128", "mram_write_bytes_per_unit", 16),
            ("sha256", "instructions_per_unit", 3464),
            ("sha256", "mram_read_bytes_per_unit", 64),
            ("sha256", "mram_write_bytes_per_unit", 1e6),
            ("aes128", "unit_bytes", 32),
        )],
        # every tasklet may hold one whole MRAM access in WRAM, at any
        # --tasklets and input size
        (("machine", "wram_bytes"), 32768,
         "profile: max_tasklets * max_mram_access_bytes exceeds wram_bytes (24 * 2048 > 32768)"),
    ], ids=["unsorted-sweep", "sha256-wram-cache", "aes128-instructions", "aes128-mram-read",
            "aes128-mram-write", "sha256-instructions", "sha256-mram-read", "sha256-mram-write",
            "aes128-unit-bytes", "wram-bytes"])
    def test_one_document_one_answer(self, tmp_path, capsys, command, keys, value, text):
        """Every subcommand gives the same answer for one config document:
        exit 3, naming the field or the experiment, and validate names it
        once."""
        cfg = _config(tmp_path, value, *keys)
        argvs = {argv[0]: argv for argv in _raw_config_argvs(str(tmp_path), cfg)}
        assert main(argvs[command]) == 3
        captured = capsys.readouterr()
        assert text in captured.out + captured.err
        if command == "validate":
            [line] = captured.out.splitlines()
            assert line.startswith("violation: ") and text in line

    @pytest.mark.parametrize("command", ["encrypt", "hash", "bench", "validate"])
    @pytest.mark.parametrize("experiment,name,value,text", [
        *[pytest.param(experiment, name, value,
                       f"unknown experiment {experiment} fields: ['{name}']",
                       id=f"{experiment}-{name}")
          for experiment in mc.EXPERIMENTS
          for name, value in (("repetitions", 5), ("seed", bh.BASELINE_SEED))],
        *[pytest.param(experiment, "strategies", ["sync"],
                       f"experiment {experiment} field strategies is derived and may not be set",
                       id=f"{experiment}-strategies")
          for experiment in mc.EXPERIMENTS if experiment != "rank_scaling"],
        pytest.param("tasklet_scaling", "tasklets", 16,
                     "experiment tasklet_scaling field tasklets is derived and may not be set",
                     id="tasklet_scaling-tasklets"),
    ])
    def test_value_without_effect_rejected(self, tmp_path, capsys, command, experiment,
                                           name, value, text):
        """A value that would take no effect is rejected by every subcommand,
        even at its bundled value: the host baseline's repetitions and seed
        are fixed in bench, with one rank every strategy gives the same
        schedule, so only rank_scaling lists strategies, and tasklet_scaling's
        sweep sets tasklets at every point."""
        cfg = _config(tmp_path, value, "experiments", experiment, name)
        argvs = {argv[0]: argv for argv in _raw_config_argvs(str(tmp_path), cfg)}
        assert main(argvs[command]) == 3
        captured = capsys.readouterr()
        assert text in captured.out + captured.err

    def test_bench_baseline_runs_five_repetitions(self, tmp_path, monkeypatch):
        """rank_scaling's host baseline is the median of 5 repetitions, on
        one thread and then on all cores: each measurement runs the kernel
        once for the reference output, then 5 timed runs, on 2 cores as
        two half pieces each."""
        sizes = []
        monkeypatch.setattr(bh, "aes128_encrypt_buffer",
                            lambda data, ks: sizes.append(len(data)) or b"")
        monkeypatch.setattr(bh.os, "cpu_count", lambda: 2)
        assert main(["bench", "--experiment", "rank_scaling",
                     "--out-dir", str(tmp_path)]) == 0
        cap = bh.BASELINE_CAP_BYTES
        assert sizes == [cap] * (1 + 5) + [cap] + [cap // 2] * (5 * 2)

    def test_config_kernel_costs_take_effect(self, tmp_path, capsys):
        """A kernel's MRAM cost follows the machine's access size: smaller
        accesses make more of them, and a 64-byte one costs 2 cycles/B under
        the 128-cycle floor, a 2048-byte one 0.5. On one DPU each of the 16
        tasklets streams 256 B of the input."""
        plain = tmp_path / "plain.bin"
        plain.write_bytes(bytes(4096))
        kernels = []
        for access in (2048, 64):
            cfg = _config(tmp_path, access, "machine", "max_mram_access_bytes")
            out = tmp_path / f"x{access}"
            assert main(["bench", "--experiment", "weak_scaling", "--no-baseline",
                         "--config", cfg, "--out-dir", str(out)]) == 0
            bench_kernels = _csv_column(out / "weak_scaling.csv", "kernel_s")
            assert main(["encrypt", "--key", FIPS_KEY_HEX, "--in", str(plain),
                         "--out", str(out / "c.bin"), "--profile", cfg,
                         "--dpus-per-rank", "1"]) == 0
            kernels.append((bench_kernels, _summary(capsys)["kernel_s"]))
        (bench1, encrypt1), (bench2, encrypt2) = kernels
        assert all(b > a for a, b in zip(bench1, bench2))
        assert float(encrypt2) > float(encrypt1)

    def test_config_host_takes_effect(self, tmp_path, capsys):
        printed = []
        for peak in (bundled_default_config().host.peak_ops_per_second, 1.0):
            cfg = _config(tmp_path, peak, "host", "peak_ops_per_second")
            assert main(["validate", "--profile", cfg]) == 0
            printed.append(_summary(capsys))
        bundled, tiny = printed
        assert bundled["aes128_classification"] == "memory_bound"
        assert tiny["aes128_classification"] == "compute_bound"
        assert tiny["aes128_operations_per_byte"] == bundled["aes128_operations_per_byte"]

    def test_validate_checks_bundled_experiments(self, tmp_path, capsys):
        """A bare profile takes every bundled experiment, and validate checks
        each against the profile's machine, as bench does."""
        doc = {**dataclasses.asdict(_PROFILE), "num_ranks": 10, "usable_dpus": 640}
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(doc))
        assert main(["bench", "--experiment", "rank_scaling", "--no-baseline",
                     "--config", str(path), "--out-dir", str(tmp_path)]) == 3
        assert "n_ranks must be in 1..10, got 11" in capsys.readouterr().err
        assert main(["validate", "--profile", str(path)]) == 3
        out = capsys.readouterr().out
        assert out.splitlines() == ["violation: rank_scaling: n_ranks must be in 1..10, got 11"]

    def test_unholdable_job_fails_before_the_baseline(self, tmp_path, capsys, monkeypatch):
        """bench plans the sweep's ends before it measures the host
        baseline, so a message beyond a DPU's MRAM exits 3 at once."""
        calls = []
        monkeypatch.setattr(bh, "run_host_baseline",
                            lambda *args, **kwargs: calls.append(args) or 1.0)
        entry = {"algorithm": "sha256", "message_bytes": 64 << 20, "message_count": 1,
                 "sweep": [1]}
        cfg = _config(tmp_path, entry, "experiments", "rank_scaling")
        assert main(["bench", "--experiment", "rank_scaling", "--config", cfg,
                     "--out-dir", str(tmp_path)]) == 3
        assert "DPU 0 needs 67108896 B" in capsys.readouterr().err
        assert calls == []

    def test_kernel_time_rounding_to_zero(self, tmp_path, capsys):
        """bench accepts what validate accepts, a kernel time of 0.0 too."""
        cfg = _config(tmp_path, 1e300, "machine", "dpu_frequency")
        assert main(["validate", "--profile", cfg]) == 0
        assert main(["bench", "--experiment", "tasklet_scaling", "--no-baseline",
                     "--config", cfg, "--out-dir", str(tmp_path)]) == 0
        assert 0.0 in _csv_column(tmp_path / "tasklet_scaling.csv", "kernel_s")

    @pytest.mark.parametrize("command", ["bench", "validate"])
    def test_buffer_beyond_int64_counts_is_planned(self, tmp_path, command):
        """On a machine whose MRAM holds any buffer, one whose bytes in and
        out pass int64 is planned from its exact counts, as messages are;
        bench and validate used to exit 3 on it, and before that raised
        OverflowError from partition_aes."""
        doc = json.loads(_BUNDLED_TEXT)
        doc["machine"]["mram_bytes"] = 2**80
        doc["experiments"]["strong_scaling"]["buffer_bytes"] = 2**72
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc))
        argv = {"bench": ["bench", "--experiment", "strong_scaling", "--no-baseline",
                          "--config", str(cfg), "--out-dir", str(tmp_path)],
                "validate": ["validate", "--profile", str(cfg)]}[command]
        assert _run(argv) == 0
        if command == "bench":
            csv_path = tmp_path / "strong_scaling.csv"
            times = [_csv_column(csv_path, name)
                     for name in ("kernel_s", "to_dpu_s", "from_dpu_s", "prepare_s", "total_s")]
            assert all(len(column) == 7 for column in times)
            assert all(math.isfinite(t) for column in times for t in column)

    @pytest.mark.parametrize("command", ["validate", "bench", "encrypt"])
    @pytest.mark.parametrize("keys,value,text", [
        (("machine", "host_prepare_rate"), 5e-324, "non-finite time"),
    ])
    def test_overflowing_model_input_is_data_error(self, tmp_path, capsys, command,
                                                   keys, value, text):
        """A value that overflows a modeled quantity exits 3 with a message,
        and validate names it in a violation line; none prints inf or nan."""
        cfg = _config(tmp_path, value, *keys)
        plain = tmp_path / "plain.bin"
        plain.write_bytes(bytes(4096))
        out = str(tmp_path / "out")
        argv = {
            "validate": ["validate", "--profile", cfg],
            "bench": ["bench", "--experiment", "weak_scaling", "--no-baseline",
                      "--config", cfg, "--out-dir", out],
            "encrypt": ["encrypt", "--key", FIPS_KEY_HEX, "--in", str(plain), "--out", out,
                        "--profile", cfg],
        }[command]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert text in captured.out + captured.err
        if command == "validate":
            assert all(line.startswith("violation: ") for line in captured.out.splitlines())
        assert "_s=inf" not in captured.out and "_s=nan" not in captured.out


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
    "algorithm", "buffer_bytes", "message_bytes", "message_count", "sweep", "tasklets", "turbo",
)] + [
    ("experiments", "rank_scaling", "strategies"),
] + [("machine", name) for name in (
    "wram_bytes", "max_tasklets", "max_mram_access_bytes", "mram_bytes", "dpu_frequency", "cpu_to_dpu_bandwidth_per_rank", "dpu_to_cpu_bandwidth_per_rank",
    "host_prepare_rate", "mram_fixed_cycles", "mram_cycles_per_byte",
)]
# values at the ends of the float range, which overflow or round the model's times
_EXTREME = st.sampled_from([5e-324, 1e-300, 1e300, 1.7e308])


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    return code


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_FIELDS),
                          _PLAUSIBLE | _JSON | _EXTREME | st.just(_DELETE)),
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


@pytest.mark.parametrize("value", [5e-324, 1e-300, 1e300, 1.7e308])
@pytest.mark.parametrize("name", [keys[-1] for keys in _FIELDS if keys[0] == "machine"])
def test_validate_accepts_what_bench_accepts(tmp_path, name, value):
    """At each extreme value of each machine field the fuzzer varies,
    validate exits 0 exactly when bench --no-baseline exits 0 on all four
    experiments."""
    cfg = _config(tmp_path, value, "machine", name)
    benched = [_run(["bench", "--experiment", experiment, "--no-baseline",
                     "--config", cfg, "--out-dir", str(tmp_path)])
               for experiment in mc.EXPERIMENTS]
    assert (_run(["validate", "--profile", cfg]) == 0) == (benched == [0] * 4)


def _exit_code(argv):
    """main's exit code, an argparse exit included; an uncaught exception
    propagates and fails the test."""
    try:
        return _run(argv)
    except SystemExit as exc:
        return exc.code


_BUNDLED_TEXT = resources.files("pimcrypt").joinpath("profiles/default.json").read_bytes()
_NESTED = st.sampled_from([b"[", b'{"a":']).flatmap(
    lambda opener: st.sampled_from([2, 50, 1000, 100_000]).map(lambda depth: opener * depth)
)
_RAW_CONFIGS = (
    st.binary(max_size=48)
    | st.integers(0, len(_BUNDLED_TEXT)).map(lambda n: _BUNDLED_TEXT[:n])
    | _NESTED
    | _NESTED.map(lambda text: text.replace(b'{"a":', b"[") + b"]" * len(text))
    | st.sampled_from([b"\xff\xfe{}", b"\xef\xbb\xbf{}", b"1" * 5000, _BUNDLED_TEXT])
)


def _raw_config_argvs(tmp, cfg):
    plain, message = f"{tmp}/plain.bin", f"{tmp}/message.bin"
    with open(plain, "wb") as fh:
        fh.write(bytes(64))
    with open(message, "wb") as fh:
        fh.write(b"abc")
    return [
        ["encrypt", "--key", FIPS_KEY_HEX, "--in", plain, "--out", f"{tmp}/c.bin",
         "--profile", cfg],
        ["hash", "--in", message, "--out", f"{tmp}/d.txt", "--profile", cfg],
        ["bench", "--experiment", "weak_scaling", "--no-baseline", "--config", cfg,
         "--out-dir", tmp],
        ["validate", "--profile", cfg],
    ]


@settings(max_examples=40, deadline=None)
@given(_RAW_CONFIGS)
def test_raw_config_keeps_exit_contract(raw):
    """Every subcommand exits 0/2/3/4 on a config file of any bytes: not
    UTF-8, truncated, or nested deeper than the parser recurses."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = f"{tmp}/config.json"
        with open(cfg, "wb") as fh:
            fh.write(raw)
        codes = [_exit_code(argv) for argv in _raw_config_argvs(tmp, cfg)]
    assert all(code in (0, 2, 3, 4) for code in codes)
    if raw == _BUNDLED_TEXT:
        assert codes == [0, 0, 0, 0]


@pytest.mark.parametrize("raw", [b"\xff\xfe{}", b"[" * 100_000], ids=["not-utf8", "nested"])
def test_unparsable_config_is_data_error(tmp_path, raw):
    cfg = tmp_path / "config.json"
    cfg.write_bytes(raw)
    assert [_exit_code(argv) for argv in _raw_config_argvs(str(tmp_path), str(cfg))] == [3] * 4



@pytest.mark.parametrize("flag,limit", [
    ("--ranks", _PROFILE.num_ranks),
    ("--dpus-per-rank", _PROFILE.dpus_per_rank),
    ("--tasklets", _PROFILE.max_tasklets),
])
@pytest.mark.parametrize("command", ["encrypt", "hash"])
def test_topology_flags_at_and_beyond_limits(tmp_path, command, flag, limit):
    """A topology flag at 0 or one beyond the profile's limit is a data
    error; at the limit the job runs."""
    argv = next(a for a in _raw_config_argvs(str(tmp_path), "unused") if a[0] == command)
    argv = argv[:argv.index("--profile")]
    codes = [_exit_code([*argv, flag, str(value)]) for value in (0, limit, limit + 1)]
    assert codes == [3, 0, 3]


@pytest.mark.parametrize("name", mc.STRATEGY_NAMES)
def test_strategy_flag_takes_every_strategy_name(tmp_path, capsys, name):
    """--strategy takes every name a config's strategies take, so the name
    a summary prints runs the same job again."""
    argv = next(a for a in _raw_config_argvs(str(tmp_path), "unused") if a[0] == "hash")
    argv = [*argv[:argv.index("--profile")], "--ranks", "3"]
    assert main([*argv, "--strategy", name]) == 0
    first = _summary(capsys)
    assert first["strategy"] == mc.Strategy.parse(name).value
    assert main([*argv, "--strategy", first["strategy"]]) == 0
    assert _summary(capsys) == first


def _bundled_argvs(tmp_path):
    """One runnable argv per subcommand, on the bundled config."""
    cfg = tmp_path / "config.json"
    cfg.write_bytes(_BUNDLED_TEXT)
    return {argv[0]: argv for argv in _raw_config_argvs(str(tmp_path), str(cfg))}


# sha256 of the whole stdout of `-v` runs on a 3-rank, 5-DPU-per-rank job:
# the key=value summary and one `event t=... rank=... kind=...` line per event
_GOLDEN_VERBOSE = {
    ("encrypt", "sync"): "96c50c9380feff9bff4b9c89fa69999e1e2517ce194c6616c248eef134f95f78",
    ("encrypt", "pim1"): "2891488f9db729923a2b0ee66733626b7ad68b6824ed42818cc8b42f1385879f",
    ("encrypt", "pim2"): "9fdc966022f2bee891a88d385dee2db92c45ad62580181684d215013a45c8c30",
    ("hash", "sync"): "cef89a314058d2a8d68a9d2df43c05c14ae7c9c8b3d59cd5bc6990bb79b96940",
    ("hash", "pim1"): "04012802f23f51af3eabec3916659e40cf3d90217746e6710a2b1a7f52994744",
    ("hash", "pim2"): "e0665f405e00bbdda37807af5d9303922858bda82bb0c27cd8d92b66858a6cc5",
}


@pytest.mark.parametrize("command,strategy", sorted(_GOLDEN_VERBOSE))
def test_verbose_output_pinned(tmp_path, capsys, command, strategy):
    if command == "encrypt":
        src = tmp_path / "plain.bin"
        src.write_bytes(bytes(range(256)) * 4100)
        argv = ["encrypt", "--key", FIPS_KEY_HEX, "--in", str(src),
                "--out", str(tmp_path / "out.bin")]
    else:
        src = tmp_path / "msgs"
        src.mkdir()
        for i, n in enumerate(range(0, 4000, 37)):
            (src / f"m{i:03d}").write_bytes(bytes([i % 251]) * n)
        argv = ["hash", "--in", str(src), "--out", str(tmp_path / "digests.txt")]
    argv += ["--ranks", "3", "--dpus-per-rank", "5", "--strategy", strategy, "-v"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.count("\nevent t=") == 24
    assert hashlib.sha256(out.encode()).hexdigest() == _GOLDEN_VERBOSE[command, strategy]


@pytest.mark.parametrize("case", [
    "encrypt --out DIR", "hash --out DIR", "bench --out-dir FILE",
    "encrypt --profile MISSING", "hash --profile MISSING", "bench --config MISSING",
    "hash --in UNLISTABLE",
])
def test_io_failure_is_io_error(tmp_path, monkeypatch, capsys, case):
    """A path that cannot be read, listed or written exits 4 with an error
    line, whichever step meets it."""
    command, flag, target = case.split()
    value = {"DIR": tmp_path, "FILE": tmp_path / "config.json",
             "MISSING": tmp_path / "none.json", "UNLISTABLE": tmp_path}[target]
    argv = _bundled_argvs(tmp_path)[command] + [flag, str(value)]
    if target == "UNLISTABLE":
        # chmod cannot stop a listing by root, so the refusal is simulated
        scandir = os.scandir

        def refuse(path="."):
            if os.fspath(path) == str(value):
                raise PermissionError(13, "Permission denied", str(value))
            return scandir(path)

        monkeypatch.setattr(os, "scandir", refuse)
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("error,code", [
    (OSError("disk gone"), 4),
    (CapacityError("job too large"), 3),
    (ValueError("bad value"), 3),
], ids=["OSError", "CapacityError", "ValueError"])
@pytest.mark.parametrize("command", ["encrypt", "hash", "bench"])
def test_exception_to_exit_code(tmp_path, monkeypatch, capsys, command, error, code):
    """main maps what a subcommand's work raises: OSError to 4, a package
    error or ValueError to 3, each after `error: <message>` on stderr."""
    def fail(*args, **kwargs):
        raise error

    target = "pimcrypt.bench.run_experiment" if command == "bench" else "pimcrypt.cli.run_job"
    monkeypatch.setattr(target, fail)
    assert main(_bundled_argvs(tmp_path)[command]) == code
    assert capsys.readouterr().err == f"error: {error}\n"


@pytest.mark.parametrize("command", ["encrypt", "hash", "bench", "validate"])
def test_job_too_large_for_this_host_is_data_error(tmp_path, monkeypatch, capsys, command):
    """A job whose plan needs more memory than this host has exits 3 with
    the allocation's message, which validate reports as each experiment's
    violation. The partitioners are made to fail: a real allocation that
    large could be granted and exhaust the host."""
    message = "Unable to allocate 7.28 TiB for an array with shape (1000000000000,)"

    def fail(*args):
        raise MemoryError(message)

    monkeypatch.setattr(orchestrator, "partition_aes", fail)
    monkeypatch.setattr(orchestrator, "partition_sha", fail)
    assert main(_bundled_argvs(tmp_path)[command]) == 3
    captured = capsys.readouterr()
    if command == "validate":
        assert captured.out.splitlines() == [
            f"violation: {name}: {message}" for name in mc.EXPERIMENTS]
    else:
        assert captured.err == f"error: {message}\n"


def test_experiment_notes_accepted(tmp_path):
    """An experiment entry takes a free-text notes key, as every other
    config object does."""
    cfg = _config(tmp_path, "why", "experiments", "weak_scaling", "notes")
    assert main(["validate", "--profile", cfg]) == 0
    assert main(["bench", "--experiment", "weak_scaling", "--no-baseline",
                 "--config", cfg, "--out-dir", str(tmp_path)]) == 0


def test_python_dash_m_runs_cli():
    """`python -m pimcrypt` runs the command line in a checkout where the
    console script is not installed."""
    import subprocess
    import sys

    import pimcrypt

    src = os.path.dirname(os.path.dirname(pimcrypt.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    profile = resources.files("pimcrypt").joinpath("profiles/default.json")
    proc = subprocess.run(
        [sys.executable, "-m", "pimcrypt", "validate", "--profile", str(profile)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "profile=ok" in proc.stdout
