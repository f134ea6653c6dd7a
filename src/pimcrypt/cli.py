"""Command-line entry point.

Subcommands: encrypt, hash, bench, validate. Summaries are printed as
key=value lines for scriptability. Exit codes are a stable contract:
0 ok, 2 usage, 3 data/config, 4 I/O. Subcommands let errors propagate and
main maps them in one place, printing `error: <message>` on stderr: an
OSError (missing or unreadable input, config or directory; an encrypt
input that changes size before it is planned or while it is streamed;
unwritable output or out-dir) exits 4, a ValueError, package error or MemoryError
(bad config, misaligned input, a job the machine cannot hold or this host
cannot plan) exits 3.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
from functools import lru_cache

from . import aes
from . import machine as mc
from .errors import AlignmentError, PimcryptError, ProfileError
from .orchestrator import Strategy, run_job

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_IO = 4
# os.open's files are in text mode on Windows without it (0 elsewhere)
_O_BINARY = getattr(os, "O_BINARY", 0)


def _load_config(path: str | None) -> mc.Config:
    return mc.bundled_default_config() if path is None else mc.load_config(path)


def _job_options(args: argparse.Namespace) -> dict[str, object]:
    """run_job's options from the topology flags, with the --profile config loaded."""
    return dict(
        strategy=Strategy.parse(args.strategy),
        n_ranks=args.ranks,
        tasklets=args.tasklets,
        dpus_per_rank=args.dpus_per_rank,
        config=_load_config(args.profile),
    )


def _add_topology_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ranks", type=int, default=1, help="number of ranks to use")
    parser.add_argument(
        "--dpus-per-rank", type=int, default=None,
        help="DPUs per rank (default: profile value)",
    )
    parser.add_argument("--tasklets", type=int, default=16, help="tasklets per DPU")
    parser.add_argument(
        "--strategy", choices=mc.STRATEGY_NAMES, default="sync",
        help="orchestration strategy",
    )
    parser.add_argument("--profile", default=None, help="machine profile/config JSON")
    parser.add_argument(
        "-v", "--verbose", action="store_true",
        help="also list every event of the timeline, by time",
    )


def _print_summary(result, extra: dict[str, object] | None = None, verbose: bool = False) -> None:
    plan = result.plan
    pairs: dict[str, object] = {
        "strategy": plan.strategy.value,
        "ranks": plan.n_ranks,
        "dpus_per_rank": plan.dpus_per_rank,
        "tasklets": plan.tasklets,
        "prepare_s": plan.phase_times.prepare,
        "cpu_to_dpu_s": plan.phase_times.cpu_to_dpu,
        "kernel_s": plan.phase_times.kernel,
        "dpu_to_cpu_s": plan.phase_times.dpu_to_cpu,
        "broadcast_s": plan.broadcast_seconds,
        "makespan_s": plan.makespan,
        "bytes_to_dpu": plan.payload_bytes_to_dpu,
        "bytes_from_dpu": plan.payload_bytes_from_dpu,
    }
    pairs.update(extra or {})
    for key, value in pairs.items():
        print(f"{key}={value}")
    if verbose:
        # events by time, ties by rank and then by kind
        for t, rank, k in sorted((t, rank, k) for k, column in enumerate(plan.timeline.columns)
                                 for rank, t in enumerate(column)):
            print(f"event t={t:.9f} rank={rank} kind={mc.EVENT_KINDS[k]}")


def cmd_encrypt(args: argparse.Namespace) -> int:
    try:
        key = bytes.fromhex(args.key)
    except ValueError:
        print(f"error: key is not valid hex: {args.key!r}", file=sys.stderr)
        return EXIT_USAGE
    if len(args.key) != 32 or len(key) != 16:  # fromhex skips whitespace
        print("error: key must be 32 hex characters (16 bytes)", file=sys.stderr)
        return EXIT_USAGE

    options = _job_options(args)
    # The input is streamed: run_job plans from its size and yields the
    # ciphertext a chunk at a time, each read before it is written, so the
    # output opens without truncation (in place works) and is cut to length
    # at the end. A failure mid-stream leaves a partial output.
    with open(args.infile, "rb", buffering=0) as src:
        nbytes = os.fstat(src.fileno()).st_size
        if nbytes % aes.BLOCK_BYTES and not args.pad:
            raise AlignmentError(
                f"input length {nbytes} is not a multiple of {aes.BLOCK_BYTES} "
                "(pass --pad to zero-fill)"
            )
        result = run_job(src, key, **options)
        # run_job plans from its own fstat, so a file that changed size
        # since the check above fails before the output is touched
        padded = nbytes + -nbytes % aes.BLOCK_BYTES
        if result.plan.payload_bytes_to_dpu != padded:
            raise OSError(
                f"input changed size: {padded} bytes checked, "
                f"{result.plan.payload_bytes_to_dpu} planned"
            )
        fd = os.open(args.outfile, os.O_WRONLY | os.O_CREAT | _O_BINARY, 0o666)
        with open(fd, "wb") as dst:
            for chunk in result.output:
                dst.write(chunk)
            if stat.S_ISREG(os.fstat(dst.fileno()).st_mode):
                dst.truncate()  # a longer old output keeps no stale tail

    extra: dict[str, object] = {"bytes_in": nbytes, "bytes_out": result.plan.payload_bytes_to_dpu}
    if padded != nbytes:
        extra["padded_from"] = nbytes
    _print_summary(result, extra, args.verbose)
    return EXIT_OK


def _collect_message_paths(inputs: list[str]) -> list[str]:
    paths = []
    for item in inputs:
        if os.path.isdir(item):
            with os.scandir(item) as entries:  # is_file() follows symlinks
                names = sorted(e.name for e in entries if e.is_file())
            paths.extend(os.path.join(item, n) for n in names)
        else:
            paths.append(item)
    return paths


def _read_file(path: str) -> bytes:
    """A file's bytes, read with os.read to the end; its fstat size only
    sizes the first read. The next read is nearly always the empty one at
    the end, and a small one keeps the heap smaller over many files (64 KiB
    reads added ~0.15 MB of peak memory over 2,080 files)."""
    fd = os.open(path, os.O_RDONLY | _O_BINARY)
    try:
        parts = [os.read(fd, os.fstat(fd).st_size + 1)]
        while part := os.read(fd, 4096):
            parts.append(part)
    finally:
        os.close(fd)
    return b"".join(parts)  # one part is returned as is, not copied


def cmd_hash(args: argparse.Namespace) -> int:
    options = _job_options(args)
    paths = _collect_message_paths(args.infile)
    if not paths:
        raise ValueError("no input messages")
    messages = [_read_file(path) for path in paths]

    result = run_job(messages, **options)
    with open(args.outfile, "w", encoding="utf-8") as fh:
        for digest in result.output:
            fh.write(digest.hex() + "\n")

    _print_summary(result, {"messages": len(messages)}, args.verbose)
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    from . import bench as bh  # here, so encrypt and hash never load it

    config = _load_config(args.config)
    result = bh.run_experiment(
        config.experiments[args.experiment], config, include_baseline=not args.no_baseline
    )
    out_path = os.path.join(args.out_dir, f"{args.experiment}.csv")
    os.makedirs(args.out_dir, exist_ok=True)
    bh.emit_csv(result, out_path)
    print(f"experiment={args.experiment}")
    print(f"rows={len(result.rows)}")
    print(f"csv={out_path}")
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    from . import bench as bh

    try:
        config = mc.load_config(args.profile)
    except ProfileError as exc:
        print(f"violation: {exc}")
        return EXIT_DATA

    problems = []
    # Every experiment run as bench --no-baseline runs it, so validate
    # accepts what bench accepts.
    for name, spec in config.experiments.items():
        try:
            bh.run_experiment(spec, config, include_baseline=False)
        except (PimcryptError, ValueError, MemoryError) as exc:
            problems.append(f"{name}: {exc}")
    if problems:
        for p in problems:
            print(f"violation: {p}")
        return EXIT_DATA
    print("profile=ok")
    print(f"total_dpus={config.machine.dpus_per_rank * config.machine.num_ranks}")
    print(f"usable_dpus={config.machine.usable_dpus}")
    for name, cost in config.kernel_costs.items():
        roofline = bh.characterize_kernel(name, cost, config.host)
        print(f"{name}_operations_per_byte={roofline.operations_per_byte}")
        print(f"{name}_classification={roofline.classification}")
    return EXIT_OK


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    Cached: callers share the returned parser and must not change it. A
    parser is a web of reference cycles, so one built per call would leave
    that much garbage for the cycle collector on every run of main.
    """
    parser = argparse.ArgumentParser(
        prog="pimcrypt",
        description="Near-memory AES-128/SHA-256 kernels with a deterministic "
        "machine model and scaling experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encrypt", help="encrypt a file with AES-128")
    enc.add_argument("--key", required=True, help="key as 32 hex characters")
    enc.add_argument("--in", dest="infile", required=True, help="plaintext file")
    enc.add_argument("--out", dest="outfile", required=True, help="ciphertext file")
    enc.add_argument(
        "--pad", action="store_true",
        help="zero-fill input to the next 16-byte boundary (off by default)",
    )
    _add_topology_flags(enc)
    enc.set_defaults(func=cmd_encrypt)

    hsh = sub.add_parser("hash", help="hash files with SHA-256")
    hsh.add_argument(
        "--in", dest="infile", required=True, nargs="+",
        help="message files and/or directories of message files",
    )
    hsh.add_argument("--out", dest="outfile", required=True, help="digest list file")
    _add_topology_flags(hsh)
    hsh.set_defaults(func=cmd_hash)

    ben = sub.add_parser("bench", help="run a scaling experiment, emit CSV")
    ben.add_argument(
        "--experiment", required=True, choices=mc.EXPERIMENTS,
        help="experiment to run",
    )
    ben.add_argument("--config", default=None, help="config JSON (profile + experiments)")
    ben.add_argument("--out-dir", default=".", help="directory for the CSV")
    ben.add_argument(
        "--no-baseline", action="store_true",
        help="skip the host software baseline column",
    )
    ben.set_defaults(func=cmd_bench)

    val = sub.add_parser("validate", help="check a profile/config document")
    val.add_argument("--profile", required=True, help="profile or config JSON")
    val.set_defaults(func=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PimcryptError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
