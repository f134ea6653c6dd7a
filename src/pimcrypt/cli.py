"""Command-line entry point.

Subcommands: encrypt, hash, bench, validate. Summaries are printed as
key=value lines for scriptability. Exit codes are a stable contract:
0 ok, 2 usage, 3 data/config, 4 I/O.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import bench as bh
from . import machine as mc
from .errors import AlignmentError, CapacityError, PimcryptError, ProfileError
from .orchestrator import MRAM_RESERVE_BYTES, Strategy, run_job

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_IO = 4


def _load_config(path: str | None) -> mc.Config:
    return mc.bundled_default_config() if path is None else mc.load_config(path)


def _add_topology_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ranks", type=int, default=1, help="number of ranks to use")
    parser.add_argument(
        "--dpus-per-rank", type=int, default=None,
        help="DPUs per rank (default: profile value)",
    )
    parser.add_argument("--tasklets", type=int, default=16, help="tasklets per DPU")
    parser.add_argument(
        "--strategy", choices=("sync", "pim1", "pim2"), default="sync",
        help="orchestration strategy",
    )
    parser.add_argument("--profile", default=None, help="machine profile/config JSON")
    parser.add_argument("-v", "--verbose", action="count", default=0)


def _print_summary(result, extra: dict[str, object] | None = None, verbose: int = 0) -> None:
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
        for event in plan.timeline.events:
            print(f"event t={event.time:.9f} rank={event.rank} kind={event.kind}")


def cmd_encrypt(args: argparse.Namespace) -> int:
    try:
        key = bytes.fromhex(args.key)
    except ValueError:
        print(f"error: key is not valid hex: {args.key!r}", file=sys.stderr)
        return EXIT_USAGE
    if len(key) != 16:
        print("error: key must be 32 hex characters (16 bytes)", file=sys.stderr)
        return EXIT_USAGE

    try:
        config = _load_config(args.profile)
    except ProfileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO

    try:
        with open(args.infile, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO

    original_len = len(data)
    if len(data) % 16:
        if not args.pad:
            print(
                f"error: input length {len(data)} is not a multiple of 16 "
                "(pass --pad to zero-fill)",
                file=sys.stderr,
            )
            return EXIT_DATA
        data = data + b"\x00" * (-len(data) % 16)

    try:
        result = run_job(
            data,
            key,
            strategy=Strategy.parse(args.strategy),
            n_ranks=args.ranks,
            tasklets=args.tasklets,
            profile=config.machine,
            dpus_per_rank=args.dpus_per_rank,
            cost=config.kernel_costs.get("aes128"),
        )
    except (AlignmentError, CapacityError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA

    try:
        with open(args.outfile, "wb") as fh:
            fh.write(result.output)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO

    extra: dict[str, object] = {"bytes_in": original_len, "bytes_out": len(result.output)}
    if args.pad and original_len != len(data):
        extra["padded_from"] = original_len
    _print_summary(result, extra, args.verbose)
    return EXIT_OK


def _collect_message_paths(inputs: list[str]) -> list[str]:
    paths = []
    for item in inputs:
        if os.path.isdir(item):
            names = sorted(os.listdir(item))
            paths.extend(
                os.path.join(item, n)
                for n in names
                if os.path.isfile(os.path.join(item, n))
            )
        else:
            paths.append(item)
    return paths


def cmd_hash(args: argparse.Namespace) -> int:
    try:
        config = _load_config(args.profile)
    except ProfileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO

    paths = _collect_message_paths(args.infile)
    if not paths:
        print("error: no input messages", file=sys.stderr)
        return EXIT_DATA
    messages = []
    try:
        for path in paths:
            with open(path, "rb") as fh:
                messages.append(fh.read())
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO

    try:
        result = run_job(
            messages,
            strategy=Strategy.parse(args.strategy),
            n_ranks=args.ranks,
            tasklets=args.tasklets,
            profile=config.machine,
            dpus_per_rank=args.dpus_per_rank,
            cost=config.kernel_costs.get("sha256"),
        )
    except (CapacityError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA

    try:
        with open(args.outfile, "w", encoding="utf-8") as fh:
            for digest in result.output:
                fh.write(digest.hex() + "\n")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO

    _print_summary(result, {"messages": len(messages)}, args.verbose)
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    try:
        config = _load_config(args.config)
    except ProfileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        spec = bh.ExperimentSpec.from_config(
            args.experiment, config.experiments.get(args.experiment)
        )
    except ProfileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        result = bh.run_experiment(spec, config, include_baseline=not args.no_baseline)
    except (CapacityError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    out_path = os.path.join(args.out_dir, f"{args.experiment}.csv")
    try:
        os.makedirs(args.out_dir, exist_ok=True)
        bh.emit_csv(result, out_path)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"experiment={args.experiment}")
    print(f"rows={len(result.rows)}")
    print(f"csv={out_path}")
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    try:
        config = mc.load_config(args.profile)
    except ProfileError as exc:
        print(f"violation: {exc}")
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO

    machine = config.machine
    problems = []
    if MRAM_RESERVE_BYTES >= machine.mram_bytes:
        problems.append("MRAM smaller than the per-DPU runtime reserve")
    for name, cost in config.kernel_costs.items():
        try:
            cost.validate(machine, machine.max_tasklets)
        except (CapacityError, ProfileError) as exc:
            problems.append(f"{name}: {exc}")
    for name, entry in config.experiments.items():
        if name == "notes":
            continue
        try:
            bh.ExperimentSpec.from_config(name, entry).check_machine(machine)
        except ProfileError as exc:
            problems.append(f"{name}: {exc}")
    if problems:
        for p in problems:
            print(f"violation: {p}")
        return EXIT_DATA
    print("profile=ok")
    print(f"total_dpus={config.machine.dpus_per_rank * config.machine.num_ranks}")
    print(f"usable_dpus={config.machine.usable_dpus}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
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
        "--experiment", required=True, choices=bh.EXPERIMENT_NAMES,
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
    except PimcryptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
