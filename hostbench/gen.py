"""Write one workload's inputs and expected outputs into a work directory.

Runs in its own process, before anything is timed, so the operations'
process sees only files and argv and its peak memory counts only what the
program allocates. Usage:

    python3 hostbench/gen.py WORKLOAD SEED WORKDIR [--scale N]

Writes the inputs under WORKDIR and WORKDIR/inputs.json, which holds the
argv of every cli.main call of one operation and what each output must be,
and the same for the warm-up operation under WORKDIR/warmup. --scale N
divides the input size by N (for the self-test); the fingerprints recorded
for the full-size workloads are then not applicable and left out.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
from importlib import resources

import numpy as np
from pimcrypt import reference as ref

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("encrypt-bulk", "hash-mixed", "paper-sweep")
EXPERIMENTS = ("tasklet_scaling", "strong_scaling", "weak_scaling", "rank_scaling")

ENCRYPT_BYTES = 16 << 20
# Message sizes are part of the workload's definition, drawn once from this
# constant, so the modeled summary of the hash job is a fixed fingerprint;
# --seed draws the bytes of every message.
SIZES_SEED = 20260101
SHORT_MESSAGES, SHORT_MIN, SHORT_MAX = 2048, 32, 2048
LONG_MESSAGES, LONG_BYTES = 32, 32 << 10
TOPOLOGY = ["--ranks", "40"]
# The warm-up operation runs the same commands on inputs this many times
# smaller: it fills every lazy cache without costing a full operation.
WARMUP_SCALE = 16


def message_sizes(scale: int) -> list[int]:
    """2048 log-uniform sizes in 32 B..2 KiB plus 32 of 32 KiB, in a fixed order."""
    rng = random.Random(SIZES_SEED)
    lo, hi = math.log(SHORT_MIN), math.log(SHORT_MAX)
    sizes = [int(math.exp(rng.uniform(lo, hi))) for _ in range(SHORT_MESSAGES // scale)]
    sizes += [LONG_BYTES] * max(1, LONG_MESSAGES // scale)
    rng.shuffle(sizes)
    return sizes


def _oracle_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    sbox = np.frombuffer(ref.computed_sbox(), dtype=np.uint8)
    mul2 = np.array([ref.gf_mul(2, x) for x in range(256)], dtype=np.uint8)
    return sbox, mul2, mul2 ^ np.arange(256, dtype=np.uint8)


# state byte 4*c + r takes byte 4*((c + r) % 4) + r under ShiftRows
_SHIFT_ROWS = [4 * ((c + r) % 4) + r for c in range(4) for r in range(4)]


def aes_ecb_oracle(data: bytes, key: bytes) -> bytes:
    """AES-128 of every 16-byte block, byte-sliced in numpy.

    Built only from pimcrypt.reference (S-box, GF products, key schedule),
    so it shares no table or code with the kernel under test.
    """
    sbox, mul2, mul3 = _oracle_tables()
    ks = np.frombuffer(ref.key_schedule(key), dtype=np.uint8).reshape(11, 16)
    s = np.frombuffer(data, dtype=np.uint8).reshape(-1, 16) ^ ks[0]
    for rnd in range(1, 11):
        t = sbox[s[:, _SHIFT_ROWS]]
        if rnd < 10:
            a = t.reshape(-1, 4, 4)
            a0, a1, a2, a3 = a[:, :, 0], a[:, :, 1], a[:, :, 2], a[:, :, 3]
            t = np.stack(
                (
                    mul2[a0] ^ mul3[a1] ^ a2 ^ a3,
                    a0 ^ mul2[a1] ^ mul3[a2] ^ a3,
                    a0 ^ a1 ^ mul2[a2] ^ mul3[a3],
                    mul3[a0] ^ a1 ^ a2 ^ mul2[a3],
                ),
                axis=2,
            ).reshape(-1, 16)
        s = t ^ ks[rnd]
    return s.tobytes()


def _recorded(workload: str) -> dict:
    with open(os.path.join(HERE, "fingerprints.json"), encoding="utf-8") as fh:
        return json.load(fh)["workloads"][workload]


def gen_encrypt(rng: np.random.Generator, work: str, scale: int) -> dict:
    key = rng.bytes(16)
    plain = rng.bytes(ENCRYPT_BYTES // scale)
    src, dst = os.path.join(work, "plain.bin"), os.path.join(work, "cipher.bin")
    with open(src, "wb") as fh:
        fh.write(plain)
    digest = hashlib.sha256()
    chunk = 1 << 20
    for off in range(0, len(plain), chunk):
        digest.update(aes_ecb_oracle(plain[off : off + chunk], key))
    argv = ["encrypt", "--key", key.hex(), "--in", src, "--out", dst,
            *TOPOLOGY, "--strategy", "pim1"]
    return {
        "calls": [argv],
        "expect": {"cipher_sha256": digest.hexdigest(), "key": key.hex(),
                   "plain": src, "cipher": dst},
    }


def gen_hash(rng: np.random.Generator, work: str, scale: int) -> dict:
    msg_dir, out = os.path.join(work, "msgs"), os.path.join(work, "digests.txt")
    os.mkdir(msg_dir)
    digests = []
    for i, size in enumerate(message_sizes(scale)):
        data = rng.bytes(size)
        with open(os.path.join(msg_dir, f"m{i:04d}.bin"), "wb") as fh:
            fh.write(data)
        digests.append(hashlib.sha256(data).hexdigest())
    argv = ["hash", "--in", msg_dir, "--out", out, *TOPOLOGY, "--strategy", "pim2"]
    return {
        "calls": [argv],
        "expect": {"digests": digests, "out": out},
    }


def _bundled_config() -> dict:
    text = resources.files("pimcrypt").joinpath("profiles/default.json").read_text()
    return json.loads(text)


def gen_sweep(rng: np.random.Generator, work: str, scale: int) -> dict:
    """Every experiment for both algorithms; the seed only orders the calls."""
    calls, csvs = [], {}
    for algorithm in ("aes128", "sha256"):
        doc = _bundled_config()
        for section in doc["experiments"].values():
            section["algorithm"] = algorithm
            if scale > 1:
                section["sweep"] = [section["sweep"][0], section["sweep"][-1]]
        config = []
        if algorithm != "aes128" or scale > 1:
            path = os.path.join(work, f"{algorithm}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            config = ["--config", path]
        out_dir = os.path.join(work, algorithm)
        for experiment in EXPERIMENTS:
            calls.append(["bench", "--experiment", experiment, *config,
                          "--out-dir", out_dir, "--no-baseline"])
            csvs[f"{algorithm}/{experiment}"] = os.path.join(out_dir, f"{experiment}.csv")
    order = rng.permutation(len(calls))
    return {"calls": [calls[i] for i in order], "expect": {"csvs": csvs}}


def write_inputs(workload: str, seed: int, work: str, scale: int) -> None:
    os.makedirs(work, exist_ok=True)
    make = {"encrypt-bulk": gen_encrypt, "hash-mixed": gen_hash, "paper-sweep": gen_sweep}
    inputs = make[workload](np.random.default_rng(seed), work, scale)
    inputs.update(workload=workload, seed=seed, scale=scale)
    if scale == 1:
        inputs["expect"].update(_recorded(workload))
    with open(os.path.join(work, "inputs.json"), "w", encoding="utf-8") as fh:
        json.dump(inputs, fh)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("seed", type=int)
    parser.add_argument("work")
    parser.add_argument("--scale", type=int, default=1)
    args = parser.parse_args()
    write_inputs(args.workload, args.seed, args.work, args.scale)
    write_inputs(args.workload, args.seed, os.path.join(args.work, "warmup"),
                 args.scale * WARMUP_SCALE)


if __name__ == "__main__":
    main()
