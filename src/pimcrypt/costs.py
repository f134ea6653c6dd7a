"""Operation-count instrumentation for the crypto kernels.

The timing model needs an instructions-per-unit constant for each kernel.
Rather than inventing one, the functions here replay the kernel algorithms
in the byte-wise and word-wise form a DPU runs, counting every basic
operation a 32-bit in-order core would execute: table lookups, xors, adds,
shifts/rotates (charged per shift), bitwise and/or/not, and byte moves.
Register renaming and loop control are not charged. Both instrumented
kernels return their result so tests can pin them bit-for-bit to the
production paths; the counts are data-independent because neither kernel
branches on data.

The resulting constants are frozen into the bundled default config;
aes_instructions_per_block() and sha256_instructions_per_block() re-derive
them, and tests/test_costs.py::test_measured_constants_are_frozen_in_default_config
compares the two so drift is caught.
"""

from __future__ import annotations

from collections import Counter

from .aes import _SHIFT_ROWS, build_gf_tables
from .sha256 import INIT_STATE, ROUND_CONSTANTS, sha256_pad

_MASK = 0xFFFFFFFF


def count_aes_block_ops(block: bytes, ks: bytes) -> tuple[bytes, Counter]:
    """Encrypt one block exactly like the production kernel, counting ops."""
    tables = build_gf_tables()
    sbox, mul2, mul3 = tables.sbox, tables.mul2, tables.mul3
    ops: Counter = Counter()

    s = bytearray(16)
    for i in range(16):
        s[i] = block[i] ^ ks[i]
        ops["xor"] += 1
    for rnd in range(1, 10):
        rk = ks[16 * rnd : 16 * rnd + 16]
        t = bytearray(16)
        for i, p in enumerate(_SHIFT_ROWS):
            t[i] = sbox[s[p]]
            ops["lookup"] += 1  # SubBytes
            ops["move"] += 1    # ShiftRows placement
        for c in range(4):
            a, b, cc, d = t[4 * c : 4 * c + 4]
            s[4 * c + 0] = mul2[a] ^ mul3[b] ^ cc ^ d ^ rk[4 * c + 0]
            s[4 * c + 1] = a ^ mul2[b] ^ mul3[cc] ^ d ^ rk[4 * c + 1]
            s[4 * c + 2] = a ^ b ^ mul2[cc] ^ mul3[d] ^ rk[4 * c + 2]
            s[4 * c + 3] = mul3[a] ^ b ^ cc ^ mul2[d] ^ rk[4 * c + 3]
            # per output byte: two table lookups, four xors (incl. round key)
            ops["lookup"] += 8
            ops["xor"] += 16
    out = bytearray(16)
    for i, p in enumerate(_SHIFT_ROWS):
        out[i] = sbox[s[p]] ^ ks[160 + i]
        ops["lookup"] += 1
        ops["move"] += 1
        ops["xor"] += 1
    return bytes(out), ops


def _rotr_counted(x: int, n: int, ops: Counter) -> int:
    ops["shift"] += 2
    ops["or"] += 1
    return ((x >> n) | (x << (32 - n))) & _MASK


def count_sha256_compress_ops(state: tuple, block: bytes) -> tuple[tuple, Counter]:
    """One compression step exactly like the production kernel, counting ops."""
    ops: Counter = Counter()
    k = ROUND_CONSTANTS
    w = []
    for i in range(16):
        w.append(int.from_bytes(block[4 * i : 4 * i + 4], "big"))
        ops["move"] += 1
    for i in range(16, 64):
        x = w[i - 15]
        s0 = _rotr_counted(x, 7, ops) ^ _rotr_counted(x, 18, ops) ^ (x >> 3)
        ops["shift"] += 1
        ops["xor"] += 2
        x = w[i - 2]
        s1 = _rotr_counted(x, 17, ops) ^ _rotr_counted(x, 19, ops) ^ (x >> 10)
        ops["shift"] += 1
        ops["xor"] += 2
        w.append((w[i - 16] + s0 + w[i - 7] + s1) & _MASK)
        ops["add"] += 3
    a, b, c, d, e, f, g, h = state
    for i in range(64):
        s1 = _rotr_counted(e, 6, ops) ^ _rotr_counted(e, 11, ops) ^ _rotr_counted(e, 25, ops)
        ops["xor"] += 2
        ch = (e & f) ^ (~e & g)
        ops["and"] += 2
        ops["not"] += 1
        ops["xor"] += 1
        t1 = (h + s1 + ch + k[i] + w[i]) & _MASK
        ops["add"] += 4
        s0 = _rotr_counted(a, 2, ops) ^ _rotr_counted(a, 13, ops) ^ _rotr_counted(a, 22, ops)
        ops["xor"] += 2
        maj = (a & b) ^ (a & c) ^ (b & c)
        ops["and"] += 3
        ops["xor"] += 2
        t2 = (s0 + maj) & _MASK
        ops["add"] += 1
        h, g, f, e, d, c, b, a = g, f, e, (d + t1) & _MASK, c, b, a, (t1 + t2) & _MASK
        ops["add"] += 2
    new_state = tuple((s + v) & _MASK for s, v in zip(state, (a, b, c, d, e, f, g, h)))
    ops["add"] += 8
    return new_state, ops


def count_sha256_digest_ops(message: bytes) -> tuple[bytes, Counter]:
    """Full instrumented digest; total ops scale with the padded block count."""
    padded = sha256_pad(message)
    state = INIT_STATE
    total: Counter = Counter()
    for off in range(0, len(padded), 64):
        state, ops = count_sha256_compress_ops(state, padded[off : off + 64])
        total += ops
    return b"".join(s.to_bytes(4, "big") for s in state), total


def aes_instructions_per_block() -> int:
    """Measured op count for one 16-byte AES block (data-independent)."""
    _, ops = count_aes_block_ops(bytes(16), bytes(176))
    return sum(ops.values())


def sha256_instructions_per_block() -> int:
    """Measured op count for one 64-byte compression (data-independent)."""
    _, ops = count_sha256_compress_ops(INIT_STATE, bytes(64))
    return sum(ops.values())
