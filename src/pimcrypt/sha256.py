"""SHA-256 structured like the near-memory DPU kernel.

A message is consumed as a stream of 64-byte blocks; every block update
depends on the running state, so one message can never be split across
workers — parallelism only exists across messages. sha256_many drives an
arbitrary batch of messages through a lane-vectorized compression loop (one
numpy lane per message, grouped by padded block count); sha256_digest is
the one-message case of it.
"""

from __future__ import annotations

import numpy as np

MAX_MESSAGE_BYTES = (1 << 61) - 1  # bit length must fit in the 64-bit trailer

# fmt: off
INIT_STATE = (
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
)

ROUND_CONSTANTS = (
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
)
# fmt: on

BLOCK_BYTES = 64
DIGEST_BYTES = 32


def sha256_pad(message: bytes) -> bytes:
    """Append the 0x80 marker, zero fill and the 64-bit big-endian bit length."""
    if len(message) > MAX_MESSAGE_BYTES:
        raise ValueError("message too long for a 64-bit length field")
    bit_len = 8 * len(message)
    return message + b"\x80" + b"\x00" * ((55 - len(message)) % 64) + bit_len.to_bytes(8, "big")


def padded_block_count(message_len: int) -> int:
    """Number of 64-byte blocks the message occupies after padding."""
    return (message_len + 8) // 64 + 1


def _rotr(x: np.ndarray, n: int) -> np.ndarray:
    return (x >> np.uint32(n)) | (x << np.uint32(32 - n))


def _compress_lanes(state: list[np.ndarray], blocks: np.ndarray) -> list[np.ndarray]:
    """One compression step across n lanes; blocks is (n, 16) uint32."""
    k = ROUND_CONSTANTS
    n = blocks.shape[0]
    w = np.empty((64, n), dtype=np.uint32)
    w[:16] = blocks.T
    for i in range(16, 64):
        x = w[i - 15]
        s0 = _rotr(x, 7) ^ _rotr(x, 18) ^ (x >> np.uint32(3))
        x = w[i - 2]
        s1 = _rotr(x, 17) ^ _rotr(x, 19) ^ (x >> np.uint32(10))
        w[i] = w[i - 16] + s0 + w[i - 7] + s1
    a, b, c, d, e, f, g, h = state
    for i in range(64):
        s1 = _rotr(e, 6) ^ _rotr(e, 11) ^ _rotr(e, 25)
        ch = (e & f) ^ (~e & g)
        t1 = h + s1 + ch + np.uint32(k[i]) + w[i]
        s0 = _rotr(a, 2) ^ _rotr(a, 13) ^ _rotr(a, 22)
        maj = (a & b) ^ (a & c) ^ (b & c)
        t2 = s0 + maj
        h, g, f, e, d, c, b, a = g, f, e, d + t1, c, b, a, t1 + t2
    return [s + v for s, v in zip(state, (a, b, c, d, e, f, g, h))]


def _digest_equal_length(messages: list[bytes]) -> list[bytes]:
    n = len(messages)
    padded = b"".join(sha256_pad(m) for m in messages)
    n_blocks = padded_block_count(len(messages[0]))
    data = np.frombuffer(padded, dtype=">u4").reshape(n, n_blocks, 16).astype(np.uint32)
    state = [np.full(n, INIT_STATE[i], dtype=np.uint32) for i in range(8)]
    for step in range(n_blocks):
        state = _compress_lanes(state, data[:, step, :])
    out = np.stack(state, axis=1).astype(">u4").tobytes()
    return [out[32 * i : 32 * i + 32] for i in range(n)]


def sha256_digest(message: bytes) -> bytes:
    """Hash one message."""
    return sha256_many([message])[0]


def sha256_many(messages: list[bytes]) -> list[bytes]:
    """Hash a batch of messages, output in input order.

    Messages are grouped by padded block count so each group runs fully
    lane-parallel; every message is still compressed block by block.
    """
    groups: dict[int, list[int]] = {}
    for idx, m in enumerate(messages):
        groups.setdefault(padded_block_count(len(m)), []).append(idx)
    out: list[bytes] = [b""] * len(messages)
    for indices in groups.values():
        digests = _digest_equal_length([messages[i] for i in indices])
        for i, d in zip(indices, digests):
            out[i] = d
    return out
