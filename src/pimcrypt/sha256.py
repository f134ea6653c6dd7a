"""SHA-256 structured like the near-memory DPU kernel.

A message is consumed as a stream of 64-byte blocks; every block update
depends on the running state, so one message can never be split across
workers — parallelism only exists across messages. sha256_many drives an
arbitrary batch of messages through one ragged lane-vectorized pass (one
lane per message). Lanes are sorted by padded block count, longest first,
and compression step s runs only the prefix of lanes whose chains are
longer than s, so the pass takes as many steps as the longest chain.
A step of more than PACKED_MAX_LANES lanes is compressed with numpy, one
uint32 array element per lane. A narrower step, such as the tail of a
few long messages, is compressed on Python ints that pack its lanes side
by side, one 64-bit slot each ("SIMD within a register": Fisher and
Dietz, "Compiling for SIMD within a register", LCPC 1998): there each
numpy call would do so little work that its fixed per-call cost would
dominate, while a big-int operation's cost grows with the lane count.
A block's message schedule does not depend on the running state, so the
schedules of many steps are computed ahead, SCHEDULE_BATCH_BLOCKS blocks
at a time (the multi-buffer technique of Gueron and Krasnov, "Parallelizing
message schedules to accelerate the computations of hash functions", 2012).
sha256_digest is the one-message case of sha256_many.
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
SCHEDULE_BATCH_BLOCKS = 2048  # blocks scheduled ahead at once: ~512 KiB of W
PACKED_MAX_LANES = 128  # widest step compressed on packed ints, not numpy

_K = np.array(ROUND_CONSTANTS, dtype=np.uint32)[:, None]
# Shift amounts, made once as 0-d uint32 arrays. numpy converts a scalar
# operand on every call, and on a few dozen lanes that conversion costs
# half as much again as the shift itself. A rotation right by n is
# (x >> n) | (x << 32 - n), so each pair below is (n, 32 - n).
_SCHEDULE_SHIFTS = tuple(np.array(n, dtype=np.uint32) for n in (7, 25, 18, 14, 3, 17, 15, 19, 13, 10))
_ROUND_SHIFTS = tuple(np.array(n, dtype=np.uint32) for n in (6, 26, 11, 21, 25, 7, 2, 30, 13, 19, 22, 10))


def sha256_pad(message: bytes) -> bytes:
    """Append the 0x80 marker, zero fill and the 64-bit big-endian bit length."""
    if len(message) > MAX_MESSAGE_BYTES:
        raise ValueError("message too long for a 64-bit length field")
    bit_len = 8 * len(message)
    return message + b"\x80" + b"\x00" * ((55 - len(message)) % 64) + bit_len.to_bytes(8, "big")


def padded_block_count(message_len: int) -> int:
    """Number of 64-byte blocks the message occupies after padding."""
    return (message_len + 8) // 64 + 1


def _batch_blocks(
    messages: list[bytes | memoryview],
    lengths: np.ndarray,
    counts: np.ndarray,
    active: np.ndarray,
    s0: int,
) -> np.ndarray:
    """Padded blocks s0 .. s0 + len(active) - 1 of the running lanes, as
    (blocks, 16) words, step by step: step s0's lanes first, then s0 + 1's.
    messages, lengths and counts list every lane, longest chain first.

    Each lane's bytes are sliced from its message and zero-filled to whole
    blocks; the 0x80 markers and bit-length trailers that fall inside the
    batch are then written in place, all lanes at once.
    """
    m0 = active[0]
    lo = BLOCK_BYTES * s0
    lengths, counts = lengths[:m0], counts[:m0]
    ends = np.minimum(counts, s0 + len(active))
    his = BLOCK_BYTES * ends
    chunks = [  # bytes() of a memoryview slice: views have no ljust
        bytes(message[lo:hi]).ljust(hi - lo, b"\x00")
        for message, hi in zip(messages, his.tolist())
    ]
    data = np.frombuffer(bytearray(b"".join(chunks)), dtype=np.uint8)
    size = his - lo
    start = np.cumsum(size) - size  # each lane's first byte in data
    marked = (lo <= lengths) & (lengths < his)
    data[start[marked] + lengths[marked] - lo] = 0x80
    last = ends == counts
    data.view(">u8")[(start[last] + size[last]) // 8 - 1] = 8 * lengths[last].astype(np.uint64)
    words = data.view(">u4").reshape(-1, 16)
    first = start // BLOCK_BYTES  # each lane's first row in words
    return words[np.concatenate([first[:m] + t for t, m in enumerate(active)])]


def _schedule(blocks: np.ndarray) -> np.ndarray:
    """W[t] + K[t] of every block: (64, n) from (n, 16) words."""
    r7, l7, r18, l18, r3, r17, l17, r19, l19, r10 = _SCHEDULE_SHIFTS
    w = np.empty((64, blocks.shape[0]), dtype=np.uint32)
    w[:16] = blocks.T
    for t in range(16, 64):
        x, y = w[t - 15], w[t - 2]
        w[t] = (
            w[t - 16]
            + w[t - 7]
            + ((x >> r7 | x << l7) ^ (x >> r18 | x << l18) ^ x >> r3)
            + ((y >> r17 | y << l17) ^ (y >> r19 | y << l19) ^ y >> r10)
        )
    w += _K
    return w


def _compress(state: np.ndarray, wk: np.ndarray) -> None:
    """One compression step, in place, of the first wk.shape[1] lanes of
    state (8, lanes); wk holds their blocks' W[t] + K[t] as (64, lanes)."""
    r6, l6, r11, l11, r25, l25, r2, l2, r13, l13, r22, l22 = _ROUND_SHIFTS
    a, b, c, d, e, f, g, h = state[:, : wk.shape[1]]
    for k in wk:
        s1 = (e >> r6 | e << l6) ^ (e >> r11 | e << l11) ^ (e >> r25 | e << l25)
        t1 = h + s1 + (g ^ (e & (f ^ g))) + k
        s0 = (a >> r2 | a << l2) ^ (a >> r13 | a << l13) ^ (a >> r22 | a << l22)
        t2 = s0 + ((a & b) | (c & (a | b)))
        h, g, f, e, d, c, b, a = g, f, e, d + t1, c, b, a, t1 + t2
    state[:, : wk.shape[1]] += (a, b, c, d, e, f, g, h)


def _compress_packed(state: np.ndarray, wk: np.ndarray) -> None:
    """_compress on Python ints: each state word and each W[t] + K[t] row
    is one int holding lane i in bits 64i .. 64i + 31. The 32 free bits
    of every lane take the carries of a round's adds, so one mask per new
    word keeps the lanes apart; a rotation is one shift of the doubled
    word e | e << 32, masked. Rows go through "<u8" bytes both ways, so
    the packing holds on any host byte order."""
    lanes = wk.shape[1]
    width = 8 * lanes
    mask = int.from_bytes(b"\xff\xff\xff\xff\0\0\0\0" * lanes, "little")
    rows = np.concatenate((state[:, :lanes], wk)).astype("<u8").tobytes()
    a, b, c, d, e, f, g, h, *ks = [
        int.from_bytes(rows[i : i + width], "little") for i in range(0, len(rows), width)
    ]
    # Maj(a, b, c) = b ^ ((a ^ b) & (b ^ c)); a round's a ^ b is the next round's b ^ c
    bc = b ^ c
    for k in ks:
        ee = e | e << 32
        aa = a | a << 32
        ab = a ^ b
        t1 = h + ((ee >> 6 ^ ee >> 11 ^ ee >> 25) & mask) + (g ^ (e & (f ^ g))) + k
        t2 = ((aa >> 2 ^ aa >> 13 ^ aa >> 22) & mask) + (b ^ (ab & bc))
        h, g, f, e, d, c, b, a = g, f, e, (d + t1) & mask, c, b, a, (t1 + t2) & mask
        bc = ab
    packed = b"".join(x.to_bytes(width, "little") for x in (a, b, c, d, e, f, g, h))
    state[:, :lanes] += np.frombuffer(packed, dtype="<u8").reshape(8, lanes).astype(np.uint32)


def sha256_digest(message: bytes | bytearray | memoryview) -> bytes:
    """Hash one message."""
    return sha256_many([message])[0]


def sha256_many(messages: list[bytes | bytearray | memoryview]) -> list[bytes]:
    """Hash a batch of messages, output in input order.

    A message is bytes or any C-contiguous buffer, hashed by its bytes.

    One ragged pass over all lanes, sorted by padded block count, longest
    first: step s compresses the prefix of lanes with more than s blocks,
    so every message is still compressed block by block, and the pass
    takes as many steps as the longest message has blocks. Schedules are
    computed for a batch of steps at a time, at least one whole step and
    otherwise at most SCHEDULE_BATCH_BLOCKS blocks.
    """
    # any other buffer as a byte view: an array('I') is sized in bytes, not items
    messages = [m if isinstance(m, bytes) else memoryview(m).cast("B") for m in messages]
    lengths = np.array([len(m) for m in messages], dtype=np.int64)
    n = len(messages)
    if not n:
        return []
    if lengths.max() > MAX_MESSAGE_BYTES:
        raise ValueError("message too long for a 64-bit length field")
    by_count = padded_block_count(lengths)
    order = np.argsort(-by_count, kind="stable")
    lengths, counts = lengths[order], by_count[order]
    ordered = [messages[i] for i in order.tolist()]
    # active[s]: the lanes with more than s blocks, a prefix of the sorted lanes
    active = n - np.cumsum(np.bincount(counts))[: counts[0]]
    done = np.cumsum(active)  # blocks compressed by the end of each step
    state = np.repeat(np.array(INIT_STATE, dtype=np.uint32)[:, None], n, axis=1)
    s0 = 0
    while s0 < len(active):
        limit = done[s0] - active[s0] + SCHEDULE_BATCH_BLOCKS
        s1 = max(s0 + 1, int(np.searchsorted(done, limit, side="right")))
        wk = _schedule(_batch_blocks(ordered, lengths, counts, active[s0:s1], s0))
        start = 0
        for m in active[s0:s1].tolist():
            compress = _compress_packed if m <= PACKED_MAX_LANES else _compress
            compress(state, wk[:, start : start + m])
            start += m
        s0 = s1
    out = np.empty((n, 8), dtype=">u4")
    out[order] = state.T
    raw = out.tobytes()
    return [raw[DIGEST_BYTES * i : DIGEST_BYTES * (i + 1)] for i in range(n)]
