"""AES-128 encryption structured like the near-memory DPU kernel.

The round functions work on a column-major state and replace all
finite-field arithmetic in MixColumns with 256-entry lookup tables (times-2
and times-3), mirroring how the kernel avoids multiplies on hardware that
only has cheap bitwise ops and adds. aes128_encrypt_buffer fuses those byte
tables with the S-box into four 32-bit tables and runs all blocks through
numpy at once; aes128_encrypt_block is the one-block case of it. Blocks are
encrypted independently, which is what makes the work partitionable across
DPUs in the first place. The byte-wise form of the rounds is replayed
op by op in costs.py.

Keys, blocks and buffers are plain ``bytes``; hex formatting at the edges
is lowercase without separators.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import AlignmentError

# fmt: off
SBOX = bytes((
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
))
# fmt: on

BLOCK_BYTES = 16
EXPANDED_KEY_BYTES = 176

# ShiftRows as a flat permutation of the column-major state:
# byte (row r, col c) moves to (r, c - r mod 4), i.e. out[4c+r] = in[4((c+r)%4)+r].
_SHIFT_ROWS = tuple((4 * (c + r) + r) % 16 for c in range(4) for r in range(4))


@dataclass(frozen=True)
class GfLookupTables:
    """Precomputed GF(2^8) byte tables plus round constants.

    mul2[x] and mul3[x] hold 0x02*x and 0x03*x under the AES polynomial,
    covering every coefficient of the MixColumns matrix (0x01 is free).
    """

    mul2: bytes
    mul3: bytes
    sbox: bytes
    round_constants: bytes


def _xtime(x: int) -> int:
    return ((x << 1) ^ 0x1B) & 0xFF if x & 0x80 else x << 1


@lru_cache(maxsize=1)
def build_gf_tables() -> GfLookupTables:
    """Precompute the multiplication tables and the ten round constants."""
    mul2 = bytes(_xtime(x) for x in range(256))
    mul3 = bytes(mul2[x] ^ x for x in range(256))
    rc = bytearray(10)
    rc[0] = 1
    for i in range(1, 10):
        rc[i] = _xtime(rc[i - 1])
    return GfLookupTables(mul2=mul2, mul3=mul3, sbox=SBOX, round_constants=bytes(rc))


def key_expansion(key: bytes) -> bytes:
    """Expand a 16-byte key into the 176-byte round-key schedule.

    Each word depends on the previous one, so this runs on the host and the
    result is broadcast to the DPUs rather than recomputed there.
    """
    if len(key) != 16:
        raise ValueError(f"AES-128 key must be 16 bytes, got {len(key)}")
    tables = build_gf_tables()
    sbox, rc = tables.sbox, tables.round_constants
    ks = bytearray(key)
    for i in range(4, 44):
        w = ks[4 * (i - 1) : 4 * i]
        if i % 4 == 0:
            w = bytes((
                sbox[w[1]] ^ rc[i // 4 - 1],
                sbox[w[2]],
                sbox[w[3]],
                sbox[w[0]],
            ))
        ks.extend(a ^ b for a, b in zip(ks[4 * (i - 4) : 4 * (i - 3)], w))
    return bytes(ks)


def aes128_encrypt_block(block: bytes, ks: bytes) -> bytes:
    """Encrypt a single 16-byte block."""
    if len(block) != BLOCK_BYTES:
        raise ValueError(f"block must be {BLOCK_BYTES} bytes, got {len(block)}")
    return aes128_encrypt_buffer(block, ks)


@lru_cache(maxsize=1)
def _fused_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Fuse sbox/mul2/mul3 into four word tables for the vectorized path.

    T_r[x] packs the MixColumns contribution of S(x) sitting in state row r.
    The pack order matches a native-endian uint32 view of the column bytes,
    so the tables are correct on any host byte order by construction.
    """
    t = build_gf_tables()
    packed = np.zeros((4, 256, 4), dtype=np.uint8)
    for x in range(256):
        s = t.sbox[x]
        m2, m3 = t.mul2[s], t.mul3[s]
        packed[0, x] = (m2, s, s, m3)
        packed[1, x] = (m3, m2, s, s)
        packed[2, x] = (s, m3, m2, s)
        packed[3, x] = (s, s, m3, m2)
    words = packed.reshape(4, 256, 4).copy().view(np.uint32).reshape(4, 256)
    sbox_np = np.frombuffer(t.sbox, dtype=np.uint8)
    return words[0], words[1], words[2], words[3], sbox_np


def aes128_encrypt_buffer(buffer: bytes, ks: bytes) -> bytes:
    """Encrypt every 16-byte block of a buffer independently.

    The whole buffer is pushed through the fused-table path in one pass.
    """
    if len(ks) != EXPANDED_KEY_BYTES:
        raise ValueError(f"expanded key must be {EXPANDED_KEY_BYTES} bytes, got {len(ks)}")
    if len(buffer) % BLOCK_BYTES:
        raise AlignmentError(
            f"buffer length {len(buffer)} is not a multiple of {BLOCK_BYTES}"
        )
    if not buffer:
        return b""
    t0, t1, t2, t3, sbox_np = _fused_tables()
    n = len(buffer) // BLOCK_BYTES
    rk_words = np.frombuffer(ks, dtype=np.uint8).reshape(11, 16).view(np.uint32)
    rk_last = np.frombuffer(ks[160:176], dtype=np.uint8)

    w = np.frombuffer(buffer, dtype=np.uint8).reshape(n, 16).view(np.uint32) ^ rk_words[0]
    nxt = np.empty_like(w)
    for rnd in range(1, 10):
        sb = w.view(np.uint8).reshape(n, 16)
        rk = rk_words[rnd]
        for j in range(4):
            nxt[:, j] = (
                t0[sb[:, 4 * j]]
                ^ t1[sb[:, (4 * j + 5) % 16]]
                ^ t2[sb[:, (4 * j + 10) % 16]]
                ^ t3[sb[:, (4 * j + 15) % 16]]
                ^ rk[j]
            )
        w, nxt = nxt, w
    sb = w.view(np.uint8).reshape(n, 16)
    out = np.empty((n, 16), dtype=np.uint8)
    for i in range(16):
        out[:, i] = sbox_np[sb[:, _SHIFT_ROWS[i]]] ^ rk_last[i]
    return out.tobytes()
