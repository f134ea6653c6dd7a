"""AES-128 encryption structured like the near-memory DPU kernel.

The round functions replace all finite-field arithmetic in MixColumns with
256-entry lookup tables (MUL2 and MUL3), mirroring how the kernel avoids
multiplies on hardware that only has cheap bitwise ops and adds. Every
fixed table is a module constant built once at import: SBOX, MUL2, MUL3,
the key schedule's RCON, and the word tables that fuse the byte tables
with the S-box (the T-table round of Daemen & Rijmen, *The Design of
Rijndael*, 2002, section 4.2). aes128_encrypt_buffer runs the blocks
through those word tables in numpy, in fixed-size batches;
aes128_encrypt_block is the one-block case of it. A batch's state is a
contiguous (4, n) uint32 array, one plane per column word, so each table
gather reads one byte lane of a plane. The round key is folded into the
first table each column gathers from, built per call from the key, so
adding it costs no XOR of its own. Blocks are encrypted independently,
which is what makes the work partitionable across DPUs in the first place.
The byte-wise form of the rounds is replayed op by op in costs.py, from
the same byte tables.

Keys and blocks are ``bytes``. aes128_encrypt_buffer takes any
C-contiguous buffer, sized in bytes, and writes the ciphertext straight
into ``out``: a new ``bytearray`` (equal to ``bytes`` of the same content)
unless the caller gives a buffer, which may be the input itself.
Hex formatting at the edges is lowercase without separators.
"""

from __future__ import annotations

from itertools import accumulate

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
# Blocks per numpy pass of aes128_encrypt_buffer (256 KiB). The pass's
# working arrays then stay cache-sized, which makes a long buffer faster
# than one whole-buffer pass and keeps its temporaries off the peak memory.
BATCH_BLOCKS = 1 << 14


def _xtime(x: int) -> int:
    return ((x << 1) ^ 0x1B) & 0xFF if x & 0x80 else x << 1


# MUL2[x] and MUL3[x] hold 0x02*x and 0x03*x under the AES polynomial,
# covering every coefficient of the MixColumns matrix (0x01 is free).
MUL2 = bytes(_xtime(x) for x in range(256))
MUL3 = bytes(MUL2[x] ^ x for x in range(256))
# RCON[i] is x^i in GF(2^8), the round constant of key-schedule round i + 1.
RCON = bytes(accumulate(range(9), lambda rc, _: _xtime(rc), initial=1))


def key_expansion(key: bytes) -> bytes:
    """Expand a 16-byte key into the 176-byte round-key schedule.

    Each word depends on the previous one, so this runs on the host and the
    result is broadcast to the DPUs rather than recomputed there.
    """
    if len(key) != 16:
        raise ValueError(f"AES-128 key must be 16 bytes, got {len(key)}")
    ks = bytearray(key)
    for i in range(4, 44):
        w = ks[4 * (i - 1) : 4 * i]
        if i % 4 == 0:
            w = bytes((
                SBOX[w[1]] ^ RCON[i // 4 - 1],
                SBOX[w[2]],
                SBOX[w[3]],
                SBOX[w[0]],
            ))
        ks.extend(a ^ b for a, b in zip(ks[4 * (i - 4) : 4 * (i - 3)], w))
    return bytes(ks)


def aes128_encrypt_block(block: bytes, ks: bytes) -> bytes:
    """Encrypt a single 16-byte block."""
    if len(block) != BLOCK_BYTES:
        raise ValueError(f"block must be {BLOCK_BYTES} bytes, got {len(block)}")
    return bytes(aes128_encrypt_buffer(block, ks))


# MixColumns matrix: output byte i of a column takes _MIX[i][r] * S(byte r).
# The last round has no MixColumns, which is the identity matrix.
_MIX = ((2, 3, 1, 1), (1, 2, 3, 1), (1, 1, 2, 3), (3, 1, 1, 2))
# SBOX, MUL2 and MUL3 fused into eight word tables, shape (2, 4, 256) uint32.
# _FUSED[0, r][x] packs the MixColumns contribution of S(x) sitting in state
# row r; _FUSED[1, r][x] holds S(x) alone at byte r, for the last round. The
# pack order matches a native-endian uint32 view of the column bytes, so the
# tables are correct on any host byte order by construction. Every call
# shares them, so they are read-only.
_FUSED = np.ascontiguousarray(
    # [c, x] = c * S(x) for the coefficients c = 0 .. 3, indexed by coefficient
    np.frombuffer(bytes(256) + SBOX + SBOX.translate(MUL2) + SBOX.translate(MUL3), dtype=np.uint8)
    .reshape(4, 256)[np.array((_MIX, np.eye(4, dtype=int)))]  # [set, byte i, row r, x]
    .transpose(0, 2, 3, 1)  # [set, row r, x, byte i]
).view(np.uint32)[..., 0]
_FUSED.flags.writeable = False


def aes128_encrypt_buffer(
    buffer: bytes | bytearray | memoryview, ks: bytes, out: bytearray | memoryview | None = None
) -> bytearray | memoryview:
    """Encrypt every 16-byte block of a C-contiguous buffer independently.

    Any buffer-protocol object works; its length is taken in bytes. Blocks
    go through the fused-table path BATCH_BLOCKS at a time, each batch
    written straight into out, which is returned: a new bytearray if None,
    else a writable C-contiguous buffer of the input's byte length. out may
    be the input itself, as each batch is read whole before it is written,
    but must not overlap it otherwise (ValueError).
    """
    if len(ks) != EXPANDED_KEY_BYTES:
        raise ValueError(f"expanded key must be {EXPANDED_KEY_BYTES} bytes, got {len(ks)}")
    data = memoryview(buffer).cast("B")
    if len(data) % BLOCK_BYTES:
        raise AlignmentError(
            f"buffer length {len(data)} is not a multiple of {BLOCK_BYTES}"
        )
    if out is None:
        out = bytearray(len(data))
    dest = memoryview(out).cast("B")
    if dest.readonly or len(dest) != len(data):
        raise ValueError(f"out must be a writable buffer of {len(data)} bytes, "
                         f"got {'a read-only one' if dest.readonly else len(dest)}")
    if not data:
        return out
    blocks = np.frombuffer(data, dtype=np.uint32).reshape(-1, 4)
    words = np.frombuffer(dest, dtype=np.uint32).reshape(-1, 4)
    # both are contiguous, so sharing memory is overlapping address ranges
    if np.may_share_memory(blocks, words) and (
        blocks.__array_interface__["data"][0] != words.__array_interface__["data"][0]
    ):
        raise ValueError("out overlaps the input without being it")
    rk = np.frombuffer(ks, dtype=np.uint32).reshape(11, 4)
    mix, last = _FUSED
    # keyed[rnd - 1, j]: round rnd's first table for column j, its round key
    # folded in; derived from the key, so built per call and never cached
    keyed = np.concatenate((mix[0] ^ rk[1:10, :, None], last[0] ^ rk[10:, :, None]))
    for lo in range(0, len(blocks), BATCH_BLOCKS):
        _encrypt_batch(blocks[lo : lo + BATCH_BLOCKS], rk[0], keyed, words[lo : lo + BATCH_BLOCKS])
    return out


def _encrypt_batch(
    blocks: np.ndarray, rk0: np.ndarray, keyed: np.ndarray, out: np.ndarray
) -> None:
    """Encrypt the (n, 4) uint32 column words of blocks into out.

    The state is a (4, n) array of word planes: row j holds column word j
    of every block, and its (4, n, 4) uint8 view gives state byte r of
    column j at [j, :, r]. rk0 is the whitening key; keyed[rnd - 1, j] is
    the round's row-0 table with round key word j folded in, so the first
    gather of each column adds the key. Every gather and XOR writes into a
    preallocated array; w and nxt swap roles each round.
    """
    mix, last = _FUSED
    n = len(blocks)
    w = np.empty((4, n), dtype=np.uint32)
    nxt = np.empty_like(w)
    buf = np.empty(n, dtype=np.uint32)
    np.bitwise_xor(blocks.T, rk0[:, None], out=w)
    for rnd in range(1, 11):
        t = last if rnd == 10 else mix
        sb = w.view(np.uint8).reshape(4, n, 4)
        # ShiftRows: row byte r of output column j comes from column j + r.
        # Indices are uint8 and every table has 256 entries, so mode wrap
        # never wraps; unlike the default raise it gathers straight into out.
        for j in range(4):
            row = nxt[j]
            keyed[rnd - 1, j].take(sb[j, :, 0], out=row, mode="wrap")
            for r in range(1, 4):
                t[r].take(sb[(j + r) % 4, :, r], out=buf, mode="wrap")
                row ^= buf
        w, nxt = nxt, w
    out[...] = w.T
