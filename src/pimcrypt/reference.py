"""Slow, independent reference implementations used as test oracles.

Everything in this module is deliberately built from first principles and
shares no tables or helper code with the production kernels: GF(2^8)
products are computed by shift-and-reduce, the substitution box is derived
from multiplicative inverses plus the affine transform, and the hash
constants are extracted from prime roots with exact integer arithmetic.
A bug in a production lookup table therefore cannot be masked by the same
bug here. The job scheduler is written rank by rank from the strategy
rules alone, keyed by the strategies' value strings, and the job pricer
DPU by DPU and tasklet by tasklet from the machine model's written rules,
keyed by plain values; neither imports anything from the machine model or
the orchestrator.

These functions are orders of magnitude slower than the production
kernels and are only meant for correctness checks on small inputs.
"""

from __future__ import annotations

import math
from functools import lru_cache

AES_POLY = 0x11B  # x^8 + x^4 + x^3 + x + 1


@lru_cache(maxsize=None)
def gf_mul(a: int, b: int) -> int:
    """Multiply two field elements by peasant multiplication mod AES_POLY.

    Results are memoized; every cached value was still produced by the
    shift-and-reduce loop below, never by a precomputed table.
    """
    if not (0 <= a < 256 and 0 <= b < 256):
        raise ValueError("field elements must be bytes")
    product = 0
    while b:
        if b & 1:
            product ^= a
        a <<= 1
        if a & 0x100:
            a ^= AES_POLY
        b >>= 1
    return product


@lru_cache(maxsize=1)
def computed_sbox() -> bytes:
    """Derive the AES S-box from inverses and the affine transform."""
    inv = [0] * 256
    for x in range(1, 256):
        if inv[x]:
            continue
        for y in range(1, 256):
            if gf_mul(x, y) == 1:
                inv[x], inv[y] = y, x
                break
    box = bytearray(256)
    for x in range(256):
        s = inv[x]
        box[x] = s ^ _rotl8(s, 1) ^ _rotl8(s, 2) ^ _rotl8(s, 3) ^ _rotl8(s, 4) ^ 0x63
    return bytes(box)


def _rotl8(x: int, n: int) -> int:
    return ((x << n) | (x >> (8 - n))) & 0xFF


@lru_cache(maxsize=64)
def key_schedule(key: bytes) -> bytes:
    """Reference AES-128 key expansion: 16-byte key to 44 words."""
    if len(key) != 16:
        raise ValueError("AES-128 key must be 16 bytes")
    sbox = computed_sbox()
    words = [list(key[4 * i : 4 * i + 4]) for i in range(4)]
    rcon = 1
    for i in range(4, 44):
        temp = list(words[i - 1])
        if i % 4 == 0:
            temp = temp[1:] + temp[:1]
            temp = [sbox[t] for t in temp]
            temp[0] ^= rcon
            rcon = gf_mul(rcon, 2)
        words.append([w ^ t for w, t in zip(words[i - 4], temp)])
    return bytes(b for w in words for b in w)


def encrypt_block(block: bytes, key: bytes) -> bytes:
    """Encrypt one 16-byte block with explicit GF arithmetic (no tables).

    The state is held as a 4x4 row-major matrix filled column by column,
    and every round applies SubBytes, ShiftRows, MixColumns (via gf_mul)
    and AddRoundKey as separate steps.
    """
    if len(block) != 16:
        raise ValueError("block must be 16 bytes")
    schedule = key_schedule(key)
    sbox = computed_sbox()
    state = [[block[4 * c + r] for c in range(4)] for r in range(4)]

    def add_round_key(rnd):
        for r in range(4):
            for c in range(4):
                state[r][c] ^= schedule[16 * rnd + 4 * c + r]

    def sub_bytes():
        for r in range(4):
            for c in range(4):
                state[r][c] = sbox[state[r][c]]

    def shift_rows():
        for r in range(1, 4):
            state[r] = state[r][r:] + state[r][:r]

    def mix_columns():
        for c in range(4):
            a = [state[r][c] for r in range(4)]
            state[0][c] = gf_mul(2, a[0]) ^ gf_mul(3, a[1]) ^ a[2] ^ a[3]
            state[1][c] = a[0] ^ gf_mul(2, a[1]) ^ gf_mul(3, a[2]) ^ a[3]
            state[2][c] = a[0] ^ a[1] ^ gf_mul(2, a[2]) ^ gf_mul(3, a[3])
            state[3][c] = gf_mul(3, a[0]) ^ a[1] ^ a[2] ^ gf_mul(2, a[3])

    add_round_key(0)
    for rnd in range(1, 10):
        sub_bytes()
        shift_rows()
        mix_columns()
        add_round_key(rnd)
    sub_bytes()
    shift_rows()
    add_round_key(10)
    return bytes(state[r][c] for c in range(4) for r in range(4))


def _first_primes(n: int) -> list[int]:
    primes: list[int] = []
    candidate = 2
    while len(primes) < n:
        if all(candidate % p for p in primes if p * p <= candidate):
            primes.append(candidate)
        candidate += 1
    return primes


def _icbrt(n: int) -> int:
    """Exact integer cube root (floor) by Newton iteration."""
    if n < 0:
        raise ValueError("n must be non-negative")
    x = 1 << ((n.bit_length() + 2) // 3)
    while True:
        y = (2 * x + n // (x * x)) // 3
        if y >= x:
            break
        x = y
    while x * x * x > n:
        x -= 1
    return x


@lru_cache(maxsize=1)
def hash_init_words() -> tuple[int, ...]:
    """First 32 fractional bits of the square roots of the first 8 primes."""
    return tuple(math.isqrt(p << 64) & 0xFFFFFFFF for p in _first_primes(8))


@lru_cache(maxsize=1)
def hash_round_words() -> tuple[int, ...]:
    """First 32 fractional bits of the cube roots of the first 64 primes."""
    return tuple(_icbrt(p << 96) & 0xFFFFFFFF for p in _first_primes(64))


def sha256(message: bytes) -> bytes:
    """Reference SHA-256 over a whole message held in memory.

    Rotations are written out inline; the structure (full message schedule
    up front, working variables shuffled per round) follows the standard's
    description rather than the production kernel.
    """
    k = hash_round_words()
    bit_len = 8 * len(message)
    padded = message + b"\x80" + b"\x00" * ((55 - len(message)) % 64)
    padded += bit_len.to_bytes(8, "big")
    state = list(hash_init_words())
    mask = 0xFFFFFFFF
    for off in range(0, len(padded), 64):
        block = padded[off : off + 64]
        w = [int.from_bytes(block[4 * i : 4 * i + 4], "big") for i in range(16)]
        for i in range(16, 64):
            x = w[i - 15]
            s0 = ((x >> 7 | x << 25) ^ (x >> 18 | x << 14)) & mask ^ (x >> 3)
            y = w[i - 2]
            s1 = ((y >> 17 | y << 15) ^ (y >> 19 | y << 13)) & mask ^ (y >> 10)
            w.append((w[i - 16] + s0 + w[i - 7] + s1) & mask)
        a, b, c, d, e, f, g, h = state
        for i in range(64):
            big1 = ((e >> 6 | e << 26) ^ (e >> 11 | e << 21) ^ (e >> 25 | e << 7)) & mask
            ch = (e & f) ^ (~e & g & mask)
            t1 = (h + big1 + ch + k[i] + w[i]) & mask
            big0 = ((a >> 2 | a << 30) ^ (a >> 13 | a << 19) ^ (a >> 22 | a << 10)) & mask
            maj = (a & b) ^ (a & c) ^ (b & c)
            t2 = (big0 + maj) & mask
            a, b, c, d, e, f, g, h = (t1 + t2) & mask, a, b, c, (d + t1) & mask, e, f, g
        state = [(s + v) & mask for s, v in zip(state, (a, b, c, d, e, f, g, h))]
    return b"".join(s.to_bytes(4, "big") for s in state)


def schedule(strategy: str, phases, t0: float = 0.0) -> list[list[float]]:
    """Event times of a job, one row per rank, from per-rank (prepare,
    to_dpu, kernel, from_dpu) durations and the time t0 staging may begin.

    A row holds its rank's prepare start and end, inbound transfer start and
    end, launch, kernel end, and outbound transfer start and end. One host
    stager prepares the ranks in order, and each rank's inbound transfer
    runs on its own channel as soon as its staging ends. Under
    "async_rank_transfer" the host stages the next rank at once; otherwise
    it first waits for this rank's transfer. Under "async_rank_execution" a
    rank launches when its own transfer ends; otherwise all ranks launch
    when the last one ends. Under "sync" the ranks drain one after the
    other once the last kernel ends; otherwise each drains as soon as its
    own kernel ends.
    """
    if strategy not in ("sync", "async_rank_transfer", "async_rank_execution"):
        raise ValueError(f"unknown strategy {strategy!r}")
    rows = []
    host = t0
    for prepare, to_dpu, _, _ in phases:
        staged = host + prepare
        loaded = staged + to_dpu
        rows.append([host, staged, staged, loaded])
        host = staged if strategy == "async_rank_transfer" else loaded
    barrier = max((row[3] for row in rows), default=t0)
    for row, (_, _, kernel, _) in zip(rows, phases):
        launch = row[3] if strategy == "async_rank_execution" else barrier
        row += [launch, launch + kernel]
    drain = max((row[5] for row in rows), default=t0)
    for row, (_, _, _, from_dpu) in zip(rows, phases):
        start = drain if strategy == "sync" else row[5]
        drain = start + from_dpu
        row += [start, drain]
    return rows


# bytes of the expanded AES-128 key broadcast to every DPU; bytes of a digest
KEY_SCHEDULE_BYTES, DIGEST_BYTES = 176, 32
MRAM_RESERVE_BYTES = 1 << 20  # runtime head-room per DPU


def plan(algorithm: str, workload, n_ranks: int, dpus_per_rank: int, tasklets: int,
         machine: dict, instructions_per_unit: float) -> tuple[list[list[float]], float]:
    """Each rank's (prepare, to_dpu, kernel, from_dpu) durations of a job,
    and the time t0 its staging may begin, priced DPU by DPU and tasklet by
    tasklet; schedule(strategy, phases, t0) then gives its event times.

    workload is an "aes128" buffer's length in bytes or the "sha256"
    message lengths; machine holds the machine fields by name, and
    instructions_per_unit is the kernel's op count per 16-byte AES block or
    64-byte padded hash block. An AES buffer is cut into contiguous slices
    of whole blocks, the extra blocks to the first DPUs; messages are dealt
    round-robin, whole. A DPU over its MRAM budget (its bytes in and out
    beyond mram_bytes less the reserve) raises ValueError, the first first.
    """
    n_dpus = n_ranks * dpus_per_rank
    if algorithm == "aes128":
        base, rem = divmod(workload // 16, n_dpus)
        units = [base + (d < rem) for d in range(n_dpus)]
        items, in_bytes = units, [16 * u for u in units]
        out_bytes, read, write = in_bytes, 16.0, 16.0
        t0 = KEY_SCHEDULE_BYTES * dpus_per_rank / machine["cpu_to_dpu_bandwidth_per_rank"]
    else:
        units, items, in_bytes = [0] * n_dpus, [0] * n_dpus, [0] * n_dpus
        for i, length in enumerate(workload):
            units[i % n_dpus] += (length + 9 + 63) // 64  # the 0x80 byte and the bit length
            items[i % n_dpus] += 1
            in_bytes[i % n_dpus] += length
        out_bytes = [DIGEST_BYTES * n for n in items]
        # each message's digest write is spread over the job's hash blocks
        read, write, t0 = 64.0, DIGEST_BYTES * len(workload) / max(sum(units), 1), 0.0
    budget = machine["mram_bytes"] - MRAM_RESERVE_BYTES
    for d in range(n_dpus):
        if in_bytes[d] + out_bytes[d] > budget:
            raise ValueError(f"DPU {d} needs {in_bytes[d] + out_bytes[d]} B of MRAM, "
                             f"budget is {budget} B")

    def dpu_seconds(units: int, items: int) -> float:
        if not units:
            return 0.0
        busy = min(max(items, 1), tasklets)  # an idle DPU still runs one tasklet
        sat = machine["pipeline_saturation_tasklets"]
        cycles = units * instructions_per_unit / (min(busy, sat) / sat)
        mram = 0.0
        for t in range(busy):  # each tasklet streams its share, in tasklet order
            share = units // busy + (t < units % busy)
            for per_unit in (read, write):
                mram += _streamed_cycles(share * per_unit, machine)
        return (cycles + mram) / machine["dpu_frequency"]

    phases = []
    for r in range(n_ranks):
        rank = range(r * dpus_per_rank, (r + 1) * dpus_per_rank)
        sent, returned = sum(in_bytes[d] for d in rank), sum(out_bytes[d] for d in rank)
        phases.append([sent / machine["host_prepare_rate"],
                       sent / machine["cpu_to_dpu_bandwidth_per_rank"],
                       max(dpu_seconds(units[d], items[d]) for d in rank),
                       returned / machine["dpu_to_cpu_bandwidth_per_rank"]])
    return phases, t0


def _streamed_cycles(nbytes: float, machine: dict) -> float:
    """MRAM cycles of one tasklet streaming nbytes in whole accesses of
    max_mram_access_bytes, the last rounded up to 8 bytes."""
    if nbytes <= 0:
        return 0.0
    chunk = machine["max_mram_access_bytes"]
    full, rest = divmod(math.ceil(nbytes), chunk)

    def access(size):
        return max(machine["mram_fixed_cycles"], machine["mram_cycles_per_byte"] * size)

    cycles = full * access(chunk)
    if rest:
        cycles += access(-(-rest // 8) * 8)
    return cycles


def union_length(intervals) -> float:
    """Length of the union of closed (start, end) intervals with end >=
    start: a sweep over their ends in time order, starts before ends at
    equal times, adds each maximal covered stretch once, earliest first."""
    edges = sorted([(s, 0) for s, _ in intervals] + [(e, 1) for _, e in intervals])
    total, depth, opened = 0.0, 0, 0.0
    for time, is_end in edges:
        if is_end:
            depth -= 1
            if depth == 0:
                total += time - opened
        else:
            if depth == 0:
                opened = time
            depth += 1
    return total
