import hashlib
import math
import random
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pimcrypt import reference as ref
from pimcrypt.sha256 import (
    INIT_STATE,
    MAX_MESSAGE_BYTES,
    ROUND_CONSTANTS,
    SCHEDULE_BATCH_BLOCKS,
    padded_block_count,
    sha256_digest,
    sha256_many,
    sha256_pad,
)

VECTORS = {
    b"abc": "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
    b"": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq": (
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    ),
}


def test_constants_match_derived_oracle_values():
    assert INIT_STATE == ref.hash_init_words()
    assert ROUND_CONSTANTS == ref.hash_round_words()


# Lengths around the padding boundaries: 55 is the longest one-block
# message, 56..63 put the length trailer in a block of its own.
_BOUNDARY_LENGTHS = (0, 55, 56, 63, 64, 119, 120)
# A long lane whose 0x80 marker ends the first schedule batch while its
# length trailer opens the second. Beside it run the boundary lengths and
# _SHORT one-block lanes, _OTHER_BLOCKS blocks in all, which end by step 3.
# From then on a step holds the long lane alone, so the first batch holds
# steps 0 .. SCHEDULE_BATCH_BLOCKS - _OTHER_BLOCKS - 1.
_SHORT = 900
_OTHER_BLOCKS = _SHORT + sum(padded_block_count(n) for n in _BOUNDARY_LENGTHS)
_STRADDLING = 64 * (SCHEDULE_BATCH_BLOCKS - _OTHER_BLOCKS - 1) + 60


class FakeLen(bytes):
    def __len__(self):
        return MAX_MESSAGE_BYTES + 1


class TestPadding:
    def test_empty_message(self):
        padded = sha256_pad(b"")
        assert padded == b"\x80" + bytes(63)

    def test_boundary_lengths(self):
        assert len(sha256_pad(bytes(55))) == 64
        assert len(sha256_pad(bytes(56))) == 128

    def test_length_multiple_of_64_exhaustive(self):
        for n in range(1001):
            padded = sha256_pad(bytes(n))
            assert len(padded) % 64 == 0
            assert len(padded) == 64 * padded_block_count(n)

    def test_trailer_encodes_bit_length(self):
        padded = sha256_pad(b"xyz")
        assert int.from_bytes(padded[-8:], "big") == 24

    def test_oversize_rejected(self):
        with pytest.raises(ValueError):
            sha256_pad(FakeLen())


class TestDigest:
    @pytest.mark.parametrize("message,expected", sorted(VECTORS.items()))
    def test_published_vectors(self, message, expected):
        assert sha256_digest(message).hex() == expected

    def test_digest_length(self):
        rng = random.Random(2)
        for _ in range(20):
            assert len(sha256_digest(rng.randbytes(rng.randrange(500)))) == 32

    def test_matches_oracle_and_hashlib(self):
        rng = random.Random(4)
        for _ in range(100):
            msg = rng.randbytes(rng.randrange(0, 400))
            d = sha256_digest(msg)
            assert d == ref.sha256(msg)
            assert d == hashlib.sha256(msg).digest()


class TestBatch:
    def test_empty_batch(self):
        assert sha256_many([]) == []

    def test_matches_scalar_path_mixed_lengths(self):
        rng = random.Random(6)
        msgs = [rng.randbytes(rng.randrange(0, 700)) for _ in range(300)]
        assert sha256_many(msgs) == [hashlib.sha256(m).digest() for m in msgs]

    def test_order_preserved(self):
        msgs = [bytes([i]) * (i % 130) for i in range(64)]
        digests = sha256_many(msgs)
        for m, d in zip(msgs, digests):
            assert d == hashlib.sha256(m).digest()

    def test_worker_invariance(self):
        """The digest does not depend on which thread computes it."""
        rng = random.Random(8)
        msgs = [rng.randbytes(100) for _ in range(32)]
        sequential = [hashlib.sha256(m).digest() for m in msgs]
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(pool.map(sha256_digest, msgs))
        assert threaded == sequential

    @settings(max_examples=40, deadline=None)
    @given(
        lengths=st.lists(st.sampled_from(_BOUNDARY_LENGTHS) | st.integers(0, 700), max_size=40),
        repeats=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    # more lanes in step 0 than one schedule batch holds
    @example(lengths=[0, 1, 56, 64, 120], repeats=2 * SCHEDULE_BATCH_BLOCKS // 5, seed=1)
    @example(lengths=[_STRADDLING] + [55] * _SHORT, repeats=1, seed=2)
    def test_ragged_pass_matches_hashlib(self, lengths, repeats, seed):
        rng = random.Random(seed)
        lengths = (list(_BOUNDARY_LENGTHS) + lengths) * repeats
        rng.shuffle(lengths)
        msgs = [rng.randbytes(n) for n in lengths]
        assert sha256_many(msgs) == [hashlib.sha256(m).digest() for m in msgs]

    def test_many_short_and_few_long(self):
        """Many short messages beside a few long chains, as a directory of
        small files with some 32 KiB ones."""
        rng = random.Random(10)
        msgs = [rng.randbytes(int(math.exp(rng.uniform(math.log(32), math.log(2048)))))
                for _ in range(300)]
        msgs[7::100] = [rng.randbytes(32 << 10) for _ in range(3)]
        assert sha256_many(msgs) == [hashlib.sha256(m).digest() for m in msgs]

    def test_oversize_rejected(self):
        with pytest.raises(ValueError):
            sha256_many([b"abc", FakeLen()])
