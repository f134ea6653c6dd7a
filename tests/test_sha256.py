import hashlib
import random
from concurrent.futures import ThreadPoolExecutor

import pytest

from pimcrypt import reference as ref
from pimcrypt.sha256 import (
    INIT_STATE,
    MAX_MESSAGE_BYTES,
    ROUND_CONSTANTS,
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
        class FakeLen(bytes):
            def __len__(self):
                return MAX_MESSAGE_BYTES + 1

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
