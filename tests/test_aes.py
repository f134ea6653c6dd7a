import random
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pimcrypt import aes
from pimcrypt import reference as ref
from pimcrypt.aes import (
    MUL2,
    MUL3,
    RCON,
    SBOX,
    aes128_encrypt_block,
    aes128_encrypt_buffer,
    key_expansion,
)
from pimcrypt.errors import AlignmentError

FIPS_KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
FIPS_PLAINTEXT = bytes.fromhex("00112233445566778899aabbccddeeff")
FIPS_CIPHERTEXT = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")


class TestGfTables:
    def test_spot_values(self):
        assert MUL2[0x01] == 0x02
        assert MUL3[0x01] == 0x03
        assert MUL2[0x80] == 0x1B

    def test_mul2_matches_field_multiplication(self):
        for x in range(256):
            assert MUL2[x] == ref.gf_mul(2, x)

    def test_mul3_is_mul2_xor_identity(self):
        for x in range(256):
            assert MUL3[x] == MUL2[x] ^ x

    def test_sbox_matches_derived_oracle(self):
        assert SBOX == ref.computed_sbox()

    def test_round_constants(self):
        expected = bytes([0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36])
        assert RCON == expected


class TestKeyExpansion:
    def test_length_and_round0(self):
        ks = key_expansion(FIPS_KEY)
        assert len(ks) == 176
        assert ks[:16] == FIPS_KEY

    def test_zero_key_first_expanded_word(self):
        assert key_expansion(bytes(16))[16:20] == bytes.fromhex("62636363")

    def test_known_key_last_word(self):
        ks = key_expansion(bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c"))
        assert ks[-4:] == bytes.fromhex("b6630ca6")

    def test_matches_oracle_on_random_keys(self):
        rng = random.Random(3)
        for _ in range(50):
            key = rng.randbytes(16)
            assert key_expansion(key) == ref.key_schedule(key)

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            key_expansion(bytes(17))


class TestEncryptBlock:
    def test_published_vector(self):
        ks = key_expansion(FIPS_KEY)
        assert aes128_encrypt_block(FIPS_PLAINTEXT, ks) == FIPS_CIPHERTEXT

    def test_deterministic(self):
        ks = key_expansion(FIPS_KEY)
        a = aes128_encrypt_block(FIPS_PLAINTEXT, ks)
        b = aes128_encrypt_block(FIPS_PLAINTEXT, ks)
        assert a == b

    def test_lut_path_equals_non_lut_oracle(self):
        rng = random.Random(5)
        for _ in range(1000):
            key = rng.randbytes(16)
            block = rng.randbytes(16)
            assert aes128_encrypt_block(block, key_expansion(key)) == ref.encrypt_block(
                block, key
            )

    def test_rejects_bad_lengths(self):
        ks = key_expansion(FIPS_KEY)
        with pytest.raises(ValueError):
            aes128_encrypt_block(bytes(15), ks)
        with pytest.raises(ValueError):
            aes128_encrypt_block(bytes(16), bytes(175))


class TestEncryptBuffer:
    def test_empty(self):
        assert aes128_encrypt_buffer(b"", key_expansion(FIPS_KEY)) == b""

    def test_equal_blocks_give_equal_ciphertext(self):
        ks = key_expansion(FIPS_KEY)
        out = aes128_encrypt_buffer(FIPS_PLAINTEXT * 2, ks)
        assert out[:16] == out[16:]

    def test_misaligned_buffer_rejected(self):
        with pytest.raises(AlignmentError):
            aes128_encrypt_buffer(bytes(17), key_expansion(FIPS_KEY))

    def test_equals_per_block_composition(self):
        rng = random.Random(9)
        ks = key_expansion(FIPS_KEY)
        for n_blocks in (1, 2, 7, 64, 257):
            buf = rng.randbytes(16 * n_blocks)
            expected = b"".join(
                aes128_encrypt_block(buf[i : i + 16], ks) for i in range(0, len(buf), 16)
            )
            assert aes128_encrypt_buffer(buf, ks) == expected

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.binary(min_size=0, max_size=80 * 16).filter(lambda b: len(b) % 16 == 0),
        cuts=st.lists(st.integers(min_value=0, max_value=80), max_size=4),
    )
    def test_block_independence_under_any_partition(self, data, cuts):
        """Concatenated per-slice encryption equals whole-buffer encryption."""
        ks = key_expansion(FIPS_KEY)
        n_blocks = len(data) // 16
        points = sorted({min(c, n_blocks) for c in cuts} | {0, n_blocks})
        pieces = [
            data[16 * a : 16 * b] for a, b in zip(points, points[1:])
        ]
        joined = b"".join(aes128_encrypt_buffer(p, ks) for p in pieces)
        assert joined == aes128_encrypt_buffer(data, ks)


class TestEncryptBufferBatches:
    @settings(max_examples=40, deadline=None)
    @given(
        key=st.binary(min_size=16, max_size=16),
        blocks=st.lists(st.binary(min_size=16, max_size=16), max_size=11),
        batch=st.integers(min_value=1, max_value=4),
    )
    @example(key=bytes(16), blocks=[bytes(range(16))] * 10, batch=3)
    def test_batches_match_oracle(self, key, blocks, batch):
        """Small batches make every buffer straddle several of them; each
        block must still equal the independent oracle's."""
        expected = b"".join(ref.encrypt_block(b, key) for b in blocks)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(aes, "BATCH_BLOCKS", batch)
            assert aes128_encrypt_buffer(b"".join(blocks), key_expansion(key)) == expected

    def test_gathers_exact_on_every_byte(self):
        """The gathers run in numpy's wrap mode, exact only because every
        table has 256 entries. Under the all-zero key, block i = bytes([i]) * 16
        enters round 1 unchanged, so round 1 reads every byte value at all
        16 state positions."""
        tables = aes._FUSED
        assert tables.shape == (2, 4, 256)
        assert tables.dtype == np.uint32
        key = bytes(16)
        blocks = [bytes([i]) * 16 for i in range(256)]
        out = aes128_encrypt_buffer(b"".join(blocks), key_expansion(key))
        for i, block in enumerate(blocks):
            assert out[16 * i : 16 * i + 16] == ref.encrypt_block(block, key), i

    def test_keyed_tables_follow_the_key(self):
        """The round keys are folded into tables built per call: the same
        two-batch buffer under two keys, back to back in one process, must
        give each key's own ciphertext."""
        data = random.Random(19).randbytes(16 * 6)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(aes, "BATCH_BLOCKS", 3)
            for key in (FIPS_KEY, bytes(range(16, 32))):
                expected = b"".join(
                    ref.encrypt_block(data[i : i + 16], key) for i in range(0, len(data), 16)
                )
                assert aes128_encrypt_buffer(data, key_expansion(key)) == expected

    def test_any_contiguous_buffer(self):
        """bytes, bytearray, an odd-offset slice (unaligned words) and a
        typed array give the same ciphertext, sized in bytes."""
        data = random.Random(11).randbytes(16 * 37)
        ks = key_expansion(FIPS_KEY)
        expected = b"".join(
            ref.encrypt_block(data[i : i + 16], FIPS_KEY) for i in range(0, len(data), 16)
        )
        odd = memoryview(bytearray(b"\x00" + data))[1:]
        words = array("I")
        words.frombytes(data)
        for buf in (data, bytearray(data), odd, memoryview(words), words):
            out = aes128_encrypt_buffer(buf, ks)
            assert type(out) is bytearray
            assert out == expected
        assert type(aes128_encrypt_block(data[:16], ks)) is bytes
        with pytest.raises(AlignmentError):
            aes128_encrypt_buffer(array("I", [0] * 5), ks)

    def test_peak_memory_is_one_output(self):
        """A call holds the ciphertext once, plus one batch of state."""
        data = bytes(4 << 20)
        ks = key_expansion(FIPS_KEY)
        aes128_encrypt_buffer(data[:16], ks)  # build the cached tables first
        tracemalloc.start()
        try:
            aes128_encrypt_buffer(data, ks)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * len(data)


class TestEncryptBufferOut:
    """out names the buffer the ciphertext is written into: the input
    itself, or a writable buffer disjoint from it, of the input's length."""

    DATA = random.Random(23).randbytes(16 * 37)

    def _expected(self):
        return aes128_encrypt_buffer(self.DATA, key_expansion(FIPS_KEY))

    def test_in_place_equals_copying(self):
        """Small batches make the input span ten of them; each is read whole
        before it is written, so encrypting over the input is exact, also
        when out and the input are different objects over the same bytes."""
        ks = key_expansion(FIPS_KEY)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(aes, "BATCH_BLOCKS", 4)
            shared = bytearray(self.DATA)
            view = memoryview(bytearray(self.DATA))
            for buf, out in ((shared, shared), (view, view),
                             (memoryview(shared).toreadonly(), shared)):
                shared[:] = self.DATA
                assert aes128_encrypt_buffer(buf, ks, out=out) is out
                assert out == self._expected()

    def test_disjoint_out_equals_copying(self):
        """Any writable C-contiguous buffer of the right length takes the
        ciphertext, an odd-offset slice (unaligned words) and a typed array
        too; out is returned."""
        ks = key_expansion(FIPS_KEY)
        odd = memoryview(bytearray(len(self.DATA) + 1))[1:]
        for out in (bytearray(len(self.DATA)), odd, array("I", bytes(len(self.DATA)))):
            assert aes128_encrypt_buffer(self.DATA, ks, out=out) is out
            assert bytes(out) == self._expected()
        assert aes128_encrypt_buffer(b"", ks, out=bytearray()) == b""

    @pytest.mark.parametrize("args", [
        lambda data: (data, bytearray(len(data) + 16)),
        lambda data: (data, bytearray(len(data) - 16)),
        lambda data: (data, bytes(len(data))),
        lambda data: (data, memoryview(bytearray(len(data))).toreadonly()),
        lambda data: (data[16:], data[:-16]),
        lambda data: (data[:-16], data[16:]),
    ], ids=["longer", "shorter", "bytes", "read-only-view", "out-before", "out-after"])
    def test_bad_out_rejected_before_writing(self, args):
        """A wrong length, a read-only out and a partial overlap with the
        input each raise ValueError, before anything is written."""
        data = memoryview(bytearray(self.DATA))
        buf, out = args(data)
        before = bytes(out)
        with pytest.raises(ValueError, match="^out "):
            aes128_encrypt_buffer(buf, key_expansion(FIPS_KEY), out=out)
        assert (data, bytes(out)) == (self.DATA, before)

    def test_non_contiguous_out_rejected(self):
        out = memoryview(bytearray(2 * len(self.DATA)))[::2]
        with pytest.raises(TypeError):
            aes128_encrypt_buffer(self.DATA, key_expansion(FIPS_KEY), out=out)

    def test_peak_memory_in_place_is_one_batch(self):
        """Encrypting in place allocates no output: a call holds one batch
        of state (its working set is under four batches of blocks), a
        quarter of this buffer."""
        data = bytearray(4 << 20)
        ks = key_expansion(FIPS_KEY)
        aes128_encrypt_buffer(data[:16], ks)  # build the cached tables first
        tracemalloc.start()
        try:
            aes128_encrypt_buffer(data, ks, out=data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * aes.BATCH_BLOCKS * aes.BLOCK_BYTES
