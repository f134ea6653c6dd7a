"""The oracles themselves must be trustworthy before anything leans on them."""

import ast
import hashlib
import inspect
import random

import pytest

from pimcrypt import reference as ref

FIPS_KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
FIPS_PLAINTEXT = bytes.fromhex("00112233445566778899aabbccddeeff")
FIPS_CIPHERTEXT = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")


def test_gf_mul_basics():
    assert ref.gf_mul(2, 1) == 2
    assert ref.gf_mul(3, 1) == 3
    assert ref.gf_mul(2, 0x80) == 0x1B  # wraps through the reduction polynomial
    assert ref.gf_mul(0, 0xFF) == 0
    assert ref.gf_mul(1, 0xAB) == 0xAB


def test_gf_mul_field_laws():
    rng = random.Random(7)
    for _ in range(200):
        a, b, c = (rng.randrange(256) for _ in range(3))
        assert ref.gf_mul(a, b) == ref.gf_mul(b, a)
        assert ref.gf_mul(a, b ^ c) == ref.gf_mul(a, b) ^ ref.gf_mul(a, c)


def test_computed_sbox_shape():
    box = ref.computed_sbox()
    assert len(box) == 256
    assert len(set(box)) == 256  # bijection
    assert box[0x00] == 0x63
    assert box[0x01] == 0x7C
    assert box[0x53] == 0xED


def test_key_schedule_zero_key():
    ks = ref.key_schedule(bytes(16))
    assert len(ks) == 176
    assert ks[:16] == bytes(16)
    assert ks[16:20] == bytes.fromhex("62636363")


def test_key_schedule_known_key():
    ks = ref.key_schedule(bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c"))
    assert ks[-4:] == bytes.fromhex("b6630ca6")


def test_key_schedule_rejects_bad_length():
    with pytest.raises(ValueError):
        ref.key_schedule(bytes(15))


def test_encrypt_block_published_vector():
    assert ref.encrypt_block(FIPS_PLAINTEXT, FIPS_KEY) == FIPS_CIPHERTEXT


def test_hash_constants_derive_to_published_values():
    assert ref.hash_init_words()[0] == 0x6A09E667
    assert ref.hash_init_words()[7] == 0x5BE0CD19
    assert ref.hash_round_words()[0] == 0x428A2F98
    assert ref.hash_round_words()[63] == 0xC67178F2


def test_sha256_published_vectors():
    assert ref.sha256(b"abc").hex() == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )
    assert ref.sha256(b"").hex() == (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    )


def test_sha256_against_hashlib():
    rng = random.Random(11)
    for _ in range(64):
        msg = rng.randbytes(rng.randrange(0, 300))
        assert ref.sha256(msg) == hashlib.sha256(msg).digest()


# two ranks' (prepare, to_dpu, kernel, from_dpu), worked by hand from t0 = 0
_PHASES = [(1.0, 2.0, 4.0, 1.0), (1.0, 1.0, 1.0, 2.0)]


@pytest.mark.parametrize("strategy,rows", [
    # the host waits for each transfer; one launch at 5; ranks drain in turn from 9
    ("sync", [[0, 1, 1, 3, 5, 9, 9, 10], [3, 4, 4, 5, 5, 6, 10, 12]]),
    # rank 1 is staged while rank 0 transfers; one launch at 3; each drains at once
    ("async_rank_transfer", [[0, 1, 1, 3, 3, 7, 7, 8], [1, 2, 2, 3, 3, 4, 4, 6]]),
    # each rank launches as its own transfer ends and drains at once
    ("async_rank_execution", [[0, 1, 1, 3, 3, 7, 7, 8], [3, 4, 4, 5, 5, 6, 6, 8]]),
])
def test_schedule_worked_example(strategy, rows):
    assert ref.schedule(strategy, _PHASES) == rows
    assert ref.schedule(strategy, [(0.0, 0.0, 0.0, 0.0)], t0=0.5) == [[0.5] * 8]
    assert ref.schedule(strategy, []) == []


def test_schedule_rejects_unknown_strategy():
    with pytest.raises(ValueError, match="pim1"):
        ref.schedule("pim1", _PHASES)


@pytest.mark.parametrize("intervals,length", [
    ([], 0.0),
    ([(2.0, 2.0)], 0.0),
    ([(0.0, 1.0), (1.0, 2.0)], 2.0),  # touching intervals are one stretch
    ([(3.0, 4.0), (0.5, 2.0), (0.0, 1.0)], 3.0),
    ([(0.0, 4.0), (1.0, 2.0)], 4.0),
])
def test_union_length(intervals, length):
    assert ref.union_length(intervals) == length


def test_imports_nothing_it_checks():
    """The oracles are independent: the module imports only the stdlib."""
    tree = ast.parse(inspect.getsource(ref))
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    imported |= {a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for a in node.names}
    assert imported == {"__future__", "math", "functools"}
