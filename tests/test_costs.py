"""The model's per-unit instruction constants must be measured, not invented."""

import random

from pimcrypt import costs
from pimcrypt.aes import aes128_encrypt_block, key_expansion
from pimcrypt.machine import bundled_default_config
from pimcrypt.sha256 import INIT_STATE, sha256_digest


def test_instrumented_aes_produces_kernel_output():
    rng = random.Random(1)
    for _ in range(20):
        key = rng.randbytes(16)
        block = rng.randbytes(16)
        ks = key_expansion(key)
        out, _ = costs.count_aes_block_ops(block, ks)
        assert out == aes128_encrypt_block(block, ks)


def test_aes_count_is_data_independent():
    ks = key_expansion(bytes(16))
    _, ops_a = costs.count_aes_block_ops(bytes(16), ks)
    _, ops_b = costs.count_aes_block_ops(bytes(range(16)), ks)
    assert sum(ops_a.values()) == sum(ops_b.values())


def test_instrumented_sha_produces_kernel_output():
    for msg in (b"", b"abc", bytes(200)):
        digest, _ = costs.count_sha256_digest_ops(msg)
        assert digest == sha256_digest(msg)


def test_sha_count_is_data_independent():
    _, ops_a = costs.count_sha256_compress_ops(INIT_STATE, bytes(64))
    _, ops_b = costs.count_sha256_compress_ops(INIT_STATE, bytes(range(64)))
    assert sum(ops_a.values()) == sum(ops_b.values())


def test_sha_digest_count_scales_with_blocks():
    _, one = costs.count_sha256_digest_ops(bytes(10))    # 1 padded block
    _, two = costs.count_sha256_digest_ops(bytes(60))    # 2 padded blocks
    assert sum(two.values()) == 2 * sum(one.values())


def test_config_prices_the_measured_op_counts():
    """A config prices each kernel at the op count pimcrypt.costs measures,
    which is the count the README states: a counter edit that moves the
    model fails here, not only through the CSV digests."""
    config = bundled_default_config()
    assert costs.aes_instructions_per_block() == 1216, "AES op count moved from 1216"
    assert costs.sha256_instructions_per_block() == 3464, "SHA-256 op count moved from 3464"
    assert config.kernel_costs["aes128"].instructions_per_unit == 1216
    assert config.kernel_costs["sha256"].instructions_per_unit == 3464
