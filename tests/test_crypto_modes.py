"""CTR / CBC / CBC-MAC tests pinned to NIST SP 800-38A vectors."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aes import AES
from repro.crypto.modes import (
    cbc_decrypt,
    cbc_encrypt,
    cbc_mac,
    ctr_keystream,
    ctr_xcrypt,
)

KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
SP800_38A_PLAINTEXT = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710"
)

#: SP 800-38A F.5.1 (CTR) and F.2.1 (CBC), AES-128 under ``KEY`` over
#: ``SP800_38A_PLAINTEXT``: mode -> (initial counter block or IV,
#: ciphertext).
SP800_38A_VECTORS = {
    "ctr": (
        bytes.fromhex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff"),
        bytes.fromhex(
            "874d6191b620e3261bef6864990db6ce"
            "9806f66b7970fdff8617187bb9fffdff"
            "5ae4df3edbd5d35e5b4f09020db03eab"
            "1e031dda2fbe03d1792170a0f3009cee"
        ),
    ),
    "cbc": (
        bytes.fromhex("000102030405060708090a0b0c0d0e0f"),
        bytes.fromhex(
            "7649abac8119b246cee98e9b12e9197d"
            "5086cb9b507219ee95db113a917678b2"
            "73bed6b8e3c1743b7116e69e22229516"
            "3ff1caa1681fac09120eca307586e1a7"
        ),
    ),
}


def check_sp800_38a(cipher, mode):
    """``cipher`` (keyed with ``KEY``) meets the ``mode`` vector both ways."""
    start, expected = SP800_38A_VECTORS[mode]
    if mode == "ctr":
        assert ctr_xcrypt(cipher, start, SP800_38A_PLAINTEXT) == expected
        # CTR is an involution.
        assert ctr_xcrypt(cipher, start, expected) == SP800_38A_PLAINTEXT
    else:
        assert cbc_encrypt(cipher, start, SP800_38A_PLAINTEXT) == expected
        assert cbc_decrypt(cipher, start, expected) == SP800_38A_PLAINTEXT


def test_ctr_sp800_38a():
    check_sp800_38a(AES(KEY), "ctr")


def test_ctr_counter_wraps_across_block_boundary():
    cipher = AES(KEY)
    near_max = (2**128 - 1).to_bytes(16, "big")
    stream = ctr_keystream(cipher, near_max, 32)
    wrapped = ctr_keystream(cipher, bytes(16), 16)
    assert stream[16:] == wrapped


def test_ctr_partial_block():
    cipher = AES(KEY)
    counter = bytes(16)
    full = ctr_keystream(cipher, counter, 16)
    assert ctr_keystream(cipher, counter, 5) == full[:5]


def test_cbc_sp800_38a():
    check_sp800_38a(AES(KEY), "cbc")


def test_cbc_rejects_unaligned():
    cipher = AES(KEY)
    with pytest.raises(ValueError):
        cbc_encrypt(cipher, bytes(16), b"not a multiple")
    with pytest.raises(ValueError):
        cbc_decrypt(cipher, bytes(16), b"not a multiple")
    with pytest.raises(ValueError):
        cbc_encrypt(cipher, bytes(8), bytes(16))


def test_cbc_mac_single_block_equals_encryption():
    # For a single block, CBC-MAC(m) == AES(m) since the initial state is 0.
    cipher = AES(KEY)
    block = bytes(range(16))
    assert cbc_mac(cipher, block) == cipher.encrypt_block(block)


def test_cbc_mac_fixed_length_guard():
    cipher = AES(KEY)
    cbc_mac(cipher, bytes(16), expected_length=16)
    with pytest.raises(ValueError):
        cbc_mac(cipher, bytes(32), expected_length=16)


def test_cbc_mac_rejects_empty_and_unaligned():
    cipher = AES(KEY)
    with pytest.raises(ValueError):
        cbc_mac(cipher, b"")
    with pytest.raises(ValueError):
        cbc_mac(cipher, bytes(15))


def test_cbc_mac_is_deterministic_and_key_dependent():
    message = bytes(32)
    assert cbc_mac(AES(KEY), message) == cbc_mac(AES(KEY), message)
    assert cbc_mac(AES(KEY), message) != cbc_mac(AES(bytes(16)), message)


@settings(max_examples=40, deadline=None)
@given(
    key=st.binary(min_size=16, max_size=16),
    counter=st.binary(min_size=16, max_size=16),
    data=st.binary(min_size=0, max_size=200),
)
def test_ctr_roundtrip(key, counter, data):
    cipher = AES(key)
    assert ctr_xcrypt(cipher, counter, ctr_xcrypt(cipher, counter, data)) == data


@settings(max_examples=30, deadline=None)
@given(
    key=st.binary(min_size=16, max_size=16),
    iv=st.binary(min_size=16, max_size=16),
    blocks=st.integers(min_value=1, max_value=6),
    data=st.data(),
)
def test_cbc_roundtrip(key, iv, blocks, data):
    plaintext = data.draw(st.binary(min_size=16 * blocks, max_size=16 * blocks))
    cipher = AES(key)
    assert cbc_decrypt(cipher, iv, cbc_encrypt(cipher, iv, plaintext)) == plaintext
