"""AES block cipher tests pinned to FIPS-197 and NIST known-answer vectors."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aes import AES, SBOX


FIPS_197_VECTORS = [
    # (key, plaintext, ciphertext) from FIPS-197 Appendix C.
    (
        "000102030405060708090a0b0c0d0e0f",
        "00112233445566778899aabbccddeeff",
        "69c4e0d86a7b0430d8cdb78070b4c55a",
    ),
    (
        "000102030405060708090a0b0c0d0e0f1011121314151617",
        "00112233445566778899aabbccddeeff",
        "dda97ca4864cdfe06eaf70a0ec0d7191",
    ),
    (
        "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
        "00112233445566778899aabbccddeeff",
        "8ea2b7ca516745bfeafc49904b496089",
    ),
    # FIPS-197 Appendix B worked example.
    (
        "2b7e151628aed2a6abf7158809cf4f3c",
        "3243f6a8885a308d313198a2e0370734",
        "3925841d02dc09fbdc118597196a0b32",
    ),
]


@pytest.mark.parametrize("key,plaintext,ciphertext", FIPS_197_VECTORS)
def test_fips197_encrypt(key, plaintext, ciphertext):
    cipher = AES(bytes.fromhex(key))
    assert cipher.encrypt_block(bytes.fromhex(plaintext)).hex() == ciphertext


def test_sbox_known_entries():
    assert SBOX[0x00] == 0x63
    assert SBOX[0x01] == 0x7C
    assert SBOX[0x53] == 0xED
    assert SBOX[0xFF] == 0x16


def test_sbox_is_a_permutation():
    assert sorted(SBOX) == list(range(256))


def test_rejects_bad_key_length():
    with pytest.raises(ValueError):
        AES(b"short")


def test_rejects_bad_block_length():
    cipher = AES(bytes(16))
    with pytest.raises(ValueError):
        cipher.encrypt_block(b"too short")
    with pytest.raises(ValueError):
        cipher.encrypt_block(bytes(17))
    with pytest.raises(ValueError):
        cipher.encrypt_blocks(bytes(17))


@settings(max_examples=50, deadline=None)
@given(
    key=st.binary(min_size=16, max_size=16)
    | st.binary(min_size=24, max_size=24)
    | st.binary(min_size=32, max_size=32),
    blocks=st.lists(st.binary(min_size=16, max_size=16), max_size=8),
)
def test_encrypt_blocks_is_blockwise(key, blocks):
    # The bulk entry point the EphID batch opener uses is ECB: each block
    # encrypted on its own, in order.
    cipher = AES(key)
    assert cipher.encrypt_blocks(b"".join(blocks)) == b"".join(
        cipher.encrypt_block(block) for block in blocks
    )


@settings(max_examples=20, deadline=None)
@given(key=st.binary(min_size=16, max_size=16), block=st.binary(min_size=16, max_size=16))
def test_encryption_is_not_identity(key, block):
    # A permutation can have fixed points in principle, but AES having one on
    # random input would be a 2^-128 event; this guards against a pass-through
    # implementation bug.
    assert AES(key).encrypt_block(block) != block
