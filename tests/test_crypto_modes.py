"""AES-CTR tests pinned to the NIST SP 800-38A vectors.

CTR is the one mode the protocols run (the EtM data-plane AEAD); the
EphID's single-block CTR and one-block CBC-MAC are plain
``encrypt_block`` calls, pinned by ``tests/test_crypto_aes.py``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aes import AES

KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
SP800_38A_PLAINTEXT = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710"
)

#: SP 800-38A F.5.1, AES-128 CTR under ``KEY`` over
#: ``SP800_38A_PLAINTEXT``: (initial counter block, ciphertext).
SP800_38A_CTR = (
    bytes.fromhex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff"),
    bytes.fromhex(
        "874d6191b620e3261bef6864990db6ce"
        "9806f66b7970fdff8617187bb9fffdff"
        "5ae4df3edbd5d35e5b4f09020db03eab"
        "1e031dda2fbe03d1792170a0f3009cee"
    ),
)


def check_sp800_38a_ctr(cipher):
    """``cipher`` (keyed with ``KEY``) meets the CTR vector both ways."""
    counter, expected = SP800_38A_CTR
    assert cipher.ctr_xcrypt(counter, SP800_38A_PLAINTEXT) == expected
    # CTR is an involution.
    assert cipher.ctr_xcrypt(counter, expected) == SP800_38A_PLAINTEXT


def test_ctr_sp800_38a():
    check_sp800_38a_ctr(AES(KEY))


def test_ctr_counter_wraps_across_block_boundary():
    cipher = AES(KEY)
    near_max = (2**128 - 1).to_bytes(16, "big")
    stream = cipher.ctr_xcrypt(near_max, bytes(32))
    wrapped = cipher.ctr_xcrypt(bytes(16), bytes(16))
    assert stream[16:] == wrapped


def test_ctr_partial_block():
    cipher = AES(KEY)
    counter = bytes(16)
    full = cipher.ctr_xcrypt(counter, bytes(16))
    assert cipher.ctr_xcrypt(counter, bytes(5)) == full[:5]


@settings(max_examples=40, deadline=None)
@given(
    key=st.binary(min_size=16, max_size=16),
    counter=st.binary(min_size=16, max_size=16),
    data=st.binary(min_size=0, max_size=200),
)
def test_ctr_roundtrip(key, counter, data):
    cipher = AES(key)
    assert cipher.ctr_xcrypt(counter, cipher.ctr_xcrypt(counter, data)) == data
