"""HMAC-SHA256 (RFC 4231) and HKDF (RFC 5869) vector tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.kdf import (
    derive_subkey,
    hkdf,
    hkdf_expand,
    hkdf_extract,
    hmac_sha256,
)


#: RFC 4231 HMAC-SHA256 test cases: case -> (key, data, HMAC hex).
RFC4231_VECTORS = {
    1: (
        bytes([0x0B] * 20),
        b"Hi There",
        "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
    ),
    2: (
        b"Jefe",
        b"what do ya want for nothing?",
        "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
    ),
    3: (
        bytes([0xAA] * 20),
        bytes([0xDD] * 50),
        "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
    ),
    6: (
        bytes([0xAA] * 131),
        b"Test Using Larger Than Block-Size Key - Hash Key First",
        "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
    ),
}


def _rfc4231(case):
    key, data, mac = RFC4231_VECTORS[case]
    assert hmac_sha256(key, data).hex() == mac


def test_rfc4231_case_1():
    _rfc4231(1)


def test_rfc4231_case_2():
    _rfc4231(2)


def test_rfc4231_case_3_long_key_block():
    _rfc4231(3)


def test_rfc4231_case_6_oversize_key():
    _rfc4231(6)


def test_rfc5869_case_1():
    ikm = bytes([0x0B] * 22)
    salt = bytes.fromhex("000102030405060708090a0b0c")
    info = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9")
    prk = hkdf_extract(salt, ikm)
    assert prk.hex() == (
        "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
    )
    okm = hkdf_expand(prk, info, 42)
    assert okm.hex() == (
        "3cb25f25faacd57a90434f64d0362f2a"
        "2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
        "34007208d5b887185865"
    )
    assert hkdf(ikm, salt=salt, info=info, length=42) == okm


def test_rfc5869_case_3_empty_salt_info():
    ikm = bytes([0x0B] * 22)
    okm = hkdf(ikm, length=42)
    assert okm.hex() == (
        "8da4e775a563c18f715f802a063c5a31"
        "b8a11f5c5ee1879ec3454e5f3c738d2d"
        "9d201395faa4b61a96c8"
    )


def test_hkdf_length_limit():
    with pytest.raises(ValueError):
        hkdf_expand(bytes(32), b"", 255 * 32 + 1)


def test_derive_subkey_domain_separation():
    master = bytes(range(32))
    enc = derive_subkey(master, "ephid-enc")
    mac = derive_subkey(master, "ephid-mac")
    assert enc != mac
    assert len(enc) == len(mac) == 16
    # Deterministic.
    assert derive_subkey(master, "ephid-enc") == enc


@settings(max_examples=40, deadline=None)
@given(
    ikm=st.binary(min_size=1, max_size=64),
    salt=st.binary(min_size=0, max_size=32),
    info=st.binary(min_size=0, max_size=32),
    length=st.integers(min_value=1, max_value=100),
)
def test_hkdf_output_length_and_prefix(ikm, salt, info, length):
    okm = hkdf(ikm, salt=salt, info=info, length=length)
    assert len(okm) == length
    # Expanding further yields a prefix-consistent stream.
    longer = hkdf(ikm, salt=salt, info=info, length=length + 16)
    assert longer[:length] == okm
