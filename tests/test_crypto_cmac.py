"""AES-CMAC tests pinned to the RFC 4493 vectors."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.cmac import Cmac, PureCmac

KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
MSG_64 = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710"
)

RFC4493_VECTORS = [
    (b"", "bb1d6929e95937287fa37d129b756746"),
    (MSG_64[:16], "070a16b46b4d4144f79bdd9dd04a287c"),
    (MSG_64[:40], "dfa66747de9ae63030ca32611497c827"),
    (MSG_64, "51f0bebf7e3b9d92fc49741779363cfe"),
]


@pytest.mark.parametrize("message,tag", RFC4493_VECTORS)
def test_rfc4493_vectors(message, tag):
    assert Cmac(KEY).tag(message).hex() == tag


def test_subkeys_match_rfc4493():
    # Subkey derivation is a pure-implementation detail (the OpenSSL
    # backend keeps K1/K2 inside the EVP context).
    mac = PureCmac(KEY)
    assert mac._k1.hex() == "fbeed618357133667c85e08f7236a8de"
    assert mac._k2.hex() == "f7ddac306ae266ccf90bc11ee46d513b"


def test_truncated_tag_is_prefix():
    mac = Cmac(KEY)
    assert mac.tag(b"hello world", length=8) == mac.tag(b"hello world")[:8]


def test_truncation_bounds():
    mac = Cmac(KEY)
    with pytest.raises(ValueError):
        mac.tag(b"x", length=0)
    with pytest.raises(ValueError):
        mac.tag(b"x", length=17)


def test_verify_accepts_and_rejects():
    mac = Cmac(KEY)
    tag = mac.tag(b"packet payload", 8)
    assert mac.verify(b"packet payload", tag)
    assert not mac.verify(b"packet payloae", tag)
    assert not mac.verify(b"packet payload", bytes(8))


@settings(max_examples=50, deadline=None)
@given(
    key=st.binary(min_size=16, max_size=16),
    message=st.binary(min_size=0, max_size=300),
)
def test_tag_verifies(key, message):
    mac = Cmac(key)
    assert mac.verify(message, mac.tag(message))


@settings(max_examples=50, deadline=None)
@given(
    key=st.binary(min_size=16, max_size=16),
    message=st.binary(min_size=1, max_size=100),
    flip=st.integers(min_value=0),
)
def test_any_bit_flip_is_detected(key, message, flip):
    mac = Cmac(key)
    tag = mac.tag(message)
    position = flip % (len(message) * 8)
    tampered = bytearray(message)
    tampered[position // 8] ^= 1 << (position % 8)
    assert not mac.verify(bytes(tampered), tag)


def test_length_extension_distinct():
    # m1 padded differently from m1||pad must not collide (RFC 4493 K1/K2 split).
    mac = Cmac(KEY)
    assert mac.tag(bytes(16)) != mac.tag(bytes(16) + b"\x80" + bytes(15))
