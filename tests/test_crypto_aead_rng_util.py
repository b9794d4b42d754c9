"""Tests for the data-plane AEAD, RNGs and byte utilities."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aead import EtmScheme
from repro.crypto.rng import DeterministicRng, SystemRng
from repro.crypto.util import ct_eq, xor_bytes


def test_etm_roundtrip():
    aead = EtmScheme(bytes(range(32)))
    nonce = bytes(12)
    sealed = aead.seal(nonce, b"secret payload", b"header")
    assert len(sealed) == len(b"secret payload") + EtmScheme.TAG_SIZE == 30
    assert aead.open(nonce, sealed, b"header") == b"secret payload"


def test_etm_rejects_wrong_aad():
    aead = EtmScheme(bytes(range(32)))
    sealed = aead.seal(bytes(12), b"data", b"aad")
    with pytest.raises(ValueError):
        aead.open(bytes(12), sealed, b"other")


def test_etm_rejects_wrong_nonce():
    aead = EtmScheme(bytes(range(32)))
    sealed = aead.seal(bytes(12), b"data")
    with pytest.raises(ValueError):
        aead.open(b"\x01" + bytes(11), sealed)


def test_etm_rejects_malformed_input():
    aead = EtmScheme(bytes(range(32)))
    with pytest.raises(ValueError, match="nonce must be 12 bytes"):
        aead.seal(bytes(8), b"data")
    with pytest.raises(ValueError, match="shorter than the authentication tag"):
        aead.open(bytes(12), bytes(EtmScheme.TAG_SIZE - 1))


def test_etm_ciphertext_hides_plaintext():
    aead = EtmScheme(bytes(range(32)))
    sealed = aead.seal(bytes(12), b"A" * 64)
    assert b"A" * 8 not in sealed


@settings(max_examples=30, deadline=None)
@given(
    key=st.binary(min_size=32, max_size=32),
    nonce=st.binary(min_size=12, max_size=12),
    plaintext=st.binary(max_size=120),
    aad=st.binary(max_size=40),
)
def test_etm_property_roundtrip(key, nonce, plaintext, aad):
    aead = EtmScheme(key)
    assert aead.open(nonce, aead.seal(nonce, plaintext, aad), aad) == plaintext


@settings(max_examples=30, deadline=None)
@given(
    key=st.binary(min_size=32, max_size=32),
    nonce=st.binary(min_size=12, max_size=12),
    plaintext=st.binary(min_size=1, max_size=60),
    flip=st.integers(min_value=0),
)
def test_etm_tamper_detected(key, nonce, plaintext, flip):
    aead = EtmScheme(key)
    sealed = bytearray(aead.seal(nonce, plaintext))
    sealed[flip % len(sealed)] ^= 0x80
    with pytest.raises(ValueError):
        aead.open(nonce, bytes(sealed))


def test_deterministic_rng_reproducible():
    a = DeterministicRng(1234)
    b = DeterministicRng(1234)
    assert a.read(100) == b.read(100)
    assert a.randint(10**9) == b.randint(10**9)


def test_deterministic_rng_seed_types():
    assert DeterministicRng(b"seed").read(8) == DeterministicRng(b"seed").read(8)
    assert DeterministicRng("seed").read(8) != DeterministicRng("other").read(8)
    assert DeterministicRng(7).read(8) != DeterministicRng(8).read(8)


def test_deterministic_rng_uniform_range():
    rng = DeterministicRng(99)
    samples = [rng.uniform() for _ in range(200)]
    assert all(0.0 <= s < 1.0 for s in samples)
    assert 0.3 < sum(samples) / len(samples) < 0.7


def test_system_rng_basic():
    rng = SystemRng()
    assert len(rng.read(16)) == 16
    assert 0 <= rng.randint(100) < 100
    with pytest.raises(ValueError):
        rng.randint(0)


def test_rng_randint_rejects_nonpositive():
    with pytest.raises(ValueError):
        DeterministicRng(1).randint(-5)


def test_ct_eq():
    assert ct_eq(b"abc", b"abc")
    assert not ct_eq(b"abc", b"abd")
    assert not ct_eq(b"abc", b"abcd")
    assert ct_eq(b"", b"")


def test_xor_bytes():
    assert xor_bytes(b"\x0f\xf0", b"\xff\xff") == b"\xf0\x0f"
    with pytest.raises(ValueError):
        xor_bytes(b"\x00", b"\x00\x00")

