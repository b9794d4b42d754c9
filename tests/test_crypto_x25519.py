"""X25519 tests pinned to the RFC 7748 vectors."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.x25519 import BASE_POINT, public_key, shared_secret, x25519

_BASE = BASE_POINT.hex()
_ALICE = "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a"
_ALICE_PUBLIC = "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a"
_BOB = "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb"
_BOB_PUBLIC = "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f"
_SHARED = "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742"

#: RFC 7748 known answers as (scalar, u, X25519(scalar, u)) in hex:
#: Section 5.2's two vectors and its first iteration, then Section 6.1's
#: Diffie-Hellman — a public key is its scalar times the base point, the
#: shared secret either scalar times the other side's public key.
RFC7748_VECTORS = {
    "5.2-1": (
        "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4",
        "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c",
        "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552",
    ),
    "5.2-2": (
        "4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d",
        "e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493",
        "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957",
    ),
    "5.2-iterated-once": (
        _BASE,
        _BASE,
        "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079",
    ),
    "6.1-alice-public": (_ALICE, _BASE, _ALICE_PUBLIC),
    "6.1-bob-public": (_BOB, _BASE, _BOB_PUBLIC),
    "6.1-alice-shared": (_ALICE, _BOB_PUBLIC, _SHARED),
    "6.1-bob-shared": (_BOB, _ALICE_PUBLIC, _SHARED),
}


def _ladder(name):
    scalar, u, out = RFC7748_VECTORS[name]
    assert x25519(bytes.fromhex(scalar), bytes.fromhex(u)).hex() == out


def test_rfc7748_vector_1():
    _ladder("5.2-1")


def test_rfc7748_vector_2():
    _ladder("5.2-2")


def test_rfc7748_diffie_hellman():
    for side in ("alice", "bob"):
        scalar, _, public = RFC7748_VECTORS[f"6.1-{side}-public"]
        assert public_key(bytes.fromhex(scalar)).hex() == public
        scalar, peer, shared = RFC7748_VECTORS[f"6.1-{side}-shared"]
        assert shared_secret(bytes.fromhex(scalar), bytes.fromhex(peer)).hex() == shared


def test_rfc7748_iterated_once():
    _ladder("5.2-iterated-once")


def test_low_order_point_rejected():
    with pytest.raises(ValueError):
        shared_secret(bytes([1] + [0] * 31), bytes(32))  # u = 0 is low order


def test_scalar_length_enforced():
    with pytest.raises(ValueError):
        x25519(bytes(31), BASE_POINT)
    with pytest.raises(ValueError):
        x25519(bytes(32), bytes(31))


@settings(max_examples=10, deadline=None)
@given(
    a=st.binary(min_size=32, max_size=32),
    b=st.binary(min_size=32, max_size=32),
)
def test_diffie_hellman_agreement(a, b):
    assert x25519(a, public_key(b)) == x25519(b, public_key(a))


def test_clamping_makes_cofactor_irrelevant():
    # Two scalars differing only in clamped bits produce the same result.
    scalar = bytearray(b"\x42" * 32)
    variant = bytearray(scalar)
    variant[0] |= 0x07  # low bits are cleared by clamping
    variant[31] |= 0x80  # top bit is cleared by clamping
    assert x25519(bytes(scalar)) == x25519(bytes(variant))
