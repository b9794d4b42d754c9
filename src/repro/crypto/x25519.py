"""X25519 Diffie-Hellman (RFC 7748).

APNA uses Curve25519 key exchange both for the host<->AS shared key kHA
(paper Fig. 2) and for the per-session key k_EaEb between EphID key pairs
(Section IV-D1).  ``public_key`` and ``shared_secret`` run OpenSSL; the
raw :func:`x25519` ladder and the ``pure_*`` variants are the
from-scratch implementation and the spec, following RFC 7748 Section 5
and pinned to the RFC test vectors.  Both apply the same scalar clamping
and reject the all-zero shared secret, so their outputs agree
byte-for-byte (``tests/test_crypto_backends.py``).
"""

from __future__ import annotations

from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)

P = 2**255 - 19
_A24 = 121665
KEY_SIZE = 32
BASE_POINT = (9).to_bytes(32, "little")


def _decode_scalar(scalar: bytes) -> int:
    if len(scalar) != KEY_SIZE:
        raise ValueError("X25519 scalar must be 32 bytes")
    value = bytearray(scalar)
    value[0] &= 248
    value[31] &= 127
    value[31] |= 64
    return int.from_bytes(value, "little")


def _decode_u(u: bytes) -> int:
    if len(u) != KEY_SIZE:
        raise ValueError("X25519 point must be 32 bytes")
    value = bytearray(u)
    value[31] &= 127  # mask the high bit per RFC 7748
    return int.from_bytes(value, "little") % P


def x25519(scalar: bytes, u_point: bytes = BASE_POINT) -> bytes:
    """Scalar multiplication on Curve25519's u-coordinate."""
    k = _decode_scalar(scalar)
    u = _decode_u(u_point)

    x1 = u
    x2, z2 = 1, 0
    x3, z3 = u, 1
    swap = 0

    for t in range(254, -1, -1):
        k_t = (k >> t) & 1
        if swap ^ k_t:
            x2, x3 = x3, x2
            z2, z3 = z3, z2
        swap = k_t

        a = (x2 + z2) % P
        aa = (a * a) % P
        b = (x2 - z2) % P
        bb = (b * b) % P
        e = (aa - bb) % P
        c = (x3 + z3) % P
        d = (x3 - z3) % P
        da = (d * a) % P
        cb = (c * b) % P
        x3 = (da + cb) % P
        x3 = (x3 * x3) % P
        z3 = (da - cb) % P
        z3 = (z3 * z3 * x1) % P
        x2 = (aa * bb) % P
        z2 = (e * (aa + _A24 * e)) % P

    if swap:
        x2, x3 = x3, x2
        z2, z3 = z3, z2

    result = (x2 * pow(z2, P - 2, P)) % P
    return result.to_bytes(KEY_SIZE, "little")


def public_key(private: bytes) -> bytes:
    """Derive the public u-coordinate for a 32-byte private scalar."""
    if len(private) != KEY_SIZE:
        raise ValueError("X25519 scalar must be 32 bytes")
    return (
        X25519PrivateKey.from_private_bytes(private).public_key().public_bytes_raw()
    )


def shared_secret(private: bytes, peer_public: bytes) -> bytes:
    """Compute the raw shared secret; raises on the all-zero output.

    RFC 7748 recommends rejecting the all-zero result, which arises when
    the peer supplies a low-order point.
    """
    if len(private) != KEY_SIZE:
        raise ValueError("X25519 scalar must be 32 bytes")
    if len(peer_public) != KEY_SIZE:
        raise ValueError("X25519 point must be 32 bytes")
    key = X25519PrivateKey.from_private_bytes(private)
    try:
        return key.exchange(X25519PublicKey.from_public_bytes(peer_public))
    except ValueError:
        # OpenSSL refuses the all-zero output of a low-order peer point.
        raise ValueError("X25519 produced the all-zero shared secret") from None


# audit: allow(production-caller) the spec the OpenSSL facade is checked against
def pure_public_key(private: bytes) -> bytes:
    """Derive the public u-coordinate for a 32-byte private scalar."""
    return x25519(private, BASE_POINT)


# audit: allow(production-caller) the spec the OpenSSL facade is checked against
def pure_shared_secret(private: bytes, peer_public: bytes) -> bytes:
    """Compute the raw shared secret; raises on the all-zero output."""
    secret = x25519(private, peer_public)
    if secret == bytes(KEY_SIZE):
        raise ValueError("X25519 produced the all-zero shared secret")
    return secret
