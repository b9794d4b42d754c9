"""Ed25519 signatures (RFC 8032).

The paper signs EphID certificates and shutoff requests with ed25519
("we use the ed25519 signature scheme", Section V-A2).  The public
``public_key`` / ``sign`` / ``verify`` functions run OpenSSL; the
``pure_*`` variants below are the from-scratch implementation over
extended twisted-Edwards coordinates and the spec, and both are pinned
to the RFC 8032 Section 7.1 test vectors.  Signing is deterministic, so
the two produce identical signatures — ``tests/test_crypto_backends.py``
asserts this byte-for-byte.
"""

from __future__ import annotations

import hashlib

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

P = 2**255 - 19
L = 2**252 + 27742317777372353535851937790883648493
_D = (-121665 * pow(121666, P - 2, P)) % P
_SQRT_M1 = pow(2, (P - 1) // 4, P)

KEY_SIZE = 32
SIGNATURE_SIZE = 64

# Extended homogeneous coordinates (X, Y, Z, T) with x = X/Z, y = Y/Z, xy = T/Z.
_Point = tuple[int, int, int, int]

_IDENTITY: _Point = (0, 1, 1, 0)


def _point_add(p: _Point, q: _Point) -> _Point:
    x1, y1, z1, t1 = p
    x2, y2, z2, t2 = q
    a = ((y1 - x1) * (y2 - x2)) % P
    b = ((y1 + x1) * (y2 + x2)) % P
    c = (2 * t1 * t2 * _D) % P
    d = (2 * z1 * z2) % P
    e = b - a
    f = d - c
    g = d + c
    h = b + a
    return ((e * f) % P, (g * h) % P, (f * g) % P, (e * h) % P)


def _point_double(p: _Point) -> _Point:
    x1, y1, z1, _ = p
    a = (x1 * x1) % P
    b = (y1 * y1) % P
    c = (2 * z1 * z1) % P
    h = (a + b) % P
    e = (h - (x1 + y1) * (x1 + y1)) % P
    g = (a - b) % P
    f = (c + g) % P
    return ((e * f) % P, (g * h) % P, (f * g) % P, (e * h) % P)


def _scalar_mult(scalar: int, point: _Point) -> _Point:
    result = _IDENTITY
    addend = point
    while scalar:
        if scalar & 1:
            result = _point_add(result, addend)
        addend = _point_double(addend)
        scalar >>= 1
    return result


def _recover_x(y: int, sign: int) -> int:
    if y >= P:
        raise ValueError("invalid point encoding")
    x2 = ((y * y - 1) * pow(_D * y * y + 1, P - 2, P)) % P
    x = pow(x2, (P + 3) // 8, P)
    if (x * x - x2) % P:
        x = (x * _SQRT_M1) % P
    if (x * x - x2) % P:
        raise ValueError("point is not on the curve")
    if x == 0 and sign:
        raise ValueError("invalid sign bit for x=0")
    if x & 1 != sign:
        x = P - x
    return x


_BASE_Y = (4 * pow(5, P - 2, P)) % P
_BASE: _Point = (_recover_x(_BASE_Y, 0), _BASE_Y, 1, (_recover_x(_BASE_Y, 0) * _BASE_Y) % P)


def _compress(point: _Point) -> bytes:
    x, y, z, _ = point
    z_inv = pow(z, P - 2, P)
    x = (x * z_inv) % P
    y = (y * z_inv) % P
    return (y | ((x & 1) << 255)).to_bytes(32, "little")


def _decompress(data: bytes) -> _Point:
    if len(data) != 32:
        raise ValueError("point encoding must be 32 bytes")
    value = int.from_bytes(data, "little")
    sign = value >> 255
    y = value & ((1 << 255) - 1)
    x = _recover_x(y, sign)
    return (x, y, 1, (x * y) % P)


def _points_equal(p: _Point, q: _Point) -> bool:
    x1, y1, z1, _ = p
    x2, y2, z2, _ = q
    return (x1 * z2 - x2 * z1) % P == 0 and (y1 * z2 - y2 * z1) % P == 0


def _sha512_int(*chunks: bytes) -> int:
    h = hashlib.sha512()
    for chunk in chunks:
        h.update(chunk)
    return int.from_bytes(h.digest(), "little")


def _expand_secret(secret: bytes) -> tuple[int, bytes]:
    digest = hashlib.sha512(secret).digest()
    scalar = bytearray(digest[:32])
    scalar[0] &= 248
    scalar[31] &= 127
    scalar[31] |= 64
    return int.from_bytes(scalar, "little"), digest[32:]


def public_key(secret: bytes) -> bytes:
    """Derive the 32-byte public key from a 32-byte secret seed."""
    if len(secret) != KEY_SIZE:
        raise ValueError("Ed25519 secret must be 32 bytes")
    return (
        Ed25519PrivateKey.from_private_bytes(secret).public_key().public_bytes_raw()
    )


def sign(secret: bytes, message: bytes) -> bytes:
    """Produce a 64-byte Ed25519 signature."""
    if len(secret) != KEY_SIZE:
        raise ValueError("Ed25519 secret must be 32 bytes")
    return Ed25519PrivateKey.from_private_bytes(secret).sign(message)


def _canonical_point(encoded: bytes) -> bool:
    """RFC 8032 §5.1.3 strict decoding, which OpenSSL is lax about.

    Decoding a point fails for y >= p (a non-canonical encoding) and for
    a set sign bit when x = 0 (y in {1, p-1}); OpenSSL reduces such
    encodings instead of rejecting them, so :func:`verify` screens the
    public key and the signature's R with this first.
    """
    value = int.from_bytes(encoded, "little")
    sign_bit = value >> 255
    y = value & ((1 << 255) - 1)
    if y >= P:
        return False
    if sign_bit and y in (1, P - 1):  # x = 0 admits no odd representative
        return False
    return True


def verify(public: bytes, message: bytes, signature: bytes) -> bool:
    """Check an Ed25519 signature; returns False on any malformed input."""
    if len(public) != KEY_SIZE or len(signature) != SIGNATURE_SIZE:
        return False
    if not (_canonical_point(public) and _canonical_point(signature[:32])):
        return False
    try:
        Ed25519PublicKey.from_public_bytes(public).verify(signature, message)
    except (ValueError, InvalidSignature):
        return False
    return True


# -- the from-scratch implementation (the spec) --


# audit: allow(production-caller) the spec the OpenSSL facade is checked against
def pure_public_key(secret: bytes) -> bytes:
    """Derive the 32-byte public key from a 32-byte secret seed."""
    if len(secret) != KEY_SIZE:
        raise ValueError("Ed25519 secret must be 32 bytes")
    a, _ = _expand_secret(secret)
    return _compress(_scalar_mult(a, _BASE))


# audit: allow(production-caller) the spec the OpenSSL facade is checked against
def pure_sign(secret: bytes, message: bytes) -> bytes:
    """Produce a 64-byte Ed25519 signature."""
    if len(secret) != KEY_SIZE:
        raise ValueError("Ed25519 secret must be 32 bytes")
    a, prefix = _expand_secret(secret)
    pub = _compress(_scalar_mult(a, _BASE))
    r = _sha512_int(prefix, message) % L
    r_point = _compress(_scalar_mult(r, _BASE))
    k = _sha512_int(r_point, pub, message) % L
    s = (r + k * a) % L
    return r_point + s.to_bytes(32, "little")


# audit: allow(production-caller) the spec the OpenSSL facade is checked against
def pure_verify(public: bytes, message: bytes, signature: bytes) -> bool:
    """Check an Ed25519 signature; returns False on any malformed input."""
    if len(public) != KEY_SIZE or len(signature) != SIGNATURE_SIZE:
        return False
    try:
        a_point = _decompress(public)
        r_point = _decompress(signature[:32])
    except ValueError:
        return False
    s = int.from_bytes(signature[32:], "little")
    if s >= L:
        return False
    k = _sha512_int(signature[:32], public, message) % L
    lhs = _scalar_mult(s, _BASE)
    rhs = _point_add(r_point, _scalar_mult(k, a_point))
    return _points_equal(lhs, rhs)
