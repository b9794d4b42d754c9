"""HMAC (RFC 2104) and HKDF (RFC 5869) key derivation.

The paper derives several symmetric keys from Diffie-Hellman results and
from the AS master secret kA (the EphID encryption key kA' and MAC key
kA'' "can be derived from the secret key of the AS").  HKDF-SHA256 is the
conventional realisation of those derivations.

:func:`hmac_sha256` is the stdlib's OpenSSL-accelerated HMAC;
:func:`pure_hmac_sha256` is the direct RFC 2104 construction over the
stdlib hash substrate and the spec ``tests/test_crypto_backends.py``
compares it against.  HKDF extract/expand is built on
:func:`hmac_sha256`.
"""

from __future__ import annotations

import hashlib
import hmac

_SHA256_BLOCK = 64
_SHA256_LEN = 32


def hmac_sha256(key: bytes, message: bytes) -> bytes:
    """HMAC-SHA256 per RFC 2104."""
    return hmac.digest(key, message, "sha256")


# audit: allow(production-caller) the spec the OpenSSL facade is checked against
def pure_hmac_sha256(key: bytes, message: bytes) -> bytes:
    """HMAC-SHA256 implemented directly from RFC 2104 (the spec)."""
    if len(key) > _SHA256_BLOCK:
        key = hashlib.sha256(key).digest()
    key = key + bytes(_SHA256_BLOCK - len(key))
    ipad = bytes(b ^ 0x36 for b in key)
    opad = bytes(b ^ 0x5C for b in key)
    inner = hashlib.sha256(ipad + message).digest()
    return hashlib.sha256(opad + inner).digest()


def hkdf_extract(salt: bytes, ikm: bytes) -> bytes:
    """HKDF-Extract: PRK = HMAC(salt, IKM)."""
    if not salt:
        salt = bytes(_SHA256_LEN)
    return hmac_sha256(salt, ikm)


def hkdf_expand(prk: bytes, info: bytes, length: int) -> bytes:
    """HKDF-Expand to ``length`` bytes."""
    if length > 255 * _SHA256_LEN:
        raise ValueError("HKDF output too long")
    blocks = []
    previous = b""
    counter = 1
    while sum(len(b) for b in blocks) < length:
        previous = hmac_sha256(prk, previous + info + bytes([counter]))
        blocks.append(previous)
        counter += 1
    return b"".join(blocks)[:length]


def hkdf(ikm: bytes, *, salt: bytes = b"", info: bytes = b"", length: int = 32) -> bytes:
    """One-shot HKDF-SHA256 (extract-then-expand)."""
    return hkdf_expand(hkdf_extract(salt, ikm), info, length)


def derive_subkey(master: bytes, label: str, length: int = 16) -> bytes:
    """Derive a named subkey from a master secret.

    Used for kA -> (kA', kA'') and kHA -> (control, mac) splits; the label
    provides domain separation between the derived keys.
    """
    return hkdf(master, info=label.encode("ascii"), length=length)
