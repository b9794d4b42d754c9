"""Cryptographic substrate for the APNA reproduction.

Everything the paper's protocols need:

* :mod:`repro.crypto.aes` — AES block cipher (FIPS-197).
* :mod:`repro.crypto.modes` — CTR, CBC, fixed-length CBC-MAC.
* :mod:`repro.crypto.cmac` — AES-CMAC (RFC 4493) for packet MACs.
* :mod:`repro.crypto.gcm` — AES-GCM (NIST SP 800-38D).
* :mod:`repro.crypto.aead` — pluggable CCA-secure data-plane encryption.
* :mod:`repro.crypto.kdf` — HMAC-SHA256 / HKDF key derivation.
* :mod:`repro.crypto.x25519` — Curve25519 Diffie-Hellman (RFC 7748).
* :mod:`repro.crypto.ed25519` — Ed25519 signatures (RFC 8032).
* :mod:`repro.crypto.rng` — system and deterministic randomness.

One provider, and a spec beside it
----------------------------------

The primitives every protocol path uses — :class:`AES`, :class:`Cmac`,
:class:`AesGcm`, ``ed25519.public_key`` / ``sign`` / ``verify``,
``x25519.public_key`` / ``shared_secret`` and :func:`hmac_sha256` — are
the OpenSSL implementations of the ``cryptography`` package (AES-NI
where the CPU has it), mirroring the paper's DPDK/AES-NI data plane so
the border-router verdict loop and EphID issuance run at hardware
speed.  There is nothing to select.

Beside each sits a from-scratch implementation — :class:`PureAES`,
:class:`PureCmac`, :class:`PureAesGcm`, ``ed25519.pure_*``,
``x25519.pure_*``, :func:`~repro.crypto.kdf.pure_hmac_sha256` — which
no protocol path calls.  It is the spec: ``tests/test_crypto_backends.py``
compares each production primitive against it, and the known-answer
tables of the ``tests/test_crypto_*.py`` files run against both.
:func:`active_backend` names the provider for run records.
"""

from types import SimpleNamespace

from .aead import AeadScheme, EtmScheme, GcmScheme, new_aead
from .aes import AES, BLOCK_SIZE, PureAES
from .cmac import Cmac, PureCmac, cmac
from .gcm import AesGcm, PureAesGcm
from .kdf import derive_subkey, hkdf, hkdf_expand, hkdf_extract, hmac_sha256
from .modes import cbc_decrypt, cbc_encrypt, cbc_mac, ctr_keystream, ctr_xcrypt
from .rng import DeterministicRng, Rng, SystemRng
from .util import ct_eq, inc_counter, xor_bytes
from . import ed25519, x25519

_OPENSSL = SimpleNamespace(name="openssl")


def active_backend():
    """The crypto provider, for run records: its ``.name`` is always
    ``"openssl"``."""
    return _OPENSSL


__all__ = [
    "AES",
    "BLOCK_SIZE",
    "AeadScheme",
    "AesGcm",
    "Cmac",
    "DeterministicRng",
    "EtmScheme",
    "GcmScheme",
    "PureAES",
    "PureAesGcm",
    "PureCmac",
    "Rng",
    "SystemRng",
    "active_backend",
    "cbc_decrypt",
    "cbc_encrypt",
    "cbc_mac",
    "cmac",
    "ct_eq",
    "ctr_keystream",
    "ctr_xcrypt",
    "derive_subkey",
    "ed25519",
    "hkdf",
    "hkdf_expand",
    "hkdf_extract",
    "hmac_sha256",
    "inc_counter",
    "new_aead",
    "x25519",
    "xor_bytes",
]
