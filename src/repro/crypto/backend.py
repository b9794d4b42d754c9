"""Pluggable crypto backend registry (the AES-NI seam of paper §V).

The paper's data plane performs "one MAC check plus one AES operation"
per packet on AES-NI hardware (Fig. 4, §V-B); this reproduction's
primitives are implemented from scratch in pure Python.  This module is
the seam between the two worlds: every facade in :mod:`repro.crypto`
(:class:`~repro.crypto.aes.AES`, :class:`~repro.crypto.cmac.Cmac`,
:class:`~repro.crypto.gcm.AesGcm`, the :mod:`~repro.crypto.ed25519` /
:mod:`~repro.crypto.x25519` functions, HKDF) routes its work through the
*active provider*, so hot-path consumers — the EphID codec, the border
router verdict loop, the TLS attestation, path validation — pick up a
hardware-accelerated implementation without changing a line.

Two providers ship:

* ``"pure"`` — the repo's own from-scratch primitives, unchanged.
* ``"openssl"`` — delegation to the ``cryptography`` package (OpenSSL,
  AES-NI), reproducing the paper's software-vs-AES-NI comparison.

Selection happens once at import: the ``REPRO_CRYPTO_BACKEND`` env var
(``pure`` or ``openssl``) wins; otherwise ``openssl`` is used when the
``cryptography`` package is importable and ``pure`` is the clean
offline fallback.  ``active_backend()`` reports the choice;
``set_backend()`` / ``use_backend()`` change it at runtime (affecting
only objects constructed afterwards — existing instances keep the
provider they were built with).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

from .util import xor_bytes


class BackendUnavailable(RuntimeError):
    """Raised when a requested crypto backend cannot be loaded."""


_MASK128 = (1 << 128) - 1


class _PureProvider:
    """The from-scratch primitives already in this package."""

    name = "pure"

    def new_aes(self, key: bytes):
        from .aes import PureAES

        return PureAES(key)

    def new_cmac(self, key: bytes):
        from .cmac import PureCmac

        return PureCmac(key)

    def new_gcm(self, key: bytes, tag_size: int):
        from .gcm import PureAesGcm

        return PureAesGcm(key, tag_size)

    def hmac_sha256(self, key: bytes, message: bytes) -> bytes:
        from .kdf import pure_hmac_sha256

        return pure_hmac_sha256(key, message)

    def ed25519_public_key(self, secret: bytes) -> bytes:
        from . import ed25519

        return ed25519.pure_public_key(secret)

    def ed25519_sign(self, secret: bytes, message: bytes) -> bytes:
        from . import ed25519

        return ed25519.pure_sign(secret, message)

    def ed25519_verify(self, public: bytes, message: bytes, signature: bytes) -> bool:
        from . import ed25519

        return ed25519.pure_verify(public, message, signature)

    def x25519_public_key(self, private: bytes) -> bytes:
        from . import x25519

        return x25519.pure_public_key(private)

    def x25519_shared_secret(self, private: bytes, peer_public: bytes) -> bytes:
        from . import x25519

        return x25519.pure_shared_secret(private, peer_public)


class _OpenSSLAes:
    """AES via OpenSSL with a reusable ECB context per direction.

    ECB is stateless per block, so one ``encryptor()`` context serves
    every ``encrypt_block`` call — the per-block cost is a single EVP
    update instead of a context setup.  Bulk CTR and CBC get dedicated
    one-shot contexts; :mod:`repro.crypto.modes` dispatches to them when
    present so multi-block work runs entirely inside OpenSSL.
    """

    __slots__ = ("key_size", "_algorithm", "_provider", "_ecb_enc", "_ecb_dec")

    def __init__(self, key: bytes, provider: "_OpenSSLProvider") -> None:
        self.key_size = len(key)
        self._provider = provider
        self._algorithm = provider._aes_cls(key)
        ecb = provider._cipher_cls(self._algorithm, provider._ecb_cls())
        self._ecb_enc = ecb.encryptor()
        self._ecb_dec = ecb.decryptor()

    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != 16:
            raise ValueError(f"block must be 16 bytes, got {len(block)}")
        return self._ecb_enc.update(block)

    def encrypt_blocks(self, data: bytes) -> bytes:
        """ECB-encrypt a concatenation of independent 16-byte blocks.

        One EVP update covers the whole buffer — this is the bulk entry
        point the border router's batched verdict loop uses to open a
        burst's worth of EphIDs (their CTR keystream and CBC-MAC inputs
        are one block each) in two OpenSSL calls total.
        """
        if len(data) % 16:
            raise ValueError(
                f"data must be a multiple of 16 bytes, got {len(data)}"
            )
        return self._ecb_enc.update(data)

    def decrypt_block(self, block: bytes) -> bytes:
        if len(block) != 16:
            raise ValueError(f"block must be 16 bytes, got {len(block)}")
        return self._ecb_dec.update(block)

    def ctr_xcrypt(self, counter_block: bytes, data: bytes) -> bytes:
        # OpenSSL's CTR increments the full 128-bit big-endian counter
        # with wrap-around, matching the pure implementation.  For short
        # payloads (single-digit block counts: EphIDs, small packets) a
        # fresh CTR context costs more than the work itself, so the
        # keystream is generated through the reusable ECB context instead.
        if len(data) <= 128:
            counter = int.from_bytes(counter_block, "big")
            encrypt = self._ecb_enc.update
            stream = b"".join(
                encrypt(((counter + i) & _MASK128).to_bytes(16, "big"))
                for i in range((len(data) + 15) // 16)
            )
            return xor_bytes(data, stream[: len(data)]) if data else b""
        provider = self._provider
        mode = provider._ctr_cls(counter_block)
        return provider._cipher_cls(self._algorithm, mode).encryptor().update(data)

    def cbc_encrypt(self, iv: bytes, plaintext: bytes) -> bytes:
        provider = self._provider
        enc = provider._cipher_cls(self._algorithm, provider._cbc_cls(iv)).encryptor()
        return enc.update(plaintext) + enc.finalize()

    def cbc_decrypt(self, iv: bytes, ciphertext: bytes) -> bytes:
        provider = self._provider
        dec = provider._cipher_cls(self._algorithm, provider._cbc_cls(iv)).decryptor()
        return dec.update(ciphertext) + dec.finalize()


class _OpenSSLCmac:
    """AES-CMAC via OpenSSL; the key schedule is shared across calls.

    A base CMAC context is initialised once (CMAC_CTX setup + subkey
    derivation) and ``copy()``-ed per tag, so the border router's cached
    per-host instances pay only the message pass on each packet.
    """

    __slots__ = ("_base",)

    def __init__(self, algorithm, cmac_cls) -> None:
        self._base = cmac_cls(algorithm)

    def tag(self, message: bytes, length: int = 16) -> bytes:
        if not 1 <= length <= 16:
            raise ValueError("tag length must be between 1 and 16 bytes")
        ctx = self._base.copy()
        ctx.update(message)
        return ctx.finalize()[:length]

    def tag_many(self, messages, length: int = 16) -> list[bytes]:
        """Tag a burst of messages off the shared key schedule.

        Each message still needs its own CMAC finalization, but the base
        context is copied locally and the loop stays inside one call, so
        a border-router burst pays the facade dispatch once.
        """
        if not 1 <= length <= 16:
            raise ValueError("tag length must be between 1 and 16 bytes")
        copy = self._base.copy
        out = []
        for message in messages:
            ctx = copy()
            ctx.update(message)
            out.append(ctx.finalize()[:length])
        return out


class _OpenSSLGcm:
    """AES-GCM via OpenSSL, with truncated-tag support.

    OpenSSL only accepts IVs of 8..128 bytes; shorter or longer nonces
    (legal per SP 800-38D via the GHASH J0 derivation) fall back to the
    pure implementation so both backends accept exactly the same inputs.
    """

    __slots__ = ("tag_size", "_key", "_algorithm", "_provider", "_pure")

    def __init__(
        self, key: bytes, tag_size: int, provider: "_OpenSSLProvider"
    ) -> None:
        if not 4 <= tag_size <= 16:
            raise ValueError("tag size must be between 4 and 16 bytes")
        self.tag_size = tag_size
        self._key = key
        self._provider = provider
        self._algorithm = provider._aes_cls(key)
        self._pure = None

    def _pure_fallback(self):
        if self._pure is None:
            from .gcm import PureAesGcm

            self._pure = PureAesGcm(self._key, self.tag_size)
        return self._pure

    def seal(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        if not 8 <= len(nonce) <= 128:
            return self._pure_fallback().seal(nonce, plaintext, aad)
        provider = self._provider
        mode = provider._gcm_cls(nonce)
        enc = provider._cipher_cls(self._algorithm, mode).encryptor()
        if aad:
            enc.authenticate_additional_data(aad)
        ciphertext = enc.update(plaintext) + enc.finalize()
        return ciphertext + enc.tag[: self.tag_size]

    def open(self, nonce: bytes, sealed: bytes, aad: bytes = b"") -> bytes:
        if len(sealed) < self.tag_size:
            raise ValueError("ciphertext shorter than the authentication tag")
        if not 8 <= len(nonce) <= 128:
            return self._pure_fallback().open(nonce, sealed, aad)
        ciphertext, tag = sealed[: -self.tag_size], sealed[-self.tag_size :]
        provider = self._provider
        mode = provider._gcm_cls(nonce, tag, min_tag_length=self.tag_size)
        dec = provider._cipher_cls(self._algorithm, mode).decryptor()
        if aad:
            dec.authenticate_additional_data(aad)
        plaintext = dec.update(ciphertext)
        try:
            plaintext += dec.finalize()
        except provider._invalid_tag:
            raise ValueError("GCM authentication failed") from None
        return plaintext


class _OpenSSLProvider:
    """Delegation to the ``cryptography`` package (OpenSSL, AES-NI)."""

    name = "openssl"

    def __init__(self) -> None:
        try:
            import hashlib as _hashlib
            import hmac as _hmac

            from cryptography.exceptions import InvalidSignature, InvalidTag
            from cryptography.hazmat.primitives import ciphers as _ciphers
            from cryptography.hazmat.primitives import cmac as _cmac_mod
            from cryptography.hazmat.primitives.asymmetric import ed25519 as _ed
            from cryptography.hazmat.primitives.asymmetric import x25519 as _x
            from cryptography.hazmat.primitives.ciphers import algorithms as _algorithms
            from cryptography.hazmat.primitives.ciphers import modes as _modes
        except ImportError as exc:  # pragma: no cover - exercised offline
            raise BackendUnavailable(
                "the 'cryptography' package is not importable; "
                "use the 'pure' backend instead"
            ) from exc
        self._hashlib = _hashlib
        self._hmac = _hmac
        # ``algorithms`` and ``modes`` are deprecation proxies whose
        # every attribute read runs a Python-level ``__getattr__``
        # (``algorithms.AES(key)`` ~2.5 µs against ~0.5 µs for the class
        # itself — more than the key schedule of the per-host CMAC context
        # a border router builds on first contact), so each class is
        # resolved once here and the primitives read it off the provider.
        self._cipher_cls = _ciphers.Cipher
        self._aes_cls = _algorithms.AES
        self._ecb_cls = _modes.ECB
        self._ctr_cls = _modes.CTR
        self._cbc_cls = _modes.CBC
        self._gcm_cls = _modes.GCM
        self._cmac_cls = _cmac_mod.CMAC
        self._ed = _ed
        self._x = _x
        self._invalid_signature = InvalidSignature
        self._invalid_tag = InvalidTag

    def new_aes(self, key: bytes) -> _OpenSSLAes:
        return _OpenSSLAes(key, self)

    def new_cmac(self, key: bytes) -> _OpenSSLCmac:
        return _OpenSSLCmac(self._aes_cls(key), self._cmac_cls)

    def new_gcm(self, key: bytes, tag_size: int) -> _OpenSSLGcm:
        return _OpenSSLGcm(key, tag_size, self)

    def hmac_sha256(self, key: bytes, message: bytes) -> bytes:
        return self._hmac.new(key, message, self._hashlib.sha256).digest()

    def ed25519_public_key(self, secret: bytes) -> bytes:
        if len(secret) != 32:
            raise ValueError("Ed25519 secret must be 32 bytes")
        return (
            self._ed.Ed25519PrivateKey.from_private_bytes(secret)
            .public_key()
            .public_bytes_raw()
        )

    def ed25519_sign(self, secret: bytes, message: bytes) -> bytes:
        if len(secret) != 32:
            raise ValueError("Ed25519 secret must be 32 bytes")
        return self._ed.Ed25519PrivateKey.from_private_bytes(secret).sign(message)

    @staticmethod
    def _ed25519_canonical_point(encoded: bytes) -> bool:
        """Match the pure decoder's rejections that OpenSSL is lax about.

        RFC 8032 decoding fails for y >= p (non-canonical encoding) and
        for a set sign bit when x = 0 (y in {1, p-1}); OpenSSL reduces
        such encodings instead of rejecting, which would make the two
        backends disagree on acceptance for the same input bytes.
        """
        p = 2**255 - 19
        value = int.from_bytes(encoded, "little")
        sign = value >> 255
        y = value & ((1 << 255) - 1)
        if y >= p:
            return False
        if sign and y in (1, p - 1):  # x = 0 admits no odd representative
            return False
        return True

    def ed25519_verify(self, public: bytes, message: bytes, signature: bytes) -> bool:
        if len(public) != 32 or len(signature) != 64:
            return False
        if not self._ed25519_canonical_point(public):
            return False
        if not self._ed25519_canonical_point(signature[:32]):
            return False
        try:
            key = self._ed.Ed25519PublicKey.from_public_bytes(public)
            key.verify(signature, message)
        except (ValueError, self._invalid_signature):
            return False
        return True

    def x25519_public_key(self, private: bytes) -> bytes:
        if len(private) != 32:
            raise ValueError("X25519 scalar must be 32 bytes")
        return (
            self._x.X25519PrivateKey.from_private_bytes(private)
            .public_key()
            .public_bytes_raw()
        )

    def x25519_shared_secret(self, private: bytes, peer_public: bytes) -> bytes:
        if len(private) != 32:
            raise ValueError("X25519 scalar must be 32 bytes")
        if len(peer_public) != 32:
            raise ValueError("X25519 point must be 32 bytes")
        key = self._x.X25519PrivateKey.from_private_bytes(private)
        try:
            return key.exchange(self._x.X25519PublicKey.from_public_bytes(peer_public))
        except ValueError:
            # OpenSSL rejects low-order peer points by refusing the
            # all-zero output, exactly as RFC 7748 recommends.
            raise ValueError("X25519 produced the all-zero shared secret") from None


_PROVIDER_CLASSES: dict[str, type] = {
    "pure": _PureProvider,
    "openssl": _OpenSSLProvider,
}
_INSTANCES: dict[str, object] = {}


def register_backend(name: str, provider_cls: type) -> None:
    """Register an additional provider class (e.g. a future DPDK-style one).

    Re-registering an existing name replaces it; if that name is the
    active backend, the active instance is refreshed so new crypto
    objects immediately use the replacement.
    """
    global _ACTIVE
    _PROVIDER_CLASSES[name] = provider_cls
    _INSTANCES.pop(name, None)
    if _ACTIVE is not None and getattr(_ACTIVE, "name", None) == name:
        _ACTIVE = get_backend(name)


def get_backend(name: str):
    """Return the provider instance for ``name``.

    Raises :class:`BackendUnavailable` if the provider exists but cannot
    be loaded (e.g. ``openssl`` without the ``cryptography`` package) and
    ``ValueError`` for unknown names.
    """
    provider = _INSTANCES.get(name)
    if provider is None:
        cls = _PROVIDER_CLASSES.get(name)
        if cls is None:
            raise ValueError(
                f"unknown crypto backend {name!r}; "
                f"known: {', '.join(sorted(_PROVIDER_CLASSES))}"
            )
        provider = cls()
        _INSTANCES[name] = provider
    return provider


def available_backends() -> tuple[str, ...]:
    """Names of the backends that can actually be loaded on this machine."""
    names = []
    for name in _PROVIDER_CLASSES:
        try:
            get_backend(name)
        except BackendUnavailable:
            continue
        names.append(name)
    return tuple(names)


def active_backend():
    """The provider new crypto objects are currently built with."""
    return _ACTIVE


def set_backend(backend):
    """Switch the active provider; returns the previous one.

    ``backend`` may be a name or a provider instance.  Only objects
    constructed *after* the switch use the new provider; existing
    instances keep the one they captured at construction.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = get_backend(backend) if isinstance(backend, str) else backend
    return previous


@contextmanager
def use_backend(backend) -> Iterator[object]:
    """Context manager form of :func:`set_backend`."""
    previous = set_backend(backend)
    try:
        yield _ACTIVE
    finally:
        set_backend(previous)


def resolve_backend(backend=None):
    """Facade helper: explicit provider/name, or the active provider."""
    if backend is None:
        return _ACTIVE
    if isinstance(backend, str):
        return get_backend(backend)
    return backend


def _auto_select():
    forced = os.environ.get("REPRO_CRYPTO_BACKEND", "").strip().lower()
    if forced:
        if forced not in _PROVIDER_CLASSES:
            raise ValueError(
                f"REPRO_CRYPTO_BACKEND={forced!r} is not a known backend; "
                f"known: {', '.join(sorted(_PROVIDER_CLASSES))}"
            )
        return get_backend(forced)
    try:
        return get_backend("openssl")
    except BackendUnavailable:
        return get_backend("pure")


_ACTIVE = _auto_select()
