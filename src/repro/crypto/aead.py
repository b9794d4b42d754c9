"""CCA-secure authenticated encryption for the APNA data plane.

The paper requires only that data encryption be CCA-secure and names
GCM/OCB as candidates (Section IV-A).  Two interchangeable schemes are
provided:

* :class:`GcmScheme` — AES-GCM (the paper's cited mode).
* :class:`EtmScheme` — AES-CTR + AES-CMAC Encrypt-then-MAC composition
  (the generic composition the EphID construction itself uses, per
  Bellare/Namprempre).  This is the default data-plane scheme in the
  reproduction because it is ~3x faster in pure Python.

Both expose ``seal``/``open`` with a 12-byte nonce and associated data.
"""

from __future__ import annotations

from typing import Protocol

from .aes import AES
from .cmac import Cmac
from .gcm import AesGcm
from .kdf import derive_subkey
from .modes import ctr_xcrypt
from .util import ct_eq


class AeadScheme(Protocol):
    """Interface shared by all data-plane encryption schemes."""

    NONCE_SIZE: int
    tag_size: int

    def seal(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes: ...

    def open(self, nonce: bytes, sealed: bytes, aad: bytes = b"") -> bytes: ...


class GcmScheme:
    """AES-GCM wrapper conforming to :class:`AeadScheme`."""

    NONCE_SIZE = 12

    def __init__(self, key: bytes, tag_size: int = 16, *, backend=None) -> None:
        self._gcm = AesGcm(key, tag_size, backend=backend)
        self.tag_size = tag_size

    def seal(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        return self._gcm.seal(nonce, plaintext, aad)

    def open(self, nonce: bytes, sealed: bytes, aad: bytes = b"") -> bytes:
        return self._gcm.open(nonce, sealed, aad)


class EtmScheme:
    """Encrypt-then-MAC: AES-CTR for secrecy, AES-CMAC over nonce||aad||ct.

    Independent encryption and MAC keys are derived from the session key
    with domain separation, per the generic composition requirements.
    """

    NONCE_SIZE = 12

    def __init__(self, key: bytes, tag_size: int = 16, *, backend=None) -> None:
        if not 4 <= tag_size <= 16:
            raise ValueError("tag size must be between 4 and 16 bytes")
        self._enc = AES(derive_subkey(key, "etm-enc", 16), backend=backend)
        self._mac = Cmac(derive_subkey(key, "etm-mac", 16), backend=backend)
        self.tag_size = tag_size

    @staticmethod
    def _counter_block(nonce: bytes) -> bytes:
        if len(nonce) != 12:
            raise ValueError("nonce must be 12 bytes")
        return nonce + bytes(4)

    def _tag_input(self, nonce: bytes, aad: bytes, ciphertext: bytes) -> bytes:
        # Unambiguous encoding: lengths are included so (aad, ct) splits
        # cannot be shifted against each other.
        return (
            len(aad).to_bytes(8, "big")
            + len(ciphertext).to_bytes(8, "big")
            + nonce
            + aad
            + ciphertext
        )

    def seal(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        ciphertext = ctr_xcrypt(self._enc, self._counter_block(nonce), plaintext)
        tag = self._mac.tag(self._tag_input(nonce, aad, ciphertext), self.tag_size)
        return ciphertext + tag

    def open(self, nonce: bytes, sealed: bytes, aad: bytes = b"") -> bytes:
        if len(sealed) < self.tag_size:
            raise ValueError("ciphertext shorter than the authentication tag")
        ciphertext, tag = sealed[: -self.tag_size], sealed[-self.tag_size :]
        expected = self._mac.tag(self._tag_input(nonce, aad, ciphertext), self.tag_size)
        if not ct_eq(expected, tag):
            raise ValueError("EtM authentication failed")
        return ctr_xcrypt(self._enc, self._counter_block(nonce), ciphertext)


def new_aead(
    key: bytes, scheme: str = "etm", tag_size: int = 16, *, backend=None
) -> AeadScheme:
    """Factory for data-plane AEAD schemes ("etm" or "gcm")."""
    if scheme == "etm":
        return EtmScheme(key, tag_size, backend=backend)
    if scheme == "gcm":
        return GcmScheme(key, tag_size, backend=backend)
    raise ValueError(f"unknown AEAD scheme {scheme!r}")
