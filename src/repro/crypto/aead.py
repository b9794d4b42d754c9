"""CCA-secure authenticated encryption for the APNA data plane.

The paper requires only that data encryption be CCA-secure and names
GCM/OCB as candidates (Section IV-A).  Every protocol path here —
end-to-end sessions, the MS control channel, the host stack and the
infrastructure bus — runs one scheme, :class:`EtmScheme`: AES-CTR +
AES-CMAC Encrypt-then-MAC, the generic composition (Bellare/Namprempre)
the EphID construction of Fig. 6 itself uses, so the data plane needs no
primitive beyond the forward AES and the CMAC the packet MACs run.
"""

from __future__ import annotations

from .aes import AES
from .cmac import Cmac
from .kdf import derive_subkey
from .util import ct_eq


class EtmScheme:
    """Encrypt-then-MAC: AES-CTR for secrecy, AES-CMAC over nonce||aad||ct.

    Independent encryption and MAC keys are derived from the session key
    with domain separation, per the generic composition requirements.
    ``seal`` / ``open`` take a 12-byte nonce and associated data; the tag
    is the full 16-byte CMAC.
    """

    TAG_SIZE = 16

    def __init__(self, key: bytes) -> None:
        self._enc = AES(derive_subkey(key, "etm-enc", 16))
        self._mac = Cmac(derive_subkey(key, "etm-mac", 16))

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
        ciphertext = self._enc.ctr_xcrypt(self._counter_block(nonce), plaintext)
        return ciphertext + self._mac.tag(self._tag_input(nonce, aad, ciphertext))

    def open(self, nonce: bytes, sealed: bytes, aad: bytes = b"") -> bytes:
        if len(sealed) < self.TAG_SIZE:
            raise ValueError("ciphertext shorter than the authentication tag")
        ciphertext, tag = sealed[: -self.TAG_SIZE], sealed[-self.TAG_SIZE :]
        expected = self._mac.tag(self._tag_input(nonce, aad, ciphertext))
        if not ct_eq(expected, tag):
            raise ValueError("EtM authentication failed")
        return self._enc.ctr_xcrypt(self._counter_block(nonce), ciphertext)
