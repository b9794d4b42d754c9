"""AES-GCM authenticated encryption (NIST SP 800-38D).

The paper requires a CCA-secure scheme for data-plane encryption and cites
GCM as a suitable choice.  :class:`AesGcm` is OpenSSL's GCM, taking the
96-bit nonces :class:`~repro.crypto.aead.GcmScheme` uses and no other.
:class:`PureAesGcm` is the from-scratch implementation and the spec,
including SP 800-38D's general-length IV (J0 = GHASH(IV)).  Its GHASH is
implemented over GF(2^128) with a per-key table of the 128 multiples
H*x^i, so each block multiplication is a sparse XOR walk over the set bits
of the accumulator rather than a bit-serial shift loop.

Both are pinned to the NIST GCM test cases in
``tests/test_crypto_gcm.py`` (the non-96-bit IV cases run against the
spec alone), and ``tests/test_crypto_backends.py`` compares the two.
"""

from __future__ import annotations

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers import Cipher
from cryptography.hazmat.primitives.ciphers.algorithms import AES as _AesKey
from cryptography.hazmat.primitives.ciphers.modes import GCM

from .aes import BLOCK_SIZE, PureAES
from .modes import ctr_keystream
from .util import ct_eq, xor_bytes

_R = 0xE1 << 120  # GCM reduction polynomial (bit-reflected representation)


class _GHash:
    """GHASH universal hash keyed with H = AES_K(0^128)."""

    __slots__ = ("_table",)

    def __init__(self, h_block: bytes) -> None:
        # table[i] = H * x^i for i in 0..127, so that X*H is the XOR of
        # table[i] over the set bits of X (bit 0 = MSB per GCM convention).
        h = int.from_bytes(h_block, "big")
        table = []
        v = h
        for _ in range(128):
            table.append(v)
            if v & 1:
                v = (v >> 1) ^ _R
            else:
                v >>= 1
        self._table = table

    def _mul_h(self, x: int) -> int:
        table = self._table
        z = 0
        while x:
            low = x & -x
            z ^= table[127 - (low.bit_length() - 1)]
            x ^= low
        return z

    def digest(self, aad: bytes, ciphertext: bytes) -> bytes:
        y = 0
        for chunk in (aad, ciphertext):
            for i in range(0, len(chunk), BLOCK_SIZE):
                block = chunk[i : i + BLOCK_SIZE]
                if len(block) < BLOCK_SIZE:
                    block = block + bytes(BLOCK_SIZE - len(block))
                y = self._mul_h(y ^ int.from_bytes(block, "big"))
        lengths = ((len(aad) * 8) << 64) | (len(ciphertext) * 8)
        y = self._mul_h(y ^ lengths)
        return y.to_bytes(BLOCK_SIZE, "big")


class AesGcm:
    """AES-GCM via OpenSSL with 96-bit nonces and a truncatable tag.

    Any other nonce length is a ``ValueError``.
    """

    NONCE_SIZE = 12

    __slots__ = ("_algorithm", "tag_size")

    def __init__(self, key: bytes, tag_size: int = 16) -> None:
        if not 4 <= tag_size <= 16:
            raise ValueError("tag size must be between 4 and 16 bytes")
        self._algorithm = _AesKey(key)
        self.tag_size = tag_size

    def _check_nonce(self, nonce: bytes) -> None:
        if len(nonce) != self.NONCE_SIZE:
            raise ValueError(
                f"nonce must be {self.NONCE_SIZE} bytes, got {len(nonce)}"
            )

    def seal(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Encrypt and authenticate; returns ciphertext || tag."""
        self._check_nonce(nonce)
        enc = Cipher(self._algorithm, GCM(nonce)).encryptor()
        if aad:
            enc.authenticate_additional_data(aad)
        ciphertext = enc.update(plaintext) + enc.finalize()
        return ciphertext + enc.tag[: self.tag_size]

    def open(self, nonce: bytes, sealed: bytes, aad: bytes = b"") -> bytes:
        """Verify and decrypt; raises ``ValueError`` on authentication failure."""
        self._check_nonce(nonce)
        if len(sealed) < self.tag_size:
            raise ValueError("ciphertext shorter than the authentication tag")
        ciphertext, tag = sealed[: -self.tag_size], sealed[-self.tag_size :]
        mode = GCM(nonce, tag, min_tag_length=self.tag_size)
        dec = Cipher(self._algorithm, mode).decryptor()
        if aad:
            dec.authenticate_additional_data(aad)
        plaintext = dec.update(ciphertext)
        try:
            plaintext += dec.finalize()
        except InvalidTag:
            raise ValueError("GCM authentication failed") from None
        return plaintext


class PureAesGcm:
    """The from-scratch SP 800-38D implementation (the spec)."""

    NONCE_SIZE = 12

    __slots__ = ("_cipher", "_ghash", "tag_size")

    def __init__(self, key: bytes, tag_size: int = 16) -> None:
        if not 4 <= tag_size <= 16:
            raise ValueError("tag size must be between 4 and 16 bytes")
        self._cipher = PureAES(key)
        self._ghash = _GHash(self._cipher.encrypt_block(bytes(BLOCK_SIZE)))
        self.tag_size = tag_size

    def _counter0(self, nonce: bytes) -> bytes:
        if len(nonce) == self.NONCE_SIZE:
            return nonce + b"\x00\x00\x00\x01"
        if not nonce:  # SP 800-38D §5.2.1.1: 1 <= len(IV)
            raise ValueError("GCM IV must not be empty")
        # Non-96-bit nonces are GHASHed per the spec (J0 = GHASH(nonce)).
        return self._ghash.digest(b"", nonce)

    def _keystream(self, j0: bytes, length: int) -> bytes:
        counter1 = (int.from_bytes(j0, "big") + 1) & ((1 << 128) - 1)
        return ctr_keystream(self._cipher, counter1.to_bytes(BLOCK_SIZE, "big"), length)

    def seal(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Encrypt and authenticate; returns ciphertext || tag."""
        j0 = self._counter0(nonce)
        stream = self._keystream(j0, len(plaintext))
        ciphertext = xor_bytes(plaintext, stream) if plaintext else b""
        s = self._ghash.digest(aad, ciphertext)
        tag = xor_bytes(self._cipher.encrypt_block(j0), s)[: self.tag_size]
        return ciphertext + tag

    def open(self, nonce: bytes, sealed: bytes, aad: bytes = b"") -> bytes:
        """Verify and decrypt; raises ``ValueError`` on authentication failure."""
        if len(sealed) < self.tag_size:
            raise ValueError("ciphertext shorter than the authentication tag")
        ciphertext, tag = sealed[: -self.tag_size], sealed[-self.tag_size :]
        j0 = self._counter0(nonce)
        s = self._ghash.digest(aad, ciphertext)
        expected = xor_bytes(self._cipher.encrypt_block(j0), s)[: self.tag_size]
        if not ct_eq(expected, tag):
            raise ValueError("GCM authentication failed")
        stream = self._keystream(j0, len(ciphertext))
        return xor_bytes(ciphertext, stream) if ciphertext else b""
