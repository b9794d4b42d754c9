"""Block cipher modes of operation: CTR, CBC and CBC-MAC.

APNA's EphID construction (paper Fig. 6) uses single-block AES-CTR for
confidentiality and AES-CBC-MAC over a fixed-length input for integrity;
both are provided here.  CBC encryption/decryption is included for
completeness and for cross-checking against NIST SP 800-38A vectors.

Every function accepts any object exposing ``encrypt_block`` /
``decrypt_block``: the OpenSSL :class:`~repro.crypto.aes.AES`, or the
from-scratch :class:`~repro.crypto.aes.PureAES` the spec's GCM runs
over.  When the cipher offers a native bulk operation (``ctr_xcrypt``,
``cbc_encrypt``, ``cbc_decrypt`` — :class:`~repro.crypto.aes.AES` does),
multi-block work is handed over wholesale so it runs inside one EVP call
instead of a Python block loop.
"""

from __future__ import annotations

from .aes import AES, BLOCK_SIZE
from .util import xor_bytes

_MAX_COUNTER = (1 << 128) - 1


def ctr_keystream(cipher: AES, counter_block: bytes, length: int) -> bytes:
    """Generate ``length`` bytes of CTR keystream starting at ``counter_block``."""
    if len(counter_block) != BLOCK_SIZE:
        raise ValueError("counter block must be 16 bytes")
    native = getattr(cipher, "ctr_xcrypt", None)
    if native is not None:
        return native(counter_block, bytes(length))
    counter = int.from_bytes(counter_block, "big")
    blocks = []
    for _ in range((length + BLOCK_SIZE - 1) // BLOCK_SIZE):
        blocks.append(cipher.encrypt_block(counter.to_bytes(BLOCK_SIZE, "big")))
        counter = (counter + 1) & _MAX_COUNTER
    return b"".join(blocks)[:length]


def ctr_xcrypt(cipher: AES, counter_block: bytes, data: bytes) -> bytes:
    """Encrypt or decrypt ``data`` with AES-CTR (the operation is symmetric)."""
    if len(counter_block) != BLOCK_SIZE:
        raise ValueError("counter block must be 16 bytes")
    native = getattr(cipher, "ctr_xcrypt", None)
    if native is not None:
        return native(counter_block, data)
    stream = ctr_keystream(cipher, counter_block, len(data))
    return xor_bytes(data, stream)


def cbc_encrypt(cipher: AES, iv: bytes, plaintext: bytes) -> bytes:
    """AES-CBC encryption of a block-aligned plaintext (no padding)."""
    if len(iv) != BLOCK_SIZE:
        raise ValueError("IV must be 16 bytes")
    if len(plaintext) % BLOCK_SIZE:
        raise ValueError("plaintext must be a multiple of the block size")
    native = getattr(cipher, "cbc_encrypt", None)
    if native is not None:
        return native(iv, plaintext)
    out = []
    prev = iv
    for i in range(0, len(plaintext), BLOCK_SIZE):
        block = cipher.encrypt_block(xor_bytes(plaintext[i : i + BLOCK_SIZE], prev))
        out.append(block)
        prev = block
    return b"".join(out)


def cbc_decrypt(cipher: AES, iv: bytes, ciphertext: bytes) -> bytes:
    """AES-CBC decryption of a block-aligned ciphertext (no padding)."""
    if len(iv) != BLOCK_SIZE:
        raise ValueError("IV must be 16 bytes")
    if len(ciphertext) % BLOCK_SIZE:
        raise ValueError("ciphertext must be a multiple of the block size")
    native = getattr(cipher, "cbc_decrypt", None)
    if native is not None:
        return native(iv, ciphertext)
    out = []
    prev = iv
    for i in range(0, len(ciphertext), BLOCK_SIZE):
        block = ciphertext[i : i + BLOCK_SIZE]
        out.append(xor_bytes(cipher.decrypt_block(block), prev))
        prev = block
    return b"".join(out)


def cbc_mac(cipher: AES, message: bytes, *, expected_length: int | None = None) -> bytes:
    """Raw CBC-MAC over a block-aligned message.

    CBC-MAC is only secure for fixed-length messages (the paper cites
    Bellare/Kilian/Rogaway for this).  Callers that operate on a protocol
    field of known size should pass ``expected_length`` so that misuse on a
    different length raises instead of silently producing a forgeable tag.
    For variable-length messages use :mod:`repro.crypto.cmac` instead.
    """
    if len(message) % BLOCK_SIZE or not message:
        raise ValueError("CBC-MAC input must be a non-empty multiple of 16 bytes")
    if expected_length is not None and len(message) != expected_length:
        raise ValueError(
            f"CBC-MAC misuse: expected fixed length {expected_length}, "
            f"got {len(message)}"
        )
    if len(message) == BLOCK_SIZE:
        # Single-block MAC (the EphID hot path): E(0 ^ m) = E(m).
        return cipher.encrypt_block(message)
    native = getattr(cipher, "cbc_encrypt", None)
    if native is not None:
        return native(bytes(BLOCK_SIZE), message)[-BLOCK_SIZE:]
    tag = bytes(BLOCK_SIZE)
    for i in range(0, len(message), BLOCK_SIZE):
        tag = cipher.encrypt_block(xor_bytes(tag, message[i : i + BLOCK_SIZE]))
    return tag
