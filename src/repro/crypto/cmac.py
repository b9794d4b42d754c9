"""AES-CMAC (RFC 4493): a variable-length-secure MAC built on AES.

APNA computes a MAC over *every packet* a host sends, keyed with the
host<->AS shared key (paper Section IV-D2).  Packets have variable length,
so plain CBC-MAC would be forgeable; CMAC is the standard fix and is what
this reproduction uses for packet authentication.

:class:`Cmac` is OpenSSL's CMAC; :class:`PureCmac` is the from-scratch
RFC 4493 construction, the spec ``tests/test_crypto_backends.py``
compares it against.  The border router's burst path uses neither
wrapper: it keeps raw per-host contexts (``CmacContext(AesKey(key))``)
and tags a whole burst with one :func:`tag_column` call.
"""

from __future__ import annotations

from itertools import repeat

from cryptography.hazmat.primitives.ciphers.algorithms import AES as AesKey
from cryptography.hazmat.primitives.cmac import CMAC as CmacContext

from .aes import BLOCK_SIZE, PureAES
from .util import ct_eq, xor_bytes

# ``CmacContext(AesKey(key))`` is one key's CMAC context (key schedule
# and subkeys), what :func:`tag_column` consumes.  The two OpenSSL
# classes are re-exported unwrapped: the border router builds a context
# on first contact without importing ``cryptography`` and without a
# Python frame of this package.

_R128 = 0x87


def _left_shift(block: bytes) -> bytes:
    value = int.from_bytes(block, "big") << 1
    out = value & ((1 << 128) - 1)
    if value >> 128:
        out ^= _R128
    return out.to_bytes(BLOCK_SIZE, "big")


def tag_column(contexts, messages, length: int = BLOCK_SIZE) -> bytes:
    """Tag ``messages[k]`` under ``contexts[k]`` for every ``k`` and
    return the tags, each truncated to ``length`` bytes, joined.

    Each tag copies, updates and finalizes its context, so a context
    (see ``CmacContext``) may serve any number of messages and stays
    reusable.  The border router passes a whole burst — one context per
    admitted frame, many frames sharing one — and compares the result
    with the joined carried MACs in a single ``ct_eq``.
    """
    if not 1 <= length <= BLOCK_SIZE:
        raise ValueError("tag length must be between 1 and 16 bytes")
    tags = []
    for base, message in zip(contexts, messages):
        ctx = base.copy()
        ctx.update(message)
        tags.append(ctx.finalize()[:length])
    return b"".join(tags)


class Cmac:
    """A reusable AES-CMAC instance bound to one key, run by OpenSSL.

    A base CMAC context is initialised once (key schedule and subkey
    derivation) and ``copy()``-ed per tag, so each tag pays only the
    message pass.
    """

    __slots__ = ("_base",)

    def __init__(self, key: bytes) -> None:
        self._base = CmacContext(AesKey(key))

    def tag(self, message: bytes, length: int = BLOCK_SIZE) -> bytes:
        """Compute the CMAC tag, optionally truncated to ``length`` bytes."""
        if not 1 <= length <= BLOCK_SIZE:
            raise ValueError("tag length must be between 1 and 16 bytes")
        ctx = self._base.copy()
        ctx.update(message)
        return ctx.finalize()[:length]

    def tag_many(self, messages, length: int = BLOCK_SIZE) -> list[bytes]:
        """:meth:`tag` over each of ``messages``: :func:`tag_column`
        under this one key, split back into a list."""
        joined = tag_column(repeat(self._base), messages, length)
        return [joined[k : k + length] for k in range(0, len(joined), length)]

    def verify(self, message: bytes, tag: bytes) -> bool:
        """Verify a (possibly truncated) tag in constant time."""
        return ct_eq(self.tag(message, len(tag)), tag)


# audit: allow(production-caller) the spec the OpenSSL facade is checked against
class PureCmac:
    """The from-scratch RFC 4493 implementation (the spec).

    Subkeys K1/K2 are derived once at construction (RFC 4493 Section 2.3).
    """

    __slots__ = ("_cipher", "_k1", "_k2")

    def __init__(self, key: bytes) -> None:
        self._cipher = PureAES(key)
        zero = self._cipher.encrypt_block(bytes(BLOCK_SIZE))
        self._k1 = _left_shift(zero)
        self._k2 = _left_shift(self._k1)

    def tag(self, message: bytes, length: int = BLOCK_SIZE) -> bytes:
        if not 1 <= length <= BLOCK_SIZE:
            raise ValueError("tag length must be between 1 and 16 bytes")
        n_blocks = max(1, (len(message) + BLOCK_SIZE - 1) // BLOCK_SIZE)
        complete = bool(message) and len(message) % BLOCK_SIZE == 0

        last = message[(n_blocks - 1) * BLOCK_SIZE :]
        if complete:
            last = xor_bytes(last, self._k1)
        else:
            padded = last + b"\x80" + bytes(BLOCK_SIZE - len(last) - 1)
            last = xor_bytes(padded, self._k2)

        state = bytes(BLOCK_SIZE)
        encrypt = self._cipher.encrypt_block
        for i in range(n_blocks - 1):
            state = encrypt(xor_bytes(state, message[i * BLOCK_SIZE : (i + 1) * BLOCK_SIZE]))
        return encrypt(xor_bytes(state, last))[:length]
