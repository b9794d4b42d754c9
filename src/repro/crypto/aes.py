"""The AES block cipher (FIPS-197), forward direction only.

APNA only ever *encrypts* blocks: the EphID of Fig. 6 is single-block
CTR plus a one-block CBC-MAC, and the data-plane AEAD is CTR plus CMAC,
all of which run the cipher forwards.  So there is no decryption here,
and the modes live on the cipher as the operations the protocols call:
:meth:`AES.encrypt_block` / :meth:`AES.encrypt_blocks` (ECB over
independent blocks) and :meth:`AES.ctr_xcrypt`.

:class:`AES` is the cipher every protocol path uses: OpenSSL contexts
(AES-NI where the CPU has it), the data path of the paper's DPDK
prototype (§V-B) rather than a simulation of it.

:class:`PureAES` is the from-scratch implementation — the spec that
``tests/test_crypto_backends.py`` compares :class:`AES` against.  It uses
the classic 32-bit T-table formulation, the fastest available to pure
Python.

Key sizes 128, 192 and 256 bits are supported.  Both classes are pinned
to the FIPS-197 appendix vectors in ``tests/test_crypto_aes.py`` and to
the SP 800-38A CTR vectors in ``tests/test_crypto_modes.py``.
"""

from __future__ import annotations

# ``algorithms`` and ``modes`` are deprecation proxies whose every
# attribute read runs a Python-level ``__getattr__`` (``algorithms.AES``
# ~2.5 µs against ~0.5 µs for the class itself — more than the key
# schedule of the per-host CMAC context a border router builds on first
# contact), so each class is resolved once, here, at import.
from cryptography.hazmat.primitives.ciphers import Cipher
from cryptography.hazmat.primitives.ciphers.algorithms import AES as _AesKey
from cryptography.hazmat.primitives.ciphers.modes import CTR, ECB

from .util import xor_bytes

BLOCK_SIZE = 16
_MASK128 = (1 << 128) - 1


def _xtime(b: int) -> int:
    """Multiply ``b`` by x in GF(2^8) modulo the AES polynomial."""
    b <<= 1
    if b & 0x100:
        b ^= 0x11B
    return b & 0xFF


def _build_sbox() -> list[int]:
    """Compute the AES S-box from first principles."""
    # Exponentiation/log tables over GF(2^8) with generator 0x03.
    exp = [0] * 255
    log = [0] * 256
    value = 1
    for i in range(255):
        exp[i] = value
        log[value] = i
        value ^= _xtime(value)  # multiply by 0x03 = x + 1

    sbox = [0] * 256
    for v in range(256):
        inverse = 0 if v == 0 else exp[(255 - log[v]) % 255]
        s = inverse
        r = inverse
        for _ in range(4):
            r = ((r << 1) | (r >> 7)) & 0xFF
            s ^= r
        s ^= 0x63
        sbox[v] = s
    return sbox


SBOX = _build_sbox()


def _build_enc_tables() -> tuple[list[int], list[int], list[int], list[int]]:
    """Build the four 32-bit encryption T-tables from the S-box."""
    t0 = [0] * 256
    t1 = [0] * 256
    t2 = [0] * 256
    t3 = [0] * 256
    for b in range(256):
        s = SBOX[b]
        s2 = _xtime(s)
        s3 = s2 ^ s
        word = (s2 << 24) | (s << 16) | (s << 8) | s3
        t0[b] = word
        t1[b] = ((word >> 8) | (word << 24)) & 0xFFFFFFFF
        t2[b] = ((word >> 16) | (word << 16)) & 0xFFFFFFFF
        t3[b] = ((word >> 24) | (word << 8)) & 0xFFFFFFFF
    return t0, t1, t2, t3


_T0, _T1, _T2, _T3 = _build_enc_tables()

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36, 0x6C, 0xD8]


def _sub_word(word: int) -> int:
    return (
        (SBOX[(word >> 24) & 0xFF] << 24)
        | (SBOX[(word >> 16) & 0xFF] << 16)
        | (SBOX[(word >> 8) & 0xFF] << 8)
        | SBOX[word & 0xFF]
    )


def _rot_word(word: int) -> int:
    return ((word << 8) | (word >> 24)) & 0xFFFFFFFF


class AES:
    """An AES cipher instance bound to one key, run by OpenSSL.

    ECB is stateless per block, so one ``encryptor()`` context serves
    every ``encrypt_block`` call — the per-block cost is a single EVP
    update instead of a context setup.  Bulk CTR gets a one-shot context
    of its own, so it runs entirely inside OpenSSL.

    >>> AES(bytes(16)).encrypt_block(bytes(16)).hex()
    '66e94bd4ef8a2c3b884cfa59ca342b2e'
    """

    __slots__ = ("key_size", "_algorithm", "_ecb_enc")

    def __init__(self, key: bytes) -> None:
        if len(key) not in (16, 24, 32):
            raise ValueError(f"AES key must be 16, 24 or 32 bytes, got {len(key)}")
        self.key_size = len(key)
        self._algorithm = _AesKey(key)
        self._ecb_enc = Cipher(self._algorithm, ECB()).encryptor()

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt one 16-byte block."""
        if len(block) != BLOCK_SIZE:
            raise ValueError(f"block must be {BLOCK_SIZE} bytes, got {len(block)}")
        return self._ecb_enc.update(block)

    def encrypt_blocks(self, data: bytes) -> bytes:
        """ECB-encrypt a concatenation of independent 16-byte blocks.

        One EVP update covers the whole buffer — the bulk entry point
        :meth:`repro.core.ephid.EphIdCodec.open_batch` uses to open a
        burst's worth of EphIDs (their CTR keystream and CBC-MAC inputs
        are one block each) in two OpenSSL calls total.
        """
        if len(data) % BLOCK_SIZE:
            raise ValueError(
                f"data must be a multiple of {BLOCK_SIZE} bytes, got {len(data)}"
            )
        return self._ecb_enc.update(data)

    def ctr_xcrypt(self, counter_block: bytes, data: bytes) -> bytes:
        """AES-CTR over ``data`` from ``counter_block`` (full 128-bit
        big-endian counter, wrapping); encryption and decryption are the
        same operation."""
        if len(counter_block) != BLOCK_SIZE:
            raise ValueError("counter block must be 16 bytes")
        # For short payloads (single-digit block counts: EphIDs, small
        # packets) a fresh CTR context costs more than the work itself,
        # so the keystream comes from the reusable ECB context instead.
        if len(data) <= 128:
            counter = int.from_bytes(counter_block, "big")
            encrypt = self._ecb_enc.update
            stream = b"".join(
                encrypt(((counter + i) & _MASK128).to_bytes(BLOCK_SIZE, "big"))
                for i in range((len(data) + BLOCK_SIZE - 1) // BLOCK_SIZE)
            )
            return xor_bytes(data, stream[: len(data)]) if data else b""
        return Cipher(self._algorithm, CTR(counter_block)).encryptor().update(data)

# audit: allow(production-caller) the spec the OpenSSL facade is checked against
class PureAES:
    """The from-scratch AES instance bound to one key (the spec).

    >>> PureAES(bytes(16)).encrypt_block(bytes(16)).hex()
    '66e94bd4ef8a2c3b884cfa59ca342b2e'
    """

    __slots__ = ("_round_keys", "rounds", "key_size")

    def __init__(self, key: bytes) -> None:
        if len(key) not in (16, 24, 32):
            raise ValueError(f"AES key must be 16, 24 or 32 bytes, got {len(key)}")
        self.key_size = len(key)
        nk = len(key) // 4
        self.rounds = nk + 6
        self._round_keys = self._expand_key(key, nk, self.rounds)

    @staticmethod
    def _expand_key(key: bytes, nk: int, rounds: int) -> list[int]:
        words = [int.from_bytes(key[4 * i : 4 * i + 4], "big") for i in range(nk)]
        for i in range(nk, 4 * (rounds + 1)):
            temp = words[i - 1]
            if i % nk == 0:
                temp = _sub_word(_rot_word(temp)) ^ (_RCON[i // nk - 1] << 24)
            elif nk > 6 and i % nk == 4:
                temp = _sub_word(temp)
            words.append(words[i - nk] ^ temp)
        return words

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt one 16-byte block."""
        if len(block) != BLOCK_SIZE:
            raise ValueError(f"block must be {BLOCK_SIZE} bytes, got {len(block)}")
        rk = self._round_keys
        t0, t1, t2, t3 = _T0, _T1, _T2, _T3
        sbox = SBOX

        s0 = int.from_bytes(block[0:4], "big") ^ rk[0]
        s1 = int.from_bytes(block[4:8], "big") ^ rk[1]
        s2 = int.from_bytes(block[8:12], "big") ^ rk[2]
        s3 = int.from_bytes(block[12:16], "big") ^ rk[3]

        k = 4
        for _ in range(self.rounds - 1):
            u0 = (
                t0[(s0 >> 24) & 0xFF]
                ^ t1[(s1 >> 16) & 0xFF]
                ^ t2[(s2 >> 8) & 0xFF]
                ^ t3[s3 & 0xFF]
                ^ rk[k]
            )
            u1 = (
                t0[(s1 >> 24) & 0xFF]
                ^ t1[(s2 >> 16) & 0xFF]
                ^ t2[(s3 >> 8) & 0xFF]
                ^ t3[s0 & 0xFF]
                ^ rk[k + 1]
            )
            u2 = (
                t0[(s2 >> 24) & 0xFF]
                ^ t1[(s3 >> 16) & 0xFF]
                ^ t2[(s0 >> 8) & 0xFF]
                ^ t3[s1 & 0xFF]
                ^ rk[k + 2]
            )
            u3 = (
                t0[(s3 >> 24) & 0xFF]
                ^ t1[(s0 >> 16) & 0xFF]
                ^ t2[(s1 >> 8) & 0xFF]
                ^ t3[s2 & 0xFF]
                ^ rk[k + 3]
            )
            s0, s1, s2, s3 = u0, u1, u2, u3
            k += 4

        o0 = (
            (sbox[(s0 >> 24) & 0xFF] << 24)
            | (sbox[(s1 >> 16) & 0xFF] << 16)
            | (sbox[(s2 >> 8) & 0xFF] << 8)
            | sbox[s3 & 0xFF]
        ) ^ rk[k]
        o1 = (
            (sbox[(s1 >> 24) & 0xFF] << 24)
            | (sbox[(s2 >> 16) & 0xFF] << 16)
            | (sbox[(s3 >> 8) & 0xFF] << 8)
            | sbox[s0 & 0xFF]
        ) ^ rk[k + 1]
        o2 = (
            (sbox[(s2 >> 24) & 0xFF] << 24)
            | (sbox[(s3 >> 16) & 0xFF] << 16)
            | (sbox[(s0 >> 8) & 0xFF] << 8)
            | sbox[s1 & 0xFF]
        ) ^ rk[k + 2]
        o3 = (
            (sbox[(s3 >> 24) & 0xFF] << 24)
            | (sbox[(s0 >> 16) & 0xFF] << 16)
            | (sbox[(s1 >> 8) & 0xFF] << 8)
            | sbox[s2 & 0xFF]
        ) ^ rk[k + 3]

        return (
            o0.to_bytes(4, "big")
            + o1.to_bytes(4, "big")
            + o2.to_bytes(4, "big")
            + o3.to_bytes(4, "big")
        )

    def ctr_xcrypt(self, counter_block: bytes, data: bytes) -> bytes:
        """AES-CTR one block at a time: the spec :meth:`AES.ctr_xcrypt`
        is compared against."""
        if len(counter_block) != BLOCK_SIZE:
            raise ValueError("counter block must be 16 bytes")
        counter = int.from_bytes(counter_block, "big")
        stream = b"".join(
            self.encrypt_block(((counter + i) & _MASK128).to_bytes(BLOCK_SIZE, "big"))
            for i in range((len(data) + BLOCK_SIZE - 1) // BLOCK_SIZE)
        )
        return xor_bytes(data, stream[: len(data)])
