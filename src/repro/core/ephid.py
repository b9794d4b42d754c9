"""The EphID construction of paper Fig. 6 — a 16-byte CCA-secure token.

An EphID encrypts ``(HID, ExpTime)`` under the AS secret so that the AS
can recover the host identity *statelessly* ("the use of encryption
enables the issuing AS to obtain the HID and expiration time from an
EphID ... without an additional mapping table", Section IV-C).

Construction (Encrypt-then-MAC, Bellare–Namprempre generic composition):

1. keystream = AES_kA'( IV(4) || 0^12 ) — single-block CTR.
2. ciphertext = (HID(4) || ExpTime(4)) XOR keystream[:8].
3. tag = CBC-MAC_kA''( IV(4) || 0^4 || ciphertext(8) )[:4] — one fixed
   16-byte block, which is exactly the regime where CBC-MAC is secure.
4. EphID = ciphertext(8) || IV(4) || tag(4).

The IV makes every EphID for the same (HID, ExpTime) distinct, which is
what lets a host hold many unlinkable EphIDs simultaneously.
"""

from __future__ import annotations

import struct
from collections import deque
from itertools import repeat
from typing import NamedTuple

from ..crypto.aes import AES
from ..crypto.rng import Rng, SystemRng
from ..crypto.util import ct_eq, xor_bytes
from .errors import EphIdError

EPHID_SIZE = 16
HID_SIZE = 4
EXPTIME_SIZE = 4
IV_SIZE = 4
CIPHERTEXT_SIZE = HID_SIZE + EXPTIME_SIZE
TAG_SIZE = 4

#: How ``open_batch`` reads a column of 16-byte blocks: which bytes of a
#: block to keep after shifting the EphID column (the leading four, the
#: trailing eight), the truncated CBC-MAC tag that leads each MAC block,
#: and the ``(hid, exp_time)`` that leads each decrypted one.
_TAG = slice(CIPHERTEXT_SIZE + IV_SIZE, EPHID_SIZE)
_LEADING_4 = b"\xff" * 4 + bytes(12)
_TRAILING_8 = bytes(8) + b"\xff" * 8
_TAG_OF_BLOCK = struct.Struct(f"{TAG_SIZE}s{16 - TAG_SIZE}x")
_INFO_OF_BLOCK = struct.Struct(f">II{16 - CIPHERTEXT_SIZE}x")

_MAX_HID = 2**32 - 1
_MAX_EXPTIME = 2**32 - 1
_MAX_IV = 2**32 - 1

#: Most candidate IVs :class:`IvAllocator` banks for one shard.  Under
#: round-robin issuance a bucket stays small (measured once, PR 24: 49 at
#: most over tier-1, 207 over the ``bench/`` worlds), so no such world
#: reaches the cap and same-seed worlds stay bit-identical below it.
BANKED_IVS_PER_SHARD = 1024


class EphIdInfo(NamedTuple):
    """The plaintext content of an EphID."""

    hid: int
    exp_time: int

    def expired(self, now: float) -> bool:
        return self.exp_time < now


class EphIdCodec:
    """Seals and opens EphIDs for one AS (holder of kA' and kA'').

    The two :class:`~repro.crypto.aes.AES` instances are OpenSSL
    contexts, so a seal or open costs two AES-NI block operations — the
    paper's "one MAC check plus one AES operation" data path.
    """

    __slots__ = ("_enc", "_mac_cipher")

    def __init__(self, enc_key: bytes, mac_key: bytes) -> None:
        if enc_key == mac_key:
            raise ValueError("encryption and MAC keys must differ (EtM composition)")
        self._enc = AES(enc_key)
        self._mac_cipher = AES(mac_key)

    def _keystream(self, iv: int) -> bytes:
        block = struct.pack(">I", iv) + bytes(12)
        return self._enc.encrypt_block(block)[:CIPHERTEXT_SIZE]

    def _tag(self, iv: int, ciphertext: bytes) -> bytes:
        # CBC-MAC over Fig. 6's fixed 16-byte input is one block, so the
        # whole MAC is one AES call: E(0 ^ m) = E(m).  ``encrypt_block``
        # refuses any other length, which is the fixed-length rule that
        # keeps CBC-MAC unforgeable.
        block = struct.pack(">I", iv) + bytes(4) + ciphertext
        return self._mac_cipher.encrypt_block(block)[:TAG_SIZE]

    def seal(self, hid: int, exp_time: int, iv: int) -> bytes:
        """Create an EphID binding (hid, exp_time) under a fresh IV."""
        if not 0 <= hid <= _MAX_HID:
            raise EphIdError(f"HID out of range: {hid}")
        if not 0 <= exp_time <= _MAX_EXPTIME:
            raise EphIdError(f"ExpTime out of range: {exp_time}")
        if not 0 <= iv <= _MAX_IV:
            raise EphIdError(f"IV out of range: {iv}")
        plaintext = struct.pack(">II", hid, exp_time)
        ciphertext = xor_bytes(plaintext, self._keystream(iv))
        return ciphertext + struct.pack(">I", iv) + self._tag(iv, ciphertext)

    def open(self, ephid: bytes) -> EphIdInfo:
        """Authenticate and decrypt an EphID; raises :class:`EphIdError`.

        This is the stateless lookup border routers perform on every
        packet (Fig. 4): one MAC check plus one AES operation.
        """
        if len(ephid) != EPHID_SIZE:
            raise EphIdError(f"EphID must be {EPHID_SIZE} bytes, got {len(ephid)}")
        ciphertext = ephid[:CIPHERTEXT_SIZE]
        (iv,) = struct.unpack_from(">I", ephid, CIPHERTEXT_SIZE)
        tag = ephid[CIPHERTEXT_SIZE + IV_SIZE :]
        if not ct_eq(self._tag(iv, ciphertext), tag):
            raise EphIdError("EphID authentication failed")
        hid, exp_time = struct.unpack(">II", xor_bytes(ciphertext, self._keystream(iv)))
        return EphIdInfo(hid=hid, exp_time=exp_time)

    def open_batch(self, ephids: "list[bytes]") -> "list[EphIdInfo | None]":
        """Open a burst of EphIDs column-wise, with two bulk AES calls.

        The column is one big integer of 16-byte blocks, each
        ``ciphertext(8) | IV(4) | tag(4)``, and every field moves by a
        shift of the whole column and a per-block mask.  Eight bytes to
        the left, each IV leads its block: ``IV | 0^12``, the CTR input;
        OR in the column shifted eight bytes right and it is ``IV | 0^4
        | ciphertext``, the CBC-MAC input — so a whole burst's
        keystreams (under kA') and MACs (under kA'') are two ECB passes,
        two OpenSSL EVP updates whatever the burst size.  The column
        XORed against the keystreams reads back as ``(hid, exp_time)``
        pairs (only the ciphertext's eight bytes of each block mean
        anything).

        The tags are checked as a column too — twelve bytes to the left
        the presented tags lead their blocks, where the computed ones
        lead theirs: one constant-time compare of the two — and only a
        column that fails is compared EphID by EphID (each again with
        ``ct_eq``) to locate the forgeries: no pair is released without
        a constant-time match of its own tag.  The joined compare's
        timing shows only that *some* EphID of the column was refused,
        which the drop of its packets shows anyway.

        Entries that :meth:`open` would reject come back as ``None``
        instead of raising, so the result is positionally aligned with
        the input.
        """
        if set(map(len, ephids)) - {EPHID_SIZE}:
            # Wrong-length entries never open; the rest are a column.
            column = [ephid for ephid in ephids if len(ephid) == EPHID_SIZE]
            opened = iter(self.open_batch(column))
            return [
                next(opened) if len(ephid) == EPHID_SIZE else None
                for ephid in ephids
            ]
        if not ephids:
            return []
        sealed = b"".join(ephids)
        size = len(sealed)
        column = int.from_bytes(sealed, "big")
        leading_4 = int.from_bytes(_LEADING_4 * len(ephids), "big")
        iv_blocks = (column << 64) & leading_4
        mac_blocks = iv_blocks | (column >> 64) & int.from_bytes(
            _TRAILING_8 * len(ephids), "big"
        )
        streams = self._enc.encrypt_blocks(iv_blocks.to_bytes(size, "big"))
        tags = self._mac_cipher.encrypt_blocks(mac_blocks.to_bytes(size, "big"))
        plain = (column ^ int.from_bytes(streams, "big")).to_bytes(size, "big")
        # ``EphIdInfo._make`` over the pairs, minus its Python frame.
        infos = list(
            map(tuple.__new__, repeat(EphIdInfo), _INFO_OF_BLOCK.iter_unpack(plain))
        )
        presented = (column << 96) & leading_4
        computed = int.from_bytes(tags, "big") & leading_4
        if ct_eq(presented.to_bytes(size, "big"), computed.to_bytes(size, "big")):
            return infos
        return [
            info if ct_eq(tag, ephid[_TAG]) else None
            for info, (tag,), ephid in zip(
                infos, _TAG_OF_BLOCK.iter_unpack(tags), ephids
            )
        ]

    def is_valid(self, ephid: bytes) -> bool:
        """Authenticity-only check (no expiry/revocation semantics)."""
        try:
            self.open(ephid)
        except EphIdError:
            return False
        return True


class IvAllocator:
    """Allocates unique IVs for EphID generation.

    CTR-mode security requires that an IV never repeat under the same key
    ("Secure operation of this mode requires a unique initialization
    vector for every encryption", Section V-A1).  A counter starting at a
    random offset guarantees uniqueness for up to 2^32 issuances; after
    that the AS must rotate kA.

    Shard pinning
    -------------

    With a shard ``plan`` (any object exposing ``nshards``, ``owner_of``
    and ``owners_of_iv_bytes``, normally a
    :class:`repro.sharding.plan.ShardPlan`) the allocator additionally
    *pins* each IV to a shard under the plan's IV -> shard map:
    :meth:`next_iv_for` hands HID ``h`` an IV whose four clear bytes
    ``plan.owners_of_iv_bytes`` maps to ``plan.owner_of(h)``, so a
    sharded data plane's dispatcher can recover the owning shard from the
    EphID's clear IV bytes without touching the AS secret (see
    :mod:`repro.sharding.plan`).

    Pinning works by drawing candidate IVs off the one global sequential
    counter, classifying each candidate through the plan's map (one bulk
    call per chunk), and banking them in per-shard buckets; a pinned draw
    pops its shard's bucket, refilling from the counter until a candidate
    lands there.  Every IV still comes from the single counter, so
    uniqueness is exactly the unsharded argument.  Under the keyed map
    a chunk scatters ~uniformly, so the expected overdraw per pinned IV
    is ``nshards`` candidates.  A bucket holds at most
    :data:`BANKED_IVS_PER_SHARD` candidates and the overflow is
    discarded — never issued, so uniqueness and pinning are untouched —
    because one subscriber drawing for a single shard (a host on the
    per-packet policy of Section VIII-A) would otherwise bank an IV for
    every idle shard on every draw, without limit.

    Issuance accounting (:attr:`issued`) counts only IVs actually handed
    out, never banked candidates.  Plan-less :meth:`next_iv` calls under
    a plan — service identities, callers with no HID — are pinned to
    shard 0 (they must route somewhere, and shard 0 owns all service
    HIDs).
    """

    __slots__ = (
        "_next",
        "_remaining",
        "_plan",
        "_buckets",
        "_issued",
    )

    def __init__(
        self,
        rng: Rng | None = None,
        *,
        start: int | None = None,
        plan=None,
    ) -> None:
        if start is None:
            rng = rng or SystemRng()
            start = rng.randint(2**32)
        self._next = start % 2**32
        self._remaining = 2**32
        self._plan = plan if plan is not None and plan.nshards > 1 else None
        self._buckets: dict[int, deque[int]] = {}
        self._issued = 0

    def next_iv(self) -> int:
        """An arbitrary fresh IV (pinned to shard 0 under a shard plan)."""
        if self._plan is not None:
            return self._pinned_next(0)
        if self._remaining == 0:
            raise EphIdError("IV space exhausted: rotate the AS secret kA")
        iv = self._next
        self._next = (self._next + 1) % 2**32
        self._remaining -= 1
        self._issued += 1
        return iv

    def next_iv_for(self, hid: int) -> int:
        """A fresh IV for an EphID bound to ``hid``.

        Without a shard plan this is plain :meth:`next_iv`; with one, the
        IV is pinned to ``hid``'s owning shard under the plan's map.
        """
        if self._plan is None:
            return self.next_iv()
        return self._pinned_next(self._plan.owner_of(hid))

    def _pinned_next(self, shard: int) -> int:
        bucket = self._buckets.get(shard)
        while not bucket:
            self._draw_candidates()
            bucket = self._buckets.get(shard)
        iv = bucket.popleft()
        if not bucket:
            del self._buckets[shard]
        self._issued += 1
        return iv

    def _draw_candidates(self) -> None:
        """Advance the global counter by one chunk and bank by shard."""
        if self._remaining == 0:
            raise EphIdError(
                "IV space exhausted while searching the shard map: "
                "rotate the AS secret kA"
            )
        count = min(self._remaining, max(self._plan.nshards * 2, 8))
        nxt = self._next
        candidates = []
        for _ in range(count):
            candidates.append(nxt)
            nxt = (nxt + 1) % 2**32
        self._next = nxt
        self._remaining -= count
        owners = self._plan.owners_of_iv_bytes(
            [iv.to_bytes(4, "big") for iv in candidates]
        )
        for iv, shard in zip(candidates, owners):
            bucket = self._buckets.get(shard)
            if bucket is None:
                bucket = self._buckets[shard] = deque()
            if len(bucket) < BANKED_IVS_PER_SHARD:
                bucket.append(iv)

    # audit: allow(production-caller) the IV space used; ROADMAP item 21's counter
    @property
    def issued(self) -> int:
        """IVs actually handed out (banked candidates excluded)."""
        return self._issued
