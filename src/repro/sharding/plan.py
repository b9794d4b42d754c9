"""Shard ownership: HID -> shard, and the keyed IV -> shard routing map.

The paper scales the MS across four processes with "no coordination
between the processes"; this module fixes *which* process owns which
host so the data plane can be split the same way.  A
:class:`ShardPlan` maps every HID to exactly one shard:

* service HIDs (below :data:`repro.core.hostdb.FIRST_HOST_HID`) always
  belong to shard 0, and
* host HIDs are striped over the shards in contiguous blocks of
  ``block`` consecutive HIDs — ``block=1`` degenerates to round-robin
  over registration order (host HIDs are allocated sequentially), while
  a larger block gives each shard long contiguous HID runs, the layout
  a range-partitioned ``host_info`` table would use.

Routing without decrypting — and without leaking
------------------------------------------------

An EphID hides its HID (that is the point of the construction), so a
dispatcher cannot look at a packet and see which shard owns its source
host.  What *is* in the clear is the EphID's IV (Fig. 6: the middle four
bytes).  Because the AS issues every EphID itself, it can pin IVs at
issuance time so that :meth:`ShardPlan.owner_of_iv` of the clear IV
equals the owning shard (:meth:`repro.core.ephid.IvAllocator.
next_iv_for`), and the dispatcher recovers the shard from four
clear-text bytes — the software analogue of NIC RSS steering.

The *shape* of that map is a privacy decision, which is why it is
**keyed** and why there is no other mode:

    ``owner_of_iv(iv) = CMAC_kR(iv) % nshards``

under ``kR``, an AS-internal routing key derived from the AS master
secret (:attr:`repro.core.keys.AsSecret.shard_route`).  The cheaper bare
residue ``iv % nshards`` is one anyone on the path can compute too: two
EphIDs of the same host would share a publicly checkable residue —
``log2(nshards)`` bits of cross-EphID linkage, exactly what the paper's
domain-brokered privacy (Section IV/V-A1) promises does not exist.  The
keyed map is still deterministic — the AS can pin IVs against it at
issuance, and every EphID of a host still routes to the host's owner
shard — but without ``kR`` the clear IV bytes are uncorrelated with the
shard, so an observer learns nothing an unsharded deployment would not
leak.  The dispatcher pays one short PRF per packet, batched over a
burst's whole IV column with a single AES-ECB pass — a 4-byte CMAC
collapses to one AES call, see :class:`RoutingKey` —
(:meth:`ShardPlan.owners_of_iv_bytes`; nearly free on the openssl
backend).

This module is the **only** place an IV -> shard decision may be
computed: the ``shard-routing-mod`` rule of :mod:`repro.analysis` fails
on any ``% nshards``-style routing arithmetic elsewhere on the dispatch
or issuance paths, so the leak cannot quietly come back.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import ClassVar

from ..core.ephid import CIPHERTEXT_SIZE, IV_SIZE
from ..core.hostdb import FIRST_HOST_HID
from ..crypto.aes import AES, BLOCK_SIZE
from ..crypto.cmac import _left_shift
from ..crypto.util import xor_bytes

#: EphID layout offsets (Fig. 6): ciphertext || IV || tag.
_IV_OFFSET = CIPHERTEXT_SIZE
_IV_END = CIPHERTEXT_SIZE + IV_SIZE

#: kR length: one AES-CMAC key.
ROUTING_KEY_SIZE = 16

#: PRF output bytes folded into the shard index.  Eight bytes keep the
#: modulo bias below 2^-60 for any sane shard count.
_PRF_BYTES = 8

#: The PRF word of each 16-byte tag in a bulk ECB output.
_TAG_WORD = struct.Struct(f">Q{BLOCK_SIZE - _PRF_BYTES}x")

#: What follows the four IV bytes in a PRF input block, before masking.
_PAD12 = bytes(BLOCK_SIZE - IV_SIZE)


class RoutingKey:
    """kR — the PRF side of the keyed IV -> shard map.

    The PRF is AES-CMAC (RFC 4493) over the four clear IV bytes.  A
    4-byte message is a single *incomplete* CMAC block, so the tag
    collapses to one AES call on the padded, subkey-masked block:

        ``CMAC_kR(iv) = AES_kR(K2 XOR (iv || 0x80 || 0^11))``

    which this class exploits on the dispatch path: a whole burst's IV
    column becomes one :meth:`repro.crypto.aes.AES.encrypt_blocks` call
    (a single EVP update on the openssl backend) instead of a per-IV
    CMAC context loop — the bit-identical tag at a fraction of the cost
    (``tests/test_sharding.py`` pins the equivalence against the generic
    CMAC).  The K2 mask is derived once at construction.
    """

    __slots__ = ("_aes", "_mask")

    def __init__(self, key: bytes, *, backend=None) -> None:
        if len(key) != ROUTING_KEY_SIZE:
            raise ValueError(
                f"routing key kR must be {ROUTING_KEY_SIZE} bytes, got {len(key)}"
            )
        self._aes = AES(key, backend=backend)
        # RFC 4493 subkeys: L = AES_K(0), K1 = dbl(L), K2 = dbl(K1).
        k2 = _left_shift(_left_shift(self._aes.encrypt_block(bytes(BLOCK_SIZE))))
        # K2 XOR (0^4 || 0x80 || 0^11): XORed onto ``iv || 0^12`` it
        # yields the padded, subkey-masked block.
        self._mask = k2[:IV_SIZE] + bytes((k2[IV_SIZE] ^ 0x80,)) + k2[IV_SIZE + 1 :]

    def shard_of(self, iv_bytes: bytes, nshards: int) -> int:
        """The shard the keyed map sends four clear IV bytes to."""
        tag = self._aes.encrypt_block(xor_bytes(iv_bytes + _PAD12, self._mask))
        return int.from_bytes(tag[:_PRF_BYTES], "big") % nshards

    def shards_of(self, iv_columns, nshards: int) -> "list[int]":
        """Bulk form of :meth:`shard_of` — one XOR and one AES-ECB call
        per burst."""
        if not iv_columns:
            return []
        # The column as ``iv || 0^12`` blocks, masked as one integer.
        blocks = _PAD12.join(iv_columns) + _PAD12
        masked = int.from_bytes(blocks, "big") ^ int.from_bytes(
            self._mask * len(iv_columns), "big"
        )
        tags = self._aes.encrypt_blocks(masked.to_bytes(len(blocks), "big"))
        return [word % nshards for (word,) in _TAG_WORD.iter_unpack(tags)]


@dataclass(frozen=True)
class ShardPlan:
    """One AS's shard ownership: HID -> shard and IV -> shard."""

    nshards: int
    #: Consecutive host HIDs per contiguous ownership block.
    block: int = 1
    #: kR for the keyed map.  Required for routing over more than one
    #: shard; ownership-only uses (``owner_of``) never need it.
    key: "bytes | None" = field(default=None, repr=False)
    #: The IV -> shard map's tag, fixed: worker specs and snapshots carry
    #: it so a worker can cross-check that both came from one plan.
    mode: ClassVar[str] = "keyed"

    def __post_init__(self) -> None:
        if self.nshards < 1:
            raise ValueError(f"nshards must be >= 1, got {self.nshards}")
        if self.block < 1:
            raise ValueError(f"block must be >= 1, got {self.block}")
        if self.key is not None and len(self.key) != ROUTING_KEY_SIZE:
            raise ValueError(
                f"routing key kR must be {ROUTING_KEY_SIZE} bytes, "
                f"got {len(self.key)}"
            )

    # -- HID ownership ------------------------------------------------------

    def owner_of(self, hid: int) -> int:
        """The shard owning ``hid``'s record (MAC keys included)."""
        if hid < FIRST_HOST_HID:
            return 0  # service identities live on shard 0
        return ((hid - FIRST_HOST_HID) // self.block) % self.nshards

    # -- IV routing ---------------------------------------------------------

    def _keyed_router(self) -> RoutingKey:
        router = getattr(self, "_router", None)
        if router is None:
            if self.key is None:
                raise ValueError(
                    f"keyed routing over {self.nshards} shards needs a "
                    "routing key kR (pass ShardPlan(key=...))"
                )
            router = RoutingKey(self.key)
            object.__setattr__(self, "_router", router)
        return router

    def validate_routing(self) -> "ShardPlan":
        """Fail fast (not mid-burst) if this plan cannot route IVs."""
        if self.nshards > 1:
            self._keyed_router()
        return self

    def owner_of_iv(self, iv: int) -> int:
        """The shard a pinned IV routes to, under the plan's map."""
        if self.nshards == 1:
            return 0
        return self._keyed_router().shard_of(iv.to_bytes(4, "big"), self.nshards)

    def owner_of_iv_bytes(self, iv_bytes: bytes) -> int:
        """:meth:`owner_of_iv` straight from four clear wire bytes."""
        if self.nshards == 1:
            return 0
        return self._keyed_router().shard_of(bytes(iv_bytes), self.nshards)

    def owners_of_iv_bytes(self, iv_columns) -> "list[int]":
        """Route a whole burst's IV column at once.

        One bulk CMAC call for the entire column (the dispatcher's
        batched pre-route).  Element-for-element identical to
        :meth:`owner_of_iv_bytes` per entry.
        """
        if self.nshards == 1:
            return [0] * len(iv_columns)
        return self._keyed_router().shards_of(iv_columns, self.nshards)

    def shard_of_ephid(self, ephid: bytes) -> int:
        """Routing shard of an EphID, read from its clear IV bytes."""
        return self.owner_of_iv_bytes(ephid[_IV_OFFSET:_IV_END])
