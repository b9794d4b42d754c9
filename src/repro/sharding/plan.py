"""Shard ownership: HID -> shard, each shard's row layout, and the keyed
IV -> shard routing map.

The paper scales the MS across four processes with "no coordination
between the processes"; that holds only while every party computes the
same partition, so this module is its one definition.  A
:class:`ShardPlan` maps every HID to exactly one shard:

* service HIDs (below :data:`repro.core.hostdb.FIRST_HOST_HID`) always
  belong to shard 0, and
* host HIDs are striped round-robin over the shards in registration
  order (host HIDs are allocated sequentially).

It also fixes where an owned host lands in its shard: the owned rows
compact to the shard's own dense row space, so a worker's key pool has
no holes for other shards' hosts::

    row = hid - FIRST_HOST_HID
    dense, owner = divmod(row, nshards)  # row in the owner's space

Each map has a scalar form (:meth:`ShardPlan.owner_of`, and
:meth:`ShardPlan.row_lookup` — one shard's row map, bound once for the
worker's key fetch) and a numpy column form (:meth:`ShardPlan.owners_of`,
:meth:`ShardPlan.dense_rows`) for the snapshot load; the export reads a
shard's rows as the strided slice :meth:`ShardPlan.owned_rows` hands out.
``repro.state`` takes the plan as a parameter and never re-derives the
stripe.

Routing without decrypting — and without leaking
------------------------------------------------

An EphID hides its HID (that is the point of the construction), so a
dispatcher cannot look at a packet and see which shard owns its source
host.  What *is* in the clear is the EphID's IV (Fig. 6: the middle four
bytes).  Because the AS issues every EphID itself, it can pin IVs at
issuance time so that :meth:`ShardPlan.owners_of_iv_bytes` maps the
clear IV to the owning shard (:meth:`repro.core.ephid.IvAllocator.
next_iv_for`), and the dispatcher recovers the shard from four
clear-text bytes — the software analogue of NIC RSS steering.

The *shape* of that map is a privacy decision, which is why it is
**keyed** and why there is no other mode:

    ``owner(iv) = CMAC_kR(iv) % nshards``

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
(:meth:`ShardPlan.owners_of_iv_bytes`; nearly free on AES-NI).

This module is the **only** place a shard decision — IV routing or HID
ownership — may be computed: the ``shard-routing-mod`` rule of
:mod:`repro.analysis` fails on any ``% nshards``-style arithmetic
anywhere else in the tree, so neither the leak nor a second, drifting
copy of the partition can quietly come back.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Callable, ClassVar

import numpy as np

from ..core.ephid import IV_SIZE
from ..core.hostdb import FIRST_HOST_HID
from ..crypto.aes import AES, BLOCK_SIZE
from ..crypto.cmac import _left_shift

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
    (a single OpenSSL EVP update) instead of a per-IV CMAC context loop
    — the bit-identical tag at a fraction of the cost
    (``tests/test_sharding.py`` pins the equivalence against the generic
    CMAC).  The K2 mask is derived once at construction.
    """

    __slots__ = ("_aes", "_mask")

    def __init__(self, key: bytes) -> None:
        if len(key) != ROUTING_KEY_SIZE:
            raise ValueError(
                f"routing key kR must be {ROUTING_KEY_SIZE} bytes, got {len(key)}"
            )
        self._aes = AES(key)
        # RFC 4493 subkeys: L = AES_K(0), K1 = dbl(L), K2 = dbl(K1).
        k2 = _left_shift(_left_shift(self._aes.encrypt_block(bytes(BLOCK_SIZE))))
        # K2 XOR (0^4 || 0x80 || 0^11): XORed onto ``iv || 0^12`` it
        # yields the padded, subkey-masked block.
        self._mask = k2[:IV_SIZE] + bytes((k2[IV_SIZE] ^ 0x80,)) + k2[IV_SIZE + 1 :]

    def shards_of(self, iv_columns, nshards: int) -> "list[int]":
        """The shards the keyed map sends a column of four-byte clear IVs
        to — one XOR and one AES-ECB call per burst."""
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
    """One AS's shard ownership: HID -> shard, HID -> dense row in its
    shard, and IV -> shard."""

    nshards: int
    #: kR for the keyed map.  Required for routing over more than one
    #: shard; ownership and row-layout uses never need it.
    key: "bytes | None" = field(default=None, repr=False)
    #: The IV -> shard map's tag, fixed.  ``ShardSpec.routing_mode``
    #: carries it and :class:`~repro.sharding.worker.ShardState` refuses
    #: any other value.
    mode: ClassVar[str] = "keyed"
    #: Consecutive host HIDs per ownership block, fixed: the stripe is
    #: round-robin.  ``ShardSpec.shard_block`` carries it and
    #: :class:`~repro.sharding.worker.ShardState` refuses any other value.
    block: ClassVar[int] = 1

    def __post_init__(self) -> None:
        if self.nshards < 1:
            raise ValueError(f"nshards must be >= 1, got {self.nshards}")
        if self.key is not None and len(self.key) != ROUTING_KEY_SIZE:
            raise ValueError(
                f"routing key kR must be {ROUTING_KEY_SIZE} bytes, "
                f"got {len(self.key)}"
            )

    # -- HID ownership and row layout --------------------------------------

    def owner_of(self, hid: int) -> int:
        """The shard owning ``hid``'s record (MAC keys included)."""
        if hid < FIRST_HOST_HID:
            return 0  # service identities live on shard 0
        return (hid - FIRST_HOST_HID) % self.nshards

    def row_lookup(self, shard: int) -> Callable[[int], int]:
        """``shard``'s scalar HID -> dense-row map, bound once: the row a
        host HID ``shard`` owns lands in, else -1 (service HIDs have no
        dense row; a shard keeps them out of plan).  One call per key
        fetch on the worker's first-contact path, the plan's fields in
        cells."""
        nshards = self.nshards

        def local_row(hid: int) -> int:
            if hid < FIRST_HOST_HID:
                return -1
            dense, owner = divmod(hid - FIRST_HOST_HID, nshards)
            return dense if owner == shard else -1

        return local_row

    def owned_rows(self, shard: int) -> slice:
        """The host rows (``hid - FIRST_HOST_HID``) ``shard`` owns, as a
        slice over a whole-population column: the export reads the
        shard's rows through it as a strided view, with no index column
        built over the population."""
        return slice(shard, None, self.nshards)

    def owners_of(self, hids) -> np.ndarray:
        """:meth:`owner_of` over a column of HIDs (any integer array)."""
        # In place over one int64 column: the load runs this over every
        # HID a snapshot's owned section names.
        owners = np.subtract(hids, FIRST_HOST_HID, dtype=np.int64)
        # A service HID clips to row 0, which shard 0 owns too.
        np.maximum(owners, 0, out=owners)
        owners %= self.nshards
        return owners

    def dense_rows(self, hids) -> np.ndarray:
        """Each HID's row in its owner's dense row space, over a column of
        HIDs (any integer array): what the owner's :meth:`row_lookup`
        answers, and -1 for a service HID."""
        rows = np.subtract(hids, FIRST_HOST_HID, dtype=np.int64)
        dense = rows // self.nshards
        dense[rows < 0] = -1
        return dense

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

    def owners_of_iv_bytes(self, iv_columns) -> "list[int]":
        """Route a whole burst's IV column at once.

        One bulk CMAC call for the entire column (the dispatcher's
        batched pre-route).
        """
        if self.nshards == 1:
            return [0] * len(iv_columns)
        return self._keyed_router().shards_of(iv_columns, self.nshards)
