"""Columnar shard host view: the worker-process side of the columns.

A shard's view of ``host_info`` — owned keys plus replicated liveness —
behind the two :class:`~repro.core.hostdb.HostDatabase` methods the
border router uses: ``is_valid`` (answered from the replicated live-HID
column, so destination-side checks work for hosts other shards own) and
``packet_mac_key`` (answered, like ``get``, only for owned HIDs; the
router fetches MAC keys for source hosts alone, which the IV-pinned
routing guarantees are local).  The view is built from a
:class:`~repro.sharding.plan.ShardPlan` (any object with its methods)
and a shard index, and asks the plan which host rows the shard owns and
where each lands in the shard's dense row space — it never re-derives
the stripe.  Owned keys live in one pooled bytearray at that dense row;
the replicated live-HID view is one byte per ``hid - FIRST_HOST_HID``.
Service HIDs (shard 0's, out of every plan) keep their keys in a small
side dict.  A host HID another shard owns is refused with
``ValueError`` — by ``add_owned`` and by ``load_snapshot`` alike — so a
view never serves a MAC key for a host outside its stripe.
``load_snapshot`` ingests a :class:`~repro.state.snapshot.ShardSnapshot`
with numpy scatter stores over the plan's column forms, so a worker
resync at million-host scale is a handful of vectorised copies.  The
router's key fetch, ``packet_mac_key``, is a 16-byte slice of the key
pool behind the flag-byte checks; ``get`` builds a :class:`_ViewRecord`
on demand for the callers that want a whole record, and nothing here is
kept per HID looked up.
"""

from __future__ import annotations

import numpy as np

from ..core.errors import RevokedError, UnknownHostError
from ..core.hostdb import FIRST_HOST_HID
from ..core.keys import HostAsKeys
from .snapshot import KEY_BYTES, KEY_ROW, ShardSnapshot

_ABSENT = 0
_PRESENT = 1
_REVOKED = 2


class _ViewRecord:
    """What ``get`` returns: hid + kHA keys + a ``revoked`` flag."""

    __slots__ = ("hid", "keys", "revoked")

    def __init__(self, hid: int, keys: HostAsKeys, revoked: bool) -> None:
        self.hid = hid
        self.keys = keys
        self.revoked = revoked


class ColumnarShardView:
    """A shard's ``host_info`` view over dense columns."""

    def __init__(self, plan, shard: int) -> None:
        self._plan = plan
        self._shard = shard
        #: Dense per-shard row of an HID; -1 if not in this shard's plan.
        self._orow = plan.row_lookup(shard)
        self._owned_flags = bytearray()  # by orow: _ABSENT/_PRESENT[|_REVOKED]
        self._keys = bytearray()  # by orow: 32 B (control || packet_mac)
        self._owned_n = 0
        self._live = bytearray()  # by hid - FIRST_HOST_HID: 1 == live
        self._service_live: set[int] = set()
        #: Service HIDs (< FIRST_HOST_HID, out of every plan) as
        #: ``[32 key bytes, revoked]``.
        self._extra: dict[int, list] = {}

    # -- row storage -------------------------------------------------------

    def _ensure_orows(self, count: int) -> None:
        grow = count - len(self._owned_flags)
        if grow > 0:
            self._owned_flags += bytes(grow)
            self._keys += bytes(grow * KEY_BYTES)

    def _ensure_live(self, count: int) -> None:
        grow = count - len(self._live)
        if grow > 0:
            self._live += bytes(grow)

    # -- what the worker protocol and the router call ----------------------

    def add_owned(
        self, hid: int, control: bytes, packet_mac: bytes, *, revoked: bool = False
    ) -> None:
        """Write one owned row (32 key bytes + flag), and mark it live
        unless it is revoked."""
        keys = control + packet_mac
        if hid < FIRST_HOST_HID:
            if hid not in self._extra:
                self._owned_n += 1
            self._extra[hid] = [keys, revoked]
        else:
            orow = self._orow(hid)
            if orow < 0:
                raise ValueError(
                    f"HID {hid} is owned by shard {self._plan.owner_of(hid)}, "
                    f"not shard {self._shard}"
                )
            self._ensure_orows(orow + 1)
            if self._owned_flags[orow] == _ABSENT:
                self._owned_n += 1
            self._owned_flags[orow] = _PRESENT | (_REVOKED if revoked else 0)
            base = orow * KEY_BYTES
            self._keys[base : base + KEY_BYTES] = keys
        if not revoked:
            self.set_live(hid)

    def set_live(self, hid: int) -> None:
        if hid < FIRST_HOST_HID:
            self._service_live.add(hid)
            return
        row = hid - FIRST_HOST_HID
        self._ensure_live(row + 1)
        self._live[row] = 1

    def revoke(self, hid: int) -> None:
        if hid < FIRST_HOST_HID:
            self._service_live.discard(hid)
        else:
            row = hid - FIRST_HOST_HID
            if row < len(self._live):
                self._live[row] = 0
        extra = self._extra.get(hid)
        if extra is not None:
            extra[1] = True
            return
        orow = self._orow(hid)
        if 0 <= orow < len(self._owned_flags) and self._owned_flags[orow] & _PRESENT:
            self._owned_flags[orow] |= _REVOKED

    def is_valid(self, hid: int) -> bool:
        if hid < FIRST_HOST_HID:
            return hid in self._service_live
        row = hid - FIRST_HOST_HID
        return row < len(self._live) and self._live[row] == 1

    def _key_slot(self, hid: int) -> "tuple[bytes | bytearray, int]":
        """``(buffer, offset)`` of the 32 kHA bytes (control ||
        packet_mac) of an owned, unrevoked HID; raises for any other."""
        extra = self._extra.get(hid)
        if extra is not None:
            (pool, revoked), base = extra, 0
        else:
            orow = self._orow(hid)
            flags = self._owned_flags
            if orow < 0 or orow >= len(flags) or not flags[orow] & _PRESENT:
                raise UnknownHostError(
                    f"HID {hid} is not owned by this shard (misrouted packet?)"
                )
            pool, base, revoked = self._keys, orow * KEY_BYTES, flags[orow] & _REVOKED
        if revoked:
            raise RevokedError(f"HID {hid} is revoked")
        return pool, base

    def packet_mac_key(self, hid: int) -> bytes:
        """The packet-MAC subkey of an owned live host's kHA: 16 bytes
        of the key pool, no record built; raises what :meth:`get` raises."""
        pool, base = self._key_slot(hid)
        return bytes(pool[base + 16 : base + KEY_BYTES])

    def get(self, hid: int) -> _ViewRecord:
        pool, base = self._key_slot(hid)
        keys = HostAsKeys(
            control=bytes(pool[base : base + 16]),
            packet_mac=bytes(pool[base + 16 : base + KEY_BYTES]),
        )
        return _ViewRecord(hid, keys, False)

    @property
    def owned_count(self) -> int:
        return self._owned_n

    # -- bulk ingest -------------------------------------------------------

    def load_snapshot(self, snap: ShardSnapshot) -> None:
        """Replace this view's contents with a packed shard snapshot:
        keys and revoked flags from its owned section, liveness from its
        live section alone.  A snapshot that names a host HID another
        shard owns, or an owned HID twice (a repeated scatter index has
        no defined winner), is refused."""
        plan, shard = self._plan, self._shard
        hids = np.frombuffer(snap.owned_hids, dtype=">u4")
        flags = np.frombuffer(snap.owned_flags, dtype=np.uint8)
        orows = plan.dense_rows(hids)
        foreign = np.flatnonzero((orows >= 0) & (plan.owners_of(hids) != shard))
        if foreign.size:
            hid = int(hids[foreign[0]])
            raise ValueError(
                f"HID {hid} is owned by shard {plan.owner_of(hid)}, "
                f"not shard {shard}"
            )
        in_plan = orows >= 0
        plan_idx = np.flatnonzero(in_plan)
        orows = orows[plan_idx]
        nrows = int(orows.max()) + 1 if orows.size else 0
        self._owned_flags = bytearray(nrows)
        self._keys = bytearray(nrows * KEY_BYTES)
        self._extra = {}
        dest_flags = np.frombuffer(self._owned_flags, dtype=np.uint8)
        dest_flags[orows] = _PRESENT | (flags[plan_idx] * _REVOKED)
        src_keys = np.frombuffer(snap.owned_keys, dtype=KEY_ROW)
        dest_keys = np.frombuffer(self._keys, dtype=KEY_ROW)
        dest_keys[orows] = src_keys[plan_idx]
        for i in np.flatnonzero(~in_plan):
            base = int(i) * KEY_BYTES
            self._extra[int(hids[i])] = [
                bytes(snap.owned_keys[base : base + KEY_BYTES]),
                bool(flags[i]),
            ]
        live = np.frombuffer(snap.live_hids, dtype=">u4")
        host_live = live >= FIRST_HOST_HID
        rows_live = np.subtract(live[host_live], FIRST_HOST_HID, dtype=np.intp)
        self._live = bytearray(int(rows_live.max()) + 1 if rows_live.size else 0)
        np.frombuffer(self._live, dtype=np.uint8)[rows_live] = 1
        self._service_live = {int(h) for h in live[~host_live]}
        # The rows written, however often the snapshot named each.
        written = self._owned_flags
        self._owned_n = len(written) - written.count(_ABSENT) + len(self._extra)
        if self._owned_n != snap.owned_count:
            raise ValueError("owned HIDs repeat: a shard holds one row per HID")
