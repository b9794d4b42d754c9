"""Columnar shard host view: the worker-process side of the columns.

A shard's view of ``host_info`` — owned keys plus replicated liveness —
behind the two :class:`~repro.core.hostdb.HostDatabase` methods the
border router uses: ``is_valid`` (answered from the replicated live-HID
column, so destination-side checks work for hosts other shards own) and
``packet_mac_key`` (answered, like ``get``, only for owned HIDs; the
router fetches MAC keys for source hosts alone, which the IV-pinned
routing guarantees are local).  A shard owns the HID blocks
``blk % nshards == shard`` of the dense row space, so its owned rows
compact to their own dense index::

    row  = hid - FIRST_HOST_HID
    blk, off = divmod(row, block)          # owned iff blk % nshards == shard
    orow = (blk // nshards) * block + off  # dense per-shard row

Owned keys live in one pooled bytearray at ``orow``; the replicated
live-HID view is one byte per dense row.  ``load_snapshot`` ingests a
:class:`~repro.state.snapshot.ShardSnapshot` with numpy scatter stores
when available (stdlib loop otherwise), so a worker resync at
million-host scale is a handful of vectorised copies.  The router's key
fetch, ``packet_mac_key``, is a 16-byte slice of the key pool behind the
flag-byte checks; ``get`` builds a :class:`_ViewRecord` on demand for
the callers that want a whole record, and nothing here is kept per HID
looked up.
"""

from __future__ import annotations

from ..core.errors import RevokedError, UnknownHostError
from ..core.hostdb import FIRST_HOST_HID
from ..core.keys import HostAsKeys
from .snapshot import KEY_BYTES, ShardSnapshot

try:  # optional acceleration; load_snapshot has a stdlib fallback
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is present in CI
    _np = None

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

    def __init__(self, *, shard: int, nshards: int, block: int = 1) -> None:
        self._shard = shard
        self._nshards = nshards
        self._block = block
        self._owned_flags = bytearray()  # by orow: _ABSENT/_PRESENT[|_REVOKED]
        self._keys = bytearray()  # by orow: 32 B (control || packet_mac)
        self._owned_n = 0
        self._live = bytearray()  # by dense row: 1 == live
        self._service_live: set[int] = set()
        #: Out-of-plan rows — service HIDs (< FIRST_HOST_HID) and any
        #: host HID add_owned put here despite not mapping to this shard
        #: — as ``[32 key bytes, revoked]``.
        self._extra: dict[int, list] = {}

    # -- row math ----------------------------------------------------------

    def _orow(self, hid: int) -> int:
        """Dense per-shard row for ``hid``; -1 if not in this shard's plan."""
        if hid < FIRST_HOST_HID:
            return -1
        blk, off = divmod(hid - FIRST_HOST_HID, self._block)
        if blk % self._nshards != self._shard:
            return -1
        return (blk // self._nshards) * self._block + off

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
        self._put_owned(hid, control + packet_mac, revoked)
        if not revoked:
            self.set_live(hid)

    def _put_owned(self, hid: int, keys: bytes, revoked: bool) -> None:
        """Write one owned row (32 key bytes + flag); liveness untouched."""
        orow = self._orow(hid)
        if orow < 0:
            if hid not in self._extra:
                self._owned_n += 1
            self._extra[hid] = [keys, revoked]
        else:
            self._ensure_orows(orow + 1)
            if self._owned_flags[orow] == _ABSENT:
                self._owned_n += 1
            self._owned_flags[orow] = _PRESENT | (_REVOKED if revoked else 0)
            base = orow * KEY_BYTES
            self._keys[base : base + KEY_BYTES] = keys

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
        live section alone — on the numpy arm and the stdlib one alike.
        A snapshot that names an owned HID twice is refused (a repeated
        scatter index has no defined winner)."""
        self._owned_flags = bytearray()
        self._keys = bytearray()
        self._owned_n = 0
        self._live = bytearray()
        self._service_live = set()
        self._extra = {}
        if _np is not None and snap.owned_count + snap.live_count > 0:
            self._load_snapshot_np(snap)
        else:
            for hid, control, packet_mac, revoked in snap.iter_owned():
                self._put_owned(hid, control + packet_mac, revoked)
            for hid in snap.iter_live():
                self.set_live(hid)
        # The rows written, however often the snapshot named each.
        flags = self._owned_flags
        self._owned_n = len(flags) - flags.count(_ABSENT) + len(self._extra)
        if self._owned_n != snap.owned_count:
            raise ValueError("owned HIDs repeat: a shard holds one row per HID")

    def _load_snapshot_np(self, snap: ShardSnapshot) -> None:
        block, nshards, shard = self._block, self._nshards, self._shard
        hids = _np.frombuffer(snap.owned_hids, dtype=">u4").astype(_np.int64)
        flags = _np.frombuffer(snap.owned_flags, dtype=_np.uint8)
        rows = hids - FIRST_HOST_HID
        blk, off = _np.divmod(rows, block)
        in_plan = (rows >= 0) & (blk % nshards == shard)
        plan_idx = _np.flatnonzero(in_plan)
        if plan_idx.size:
            orows = (blk[plan_idx] // nshards) * block + off[plan_idx]
            self._ensure_orows(int(orows.max()) + 1)
            dest_flags = _np.frombuffer(self._owned_flags, dtype=_np.uint8)
            dest_flags[orows] = _PRESENT | (flags[plan_idx] * _REVOKED)
            src_keys = _np.frombuffer(snap.owned_keys, dtype=_np.uint8)
            dest_keys = _np.frombuffer(self._keys, dtype=_np.uint8)
            dest_keys.reshape(-1, KEY_BYTES)[orows] = src_keys.reshape(
                -1, KEY_BYTES
            )[plan_idx]
        for i in _np.flatnonzero(~in_plan):
            base = int(i) * KEY_BYTES
            self._extra[int(hids[i])] = [
                bytes(snap.owned_keys[base : base + KEY_BYTES]),
                bool(flags[i]),
            ]
        live = _np.frombuffer(snap.live_hids, dtype=">u4").astype(_np.int64)
        live_rows = live - FIRST_HOST_HID
        host_live = live_rows >= 0
        rows_live = live_rows[host_live]
        if rows_live.size:
            self._ensure_live(int(rows_live.max()) + 1)
            dest_live = _np.frombuffer(self._live, dtype=_np.uint8)
            dest_live[rows_live] = 1
        self._service_live = {int(h) for h in live[~host_live]}
