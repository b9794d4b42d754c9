"""Columnar ``host_info``: dense-HID columns instead of per-host objects.

Host HIDs are allocated sequentially from ``FIRST_HOST_HID``, so
``row = hid - FIRST_HOST_HID`` is a dense index: every per-host field
lives at that offset in a flat column (a flags byte, a 32-byte kHA key
slot, a subscriber id, two EphID counters).  A registered host costs
~53 bytes of column storage and **zero** Python objects; the
:class:`HostRef` row proxy is materialised only when a caller actually
asks for a record, and reads/writes through to the columns.  Service
HIDs (below ``FIRST_HOST_HID``, a handful per AS) keep their real
:class:`~repro.core.hostdb.HostRecord` objects.

The API is that of :class:`~repro.core.hostdb.HostDatabase`, the
per-record spec the differential tests hold this store to
(``allocate_hid``/``register``/``get``/``packet_mac_key``/``is_valid``/
``revoke_hid``/``find_by_subscriber``/``records``/``on_register``/
``on_revoke_hid``/``__len__``/``total_registered``), plus two bulk entry
points:
``bulk_register`` admits a population from one keystream blob, and
``shard_columns`` slices the columns per shard for the snapshot codec
(numpy-gathered when available).
"""

from __future__ import annotations

from array import array
from typing import Callable

from ..core.errors import RevokedError, UnknownHostError
from ..core.hostdb import FIRST_HOST_HID, HostRecord
from ..core.keys import SYMMETRIC_KEY_SIZE, HostAsKeys
from .snapshot import KEY_BYTES, pack_u32s

try:  # optional acceleration; shard_columns has a stdlib fallback
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is present in CI
    _np = None

F_REGISTERED = 1
F_REVOKED = 2
_NO_SUBSCRIBER = -1
_MAX_HID = 0xFFFF_FFFF


class HostRef:
    """A row proxy over the columns, attribute-compatible with
    :class:`~repro.core.hostdb.HostRecord`; mutations (``revoked``,
    ``ephids_issued += 1``...) write through to the columns."""

    __slots__ = ("_db", "hid", "_row")

    def __init__(self, db: "ColumnarHostDatabase", hid: int, row: int) -> None:
        self._db = db
        self.hid = hid
        self._row = row

    @property
    def keys(self) -> HostAsKeys:
        base = self._row * KEY_BYTES
        blob = self._db._keys
        return HostAsKeys(
            control=bytes(blob[base : base + SYMMETRIC_KEY_SIZE]),
            packet_mac=bytes(blob[base + SYMMETRIC_KEY_SIZE : base + KEY_BYTES]),
        )

    @property
    def subscriber_id(self) -> "int | None":
        sub = self._db._subs[self._row]
        return None if sub == _NO_SUBSCRIBER else sub

    @property
    def revoked(self) -> bool:
        return bool(self._db._flags[self._row] & F_REVOKED)

    @revoked.setter
    def revoked(self, value: bool) -> None:
        db = self._db
        current = db._flags[self._row] & F_REVOKED
        if value and not current:
            db._flags[self._row] |= F_REVOKED
            db._live_hosts -= 1
        elif not value and current:
            db._flags[self._row] &= 0xFF ^ F_REVOKED
            db._live_hosts += 1

    @property
    def ephids_issued(self) -> int:
        return self._db._issued[self._row]

    @ephids_issued.setter
    def ephids_issued(self, value: int) -> None:
        self._db._issued[self._row] = value

    @property
    def ephids_revoked(self) -> int:
        return self._db._erevoked[self._row]

    @ephids_revoked.setter
    def ephids_revoked(self, value: int) -> None:
        self._db._erevoked[self._row] = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HostRef(hid={self.hid}, subscriber_id={self.subscriber_id}, "
            f"revoked={self.revoked})"
        )


class ColumnarHostDatabase:
    """``host_info`` over dense columns: the store every AS runs."""

    def __init__(self) -> None:
        self._flags = bytearray()
        self._keys = bytearray()
        self._subs = array("q")
        self._issued = array("I")
        self._erevoked = array("I")
        #: Service endpoints (hid < FIRST_HOST_HID) keep real records;
        #: insertion order first in ``records()``, as ``HostDatabase`` has it.
        self._services: dict[int, HostRecord] = {}
        self._by_subscriber: dict[int, int] = {}
        self._next_hid = FIRST_HOST_HID
        self._live_hosts = 0
        self._registered_hosts = 0
        self.on_register: Callable[[HostRecord], None] | None = None
        self.on_revoke_hid: Callable[[int], None] | None = None

    # -- row plumbing ------------------------------------------------------

    def _ensure_rows(self, count: int) -> None:
        grow = count - len(self._flags)
        if grow <= 0:
            return
        self._flags += bytes(grow)
        self._keys += bytes(grow * KEY_BYTES)
        self._subs.frombytes(b"\xff" * (8 * grow))  # -1 == no subscriber
        self._issued.frombytes(bytes(4 * grow))
        self._erevoked.frombytes(bytes(4 * grow))

    # -- HostDatabase duck API ---------------------------------------------

    def allocate_hid(self) -> int:
        """Assign a fresh, never-reused HID."""
        hid = self._next_hid
        if hid > _MAX_HID:
            raise UnknownHostError("HID space exhausted")
        self._next_hid += 1
        return hid

    def _check_subscriber(self, record: HostRecord) -> None:
        if record.subscriber_id is not None and not record.revoked:
            previous = self.find_by_subscriber(record.subscriber_id)
            if previous is not None:
                raise UnknownHostError(
                    f"subscriber {record.subscriber_id} already has live "
                    f"HID {previous.hid}"
                )
            self._by_subscriber[record.subscriber_id] = record.hid

    def register(self, record: HostRecord) -> None:
        hid = record.hid
        if hid < FIRST_HOST_HID:
            if hid in self._services:
                raise UnknownHostError(f"HID {hid} already registered")
            self._check_subscriber(record)
            self._services[hid] = record
            if self.on_register is not None:
                self.on_register(record)
            return
        row = hid - FIRST_HOST_HID
        if row < len(self._flags) and self._flags[row] & F_REGISTERED:
            raise UnknownHostError(f"HID {hid} already registered")
        keys = record.keys
        if (
            len(keys.control) != SYMMETRIC_KEY_SIZE
            or len(keys.packet_mac) != SYMMETRIC_KEY_SIZE
        ):
            raise ValueError("kHA subkeys must be 16 bytes each")
        self._check_subscriber(record)
        self._ensure_rows(row + 1)
        base = row * KEY_BYTES
        self._keys[base : base + SYMMETRIC_KEY_SIZE] = keys.control
        self._keys[base + SYMMETRIC_KEY_SIZE : base + KEY_BYTES] = keys.packet_mac
        self._flags[row] = F_REGISTERED | (F_REVOKED if record.revoked else 0)
        self._subs[row] = (
            _NO_SUBSCRIBER if record.subscriber_id is None else record.subscriber_id
        )
        self._issued[row] = record.ephids_issued
        self._erevoked[row] = record.ephids_revoked
        self._registered_hosts += 1
        if not record.revoked:
            self._live_hosts += 1
        if self.on_register is not None:
            self.on_register(record)

    def get(self, hid: int):
        """Look up a live host; raises for unknown or revoked HIDs."""
        if hid < FIRST_HOST_HID:
            record = self._services.get(hid)
            if record is None:
                raise UnknownHostError(f"HID {hid} is not registered")
            if record.revoked:
                raise RevokedError(f"HID {hid} is revoked")
            return record
        return HostRef(self, hid, self._live_row(hid))

    def _live_row(self, hid: int) -> int:
        """The row of a live host HID; raises for unknown or revoked."""
        row = hid - FIRST_HOST_HID
        if row >= len(self._flags) or not self._flags[row] & F_REGISTERED:
            raise UnknownHostError(f"HID {hid} is not registered")
        if self._flags[row] & F_REVOKED:
            raise RevokedError(f"HID {hid} is revoked")
        return row

    def packet_mac_key(self, hid: int) -> bytes:
        """The packet-MAC subkey of a live host's kHA, sliced out of the
        key column — no row proxy; raises what :meth:`get` raises."""
        if hid < FIRST_HOST_HID:
            return self.get(hid).keys.packet_mac
        base = self._live_row(hid) * KEY_BYTES
        return bytes(self._keys[base + SYMMETRIC_KEY_SIZE : base + KEY_BYTES])

    def is_valid(self, hid: int) -> bool:
        if hid < FIRST_HOST_HID:
            record = self._services.get(hid)
            return record is not None and not record.revoked
        row = hid - FIRST_HOST_HID
        return row < len(self._flags) and self._flags[row] == F_REGISTERED

    def revoke_hid(self, hid: int) -> None:
        """Revoke a host identity (Section VIII-G2's escalation)."""
        if hid < FIRST_HOST_HID:
            record = self._services.get(hid)
            if record is None:
                raise UnknownHostError(f"HID {hid} is not registered")
            record.revoked = True
            subscriber_id = record.subscriber_id
        else:
            row = hid - FIRST_HOST_HID
            if row >= len(self._flags) or not self._flags[row] & F_REGISTERED:
                raise UnknownHostError(f"HID {hid} is not registered")
            if not self._flags[row] & F_REVOKED:
                self._flags[row] |= F_REVOKED
                self._live_hosts -= 1
            sub = self._subs[row]
            subscriber_id = None if sub == _NO_SUBSCRIBER else sub
        if (
            subscriber_id is not None
            and self._by_subscriber.get(subscriber_id) == hid
        ):
            del self._by_subscriber[subscriber_id]
        if self.on_revoke_hid is not None:
            self.on_revoke_hid(hid)

    def find_by_subscriber(self, subscriber_id: int):
        """Current live HID for a subscriber, if any (one HID per host)."""
        hid = self._by_subscriber.get(subscriber_id)
        if hid is None:
            return None
        if hid < FIRST_HOST_HID:
            record = self._services[hid]
            if record.revoked:
                del self._by_subscriber[subscriber_id]
                return None
            return record
        row = hid - FIRST_HOST_HID
        if self._flags[row] & F_REVOKED:
            # Revoked via direct HostRef mutation (which keeps the live
            # counter exact); heal the stale index entry.
            del self._by_subscriber[subscriber_id]
            return None
        return HostRef(self, hid, row)

    def records(self):
        """Iterate every record, revoked included (for shard snapshots)."""
        yield from self._services.values()
        flags = self._flags
        for row in range(len(flags)):
            if flags[row] & F_REGISTERED:
                yield HostRef(self, FIRST_HOST_HID + row, row)

    def __contains__(self, hid: int) -> bool:
        return self.is_valid(hid)

    def __len__(self) -> int:
        return self._live_hosts + sum(
            1 for record in self._services.values() if not record.revoked
        )

    @property
    def total_registered(self) -> int:
        return len(self._services) + self._registered_hosts

    # -- bulk entry points -------------------------------------------------

    def bulk_register(self, count: int, key_material: bytes) -> int:
        """Register ``count`` subscriber-less hosts from one keystream.

        ``key_material`` is ``count`` 32-byte rows (control || packet_mac)
        copied straight into the key column — no per-host record objects.
        Returns the first HID of the contiguous range.
        """
        if count < 1:
            raise ValueError("count must be at least 1")
        if len(key_material) != count * KEY_BYTES:
            raise ValueError(
                f"key material is {len(key_material)} bytes, "
                f"expected {count * KEY_BYTES}"
            )
        first = self._next_hid
        if first + count - 1 > _MAX_HID:
            raise UnknownHostError("HID space exhausted")
        row = first - FIRST_HOST_HID
        if row == len(self._flags):
            self._flags += b"\x01" * count
            self._keys += key_material
            self._subs.frombytes(b"\xff" * (8 * count))
            self._issued.frombytes(bytes(4 * count))
            self._erevoked.frombytes(bytes(4 * count))
        else:
            # Rows past _next_hid already exist (out-of-order explicit
            # registration); fall back to per-row writes with collision
            # checks.
            self._ensure_rows(row + count)
            for r in range(row, row + count):
                if self._flags[r] & F_REGISTERED:
                    raise UnknownHostError(
                        f"HID {FIRST_HOST_HID + r} already registered"
                    )
            for i in range(count):
                r = row + i
                self._flags[r] = F_REGISTERED
                base = r * KEY_BYTES
                self._keys[base : base + KEY_BYTES] = key_material[
                    i * KEY_BYTES : (i + 1) * KEY_BYTES
                ]
                self._subs[r] = _NO_SUBSCRIBER
                self._issued[r] = 0
                self._erevoked[r] = 0
        self._next_hid = first + count
        self._live_hosts += count
        self._registered_hosts += count
        if self.on_register is not None:
            for hid in range(first, first + count):
                self.on_register(self.get(hid))
        return first

    def shard_columns(self, plan, shard: int):
        """One shard's owned/live sections as packed column bytes.

        Returns ``(owned_hids, owned_flags, owned_keys, live_hids)`` in
        the snapshot codec's layout; service records come first (they
        all route to shard 0), host rows follow in HID order.
        """
        svc_hids: list[int] = []
        svc_flags = bytearray()
        svc_keys: list[bytes] = []
        svc_live: list[int] = []
        for record in self._services.values():
            if not record.revoked:
                svc_live.append(record.hid)
            if plan.owner_of(record.hid) == shard:
                svc_hids.append(record.hid)
                svc_flags.append(1 if record.revoked else 0)
                svc_keys.append(record.keys.control)
                svc_keys.append(record.keys.packet_mac)
        nshards, block = plan.nshards, plan.block
        if _np is not None:
            flags = _np.frombuffer(self._flags, dtype=_np.uint8)
            rows = _np.flatnonzero(flags & F_REGISTERED)
            hids = rows.astype(_np.uint32) + _np.uint32(FIRST_HOST_HID)
            row_flags = flags[rows]
            live_hids = hids[(row_flags & F_REVOKED) == 0].astype(">u4").tobytes()
            owned = ((rows // block) % nshards) == shard
            owned_rows = rows[owned]
            owned_hids = hids[owned].astype(">u4").tobytes()
            owned_flags = ((row_flags[owned] & F_REVOKED) >> 1).tobytes()
            keymat = _np.frombuffer(self._keys, dtype=_np.uint8)
            owned_keys = keymat.reshape(-1, KEY_BYTES)[owned_rows].tobytes()
        else:
            host_hids: list[int] = []
            host_flags = bytearray()
            key_parts: list[bytes] = []
            live: list[int] = []
            flags_col = self._flags
            keys_col = self._keys
            for row in range(len(flags_col)):
                f = flags_col[row]
                if not f & F_REGISTERED:
                    continue
                hid = FIRST_HOST_HID + row
                if not f & F_REVOKED:
                    live.append(hid)
                if (row // block) % nshards == shard:
                    host_hids.append(hid)
                    host_flags.append(1 if f & F_REVOKED else 0)
                    base = row * KEY_BYTES
                    key_parts.append(bytes(keys_col[base : base + KEY_BYTES]))
            owned_hids = pack_u32s(host_hids)
            owned_flags = bytes(host_flags)
            owned_keys = b"".join(key_parts)
            live_hids = pack_u32s(live)
        return (
            pack_u32s(svc_hids) + owned_hids,
            bytes(svc_flags) + owned_flags,
            b"".join(svc_keys) + owned_keys,
            pack_u32s(svc_live) + live_hids,
        )
