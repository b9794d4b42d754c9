"""The packed shard-state snapshot: one codec for resync and spawn.

A :class:`ShardSnapshot` is the column-oriented serialisation of one
shard's complete state — exactly what a worker needs to (re)build its
:class:`~repro.sharding.worker.ShardState`:

* the **owned section**: the HIDs this shard holds MAC keys for, a
  revoked flag per row, and the 32-byte kHA key pair (control ||
  packet_mac) per row;
* the **live section**: every live HID of the AS (the replicated
  validity view destination-side checks consult);
* the **revocation section**: the ``(exp_time, ephid)`` replica of the
  AS revocation list;
* a **trailer**: the plan's routing key kR, which the worker checks
  against its spec.

Each section is stored as packed parallel columns (u32 HIDs, u8 flags,
fixed-width byte pools, f64 expiries — all big-endian), so encoding a
million-host shard is a handful of buffer copies instead of a
million-iteration ``struct.pack`` loop, and the wire image *is* the
in-memory image.  Both the initial :class:`~repro.sharding.worker.
ShardSpec` and the supervisor's ``MSG_RESYNC`` replay carry one of
these, so there is exactly one serialisation of shard state in the
system.  The codec is layout-free: which rows a shard owns is decided by
the :class:`~repro.sharding.plan.ShardPlan` that
:meth:`~repro.state.ColumnarHostDatabase.shard_columns` exports under
and :class:`~repro.state.ColumnarShardView` loads under.
"""

from __future__ import annotations

import struct
import sys
from array import array
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EPHID_BYTES",
    "EPHID_ROW",
    "KEY_BYTES",
    "KEY_ROW",
    "ShardSnapshot",
    "build_shard_snapshot",
    "pack_f64s",
    "pack_u32s",
    "unpack_f64s",
    "unpack_u32s",
]

#: One owned row's key payload: control subkey || packet-MAC subkey.
KEY_BYTES = 32
EPHID_BYTES = 16
#: The same widths as numpy row types: a column of them is gathered and
#: scattered one row per element.
KEY_ROW = np.dtype((np.void, KEY_BYTES))
EPHID_ROW = np.dtype((np.void, EPHID_BYTES))

_NEEDS_SWAP = sys.byteorder == "little"
_HEAD = struct.Struct(">III")  # n_owned, n_live, n_revoked


def pack_u32s(values) -> bytes:
    """Pack an iterable of ints into big-endian u32 bytes."""
    arr = array("I", values)
    if _NEEDS_SWAP:
        arr.byteswap()
    return arr.tobytes()


def unpack_u32s(buf) -> array:
    """Big-endian u32 bytes back into a native ``array('I')``."""
    arr = array("I")
    arr.frombytes(buf)
    if _NEEDS_SWAP:
        arr.byteswap()
    return arr


def pack_f64s(values) -> bytes:
    """Pack an iterable of floats into big-endian f64 bytes."""
    arr = array("d", values)
    if _NEEDS_SWAP:
        arr.byteswap()
    return arr.tobytes()


def unpack_f64s(buf) -> array:
    """Big-endian f64 bytes back into a native ``array('d')``."""
    arr = array("d")
    arr.frombytes(buf)
    if _NEEDS_SWAP:
        arr.byteswap()
    return arr


@dataclass(frozen=True)
class ShardSnapshot:
    """One shard's packed state: owned keys, live view, revocations.

    Fields hold the packed column bytes directly (not decoded rows), so
    a snapshot round-trips through :meth:`encode`/:meth:`decode` without
    ever materialising per-record objects.
    """

    owned_hids: bytes  # n x u32 BE
    owned_flags: bytes  # n x u8, 1 = revoked
    owned_keys: bytes  # n x 32 B (control || packet_mac)
    live_hids: bytes  # m x u32 BE
    rev_exp: bytes  # k x f64 BE
    rev_ephids: bytes  # k x 16 B
    #: kR of the plan the snapshot was built under (empty when built
    #: without one, or under a one-shard plan without a key).  Carried
    #: so a restarted worker can check that its spec and the resync'd
    #: state agree on how packets reach it.
    routing_key: bytes = b""

    def __post_init__(self) -> None:
        n = self.owned_count
        if len(self.owned_flags) != n or len(self.owned_keys) != n * KEY_BYTES:
            raise ValueError(
                f"owned columns disagree: {n} hids, "
                f"{len(self.owned_flags)} flags, {len(self.owned_keys)} key bytes"
            )
        # The loader multiplies the byte into its flag column, where 2
        # or 128 would lose the revoked bit: only 0 and 1 mean anything.
        stray = self.owned_flags.translate(None, b"\x00\x01")
        if stray:
            raise ValueError(
                f"owned flag byte {stray[0]:#04x}: a flag is 0 (live) or "
                "1 (revoked)"
            )
        if len(self.rev_ephids) != self.revoked_count * EPHID_BYTES:
            raise ValueError(
                f"revocation columns disagree: {self.revoked_count} expiries, "
                f"{len(self.rev_ephids)} ephid bytes"
            )
        if len(self.routing_key) > 255:
            raise ValueError("routing key too long for the u8 length field")

    @property
    def owned_count(self) -> int:
        return len(self.owned_hids) // 4

    @property
    def live_count(self) -> int:
        return len(self.live_hids) // 4

    @property
    def revoked_count(self) -> int:
        return len(self.rev_exp) // 8

    # -- codec ------------------------------------------------------------

    def encode(self) -> bytes:
        """The wire image: a 12-byte header, the six columns, then the
        routing trailer (u8 key length, kR bytes)."""
        return b"".join(
            (
                _HEAD.pack(self.owned_count, self.live_count, self.revoked_count),
                self.owned_hids,
                self.owned_flags,
                self.owned_keys,
                self.live_hids,
                self.rev_exp,
                self.rev_ephids,
                bytes((len(self.routing_key),)),
                self.routing_key,
            )
        )

    @classmethod
    def decode(cls, buf) -> "ShardSnapshot":
        view = memoryview(buf)
        if len(view) < _HEAD.size:
            raise ValueError(
                f"snapshot is {len(view)} bytes, shorter than its "
                f"{_HEAD.size}-byte header"
            )
        n, m, k = _HEAD.unpack_from(view)
        offset = _HEAD.size
        sections = []
        for size in (n * 4, n, n * KEY_BYTES, m * 4, k * 8, k * EPHID_BYTES):
            sections.append(bytes(view[offset : offset + size]))
            offset += size
        if offset >= len(view):
            # Snapshots only ever live in a spawn spec or a MSG_RESYNC
            # frame, both written by encode(): a blob without the
            # trailer is truncated, and accepting it would skip the
            # worker's routing cross-check.
            raise ValueError(
                f"snapshot is {len(view)} bytes, columns end at {offset} "
                "with a missing routing trailer"
            )
        keylen = view[offset]
        key = bytes(view[offset + 1 : offset + 1 + keylen])
        offset += 1 + keylen
        if offset != len(view):
            raise ValueError(
                f"snapshot is {len(view)} bytes, header implies {offset}"
            )
        return cls(*sections, routing_key=key)

    @classmethod
    def empty(cls) -> "ShardSnapshot":
        return cls(b"", b"", b"", b"", b"", b"")

    @classmethod
    def from_rows(cls, owned_rows, live_hids, revoked_entries) -> "ShardSnapshot":
        """Build from per-record rows (how tests write a snapshot by hand).

        ``owned_rows`` is an iterable of ``(hid, control, packet_mac,
        revoked)``, ``live_hids`` of ints, ``revoked_entries`` of
        ``(ephid, exp_time)``.
        """
        hids = []
        flags = bytearray()
        keys = []
        for hid, control, packet_mac, revoked in owned_rows:
            hids.append(hid)
            flags.append(1 if revoked else 0)
            keys.append(control)
            keys.append(packet_mac)
        entries = list(revoked_entries)
        return cls(
            owned_hids=pack_u32s(hids),
            owned_flags=bytes(flags),
            owned_keys=b"".join(keys),
            live_hids=pack_u32s(live_hids),
            rev_exp=pack_f64s(exp for _, exp in entries),
            rev_ephids=b"".join(ephid for ephid, _ in entries),
        )

    # -- row iteration (tests reading one back, and their reference model) -

    def iter_owned(self):
        """Yield ``(hid, control, packet_mac, revoked)`` per owned row."""
        hids = unpack_u32s(self.owned_hids)
        flags = self.owned_flags
        keys = self.owned_keys
        for i, hid in enumerate(hids):
            base = i * KEY_BYTES
            yield (
                hid,
                keys[base : base + 16],
                keys[base + 16 : base + KEY_BYTES],
                flags[i] != 0,
            )

    def iter_live(self):
        return iter(unpack_u32s(self.live_hids))

    def iter_revoked(self):
        """Yield ``(ephid, exp_time)`` per revocation entry."""
        exps = unpack_f64s(self.rev_exp)
        ephids = self.rev_ephids
        for i, exp in enumerate(exps):
            base = i * EPHID_BYTES
            yield ephids[base : base + EPHID_BYTES], exp


def build_shard_snapshot(hostdb, revocations, plan, shard: int) -> ShardSnapshot:
    """One shard's snapshot from the authoritative AS state: the
    columns :meth:`~repro.state.ColumnarHostDatabase.shard_columns` and
    :meth:`~repro.state.ColumnarRevocationList.packed_snapshot` export,
    under the plan's routing trailer."""
    owned_hids, owned_flags, owned_keys, live_hids = hostdb.shard_columns(plan, shard)
    rev_exp, rev_ephids = revocations.packed_snapshot()
    return ShardSnapshot(
        owned_hids=owned_hids,
        owned_flags=owned_flags,
        owned_keys=owned_keys,
        live_hids=live_hids,
        rev_exp=rev_exp,
        rev_ephids=rev_ephids,
        routing_key=plan.key or b"",
    )
