"""The border router's verdicts: the value type and its packed record.

A :class:`Verdict` is what the Fig. 4 pipelines decide for one packet.
The burst path (:meth:`repro.core.border_router.BorderRouter.
process_burst`) and the shard protocol (:mod:`repro.sharding.wire`)
carry it as an 11-byte :data:`VERDICT_RECORD` instead and only build the
object at the API edge, through :func:`verdict_of` / :func:`verdicts_of`.
This module is the one definition of that layout.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass


class Action(enum.Enum):
    FORWARD_INTER = "forward-inter"  # toward another AS
    FORWARD_INTRA = "forward-intra"  # to a local HID
    DROP = "drop"


class DropReason(enum.Enum):
    SRC_FORGED = "src-ephid-forged"
    SRC_EXPIRED = "src-ephid-expired"
    SRC_REVOKED = "src-ephid-revoked"
    SRC_HID_INVALID = "src-hid-invalid"
    BAD_MAC = "packet-mac-invalid"
    DST_FORGED = "dst-ephid-forged"
    DST_EXPIRED = "dst-ephid-expired"
    DST_REVOKED = "dst-ephid-revoked"
    DST_HID_INVALID = "dst-hid-invalid"
    NOT_LOCAL_SOURCE = "src-aid-foreign"
    REPLAYED = "packet-replayed"
    #: Dispatcher-side synthetic drop: the packet was in flight to a
    #: worker shard that crashed/hung before replying, so its real
    #: verdict is unknowable (:mod:`repro.sharding.supervisor` counts
    #: every such drop).  Single-process routers never emit it.
    SHARD_FAILURE = "shard-failure"


@dataclass(frozen=True)
class Verdict:
    """The router's decision for one packet."""

    action: Action
    reason: DropReason | None = None
    hid: int | None = None  # set for FORWARD_INTRA
    next_aid: int | None = None  # set for FORWARD_INTER

    @property
    def dropped(self) -> bool:
        return self.action is Action.DROP


#: One verdict, packed: action, reason, presence flags, hid, next_aid.
#: Presence is explicit (no in-band sentinel) because the full u32 range
#: is legal for both AIDs and HIDs.  This is the only definition of the
#: layout; :mod:`repro.sharding.wire` frames these records, no more.
VERDICT_RECORD = struct.Struct(">BBBII")
_ACTIONS = tuple(Action)
_REASONS = tuple(DropReason)
_NO_REASON = 0xFF
_HAS_HID = 1
_HAS_NEXT_AID = 2


def verdict_record(verdict: Verdict) -> bytes:
    """Pack one :class:`Verdict` as its :data:`VERDICT_RECORD`."""
    return VERDICT_RECORD.pack(
        _ACTIONS.index(verdict.action),
        _NO_REASON if verdict.reason is None else _REASONS.index(verdict.reason),
        (_HAS_HID if verdict.hid is not None else 0)
        | (_HAS_NEXT_AID if verdict.next_aid is not None else 0),
        verdict.hid or 0,
        verdict.next_aid or 0,
    )


#: What the burst path writes without building a :class:`Verdict`: a
#: constant per drop reason, ``INTER_HEAD + dst_aid`` (4 bytes) and
#: ``INTRA_HEAD + hid + INTRA_TAIL``.
DROP_RECORDS = {
    reason: verdict_record(Verdict(Action.DROP, reason=reason))
    for reason in DropReason
}
INTER_HEAD = verdict_record(Verdict(Action.FORWARD_INTER, next_aid=0))[:-4]
INTRA_HEAD = verdict_record(Verdict(Action.FORWARD_INTRA, hid=0))[:-8]
INTRA_TAIL = bytes(4)

#: Most records the intern table keeps.  A burst holds a handful of
#: distinct verdicts, but ``FORWARD_INTER`` records carry an
#: attacker-chosen destination AID, so the table must not grow with
#: them: past the cap a miss is built and not stored.
VERDICT_TABLE_CAP = 4096
_VERDICT_TABLE: "dict[bytes, Verdict]" = {}


def verdict_of(record: bytes) -> Verdict:
    """The :class:`Verdict` a packed record stands for.

    Verdicts are frozen value objects, so equal records share one
    interned instance (up to :data:`VERDICT_TABLE_CAP` of them).  A
    record no encoder produces — unknown action, reason or flag bit, or
    a value in a field its flags mark absent — is a ``ValueError`` and
    is never interned.
    """
    verdict = _VERDICT_TABLE.get(record)
    if verdict is None:
        action, reason, flags, hid, next_aid = VERDICT_RECORD.unpack(record)
        if (
            action >= len(_ACTIONS)
            or (reason != _NO_REASON and reason >= len(_REASONS))
            or flags & ~(_HAS_HID | _HAS_NEXT_AID)
            or (hid and not flags & _HAS_HID)
            or (next_aid and not flags & _HAS_NEXT_AID)
        ):
            raise ValueError(f"malformed verdict record {record.hex()}")
        verdict = Verdict(
            _ACTIONS[action],
            reason=None if reason == _NO_REASON else _REASONS[reason],
            hid=hid if flags & _HAS_HID else None,
            next_aid=next_aid if flags & _HAS_NEXT_AID else None,
        )
        if len(_VERDICT_TABLE) < VERDICT_TABLE_CAP:
            _VERDICT_TABLE[record] = verdict
    return verdict


def verdicts_of(packed: bytes) -> "list[Verdict]":
    """:func:`verdict_of` over concatenated records — a shard's reply
    body, or a joined ``process_burst`` result.  A warm table serves the
    whole burst without leaving C."""
    count, extra = divmod(len(packed), VERDICT_RECORD.size)
    if extra:
        raise ValueError(f"{len(packed)} bytes is not a whole number of records")
    records = struct.unpack(f"{VERDICT_RECORD.size}s" * count, packed)
    try:
        return list(map(_VERDICT_TABLE.__getitem__, records))
    except KeyError:
        return [verdict_of(record) for record in records]
