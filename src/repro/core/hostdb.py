"""The host information database (``host_info`` in the paper).

Maps HID -> host record, in particular the kHA subkeys every AS entity
needs to authenticate the host's packets (Fig. 2: "the entities need to
learn the HID of the host and the shared key kHA").  Implemented as a
hash table keyed by HID, exactly as the paper's prototype does
(Section V-A2).

An AS runs :class:`repro.state.ColumnarHostDatabase`, which keeps the
same rows as dense columns; :class:`HostDatabase` is the one-screen spec
of that API, the type the core services are annotated with, and the
oracle the differential tests build directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .errors import RevokedError, UnknownHostError
from .keys import HostAsKeys

#: Reserved HIDs for AS-internal services.  Host HIDs start above these.
HID_REGISTRY = 1
HID_MANAGEMENT = 2
HID_ACCOUNTABILITY = 3
HID_DNS = 4
FIRST_HOST_HID = 0x0001_0000


@dataclass
class HostRecord:
    """One registered host (or AS service endpoint)."""

    hid: int
    keys: HostAsKeys
    subscriber_id: int | None = None
    revoked: bool = False
    ephids_issued: int = 0
    ephids_revoked: int = 0


class HostDatabase:
    """``host_info``: the per-AS registry of authenticated hosts."""

    def __init__(self) -> None:
        self._records: dict[int, HostRecord] = {}
        #: subscriber_id -> live HID (one HID per host), maintained on
        #: register/revoke_hid so subscriber lookup is O(1) instead of a
        #: scan over every record.
        self._by_subscriber: dict[int, int] = {}
        self._next_hid = FIRST_HOST_HID
        #: Live (non-revoked) record count, so ``len()`` is O(1) instead
        #: of a scan.  Kept exact by register/revoke_hid and by the
        #: direct-mutation healing paths below.
        self._live_count = 0
        #: Optional observers, called after a successful register /
        #: revoke_hid — how a sharded data plane keeps its worker
        #: processes' host views in sync (see :mod:`repro.sharding`).
        self.on_register: Callable[[HostRecord], None] | None = None
        self.on_revoke_hid: Callable[[int], None] | None = None

    def allocate_hid(self) -> int:
        """Assign a fresh, never-reused HID."""
        hid = self._next_hid
        if hid > 0xFFFF_FFFF:
            raise UnknownHostError("HID space exhausted")
        self._next_hid += 1
        return hid

    def register(self, record: HostRecord) -> None:
        if record.hid in self._records:
            raise UnknownHostError(f"HID {record.hid} already registered")
        if record.subscriber_id is not None and not record.revoked:
            previous = self.find_by_subscriber(record.subscriber_id)
            if previous is not None:
                # One live HID per host: the registry must revoke the old
                # HID before re-bootstrapping a subscriber.  Registering a
                # second live record would silently shadow the first in
                # the subscriber index.
                raise UnknownHostError(
                    f"subscriber {record.subscriber_id} already has live "
                    f"HID {previous.hid}"
                )
            self._by_subscriber[record.subscriber_id] = record.hid
        self._records[record.hid] = record
        if not record.revoked:
            self._live_count += 1
        if self.on_register is not None:
            self.on_register(record)

    def get(self, hid: int) -> HostRecord:
        """Look up a live host; raises for unknown or revoked HIDs."""
        record = self._records.get(hid)
        if record is None:
            raise UnknownHostError(f"HID {hid} is not registered")
        if record.revoked:
            raise RevokedError(f"HID {hid} is revoked")
        return record

    def packet_mac_key(self, hid: int) -> bytes:
        """The packet-MAC subkey of a live host's kHA — all the border
        router needs from a record; raises what :meth:`get` raises."""
        return self.get(hid).keys.packet_mac

    def is_valid(self, hid: int) -> bool:
        record = self._records.get(hid)
        return record is not None and not record.revoked

    def revoke_hid(self, hid: int) -> None:
        """Revoke a host identity (Section VIII-G2's escalation)."""
        record = self._records.get(hid)
        if record is None:
            raise UnknownHostError(f"HID {hid} is not registered")
        if not record.revoked:
            record.revoked = True
            self._live_count -= 1
        elif (
            record.subscriber_id is not None
            and self._by_subscriber.get(record.subscriber_id) == hid
        ):
            # Revoked by direct mutation (the subscriber index was never
            # healed, so the counter hasn't seen this record yet).
            self._live_count -= 1
        if (
            record.subscriber_id is not None
            and self._by_subscriber.get(record.subscriber_id) == hid
        ):
            del self._by_subscriber[record.subscriber_id]
        if self.on_revoke_hid is not None:
            self.on_revoke_hid(hid)

    def find_by_subscriber(self, subscriber_id: int) -> HostRecord | None:
        """Current live HID for a subscriber, if any (one HID per host)."""
        hid = self._by_subscriber.get(subscriber_id)
        if hid is None:
            return None
        record = self._records[hid]
        if record.revoked:
            # The record was revoked directly (not via revoke_hid); heal
            # the index so the stale mapping cannot be returned again,
            # and account the revocation the mutation bypassed.
            del self._by_subscriber[subscriber_id]
            self._live_count -= 1
            return None
        return record

    def records(self):
        """Iterate every record, revoked included (for shard snapshots)."""
        return iter(self._records.values())

    def __contains__(self, hid: int) -> bool:
        return self.is_valid(hid)

    def __len__(self) -> int:
        return self._live_count

    @property
    def total_registered(self) -> int:
        return len(self._records)
