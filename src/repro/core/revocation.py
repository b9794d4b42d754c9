"""Revoked-EphID management (paper Sections IV-E and VIII-G2).

Border routers keep a ``revoked_ids`` list consulted on every packet.
Section VIII-G2 describes the two control mechanisms implemented here:

* expired entries are pruned (packets with expired EphIDs are dropped by
  the expiry check anyway, so keeping them is pure overhead), and
* a host that accumulates too many revocations has its HID revoked
  outright, invalidating all of its EphIDs at once.

An AS runs :class:`repro.state.ColumnarRevocationList` (the same API
over packed columns); :class:`RevocationList` is its one-screen spec,
the oracle the differential tests build directly, and what E6 measures
with pruning off.
"""

from __future__ import annotations

import heapq
from typing import Callable


class RevocationList:
    """The ``revoked_ids`` set with expiry-based pruning.

    ``add`` and ``contains`` are O(log n) / O(1); ``prune`` pops every
    entry whose EphID has expired.  With pruning disabled the list grows
    without bound — exactly the failure mode E6 quantifies.
    """

    def __init__(self, *, auto_prune: bool = True) -> None:
        self._revoked: set[bytes] = set()
        self._expiry_heap: list[tuple[float, bytes]] = []
        self.auto_prune = auto_prune
        self.total_added = 0
        #: Optional observer called with ``(ephid, exp_time)`` after each
        #: *new* entry — how the sharded data plane replicates revokes to
        #: its worker processes before their next burst.
        self.on_add: Callable[[bytes, float], None] | None = None

    def add(self, ephid: bytes, exp_time: float) -> None:
        if ephid in self._revoked:
            return
        self._revoked.add(ephid)
        heapq.heappush(self._expiry_heap, (exp_time, ephid))
        self.total_added += 1
        if self.on_add is not None:
            self.on_add(ephid, exp_time)

    def contains(self, ephid: bytes) -> bool:
        return ephid in self._revoked

    __contains__ = contains

    def prune(self, now: float) -> int:
        """Drop entries whose EphIDs have expired; returns how many."""
        pruned = 0
        while self._expiry_heap and self._expiry_heap[0][0] < now:
            _, ephid = heapq.heappop(self._expiry_heap)
            self._revoked.discard(ephid)
            pruned += 1
        return pruned

    def maybe_prune(self, now: float) -> int:
        return self.prune(now) if self.auto_prune else 0

    def snapshot(self) -> list[tuple[bytes, float]]:
        """The live ``(ephid, exp_time)`` entries (for seeding replicas)."""
        return [
            (ephid, exp_time)
            for exp_time, ephid in self._expiry_heap
            if ephid in self._revoked
        ]

    def __len__(self) -> int:
        return len(self._revoked)


class RevocationPolicy:
    """Per-host revocation accounting with an HID-revocation threshold.

    Mirrors the paper's Copyright-Alert-System analogy: after
    ``threshold`` preemptive revocations the AS "views it as a sign of
    malicious activity", revokes the HID and notifies via ``on_hid_revoked``.
    """

    def __init__(
        self,
        threshold: int,
        on_hid_revoked: Callable[[int], None] | None = None,
    ) -> None:
        if threshold < 1:
            raise ValueError("threshold must be at least 1")
        self.threshold = threshold
        self._counts: dict[int, int] = {}
        self._on_hid_revoked = on_hid_revoked
        self.hids_revoked: list[int] = []

    def record(self, hid: int) -> bool:
        """Count one revocation against ``hid``; True if the HID tripped."""
        count = self._counts.get(hid, 0) + 1
        self._counts[hid] = count
        if count == self.threshold:
            self.hids_revoked.append(hid)
            if self._on_hid_revoked is not None:
                self._on_hid_revoked(hid)
            return True
        return False

    def count(self, hid: int) -> int:
        return self._counts.get(hid, 0)

    def reset(self, hid: int) -> None:
        """Clear the counter (e.g., after the host re-bootstraps)."""
        self._counts.pop(hid, None)
