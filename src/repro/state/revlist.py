"""Columnar ``revoked_ids``: packed expiry/EphID columns, dict membership.

Drop-in duck type for :class:`~repro.core.revocation.RevocationList`
(``add``/``contains``/``prune``/``maybe_prune``/``snapshot``/``on_add``)
that stores entries as an ``array('d')`` expiry column plus one pooled
16-byte-per-row EphID blob instead of a ``set[bytes]`` + tuple heap, and
adds two bulk entry points the snapshot codec uses:
``packed_snapshot()`` emits the columns as big-endian wire bytes and
``load_packed()`` ingests them without per-entry ``add`` calls.
"""

from __future__ import annotations

import heapq
from typing import Callable

import numpy as np

from .snapshot import EPHID_BYTES, EPHID_ROW, unpack_f64s

#: Compact the columns once pruned holes outnumber live rows (and the
#: store is big enough for the copy to be worth it).
_COMPACT_MIN_ROWS = 64


class ColumnarRevocationList:
    """``revoked_ids`` over packed columns with expiry-based pruning."""

    def __init__(self, *, auto_prune: bool = True) -> None:
        self._exp = self._new_exp()
        self._ephids = bytearray()
        #: ephid -> row; membership truth and snapshot order (insertion).
        self._index: dict[bytes, int] = {}
        self._heap: list[tuple[float, int]] = []
        self.auto_prune = auto_prune
        self.total_added = 0
        self.on_add: Callable[[bytes, float], None] | None = None

    @staticmethod
    def _new_exp():
        from array import array

        return array("d")

    def add(self, ephid: bytes, exp_time: float) -> None:
        if ephid in self._index:
            return
        row = len(self._exp)
        self._exp.append(exp_time)
        self._ephids += ephid
        self._index[ephid] = row
        heapq.heappush(self._heap, (exp_time, row))
        self.total_added += 1
        if self.on_add is not None:
            self.on_add(ephid, exp_time)

    def contains(self, ephid: bytes) -> bool:
        return ephid in self._index

    __contains__ = contains

    def prune(self, now: float) -> int:
        """Drop entries whose EphIDs have expired; returns how many."""
        pruned = 0
        while self._heap and self._heap[0][0] < now:
            _, row = heapq.heappop(self._heap)
            base = row * EPHID_BYTES
            ephid = bytes(self._ephids[base : base + EPHID_BYTES])
            # The row owns its index entry unless the EphID was pruned
            # and later re-added (which allocates a fresh row).
            if self._index.get(ephid) == row:
                del self._index[ephid]
            pruned += 1
        if pruned:
            live = len(self._index)
            if len(self._exp) >= _COMPACT_MIN_ROWS and live * 2 < len(self._exp):
                self._compact()
        return pruned

    def maybe_prune(self, now: float) -> int:
        return self.prune(now) if self.auto_prune else 0

    def _compact(self) -> None:
        """Rewrite the columns hole-free; row numbers (and the heap that
        references them) are rebuilt in insertion order."""
        exp = self._new_exp()
        ephids = bytearray()
        index: dict[bytes, int] = {}
        heap: list[tuple[float, int]] = []
        for ephid, row in self._index.items():
            new_row = len(exp)
            exp.append(self._exp[row])
            ephids += ephid
            index[ephid] = new_row
            heap.append((exp[new_row], new_row))
        heapq.heapify(heap)
        self._exp, self._ephids = exp, ephids
        self._index, self._heap = index, heap

    # audit: allow(production-caller) the equivalence suites' view
    def snapshot(self) -> "list[tuple[bytes, float]]":
        """The live ``(ephid, exp_time)`` entries (for seeding replicas)."""
        return [(ephid, self._exp[row]) for ephid, row in self._index.items()]

    def packed_snapshot(self) -> "tuple[bytes, bytes]":
        """The live entries as packed ``(exp_be_blob, ephid_blob)``
        columns, in insertion order: one take of each column by the
        index's rows, holes left by a prune that did not compact skipped."""
        index = self._index
        rows = np.fromiter(index.values(), dtype=np.intp, count=len(index))
        exps = np.frombuffer(self._exp, dtype=np.float64)[rows]
        ephids = np.frombuffer(self._ephids, dtype=EPHID_ROW)[rows]
        return exps.astype(">f8").tobytes(), ephids.tobytes()

    def load_packed(self, exp_blob: bytes, ephid_blob: bytes) -> int:
        """Bulk-ingest packed columns (a fresh replica's resync path)."""
        exps = unpack_f64s(exp_blob)
        n = len(exps)
        if len(ephid_blob) != n * EPHID_BYTES:
            raise ValueError(
                f"revocation columns disagree: {n} expiries, "
                f"{len(ephid_blob)} ephid bytes"
            )
        self._exp = exps
        self._ephids = bytearray(ephid_blob)
        ephids = np.frombuffer(ephid_blob, dtype=EPHID_ROW).tolist()
        self._index = dict(zip(ephids, range(n)))
        if len(self._index) != n:
            raise ValueError("duplicate EphIDs in packed revocation columns")
        heap = list(zip(exps, range(n)))
        heapq.heapify(heap)
        self._heap = heap
        self.total_added += n
        return n

    def __len__(self) -> int:
        return len(self._index)
