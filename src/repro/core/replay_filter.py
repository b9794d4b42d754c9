"""In-network replay detection (paper Section VIII-D, listed as future work).

The paper adds a per-packet nonce to the APNA header so the *destination
host* can discard duplicates, and notes that "ideally replayed packets
should be filtered near the replay location, but this requires routers in
the network to perform replay detection.  Designing a practical
in-network replay detection mechanism that does not affect routers'
forwarding performance is not trivial; it is our future work."

This module is that future work, built the way line-rate middleboxes do
it: a pair of rotating Bloom filters keyed on ``(source EphID, nonce)``.

* A Bloom filter gives O(hashes) inserts/queries over a fixed bit array —
  no per-flow state, no allocation on the data path.
* Two generations rotate every ``window`` seconds: lookups consult both,
  inserts go to the current one.  A packet is therefore remembered for at
  least one and at most two windows, bounding both memory *and* the
  replay horizon (a nonce replayed after two windows would pass the
  filter, so the window is chosen at least as long as the EphID
  lifetime — after which the border router's expiry check kills the
  packet anyway).
* False positives drop fresh packets; the rate is engineered by sizing
  ``bits`` for the expected packets-per-window and checked by
  :meth:`BloomFilter.fp_probability`.
"""

from __future__ import annotations

import hashlib
import math
import struct
from typing import Sequence


_NONCE = struct.Struct(">Q")


class BloomFilter:
    """A fixed-size Bloom filter over byte strings."""

    def __init__(self, bits: int, hashes: int = 4) -> None:
        if bits <= 0 or bits & (bits - 1):
            raise ValueError("bits must be a positive power of two")
        if not 1 <= hashes <= 8:
            raise ValueError("hashes must be in 1..8: one SHA-256 holds eight words")
        self.bits = bits
        self.hashes = hashes
        self._mask = bits - 1
        #: The first ``hashes`` big-endian words of the item's SHA-256
        #: (the rest of the digest is padding to the format).
        self._words = struct.Struct(f">{hashes}I{32 - 4 * hashes}x")
        self._array = bytearray(bits // 8 or 1)
        self.inserted = 0

    def _indexes(self, item: bytes) -> list[int]:
        digest = hashlib.sha256(item).digest()
        return [word & self._mask for word in self._words.unpack(digest)]

    def add(self, item: bytes) -> None:
        for index in self._indexes(item):
            self._array[index >> 3] |= 1 << (index & 7)
        self.inserted += 1

    def __contains__(self, item: bytes) -> bool:
        return all(
            self._array[index >> 3] & (1 << (index & 7))
            for index in self._indexes(item)
        )

    def clear(self) -> None:
        self._array = bytearray(len(self._array))
        self.inserted = 0

    @property
    def memory_bytes(self) -> int:
        return len(self._array)

    def fp_probability(self, items: int | None = None) -> float:
        """Expected false-positive rate after ``items`` inserts.

        Classic approximation (1 - e^(-kn/m))^k; defaults to the number
        of items actually inserted.
        """
        n = self.inserted if items is None else items
        if n == 0:
            return 0.0
        k, m = self.hashes, self.bits
        return (1.0 - math.exp(-k * n / m)) ** k


class RotatingReplayFilter:
    """Two-generation rotating Bloom filter for (EphID, nonce) pairs.

    Designed to sit on a border router's pipeline: ``observe`` performs
    one membership test over both generations plus (for fresh packets)
    one insert, all constant-time in the packet count.
    """

    def __init__(
        self,
        *,
        window: float,
        bits_per_generation: int = 1 << 20,
        hashes: int = 4,
    ) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = window
        self._current = BloomFilter(bits_per_generation, hashes)
        self._previous = BloomFilter(bits_per_generation, hashes)
        #: Time of the last rotation; ``None`` until the first packet
        #: starts the window clock (so a deployment whose clock is wall
        #: time does not count a spurious rotation on its first packet).
        self._rotated_at: float | None = None
        self.replays = 0
        self.passed = 0
        self.rotations = 0

    @staticmethod
    def _key(ephid: bytes, nonce: int) -> bytes:
        return ephid + _NONCE.pack(nonce)

    def _maybe_rotate(self, now: float) -> None:
        if self._rotated_at is None:
            self._rotated_at = now
            return
        elapsed = now - self._rotated_at
        if elapsed < self.window:
            return
        if elapsed >= 2 * self.window:
            # Idle gap spanning both generations: every remembered entry
            # is older than one window (inserts after the last rotation
            # would themselves have rotated), so both generations are
            # past the documented replay horizon.  A single swap here
            # would leave arbitrarily old nonces in the previous
            # generation and wrongly drop fresh traffic as replays.
            self._current.clear()
            self._previous.clear()
        else:
            self._previous, self._current = self._current, self._previous
            self._current.clear()
        self._rotated_at = now
        self.rotations += 1

    def observe(self, ephid: bytes, nonce: int, now: float) -> bool:
        """Record one packet.  True = fresh (forward), False = replay (drop)."""
        return self.observe_many((self._key(ephid, nonce),), now)[0]

    def observe_many(self, keys: "Sequence[bytes]", now: float) -> "list[bool]":
        """Record a burst's ``EphID || nonce`` keys in packet order, so
        a duplicate inside the burst is flagged exactly where a loop of
        :meth:`observe` calls at one instant would flag it.

        Each key is hashed once: the two generations are sized alike,
        so one set of index words serves the lookup in the previous
        generation and the test-and-insert in the current one (the bit
        operations of :class:`BloomFilter`, unrolled into the loop: this
        is the data plane's largest per-packet stage).
        """
        self._maybe_rotate(now)
        current = self._current
        previous_bits, bits, mask = self._previous._array, current._array, current._mask
        sha256 = hashlib.sha256
        digests = b"".join([sha256(key).digest() for key in keys])
        fresh = []
        for words in current._words.iter_unpack(digests):
            for word in words:
                index = word & mask
                if not previous_bits[index >> 3] & (1 << (index & 7)):
                    break
            else:  # every bit set: seen in the previous generation
                fresh.append(False)
                continue
            # Setting a bit that is set changes nothing, so "insert
            # unless present" is one pass: fresh iff a bit was clear.
            inserted = False
            for word in words:
                index = word & mask
                byte, bit = index >> 3, 1 << (index & 7)
                old = bits[byte]
                if not old & bit:
                    bits[byte] = old | bit
                    inserted = True
            fresh.append(inserted)
        passed = sum(fresh)
        current.inserted += passed
        self.passed += passed
        self.replays += len(fresh) - passed
        return fresh

    @property
    def memory_bytes(self) -> int:
        return self._current.memory_bytes + self._previous.memory_bytes

    def fp_probability(self) -> float:
        """Worst-case false-positive rate across the two generations."""
        return max(
            self._current.fp_probability(), self._previous.fp_probability()
        )
