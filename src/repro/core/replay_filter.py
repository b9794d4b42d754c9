"""In-network replay detection (paper Section VIII-D, listed as future work).

The paper adds a per-packet nonce to the APNA header so the *destination
host* can discard duplicates, and notes that "ideally replayed packets
should be filtered near the replay location, but this requires routers in
the network to perform replay detection.  Designing a practical
in-network replay detection mechanism that does not affect routers'
forwarding performance is not trivial; it is our future work."

This module is that future work, built the way line-rate middleboxes do
it: a pair of rotating Bloom filters keyed on ``(source EphID, packet
MAC)``.

* **The packet's MAC is the key.**  The 8-byte MAC covers the header,
  nonce and payload, so two frames share a key when one copies the
  other.  On egress the MAC is verified before the filter runs.  On
  ingress nothing can check it, but a spoof under a victim's EphID and
  nonce with a garbage MAC records a key no real packet has: it would
  have to guess the MAC of a packet not yet sent to burn one.  A host
  that re-sends a nonce with a new payload is not flagged in-network;
  the destination host's window
  (:class:`repro.core.replay.SourceReplayWindows`) refuses it.  The
  nonce stays required: it is what makes each packet's MAC distinct.
* **Index bits straight from the key.**  A key's 64 index bits are its
  MAC XOR its EphID's first 8 bytes (the ciphertext): one big-integer
  XOR per burst, no cipher or hash call.  The low bits pick the word (so
  a nonce counter under one EphID spreads over words) and the top 36
  are three 12-bit pairs of bit positions, so a generation holds at most
  :data:`MAX_BITS` = 2^34 bits.  On egress the index is a verified PRF
  output, which is all the false-positive analysis needs; an ingress
  sender picks its own word and bits, so it can fill the filter but not
  aim a false positive at a key it does not know.
* **Word-blocked generations.**  A generation is ``bits / 64`` 64-bit
  words.  A key sets :data:`PROBES` bits inside one word, so a lookup is
  one word read and one mask compare and an insert one word write — the
  blocked Bloom filter of Putze, Sanders & Singler (*Cache-, Hash- and
  Space-Efficient Bloom Filters*, 2007) with a 64-bit block.
* **Two generations** rotate every ``window`` seconds: lookups consult
  both, inserts go to the current one, so a packet is remembered for one
  to two windows (chosen at least as long as the EphID lifetime, after
  which the border router's expiry check kills the packet anyway).
* False positives drop fresh packets; :meth:`BloomFilter.fp_probability`
  gives the rate.  Memory grows with packets, not sources: the default
  2^20 bits cross 1 % at ~88k packets per 900 s window, so they hold
  ~100 pkt/s sustained, and past capacity every fresh packet reads as a
  replay (ROADMAP item 23).
"""

from __future__ import annotations

import math
import struct
from typing import Sequence

#: Bits set per key, all inside its word.  Six over four, by
#: :meth:`BloomFilter.fp_probability`: at 2^20 bits and 84k keys the
#: rate is 0.86 % against 1.00 %; at the bench's 2^26 bits it is 20x
#: lower at 16k keys (1.2e-8 against 2.4e-7) and 3x lower at 2^20 keys
#: (4.7e-5 against 1.6e-4).  The index decode below reads them as
#: three 12-bit pairs.
PROBES = 6

#: The largest generation a 64-bit index addresses: 36 bits pick the
#: :data:`PROBES` positions, the other 28 one of 2^28 64-bit words.
MAX_BITS = 64 << 28

_KEY = struct.Struct(">Q")
_PAD8 = bytes(8)
#: A key's index bits; the rest of its EphID is skipped.
_INDEX = struct.Struct(">Q8x")
#: A 12-bit field's two probes as one mask.
_PAIR = [(1 << (h & 63)) | (1 << (h >> 6 & 63)) for h in range(1 << 12)]


def _indices(
    ephids: "Sequence[bytes]", keys: "Sequence[bytes]", word_mask: int
) -> "list[tuple[int, int]]":
    """The ``(word, probe mask)`` of each (16-byte EphID, 8-byte key)
    pair in a generation of ``word_mask + 1`` words: the key XOR the
    EphID's first 8 bytes, its low bits the word and its top 36 bits
    three probe pairs — one XOR for the whole burst."""
    padded = _PAD8.join(keys) + _PAD8
    joined = b"".join(ephids)
    size = len(joined)
    if size != len(padded) or size != 16 * len(keys):
        raise ValueError("replay keys must be 16-byte EphIDs and 8-byte keys")
    blocks = int.from_bytes(joined, "big") ^ int.from_bytes(padded, "big")
    pair = _PAIR
    return [
        (i & word_mask, pair[i >> 52] | pair[i >> 40 & 0xFFF] | pair[i >> 28 & 0xFFF])
        for i, in _INDEX.iter_unpack(blocks.to_bytes(size, "big"))
    ]


class BloomFilter:
    """A word-blocked Bloom filter over ``(EphID, key)`` items, the key
    a 64-bit integer (a packet's MAC read big-endian)."""

    def __init__(self, bits: int) -> None:
        if bits < 64 or bits & (bits - 1) or bits > MAX_BITS:
            raise ValueError("bits must be a power of two from 64 to 2**34")
        self.bits = bits
        self._word_mask = bits // 64 - 1
        self._array = memoryview(bytearray(bits // 8)).cast("Q")
        self.inserted = 0

    def _probe(self, item: "tuple[bytes, int]") -> "tuple[int, int]":
        ephid, key = item
        return _indices((ephid,), (_KEY.pack(key),), self._word_mask)[0]

    def add(self, item: "tuple[bytes, int]") -> None:
        word, mask = self._probe(item)
        self._array[word] |= mask
        self.inserted += 1

    def __contains__(self, item: "tuple[bytes, int]") -> bool:
        word, mask = self._probe(item)
        return self._array[word] & mask == mask

    def clear(self) -> None:
        self._array = memoryview(bytearray(self._array.nbytes)).cast("Q")
        self.inserted = 0

    @property
    def memory_bytes(self) -> int:
        return self._array.nbytes

    def fp_probability(self, items: int | None = None) -> float:
        """Expected false-positive rate after ``items`` inserts
        (defaults to the number actually inserted):

            sum over x of Poisson(x; n / W) * (1 - (1 - 1/64)^(k x))^k

        for ``W`` words and ``k`` = :data:`PROBES` — a query word holding
        ``x`` keys, each of whose ``k`` probes set a uniform bit.  It
        treats the query's own ``k`` probes as distinct bits, so it reads
        a little low: 8.5e-5 at 20k keys in 2^20 bits, where the exact
        occupancy sum gives 9.2e-5 and 2M seeded probes measured 9.0e-5
        to 9.4e-5.
        """
        n = self.inserted if items is None else items
        if n == 0:
            return 0.0
        mean = n / (self.bits // 64)
        # Every term past ~mean + 12 sd (and 40 for small means) is
        # below double precision's reach of the sum.
        top = int(mean + 12 * math.sqrt(mean) + 40)
        total = 0.0
        for x in range(1, top + 1):
            weight = math.exp(x * math.log(mean) - mean - math.lgamma(x + 1))
            total += weight * (1.0 - (1.0 - 1.0 / 64) ** (PROBES * x)) ** PROBES
        return total


class RotatingReplayFilter:
    """Two-generation rotating Bloom filter for (EphID, packet MAC) keys.

    Designed to sit on a border router's pipeline: ``observe_many``
    performs one membership test over both generations plus (for fresh
    packets) one insert per key, after one XOR per burst.
    """

    def __init__(
        self,
        *,
        window: float,
        bits_per_generation: int = 1 << 20,
    ) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = window
        self._current = BloomFilter(bits_per_generation)
        self._previous = BloomFilter(bits_per_generation)
        #: Time of the last rotation; ``None`` until the first packet
        #: starts the window clock (so a deployment whose clock is wall
        #: time does not count a spurious rotation on its first packet).
        self._rotated_at: float | None = None
        self.replays = 0
        self.passed = 0
        self.rotations = 0

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
            # would leave arbitrarily old keys in the previous
            # generation and wrongly drop fresh traffic as replays.
            self._current.clear()
            self._previous.clear()
        else:
            self._previous, self._current = self._current, self._previous
            self._current.clear()
        self._rotated_at = now
        self.rotations += 1

    def observe(self, ephid: bytes, key: int, now: float) -> bool:
        """Record one packet, ``key`` its 8-byte MAC read big-endian.
        True = fresh (forward), False = replay (drop)."""
        return self.observe_many((ephid,), (_KEY.pack(key),), now)[0]

    def observe_many(
        self, ephids: "Sequence[bytes]", keys: "Sequence[bytes]", now: float
    ) -> "list[bool]":
        """Record a burst's keys — its column of 16-byte source EphIDs
        and the aligned column of their frames' 8-byte MACs — in packet
        order, so a duplicate inside the burst is flagged exactly where a
        loop of :meth:`observe` calls at one instant would flag it.

        The burst's indices are one :func:`_indices`, the one index
        function :class:`BloomFilter` uses too; the two generations are
        sized alike, so one (word, mask) serves the lookup in the
        previous generation and the test-and-insert in the current one
        (the word operations of :class:`BloomFilter`, unrolled into the
        loop).
        """
        self._maybe_rotate(now)
        if not ephids and not keys:
            return []
        current = self._current
        previous, words = self._previous._array, current._array
        fresh = []
        append = fresh.append
        for word, mask in _indices(ephids, keys, current._word_mask):
            if previous[word] & mask == mask:  # seen in the previous generation
                append(False)
                continue
            # Setting bits that are set changes nothing, so "insert
            # unless present" is one write: fresh iff a bit was clear.
            old = words[word]
            if old & mask == mask:
                append(False)
            else:
                words[word] = old | mask
                append(True)
        passed = sum(fresh)
        current.inserted += passed
        self.passed += passed
        self.replays += len(fresh) - passed
        return fresh

    # audit: allow(production-caller) the one view of a bounded structure
    @property
    def memory_bytes(self) -> int:
        return self._current.memory_bytes + self._previous.memory_bytes
