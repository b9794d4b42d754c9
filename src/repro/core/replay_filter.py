"""In-network replay detection (paper Section VIII-D, listed as future work).

The paper adds a per-packet nonce to the APNA header so the *destination
host* can discard duplicates, and notes that "ideally replayed packets
should be filtered near the replay location, but this requires routers in
the network to perform replay detection.  Designing a practical
in-network replay detection mechanism that does not affect routers'
forwarding performance is not trivial; it is our future work."

This module is that future work, built the way line-rate middleboxes do
it: a pair of rotating Bloom filters keyed on ``(source EphID, nonce)``.

* **Word-blocked generations.**  A generation is an array of 64-bit
  words (``bits / 64`` of them; the same bits and the same memory as a
  flat bit array).  A key's index picks one word and :data:`PROBES` bit
  positions inside it, so a lookup is one word read and one mask compare
  and an insert is one word write — the blocked Bloom filter of Putze,
  Sanders & Singler (*Cache-, Hash- and Space-Efficient Bloom Filters*,
  2007) with a 64-bit block.  Its false-positive rate is
  :meth:`BloomFilter.fp_probability`: a word holding ``x`` keys has each
  bit set with probability ``1 - (1 - 1/64)^(k x)``, and ``x`` is
  Poisson with mean ``n / words``.
* **One index column per burst.**  A key's index is the AES CBC-MAC of
  the two blocks ``EphID || nonce || 0^8``.  A burst's EphIDs are one
  :meth:`~repro.crypto.aes.AES.encrypt_blocks` call, the chaining XOR of
  its nonce blocks one big-integer XOR, and the second blocks one more
  call, whose output one big-integer AND trims to each block's index
  bits — two OpenSSL calls per burst whatever its size, and no per-key
  hash (the idiom of :meth:`repro.core.ephid.EphIdCodec.open_batch`).
  The AES key is :data:`INDEX_KEY`, a public constant: the indices are
  exactly as predictable as an unkeyed hash's.  They spread honest
  traffic evenly over the words, which is all the false-positive
  analysis needs; they do not stop an attacker whose packets the filter
  records from choosing nonces that aim false positives at a victim's
  keys.  On egress the MAC check runs first, so only a source's own host
  is such an attacker.  On ingress the filter records ``(src EphID,
  nonce)`` before anything authenticates the frame (the destination AS
  cannot check the source host's MAC), so any sender is.
  Keyed indices would close that, at the price of a per-router secret.
* **Two generations** rotate every ``window`` seconds: lookups consult
  both, inserts go to the current one.  A packet is therefore remembered
  for at least one and at most two windows, bounding both memory *and*
  the replay horizon (a nonce replayed after two windows would pass the
  filter, so the window is chosen at least as long as the EphID
  lifetime — after which the border router's expiry check kills the
  packet anyway).
* False positives drop fresh packets; the rate is engineered by sizing
  ``bits`` for the expected packets-per-window and checked by
  :meth:`BloomFilter.fp_probability`.
"""

from __future__ import annotations

import math
import struct
from typing import Sequence

from ..crypto.aes import AES, BLOCK_SIZE

#: Bits set per key, all inside its word.  Six over four, by
#: :meth:`BloomFilter.fp_probability`: at 2^20 bits and 84k keys the
#: rate is 0.86 % against 1.00 %; at the bench's 2^26 bits it is 20x
#: lower at 16k keys (1.2e-8 against 2.4e-7) and 3x lower at 2^20 keys
#: (4.7e-5 against 1.6e-4).  The index decode below reads them as
#: three 12-bit pairs.
PROBES = 6

#: The index PRF's AES key.  Public on purpose: see the module docstring.
INDEX_KEY = b"APNA replay idx\x00"

_INDEX_CIPHER = AES(INDEX_KEY)
_NONCE = struct.Struct(">Q")
_PAD8 = bytes(8)
#: One index block, once masked: the word, then three pairs of 6-bit
#: bit positions, one pair in each 16-bit field's low 12 bits.
_INDEX = struct.Struct(">Q3H2x")
#: A 16-bit field's two probes as one mask.
_PAIR = [(1 << (h & 63)) | (1 << (h >> 6 & 63)) for h in range(1 << 12)]


def _index_column(
    ephids: "Sequence[bytes]", nonces: "Sequence[bytes]", block_mask: bytes
) -> bytes:
    """The CBC-MAC of ``EphID || nonce || 0^8`` under :data:`INDEX_KEY`
    for each (16-byte EphID, 8-byte nonce) pair, each block ANDed with
    ``block_mask`` (which keeps a filter's word bits and the 12 probe
    bits of each field): two ECB calls, one XOR and one AND for the
    whole column."""
    first = _INDEX_CIPHER.encrypt_blocks(b"".join(ephids))
    second = _PAD8.join(nonces) + _PAD8
    size = len(first)
    if size != len(second) or size != BLOCK_SIZE * len(nonces):
        raise ValueError("replay keys must be 16-byte EphIDs and 8-byte nonces")
    chained = int.from_bytes(first, "big") ^ int.from_bytes(second, "big")
    tags = _INDEX_CIPHER.encrypt_blocks(chained.to_bytes(size, "big"))
    masked = int.from_bytes(tags, "big") & int.from_bytes(
        block_mask * len(nonces), "big"
    )
    return masked.to_bytes(size, "big")


class BloomFilter:
    """A word-blocked Bloom filter over ``(EphID, nonce)`` keys."""

    def __init__(self, bits: int) -> None:
        if bits < 64 or bits & (bits - 1):
            raise ValueError("bits must be a power of two, at least 64")
        self.bits = bits
        self._block_mask = _INDEX.pack(bits // 64 - 1, 0xFFF, 0xFFF, 0xFFF)
        self._array = memoryview(bytearray(bits // 8)).cast("Q")
        self.inserted = 0

    def _probe(self, item: "tuple[bytes, int]") -> "tuple[int, int]":
        ephid, nonce = item
        word, a, b, c = _INDEX.unpack(
            _index_column((ephid,), (_NONCE.pack(nonce),), self._block_mask)
        )
        return word, _PAIR[a] | _PAIR[b] | _PAIR[c]

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
    """Two-generation rotating Bloom filter for (EphID, nonce) pairs.

    Designed to sit on a border router's pipeline: ``observe_many``
    performs one membership test over both generations plus (for fresh
    packets) one insert per key, after two AES calls per burst.
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
        return self.observe_many((ephid,), (_NONCE.pack(nonce),), now)[0]

    def observe_many(
        self, ephids: "Sequence[bytes]", nonces: "Sequence[bytes]", now: float
    ) -> "list[bool]":
        """Record a burst's keys — its column of 16-byte source EphIDs
        and the aligned column of 8-byte big-endian nonces — in packet
        order, so a duplicate inside the burst is flagged exactly where a
        loop of :meth:`observe` calls at one instant would flag it.

        The burst's indices are one :func:`_index_column`; the two
        generations are sized alike, so one (word, mask) serves the
        lookup in the previous generation and the test-and-insert in the
        current one (the word operations of :class:`BloomFilter`,
        unrolled into the loop).
        """
        self._maybe_rotate(now)
        if not ephids and not nonces:
            return []
        current = self._current
        previous, words = self._previous._array, current._array
        indices = _index_column(ephids, nonces, current._block_mask)
        pair = _PAIR
        fresh = []
        append = fresh.append
        for word, a, b, c in _INDEX.iter_unpack(indices):
            mask = pair[a] | pair[b] | pair[c]
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
