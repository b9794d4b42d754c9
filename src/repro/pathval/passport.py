"""Passport-style path MACs for APNA packets.

Following Passport (Liu et al., NSDI 2008), the *source AS* stamps one
MAC per downstream AS into every outgoing packet, each computed with the
pairwise key it shares with that AS.  A transit AS verifies (and strips
nothing — the stamp doubles as evidence for the extended shutoff
protocol, see :mod:`repro.pathval.shutoff_ext`).

The stamps are computed over a digest of the full APNA packet — header
*including* the host's per-packet MAC, plus payload — so a stamp binds an
on-path AS's evidence to one specific, source-authenticated packet.

Wire layout of the passport extension (appended after the APNA payload
by the deploying AS, mirrored from how the paper appends the optional
replay nonce after the fixed header)::

    count (1 B) || count x [ AID (4 B) || MAC (8 B) ]
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

from ..crypto.cmac import Cmac
from ..crypto.util import ct_eq
from ..wire.apna import ApnaPacket
from ..wire.errors import ParseError
from .keys import AsPairwiseKeys

PASSPORT_MAC_SIZE = 8
_ENTRY_FMT = ">I8s"
_ENTRY_SIZE = struct.calcsize(_ENTRY_FMT)
_MAX_ENTRIES = 255

_DIGEST_CONTEXT = b"apna-passport-digest-v1:"


def packet_digest(packet: ApnaPacket) -> bytes:
    """The per-packet value every stamp authenticates.

    Covers the complete wire representation (header with the host MAC in
    place, payload, nonce if present) so no on-path entity can transplant
    stamps between packets.
    """
    return hashlib.sha256(_DIGEST_CONTEXT + packet.to_wire()).digest()


@dataclass(frozen=True)
class PassportHeader:
    """An ordered list of (AID, MAC) stamps, one per downstream AS."""

    entries: tuple[tuple[int, bytes], ...]

    def __post_init__(self) -> None:
        if len(self.entries) > _MAX_ENTRIES:
            raise ValueError(f"passport limited to {_MAX_ENTRIES} entries")
        for aid, mac in self.entries:
            if not 0 <= aid <= 2**32 - 1:
                raise ValueError(f"aid out of range: {aid}")
            if len(mac) != PASSPORT_MAC_SIZE:
                raise ValueError(f"stamp must be {PASSPORT_MAC_SIZE} bytes")

    def mac_for(self, aid: int) -> bytes | None:
        """The stamp addressed to ``aid``, or ``None`` if absent."""
        for entry_aid, mac in self.entries:
            if entry_aid == aid:
                return mac
        return None

    @property
    def wire_size(self) -> int:
        return 1 + len(self.entries) * _ENTRY_SIZE

    def pack(self) -> bytes:
        parts = [bytes([len(self.entries)])]
        parts.extend(struct.pack(_ENTRY_FMT, aid, mac) for aid, mac in self.entries)
        return b"".join(parts)

    # audit: allow(production-caller) the decode half of a wire format its round-trip tests pin
    @classmethod
    def parse(cls, data: bytes) -> "PassportHeader":
        if not data:
            raise ParseError("empty passport header")
        count = data[0]
        needed = 1 + count * _ENTRY_SIZE
        if len(data) < needed:
            raise ParseError(f"passport needs {needed} bytes, got {len(data)}")
        entries = tuple(
            struct.unpack_from(_ENTRY_FMT, data, 1 + i * _ENTRY_SIZE)
            for i in range(count)
        )
        return cls(entries)


class PassportStamper:
    """The source-AS side: stamps outgoing packets for a known AS path."""

    def __init__(self, keys: AsPairwiseKeys) -> None:
        self._keys = keys
        self._macs: dict[int, Cmac] = {}
        self.stamped_packets = 0

    def _cmac_for(self, aid: int) -> Cmac:
        mac = self._macs.get(aid)
        if mac is None:
            mac = Cmac(self._keys.key_for(aid))
            self._macs[aid] = mac
        return mac

    def stamp(self, packet: ApnaPacket, path_aids: list[int]) -> PassportHeader:
        """Stamp ``packet`` for every downstream AS on ``path_aids``.

        ``path_aids`` is the AS-level forwarding path *excluding* the
        source AS itself (a packet needs no stamp for its origin).
        """
        digest = packet_digest(packet)
        entries = tuple(
            (aid, self._cmac_for(aid).tag(digest, PASSPORT_MAC_SIZE))
            for aid in path_aids
        )
        self.stamped_packets += 1
        return PassportHeader(entries)

    def restamp_mac(self, packet: ApnaPacket, aid: int) -> bytes:
        """Recompute the stamp for one AS (used to verify shutoff evidence)."""
        return self._cmac_for(aid).tag(packet_digest(packet), PASSPORT_MAC_SIZE)


class PassportVerifier:
    """The transit-AS side: checks the stamp addressed to this AS."""

    def __init__(self, keys: AsPairwiseKeys) -> None:
        self._keys = keys
        self._macs: dict[int, Cmac] = {}
        self.verified = 0
        self.missing = 0
        self.invalid = 0

    def _cmac_for(self, aid: int) -> Cmac:
        mac = self._macs.get(aid)
        if mac is None:
            mac = Cmac(self._keys.key_for(aid))
            self._macs[aid] = mac
        return mac

    def verify(self, packet: ApnaPacket, passport: PassportHeader) -> bool:
        """True iff the packet carries a valid stamp for this AS.

        The stamp is keyed with the pairwise key shared with the packet's
        *source AS* — only that AS (or we ourselves) could have produced
        it, so a valid stamp proves the source AS emitted this exact
        packet toward a path containing us.
        """
        presented = passport.mac_for(self._keys.aid)
        if presented is None:
            self.missing += 1
            return False
        expected = self._cmac_for(packet.header.src_aid).tag(
            packet_digest(packet), PASSPORT_MAC_SIZE
        )
        if not ct_eq(presented, expected):
            self.invalid += 1
            return False
        self.verified += 1
        return True
