"""The APNA network header (paper Fig. 7).

The header carries the communication endpoints as AID:EphID tuples plus a
MAC over the packet computed with the host<->AS shared key:

====================  ========
Field                 Size
====================  ========
Source AID            4 bytes
Source EphID          16 bytes
Dest EphID            16 bytes
Dest AID              4 bytes
MAC                   8 bytes
====================  ========

Total: 48 bytes.  Section VIII-D of the paper proposes an additional
per-packet nonce for replay protection; this is supported as an optional
8-byte extension negotiated deployment-wide (the base header stays 48
bytes so that the paper's overhead numbers hold by default).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace

from .errors import FieldError, ParseError

EPHID_SIZE = 16
AID_SIZE = 4
MAC_SIZE = 8
HEADER_SIZE = 48
NONCE_SIZE = 8
HEADER_SIZE_WITH_NONCE = HEADER_SIZE + NONCE_SIZE

#: Where each field sits in a packed header, for code that reads frames
#: without parsing them (the router's burst path, the shard dispatcher).
SRC_AID_FIELD = slice(0, AID_SIZE)
SRC_EPHID_FIELD = slice(SRC_AID_FIELD.stop, SRC_AID_FIELD.stop + EPHID_SIZE)
DST_EPHID_FIELD = slice(SRC_EPHID_FIELD.stop, SRC_EPHID_FIELD.stop + EPHID_SIZE)
DST_AID_FIELD = slice(DST_EPHID_FIELD.stop, DST_EPHID_FIELD.stop + AID_SIZE)
MAC_FIELD = slice(DST_AID_FIELD.stop, HEADER_SIZE)
NONCE_FIELD = slice(HEADER_SIZE, HEADER_SIZE_WITH_NONCE)

_MAX_AID = 2**32 - 1
_MAX_NONCE = 2**64 - 1

#: Wire layout of the fixed Fig. 7 header; the optional nonce extension
#: is a ``>Q`` suffix.  Shared by pack/parse/mac_input so the MAC is
#: always computed over exactly the bytes the wire carries.
_HEADER_FMT = f">I{EPHID_SIZE}s{EPHID_SIZE}sI{MAC_SIZE}s"


@dataclass(frozen=True)
class ApnaHeader:
    """Parsed APNA header.

    ``mac`` is filled in by the sending host (see
    :meth:`repro.core.host.Host.send`); a zero MAC is used while computing
    the MAC input itself.  ``nonce`` is ``None`` unless the deployment
    enables replay protection (paper Section VIII-D).
    """

    src_aid: int
    src_ephid: bytes
    dst_ephid: bytes
    dst_aid: int
    mac: bytes = bytes(MAC_SIZE)
    nonce: int | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.src_aid <= _MAX_AID:
            raise FieldError(f"src_aid out of range: {self.src_aid}")
        if not 0 <= self.dst_aid <= _MAX_AID:
            raise FieldError(f"dst_aid out of range: {self.dst_aid}")
        if len(self.src_ephid) != EPHID_SIZE:
            raise FieldError(f"src_ephid must be {EPHID_SIZE} bytes")
        if len(self.dst_ephid) != EPHID_SIZE:
            raise FieldError(f"dst_ephid must be {EPHID_SIZE} bytes")
        if len(self.mac) != MAC_SIZE:
            raise FieldError(f"mac must be {MAC_SIZE} bytes")
        if self.nonce is not None and not 0 <= self.nonce <= _MAX_NONCE:
            raise FieldError(f"nonce out of range: {self.nonce}")

    @property
    def wire_size(self) -> int:
        return HEADER_SIZE_WITH_NONCE if self.nonce is not None else HEADER_SIZE

    def pack(self) -> bytes:
        """Serialize the header."""
        head = struct.pack(
            _HEADER_FMT,
            self.src_aid,
            self.src_ephid,
            self.dst_ephid,
            self.dst_aid,
            self.mac,
        )
        if self.nonce is not None:
            head += struct.pack(">Q", self.nonce)
        return head

    @classmethod
    def parse(cls, data: bytes, *, with_nonce: bool = False) -> "ApnaHeader":
        """Parse a header from the start of ``data``.

        Whether a nonce is present is a deployment-wide configuration, not
        self-describing on the wire (the paper's header has no version
        field), so the caller must say which format it expects.
        """
        expected = HEADER_SIZE_WITH_NONCE if with_nonce else HEADER_SIZE
        if len(data) < expected:
            raise ParseError(
                f"APNA header needs {expected} bytes, got {len(data)}"
            )
        src_aid, src_ephid, dst_ephid, dst_aid, mac = struct.unpack_from(
            _HEADER_FMT, data
        )
        nonce = None
        if with_nonce:
            (nonce,) = struct.unpack_from(">Q", data, HEADER_SIZE)
        return cls(src_aid, src_ephid, dst_ephid, dst_aid, mac, nonce)

    def mac_input(self, payload: bytes) -> bytes:
        """Bytes the per-packet MAC is computed over (header w/ zero MAC + payload)."""
        head = struct.pack(
            _HEADER_FMT,
            self.src_aid,
            self.src_ephid,
            self.dst_ephid,
            self.dst_aid,
            bytes(MAC_SIZE),
        )
        if self.nonce is not None:
            head += struct.pack(">Q", self.nonce)
        return head + payload

    def with_mac(self, mac: bytes) -> "ApnaHeader":
        return replace(self, mac=mac)

    def reversed(self) -> "ApnaHeader":
        """Header for a reply packet (endpoints swapped, MAC cleared)."""
        return ApnaHeader(
            src_aid=self.dst_aid,
            src_ephid=self.dst_ephid,
            dst_ephid=self.src_ephid,
            dst_aid=self.src_aid,
            nonce=self.nonce,
        )


@dataclass(frozen=True)
class ApnaPacket:
    """An APNA packet: header plus (typically encrypted) payload."""

    header: ApnaHeader
    payload: bytes = b""

    def to_wire(self) -> bytes:
        return self.header.pack() + self.payload

    @classmethod
    def from_wire(cls, data: bytes, *, with_nonce: bool = False) -> "ApnaPacket":
        header = ApnaHeader.parse(data, with_nonce=with_nonce)
        return cls(header, data[header.wire_size :])

    @property
    def wire_size(self) -> int:
        return self.header.wire_size + len(self.payload)

    def mac_input(self) -> bytes:
        return self.header.mac_input(self.payload)


@dataclass(frozen=True)
class Endpoint:
    """A fully-qualified APNA endpoint: the AID:EphID tuple of Section III-B."""

    aid: int
    ephid: bytes = field(repr=False)

    def __post_init__(self) -> None:
        if not 0 <= self.aid <= _MAX_AID:
            raise FieldError(f"aid out of range: {self.aid}")
        if len(self.ephid) != EPHID_SIZE:
            raise FieldError(f"ephid must be {EPHID_SIZE} bytes")

    def __str__(self) -> str:
        return f"{self.aid}:{self.ephid.hex()[:8]}…"
