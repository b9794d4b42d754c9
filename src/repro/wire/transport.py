"""Minimal transport header carried inside the encrypted APNA payload.

APNA is a network-layer architecture; hosts still need ports and sequence
numbers to demultiplex flows.  This 12-byte header is the upper-layer
shim every payload starts with *before* encryption — it is never visible
on the wire, which is what gives APNA its sender-flow unlinkability even
for port information.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .errors import FieldError, ParseError

HEADER_SIZE = 12

PROTO_DATA = 1
PROTO_CONTROL = 2
PROTO_ICMP = 3
PROTO_DNS = 4
PROTO_SHUTOFF = 5

FLAG_SYN = 0x01
FLAG_FIN = 0x02
FLAG_CERT = 0x04  # payload carries a certificate (connection establishment)

_MAX_16 = 0xFFFF
_MAX_32 = 0xFFFFFFFF


@dataclass(frozen=True)
class TransportHeader:
    """``src_port, dst_port, seq, flags, proto, length`` — 12 bytes."""

    src_port: int
    dst_port: int
    seq: int = 0
    flags: int = 0
    proto: int = PROTO_DATA
    length: int = 0

    def __post_init__(self) -> None:
        for name in ("src_port", "dst_port", "length"):
            value = getattr(self, name)
            if not 0 <= value <= _MAX_16:
                raise FieldError(f"{name} out of range: {value}")
        if not 0 <= self.seq <= _MAX_32:
            raise FieldError(f"seq out of range: {self.seq}")
        if not 0 <= self.flags <= 255:
            raise FieldError(f"flags out of range: {self.flags}")
        if not 0 <= self.proto <= 255:
            raise FieldError(f"proto out of range: {self.proto}")

    def pack(self) -> bytes:
        return struct.pack(
            ">HHIBBH",
            self.src_port,
            self.dst_port,
            self.seq,
            self.flags,
            self.proto,
            self.length,
        )

    @classmethod
    def parse(cls, data: bytes) -> "TransportHeader":
        if len(data) < HEADER_SIZE:
            raise ParseError(
                f"transport header needs {HEADER_SIZE} bytes, got {len(data)}"
            )
        src_port, dst_port, seq, flags, proto, length = struct.unpack_from(
            ">HHIBBH", data
        )
        return cls(src_port, dst_port, seq, flags, proto, length)


def build_segment(header: TransportHeader, data: bytes) -> bytes:
    """Attach the transport header, filling in the length field."""
    if len(data) > _MAX_16:
        raise FieldError(f"segment too large: {len(data)}")
    sized = TransportHeader(
        src_port=header.src_port,
        dst_port=header.dst_port,
        seq=header.seq,
        flags=header.flags,
        proto=header.proto,
        length=len(data),
    )
    return sized.pack() + data


def split_segment(segment: bytes) -> tuple[TransportHeader, bytes]:
    """Parse a segment into (header, data), validating the length field."""
    header = TransportHeader.parse(segment)
    data = segment[HEADER_SIZE : HEADER_SIZE + header.length]
    if len(data) != header.length:
        raise ParseError(
            f"segment truncated: header says {header.length}, have {len(data)}"
        )
    return header, data
