"""Minimal IPv4 header, used for the GRE-based deployment path (paper VII-D).

In the incremental-deployment story, APNA packets travel inside GRE
tunnels over today's IPv4 network; IPv4 addresses double as HIDs inside an
AS and as AIDs between APNA routers.  This module implements the 20-byte
IPv4 header (no options) with a correct ones'-complement checksum.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace

from .errors import FieldError, ParseError

HEADER_SIZE = 20
PROTO_ICMP = 1
PROTO_TCP = 6
PROTO_UDP = 17
PROTO_GRE = 47

_MAX_16 = 0xFFFF
_MAX_32 = 0xFFFFFFFF


def checksum(data: bytes) -> int:
    """RFC 1071 ones'-complement checksum."""
    if len(data) % 2:
        data += b"\x00"
    total = sum(struct.unpack(f">{len(data) // 2}H", data))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def ip_to_int(address: str) -> int:
    """Dotted-quad to integer."""
    parts = address.split(".")
    if len(parts) != 4:
        raise FieldError(f"bad IPv4 address {address!r}")
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise FieldError(f"bad IPv4 address {address!r}")
        value = (value << 8) | octet
    return value


def int_to_ip(value: int) -> str:
    """Integer to dotted-quad."""
    if not 0 <= value <= _MAX_32:
        raise FieldError(f"IPv4 address out of range: {value}")
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


@dataclass(frozen=True)
class Ipv4Header:
    """IPv4 header without options (IHL = 5)."""

    src: int
    dst: int
    protocol: int
    total_length: int = HEADER_SIZE
    ttl: int = 64
    identification: int = 0
    tos: int = 0
    flags_fragment: int = 0

    def __post_init__(self) -> None:
        for name in ("src", "dst"):
            value = getattr(self, name)
            if not 0 <= value <= _MAX_32:
                raise FieldError(f"{name} out of range: {value}")
        if not 0 <= self.protocol <= 255:
            raise FieldError(f"protocol out of range: {self.protocol}")
        if not 0 <= self.ttl <= 255:
            raise FieldError(f"ttl out of range: {self.ttl}")
        if not HEADER_SIZE <= self.total_length <= _MAX_16:
            raise FieldError(f"total_length out of range: {self.total_length}")
        if not 0 <= self.identification <= _MAX_16:
            raise FieldError(f"identification out of range: {self.identification}")

    def pack(self) -> bytes:
        header = struct.pack(
            ">BBHHHBBHII",
            (4 << 4) | 5,
            self.tos,
            self.total_length,
            self.identification,
            self.flags_fragment,
            self.ttl,
            self.protocol,
            0,
            self.src,
            self.dst,
        )
        cksum = checksum(header)
        return header[:10] + struct.pack(">H", cksum) + header[12:]

    @classmethod
    def parse(cls, data: bytes) -> "Ipv4Header":
        if len(data) < HEADER_SIZE:
            raise ParseError(f"IPv4 header needs {HEADER_SIZE} bytes, got {len(data)}")
        (
            version_ihl,
            tos,
            total_length,
            identification,
            flags_fragment,
            ttl,
            protocol,
            _cksum,
            src,
            dst,
        ) = struct.unpack_from(">BBHHHBBHII", data)
        if version_ihl >> 4 != 4:
            raise ParseError(f"not an IPv4 packet (version={version_ihl >> 4})")
        if version_ihl & 0x0F != 5:
            raise ParseError("IPv4 options are not supported")
        if checksum(data[:HEADER_SIZE]) != 0:
            raise ParseError("IPv4 header checksum mismatch")
        return cls(
            src=src,
            dst=dst,
            protocol=protocol,
            total_length=total_length,
            ttl=ttl,
            identification=identification,
            tos=tos,
            flags_fragment=flags_fragment,
        )

    def decrement_ttl(self) -> "Ipv4Header":
        """Forwarding step; raises when the TTL expires."""
        if self.ttl <= 1:
            raise ParseError("TTL expired in transit")
        return replace(self, ttl=self.ttl - 1)
