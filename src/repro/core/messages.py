"""Control-plane message formats (Figs. 2, 3 and 5 of the paper).

Every message has a fixed, explicit binary serialization so the full
protocol is exercised byte-for-byte.  Variable-length fields use 2-byte
big-endian length prefixes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from ..crypto import ed25519
from .certs import EPHID_CERT_SIZE, EphIdCertificate
from .errors import ApnaError
from .keys import SigningKeyPair

EPHID_SIZE = 16


class MessageError(ApnaError):
    """A control message failed to parse."""


def _take(data: bytes, offset: int, size: int) -> tuple[bytes, int]:
    if offset + size > len(data):
        raise MessageError(f"message truncated at offset {offset} (+{size})")
    return data[offset : offset + size], offset + size


def _take_var(data: bytes, offset: int) -> tuple[bytes, int]:
    raw, offset = _take(data, offset, 2)
    (size,) = struct.unpack(">H", raw)
    return _take(data, offset, size)


def _put_var(chunk: bytes) -> bytes:
    if len(chunk) > 0xFFFF:
        raise MessageError(f"variable field too large: {len(chunk)}")
    return struct.pack(">H", len(chunk)) + chunk


# ---------------------------------------------------------------------------
# Host bootstrapping (Fig. 2)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BootstrapRequest:
    """Host -> RS: authentication credential and the host public key K+H.

    The paper does not fix the authentication protocol (RADIUS, Diameter,
    ...); we model a subscriber id plus an HMAC proof over the presented
    public key computed with the subscriber secret, which gives the same
    guarantee the paper assumes: the RS learns an authenticated K+H.
    """

    subscriber_id: int
    host_public: bytes
    proof: bytes

    def pack(self) -> bytes:
        return (
            struct.pack(">Q", self.subscriber_id)
            + _put_var(self.host_public)
            + _put_var(self.proof)
        )

    # audit: allow(production-caller) the decode half of a wire format its round-trip tests pin
    @classmethod
    def parse(cls, data: bytes) -> "BootstrapRequest":
        raw, offset = _take(data, 0, 8)
        (subscriber_id,) = struct.unpack(">Q", raw)
        host_public, offset = _take_var(data, offset)
        proof, offset = _take_var(data, offset)
        return cls(subscriber_id, host_public, proof)


@dataclass(frozen=True)
class IdInfo:
    """The signed ``{EphID_ctrl, ExpTime}`` blob of Fig. 2."""

    ephid: bytes = field(repr=False)
    exp_time: int
    signature: bytes = field(default=bytes(ed25519.SIGNATURE_SIZE), repr=False)

    _CONTEXT = b"apna-id-info-v1:"
    _FMT = f">{EPHID_SIZE}sI"
    SIZE = struct.calcsize(_FMT) + ed25519.SIGNATURE_SIZE

    def tbs(self) -> bytes:
        return self._CONTEXT + struct.pack(self._FMT, self.ephid, self.exp_time)

    @classmethod
    def issue(cls, signer: SigningKeyPair, ephid: bytes, exp_time: int) -> "IdInfo":
        unsigned = cls(ephid=ephid, exp_time=exp_time)
        return cls(ephid=ephid, exp_time=exp_time, signature=signer.sign(unsigned.tbs()))

    def verify(self, as_public: bytes) -> bool:
        return ed25519.verify(as_public, self.tbs(), self.signature)

    def pack(self) -> bytes:
        return struct.pack(self._FMT, self.ephid, self.exp_time) + self.signature

    @classmethod
    def parse(cls, data: bytes) -> "IdInfo":
        if len(data) < cls.SIZE:
            raise MessageError(f"IdInfo needs {cls.SIZE} bytes, got {len(data)}")
        ephid, exp_time = struct.unpack_from(cls._FMT, data)
        body = struct.calcsize(cls._FMT)
        return cls(ephid=ephid, exp_time=exp_time, signature=data[body : cls.SIZE])


@dataclass(frozen=True)
class BootstrapReply:
    """RS -> host (m2): id_info plus MS and DNS service certificates."""

    id_info: IdInfo
    ms_cert: EphIdCertificate
    dns_cert: EphIdCertificate

    def pack(self) -> bytes:
        return self.id_info.pack() + self.ms_cert.pack() + self.dns_cert.pack()

    # audit: allow(production-caller) the decode half of a wire format its round-trip tests pin
    @classmethod
    def parse(cls, data: bytes) -> "BootstrapReply":
        id_info = IdInfo.parse(data)
        offset = IdInfo.SIZE
        ms_raw, offset = _take(data, offset, EPHID_CERT_SIZE)
        dns_raw, offset = _take(data, offset, EPHID_CERT_SIZE)
        return cls(
            id_info=id_info,
            ms_cert=EphIdCertificate.parse(ms_raw),
            dns_cert=EphIdCertificate.parse(dns_raw),
        )


@dataclass(frozen=True)
class InfraUpdate:
    """RS -> AS entities (m1): the new host's (HID, kHA) pair.

    Sealed with the AS infrastructure key so that only AS entities learn
    host bindings (Fig. 2's ``m1 = E_kA(HID, kHA)``).
    """

    hid: int
    control_key: bytes
    packet_mac_key: bytes

    def pack(self) -> bytes:
        return (
            struct.pack(">I", self.hid)
            + _put_var(self.control_key)
            + _put_var(self.packet_mac_key)
        )

    @classmethod
    def parse(cls, data: bytes) -> "InfraUpdate":
        raw, offset = _take(data, 0, 4)
        (hid,) = struct.unpack(">I", raw)
        control_key, offset = _take_var(data, offset)
        packet_mac_key, offset = _take_var(data, offset)
        return cls(hid, control_key, packet_mac_key)


# ---------------------------------------------------------------------------
# EphID issuance (Fig. 3)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EphIdRequest:
    """Host -> MS (inside E_kHA): the host-generated EphID public keys.

    ``lifetime`` expresses the Section VIII-G1 extension letting hosts
    choose an expiration class; 0 means "AS default".
    """

    dh_public: bytes
    sig_public: bytes
    flags: int = 0
    lifetime: float = 0.0

    def pack(self) -> bytes:
        return struct.pack(
            ">32s32sBd", self.dh_public, self.sig_public, self.flags, self.lifetime
        )

    @classmethod
    def parse(cls, data: bytes) -> "EphIdRequest":
        if len(data) < struct.calcsize(">32s32sBd"):
            raise MessageError("EphIdRequest truncated")
        dh_public, sig_public, flags, lifetime = struct.unpack_from(">32s32sBd", data)
        return cls(dh_public, sig_public, flags, lifetime)


@dataclass(frozen=True)
class EphIdReply:
    """MS -> host (inside E_kHA): the issued certificate."""

    cert: EphIdCertificate

    def pack(self) -> bytes:
        return self.cert.pack()

    @classmethod
    def parse(cls, data: bytes) -> "EphIdReply":
        return cls(cert=EphIdCertificate.parse(data))


# ---------------------------------------------------------------------------
# Shutoff protocol (Fig. 5)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShutoffRequest:
    """Recipient -> AA of the source AS.

    Carries the unwanted packet (the proof the source actually sent it),
    the recipient's signature over that packet with K-EphID_d, and the
    recipient's EphID certificate (proof it owns the destination EphID).
    """

    packet: bytes
    signature: bytes
    cert: EphIdCertificate

    def pack(self) -> bytes:
        return _put_var(self.packet) + _put_var(self.signature) + self.cert.pack()

    @classmethod
    def parse(cls, data: bytes) -> "ShutoffRequest":
        packet, offset = _take_var(data, 0)
        signature, offset = _take_var(data, offset)
        cert_raw, offset = _take(data, offset, EPHID_CERT_SIZE)
        return cls(packet, signature, EphIdCertificate.parse(cert_raw))

    SIGN_CONTEXT = b"apna-shutoff-v1:"

    def signed_bytes(self) -> bytes:
        return self.SIGN_CONTEXT + self.packet


@dataclass(frozen=True)
class ShutoffResponse:
    """AA -> requester: outcome of the shutoff request."""

    accepted: bool
    reason: str = ""

    def pack(self) -> bytes:
        return struct.pack(">B", int(self.accepted)) + _put_var(
            self.reason.encode("utf-8")
        )

    @classmethod
    def parse(cls, data: bytes) -> "ShutoffResponse":
        raw, offset = _take(data, 0, 1)
        reason, offset = _take_var(data, offset)
        try:
            text = reason.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MessageError(f"reason is not valid UTF-8: {exc}") from exc
        return cls(bool(raw[0]), text)


@dataclass(frozen=True)
class RevocationPush:
    """AA -> border routers: ``MAC_kAS(revoke EphID_s)`` of Fig. 5."""

    ephid: bytes
    exp_time: int
    mac: bytes = b""

    _FMT = f">{EPHID_SIZE}sI"

    def mac_input(self) -> bytes:
        return b"apna-revoke-v1:" + struct.pack(self._FMT, self.ephid, self.exp_time)

    def pack(self) -> bytes:
        return struct.pack(self._FMT, self.ephid, self.exp_time) + _put_var(self.mac)

    @classmethod
    def parse(cls, data: bytes) -> "RevocationPush":
        raw, offset = _take(data, 0, struct.calcsize(cls._FMT))
        ephid, exp_time = struct.unpack(cls._FMT, raw)
        mac, offset = _take_var(data, offset)
        return cls(ephid, exp_time, mac)
