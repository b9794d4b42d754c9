"""End-to-end sessions: connection establishment and data encryption.

Section IV-D1: two hosts verify each other's EphID certificates and run
an ECDH over the EphID key pairs, yielding the session key k_EaEb.  Every
data packet is then AEAD-encrypted under that key.

Perfect forward secrecy comes for free: the session key derives *only*
from the ephemeral per-EphID keys, never from K-AS or K-H, so
compromising long-term keys reveals nothing about past sessions
(Section VI-B).
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass, field
from typing import Iterator

from ..crypto.aead import EtmScheme
from ..crypto.kdf import hkdf
from .certs import EPHID_CERT_SIZE, EphIdCertificate
from .errors import ApnaError, CertError
from .keys import EphIdKeyPair
from .replay import ReplayWindow


class SessionError(ApnaError):
    """Session-layer failure (bad nonce, replay, decryption failure)."""


@dataclass(frozen=True)
class OwnedEphId:
    """An EphID a host owns: the certificate plus the private key pair,
    and the EphID's own Section VIII-D nonce sequence (see
    :func:`header_nonce`)."""

    cert: EphIdCertificate
    keypair: EphIdKeyPair
    nonces: Iterator[int] = field(
        default_factory=lambda: itertools.count(1), compare=False, repr=False
    )

    @property
    def ephid(self) -> bytes:
        return self.cert.ephid

    @property
    def exp_time(self) -> int:
        return self.cert.exp_time

    @property
    def receive_only(self) -> bool:
        return self.cert.receive_only

    def expired(self, now: float) -> bool:
        return self.cert.exp_time < now


def header_nonce(nonces: Iterator[int], replay_protection: bool) -> int | None:
    """The next header nonce of the sending EphID, or ``None`` when the
    deployment's header has no nonce field (Section VIII-D).

    Every sender numbers its packets here, from the sequence of the EphID
    it sends from: 1, 2, 3, ... per EphID.  A per-EphID count tells an
    observer nothing about the host's other EphIDs; one counter per host
    would link them all, which sender-flow unlinkability (Section II-B)
    forbids.
    """
    return next(nonces) if replay_protection else None


def derive_session_key(
    local: EphIdKeyPair, peer_dh_public: bytes, local_ephid: bytes, peer_ephid: bytes
) -> bytes:
    """k_EaEb: ECDH over the EphID keys, bound to the EphID pair.

    The context is order-independent so both sides derive the same key.
    """
    shared = local.exchange.shared_secret(peer_dh_public)
    first, second = sorted((local_ephid, peer_ephid))
    return hkdf(shared, info=b"apna-session-v1:" + first + second, length=32)


class Session:
    """A unidirectional-nonce, bidirectional-data encrypted session.

    The nonce layout is ``direction(1) || seq(8) || 0^3``; direction is
    derived deterministically from the EphID ordering so no negotiation
    is needed.  AAD binds ciphertexts to the EphID pair, preventing
    cross-session splicing.
    """

    def __init__(
        self,
        local: OwnedEphId,
        peer_cert: EphIdCertificate,
        *,
        replay_window: int = 1024,
    ) -> None:
        self.local = local
        self.peer_cert = peer_cert
        self.key = derive_session_key(
            local.keypair, peer_cert.dh_public, local.ephid, peer_cert.ephid
        )
        self._aead = EtmScheme(self.key)
        self._send_dir = 1 if local.ephid < peer_cert.ephid else 2
        self._recv_dir = 3 - self._send_dir
        self._send_seq = 0
        self._replay = ReplayWindow(replay_window)
        self._aad = b"apna-data:" + b"".join(sorted((local.ephid, peer_cert.ephid)))
        self.sent = 0
        self.received = 0

    @staticmethod
    def _nonce(direction: int, seq: int) -> bytes:
        return struct.pack(">BQ", direction, seq) + bytes(3)

    def seal(self, plaintext: bytes) -> bytes:
        """Encrypt one payload; returns ``seq(8) || ciphertext||tag``."""
        seq = self._send_seq
        self._send_seq += 1
        sealed = self._aead.seal(self._nonce(self._send_dir, seq), plaintext, self._aad)
        self.sent += 1
        return struct.pack(">Q", seq) + sealed

    def open(self, payload: bytes) -> bytes:
        """Authenticate and decrypt a payload from the peer.

        The sequence number enters the replay window only once the
        payload authenticates, so a forged payload cannot move the window
        past the peer's real sequence numbers.
        """
        if len(payload) < 8:
            raise SessionError("payload too short for sequence number")
        (seq,) = struct.unpack_from(">Q", payload)
        try:
            plaintext = self._aead.open(
                self._nonce(self._recv_dir, seq), payload[8:], self._aad
            )
        except ValueError as exc:
            raise SessionError("payload failed authentication") from exc
        if not self._replay.check(seq):
            raise SessionError(f"replayed or stale sequence number {seq}")
        self.received += 1
        return plaintext


# ---------------------------------------------------------------------------
# Connection-establishment messages (Sections IV-D1 and VII-A)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConnectionRequest:
    """First packet of a connection: the initiator's certificate.

    ``early_data`` is the optional 0-RTT payload of Section VII-C: the
    initiator may encrypt data under the session key on the very first
    packet ("the host encrypts its data after computing the shared key").
    """

    cert: EphIdCertificate
    early_data: bytes = field(default=b"", repr=False)

    def pack(self) -> bytes:
        return self.cert.pack() + struct.pack(">H", len(self.early_data)) + self.early_data

    @classmethod
    def parse(cls, data: bytes) -> "ConnectionRequest":
        if len(data) < EPHID_CERT_SIZE + 2:
            raise CertError("connection request truncated")
        cert = EphIdCertificate.parse(data[:EPHID_CERT_SIZE])
        (size,) = struct.unpack_from(">H", data, EPHID_CERT_SIZE)
        start = EPHID_CERT_SIZE + 2
        early = data[start : start + size]
        if len(early) != size:
            raise CertError("connection request early data truncated")
        return cls(cert, early)


@dataclass(frozen=True)
class ConnectionAccept:
    """Server response for the receive-only flow of Section VII-A.

    When a client connects to a receive-only EphID (from DNS), the server
    answers with the certificate of the *serving* EphID it will actually
    use, plus optional data encrypted under the serving session key.
    """

    serving_cert: EphIdCertificate
    data: bytes = field(default=b"", repr=False)

    def pack(self) -> bytes:
        return self.serving_cert.pack() + struct.pack(">H", len(self.data)) + self.data

    @classmethod
    def parse(cls, data: bytes) -> "ConnectionAccept":
        if len(data) < EPHID_CERT_SIZE + 2:
            raise CertError("connection accept truncated")
        cert = EphIdCertificate.parse(data[:EPHID_CERT_SIZE])
        (size,) = struct.unpack_from(">H", data, EPHID_CERT_SIZE)
        start = EPHID_CERT_SIZE + 2
        body = data[start : start + size]
        if len(body) != size:
            raise CertError("connection accept data truncated")
        return cls(cert, body)
