"""Authentication-only handshake, channel-bound to the APNA session.

The flow (one round trip, riding inside the already-encrypted session):

1. Client sends an :class:`AuthRequest` — the name it expects plus a
   fresh nonce.
2. Server answers with an :class:`Attestation` — its domain certificate,
   its own nonce and an Ed25519 signature over
   ``(channel binding, both nonces, name)``.
3. Client recomputes the channel binding *from its own session* and
   verifies the certificate chain and signature.

There is no key exchange: the session key established at connection
time (Section IV-D1) already encrypts everything.  The channel binding —
an HKDF export of that session key — is what makes the attestation
non-relayable: a man in the middle necessarily terminates two different
sessions with two different keys, so an attestation signed over one
binding never verifies against the other.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from ..core.session import Session
from ..crypto import ed25519
from ..crypto.kdf import hkdf
from ..crypto.rng import Rng, SystemRng
from .ca import DomainCertError, DomainCertificate

BINDING_SIZE = 32
NONCE_SIZE = 16

_EXPORT_CONTEXT = b"apna-tls-exporter-v1:"
_SIGN_CONTEXT = b"apna-tls-attest-v1:"


class TlsAuthError(Exception):
    """Server authentication failed."""


def channel_binding(session: Session, label: bytes = b"server-auth") -> bytes:
    """Export keying material bound to this session (RFC 5705-style).

    Both endpoints of one session derive the same value; endpoints of
    *different* sessions (e.g. the two legs of a MitM) cannot.
    """
    return hkdf(session.key, info=_EXPORT_CONTEXT + label, length=BINDING_SIZE)


@dataclass(frozen=True)
class AuthRequest:
    """Client's opening message: expected name plus a fresh nonce."""

    server_name: str
    client_nonce: bytes = field(repr=False)

    def __post_init__(self) -> None:
        if len(self.client_nonce) != NONCE_SIZE:
            raise TlsAuthError(f"client nonce must be {NONCE_SIZE} bytes")
        if not 1 <= len(self.server_name.encode()) <= 255:
            raise TlsAuthError("server name must encode to 1..255 bytes")

    @classmethod
    def create(cls, server_name: str, rng: Rng | None = None) -> "AuthRequest":
        rng = rng or SystemRng()
        return cls(server_name, rng.read(NONCE_SIZE))

    def pack(self) -> bytes:
        encoded = self.server_name.encode()
        return bytes([len(encoded)]) + encoded + self.client_nonce

    # audit: allow(production-caller) the decode half of a wire format its round-trip tests pin
    @classmethod
    def parse(cls, data: bytes) -> "AuthRequest":
        if len(data) < 1:
            raise TlsAuthError("empty auth request")
        name_size = data[0]
        if len(data) < 1 + name_size + NONCE_SIZE:
            raise TlsAuthError("auth request truncated")
        try:
            name = data[1 : 1 + name_size].decode()
        except UnicodeDecodeError as exc:
            raise TlsAuthError("server name is not valid UTF-8") from exc
        nonce = data[1 + name_size : 1 + name_size + NONCE_SIZE]
        return cls(name, nonce)


@dataclass(frozen=True)
class Attestation:
    """Server's reply: certificate, nonce, channel-bound signature."""

    cert: DomainCertificate
    server_nonce: bytes = field(repr=False)
    signature: bytes = field(repr=False)

    def __post_init__(self) -> None:
        if len(self.server_nonce) != NONCE_SIZE:
            raise TlsAuthError(f"server nonce must be {NONCE_SIZE} bytes")
        if len(self.signature) != ed25519.SIGNATURE_SIZE:
            raise TlsAuthError("signature must be 64 bytes")

    def pack(self) -> bytes:
        cert_bytes = self.cert.pack()
        return (
            struct.pack(">H", len(cert_bytes))
            + cert_bytes
            + self.server_nonce
            + self.signature
        )

    # audit: allow(production-caller) the decode half of a wire format its round-trip tests pin
    @classmethod
    def parse(cls, data: bytes) -> "Attestation":
        if len(data) < 2:
            raise TlsAuthError("empty attestation")
        (cert_size,) = struct.unpack_from(">H", data)
        needed = 2 + cert_size + NONCE_SIZE + ed25519.SIGNATURE_SIZE
        if len(data) < needed:
            raise TlsAuthError("attestation truncated")
        try:
            cert = DomainCertificate.parse(data[2 : 2 + cert_size])
        except DomainCertError as exc:
            raise TlsAuthError(f"bad certificate in attestation: {exc}") from exc
        offset = 2 + cert_size
        nonce = data[offset : offset + NONCE_SIZE]
        signature = data[offset + NONCE_SIZE : needed]
        return cls(cert, nonce, signature)


def _signed_bytes(
    binding: bytes, request: AuthRequest, server_nonce: bytes, name: str
) -> bytes:
    encoded = name.encode()
    return (
        _SIGN_CONTEXT
        + binding
        + request.client_nonce
        + server_nonce
        + bytes([len(encoded)])
        + encoded
    )


def attest(
    session: Session,
    request: AuthRequest,
    cert: DomainCertificate,
    domain_signer,
    rng: Rng | None = None,
) -> Attestation:
    """Server side: answer an auth request over ``session``.

    ``domain_signer`` holds the private key matching ``cert``
    (a :class:`repro.core.keys.SigningKeyPair`).
    """
    rng = rng or SystemRng()
    server_nonce = rng.read(NONCE_SIZE)
    binding = channel_binding(session)
    signature = domain_signer.sign(
        _signed_bytes(binding, request, server_nonce, cert.name)
    )
    return Attestation(cert, server_nonce, signature)


def verify_attestation(
    session: Session,
    request: AuthRequest,
    attestation: Attestation,
    ca_public: bytes,
    *,
    now: float | None = None,
) -> None:
    """Client side: verify the server's attestation against *our* session.

    Raises :class:`TlsAuthError` on any failure: name mismatch, bad or
    expired certificate, or a signature that does not cover the channel
    binding of the client's own session (the MitM case).
    """
    if attestation.cert.name != request.server_name:
        raise TlsAuthError(
            f"certificate names {attestation.cert.name!r}, "
            f"expected {request.server_name!r}"
        )
    try:
        attestation.cert.verify(ca_public, now=now)
    except DomainCertError as exc:
        raise TlsAuthError(str(exc)) from exc
    binding = channel_binding(session)
    message = _signed_bytes(
        binding, request, attestation.server_nonce, attestation.cert.name
    )
    if not ed25519.verify(attestation.cert.sig_public, message, attestation.signature):
        raise TlsAuthError(
            "attestation signature invalid for this session's channel binding"
        )
