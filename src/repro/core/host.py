"""The APNA host stack (sans-IO).

Everything a host does in the paper, as pure request/response building
blocks: bootstrapping (Fig. 2), EphID acquisition (Fig. 3), per-packet
source authentication (Section IV-D2), session establishment
(Section IV-D1) and shutoff requests (Fig. 5).  Transport (the simulator
or a benchmark loop) is supplied by the caller; the
:class:`repro.core.autonomous_system.ApnaHostNode` adapter wires this
stack onto the simulated network.
"""

from __future__ import annotations

from typing import Callable

from ..crypto.aead import EtmScheme
from ..crypto.cmac import Cmac
from ..crypto.rng import Rng, SystemRng
from ..crypto.util import ct_eq
from ..wire.apna import ApnaHeader, ApnaPacket, Endpoint
from .certs import EphIdCertificate
from .config import ApnaConfig, DEFAULT_CONFIG
from .errors import ApnaError, CertError, MacError
from .keys import EphIdKeyPair, ExchangeKeyPair, HostAsKeys, host_as_dh
from .messages import (
    BootstrapReply,
    BootstrapRequest,
    EphIdReply,
    EphIdRequest,
    ShutoffRequest,
)
from .registry import credential_proof
from .rpki import RpkiDirectory
from .session import OwnedEphId, Session


class HostStack:
    """Protocol engine for one APNA host."""

    def __init__(
        self,
        aid: int,
        subscriber_id: int,
        subscriber_secret: bytes,
        rpki: RpkiDirectory,
        clock: Callable[[], float],
        *,
        config: ApnaConfig = DEFAULT_CONFIG,
        rng: Rng | None = None,
    ) -> None:
        self.aid = aid
        self.subscriber_id = subscriber_id
        self._subscriber_secret = subscriber_secret
        self._rpki = rpki
        self._clock = clock
        self.config = config
        self._rng = rng or SystemRng()
        self.keys = ExchangeKeyPair.generate(self._rng)  # K+H / K-H

        # Populated by bootstrapping.
        self.kha: HostAsKeys | None = None
        self.control_ephid: bytes | None = None
        self.control_exp: int | None = None
        self.ms_cert: EphIdCertificate | None = None
        self.dns_cert: EphIdCertificate | None = None
        self._packet_mac: Cmac | None = None
        self._ctrl_scheme: EtmScheme | None = None

    # -- Fig. 2: bootstrapping --

    def build_bootstrap_request(self) -> BootstrapRequest:
        return BootstrapRequest(
            subscriber_id=self.subscriber_id,
            host_public=self.keys.public,
            proof=credential_proof(self._subscriber_secret, self.keys.public),
        )

    def accept_bootstrap_reply(self, reply: BootstrapReply) -> None:
        """Verify m2 and derive kHA; raises :class:`CertError` on forgery."""
        as_cert = self._rpki.lookup(self.aid)
        if not reply.id_info.verify(as_cert.signing_public):
            raise CertError("id_info signature invalid")
        reply.ms_cert.verify(as_cert.signing_public, now=self._clock())
        reply.dns_cert.verify(as_cert.signing_public, now=self._clock())
        self.kha = host_as_dh(self.keys, as_cert.exchange_public)
        self._packet_mac = Cmac(self.kha.packet_mac)
        self._ctrl_scheme = EtmScheme(self.kha.control)
        self.control_ephid = reply.id_info.ephid
        self.control_exp = reply.id_info.exp_time
        self.ms_cert = reply.ms_cert
        self.dns_cert = reply.dns_cert

    @property
    def bootstrapped(self) -> bool:
        return self.kha is not None

    def _require_bootstrap(self) -> HostAsKeys:
        if self.kha is None:
            raise ApnaError("host is not bootstrapped")
        return self.kha

    # -- Fig. 3: EphID acquisition --

    def build_ephid_request(
        self, flags: int = 0, lifetime: float | None = None
    ) -> tuple[EphIdKeyPair, bytes]:
        """Generate the EphID key pair and the sealed request bytes."""
        self._require_bootstrap()
        assert self._ctrl_scheme is not None
        keypair = EphIdKeyPair.generate(self._rng)
        request = EphIdRequest(
            dh_public=keypair.exchange.public,
            sig_public=keypair.signing.public,
            flags=flags,
            lifetime=lifetime or 0.0,
        )
        nonce = self._rng.read(12)
        sealed = self._ctrl_scheme.seal(nonce, request.pack(), b"ephid-request")
        return keypair, nonce + sealed

    def build_ephid_request_for(
        self,
        dh_public: bytes,
        sig_public: bytes,
        flags: int = 0,
        lifetime: float | None = None,
    ) -> bytes:
        """Request an EphID bound to *someone else's* public keys.

        Used by NAT-mode access points (Section VII-B): "when requesting
        an EphID to the MS of the AS, the AP uses an ephemeral public key
        that is supplied by its host."
        """
        self._require_bootstrap()
        assert self._ctrl_scheme is not None
        request = EphIdRequest(
            dh_public=dh_public,
            sig_public=sig_public,
            flags=flags,
            lifetime=lifetime or 0.0,
        )
        nonce = self._rng.read(12)
        return nonce + self._ctrl_scheme.seal(nonce, request.pack(), b"ephid-request")

    def accept_ephid_reply_cert(self, sealed: bytes) -> EphIdCertificate:
        """Open a sealed issuance reply without binding it to a local key
        pair (the AP side of proxied issuance)."""
        self._require_bootstrap()
        assert self._ctrl_scheme is not None
        if len(sealed) < 12:
            raise ApnaError("EphID reply too short")
        nonce, body = sealed[:12], sealed[12:]
        try:
            plain = self._ctrl_scheme.open(nonce, body, b"ephid-reply")
        except ValueError as exc:
            raise MacError("EphID reply failed authentication") from exc
        cert = EphIdReply.parse(plain).cert
        as_cert = self._rpki.lookup(self.aid)
        cert.verify(as_cert.signing_public, now=self._clock())
        return cert

    def accept_ephid_reply(self, keypair: EphIdKeyPair, sealed: bytes) -> OwnedEphId:
        """Open and verify the sealed certificate reply."""
        self._require_bootstrap()
        assert self._ctrl_scheme is not None
        if len(sealed) < 12:
            raise ApnaError("EphID reply too short")
        nonce, body = sealed[:12], sealed[12:]
        try:
            plain = self._ctrl_scheme.open(nonce, body, b"ephid-reply")
        except ValueError as exc:
            raise MacError("EphID reply failed authentication") from exc
        cert = EphIdReply.parse(plain).cert
        as_cert = self._rpki.lookup(self.aid)
        cert.verify(as_cert.signing_public, now=self._clock())
        if cert.dh_public != keypair.exchange.public:
            raise CertError("certificate does not match our DH key")
        if cert.sig_public != keypair.signing.public:
            raise CertError("certificate does not match our signing key")
        return OwnedEphId(cert=cert, keypair=keypair)

    # -- Section IV-D2: per-packet source authentication --

    def make_packet(
        self,
        src_ephid: bytes,
        dst: Endpoint,
        payload: bytes,
        *,
        nonce: int | None = None,
    ) -> ApnaPacket:
        """Build a MAC'd APNA packet from one of our EphIDs."""
        self._require_bootstrap()
        assert self._packet_mac is not None
        header = ApnaHeader(
            src_aid=self.aid,
            src_ephid=src_ephid,
            dst_ephid=dst.ephid,
            dst_aid=dst.aid,
            nonce=nonce,
        )
        mac = self._packet_mac.tag(
            header.mac_input(payload), self.config.packet_mac_size
        )
        return ApnaPacket(header.with_mac(mac), payload)

    def verify_own_packet(self, packet: ApnaPacket) -> bool:
        """Check a packet's MAC against our kHA (testing/diagnostics)."""
        self._require_bootstrap()
        assert self._packet_mac is not None
        expected = self._packet_mac.tag(
            packet.mac_input(), self.config.packet_mac_size
        )
        return ct_eq(expected, packet.header.mac)

    # -- Section IV-D1: sessions --

    def verify_peer_cert(self, cert: EphIdCertificate) -> None:
        """Validate a peer's EphID certificate via RPKI (MitM defence)."""
        as_key = self._rpki.signing_key_of(cert.aid)
        cert.verify(as_key, now=self._clock())

    def open_session(
        self, local: OwnedEphId, peer_cert: EphIdCertificate, *, verify: bool = True
    ) -> Session:
        if verify:
            self.verify_peer_cert(peer_cert)
        if local.receive_only:
            raise ApnaError("receive-only EphIDs must not source a session")
        return Session(local, peer_cert, scheme=self.config.aead_scheme)

    # -- Fig. 5: shutoff requests --

    def build_shutoff_request(
        self, offending_packet: bytes, owned: OwnedEphId
    ) -> ShutoffRequest:
        """Sign a shutoff request as the recipient of ``offending_packet``."""
        unsigned = ShutoffRequest(
            packet=offending_packet,
            signature=b"",
            cert=owned.cert,
        )
        signature = owned.keypair.signing.sign(unsigned.signed_bytes())
        return ShutoffRequest(
            packet=offending_packet, signature=signature, cert=owned.cert
        )
