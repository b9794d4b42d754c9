"""The APNA DNS service (paper Section VII-A).

The zone stores signed (name -> receive-only EphID certificate) records.
The serving endpoint attaches to an AS's DNS service identity and answers
queries **over encrypted APNA sessions** — "DNS queries are encrypted
just like any other data communication" — so only the resolver and the
DNS server learn the queried name.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..core import framing
from ..core.certs import FLAG_RECEIVE_ONLY
from ..core.hostdb import HID_DNS
from ..core.keys import SigningKeyPair
from ..core.session import ConnectionRequest, Session, SessionError
from ..crypto.rng import Rng, SystemRng
from ..wire.apna import ApnaPacket, Endpoint
from ..wire.transport import PROTO_DNS, TransportHeader, build_segment, split_segment
from .records import DnsQuery, DnsRecord, DnsResponse

if TYPE_CHECKING:
    from ..core.autonomous_system import ApnaAutonomousSystem, ApnaHostNode


class DnsZone:
    """A signed record store (the DNSSEC stand-in)."""

    def __init__(self, rng: Rng | None = None) -> None:
        self._signer = SigningKeyPair.generate(rng or SystemRng())
        self._records: dict[str, DnsRecord] = {}
        self.updates = 0

    @property
    def public_key(self) -> bytes:
        return self._signer.public

    def register(self, name: str, cert, *, ipv4_hint: int = 0) -> DnsRecord:
        """Sign and store a record; later registrations replace earlier ones
        (the paper's 'update the DNS entry with a new EphID' flow)."""
        record = DnsRecord.issue(self._signer, name, cert, ipv4_hint=ipv4_hint)
        self._records[name] = record
        self.updates += 1
        return record

    def lookup(self, name: str) -> DnsRecord | None:
        return self._records.get(name)

    def __len__(self) -> int:
        return len(self._records)


class DnsServer:
    """Session-terminating DNS endpoint bound to an AS's DNS identity."""

    def __init__(self, assembly: "ApnaAutonomousSystem", zone: DnsZone) -> None:
        self.assembly = assembly
        self.zone = zone
        self._sessions: dict[tuple[bytes, bytes], Session] = {}
        self.queries = 0
        assembly.register_service_handler(HID_DNS, self.handle_packet)

    def handle_packet(self, packet: ApnaPacket) -> None:
        payload_type, body = framing.unframe(packet.payload)
        if payload_type == framing.PT_CONN_REQUEST:
            self._on_conn_request(packet, body)
        elif payload_type == framing.PT_DATA:
            self._on_data(packet, body)

    def _on_conn_request(self, packet: ApnaPacket, body: bytes) -> None:
        request = ConnectionRequest.parse(body)
        # Verify the client certificate against its AS key (MitM defence).
        as_key = self.assembly.rpki.signing_key_of(request.cert.aid)
        request.cert.verify(as_key, now=self.assembly.clock())
        local = self.assembly.dns_identity.owned
        key = (local.ephid, request.cert.ephid)
        session = self._sessions.get(key)
        if session is None:
            session = Session(local, request.cert)
            self._sessions[key] = session
        if request.early_data:
            self._serve(session, request.early_data)

    def _on_data(self, packet: ApnaPacket, body: bytes) -> None:
        key = (packet.header.dst_ephid, packet.header.src_ephid)
        session = self._sessions.get(key)
        if session is None:
            return
        self._serve(session, body)

    def _serve(self, session: Session, sealed: bytes) -> None:
        try:
            segment = session.open(sealed)
        except SessionError:
            return
        transport, data = split_segment(segment)
        if transport.proto != PROTO_DNS:
            return
        query = DnsQuery.parse(data)
        self.queries += 1
        record = self.zone.lookup(query.name)
        response = DnsResponse(found=record is not None, record=record)
        reply_segment = build_segment(
            TransportHeader(
                src_port=transport.dst_port,
                dst_port=transport.src_port,
                proto=PROTO_DNS,
            ),
            response.pack(),
        )
        self.assembly.send_from(
            self.assembly.dns_identity,
            Endpoint(session.peer_cert.aid, session.peer_cert.ephid),
            framing.frame(framing.PT_DATA, session.seal(reply_segment)),
        )


def publish_service(
    host: "ApnaHostNode", zone: DnsZone, name: str, *, ipv4_hint: int = 0
) -> DnsRecord:
    """Server-side registration (Section VII-A): acquire a receive-only
    EphID from the AS and register its certificate under ``name``."""
    receive_only = host.acquire_ephid_direct(flags=FLAG_RECEIVE_ONLY)
    host.owned[receive_only.ephid] = receive_only
    return zone.register(name, receive_only.cert, ipv4_hint=ipv4_hint)
