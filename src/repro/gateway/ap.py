"""Connection-sharing devices (paper Section VII-B): the NAT-mode AP.

The AP is a host to the AS and plays RS, MS, router and accountability
agent for its clients: it negotiates per-client shared keys, proxies
EphID requests using the client-supplied public keys, keeps the
``EphID_info`` list mapping EphIDs to clients, verifies and *replaces*
the MAC on outgoing packets with its own kHA MAC, and can identify (and
block) the client behind a misbehaving EphID.

The paper's other mode, a bridge, relays frames unchanged, so at the AS
a bridged host is a directly attached one (:meth:`repro.core.
autonomous_system.ApnaAutonomousSystem.attach_host`).
"""

from __future__ import annotations

import struct
from functools import partial
from typing import TYPE_CHECKING, Callable

from ..core import autonomous_system, framing
from ..core.autonomous_system import ApnaHostNode
from ..core.errors import ApnaError, MacError
from ..core.keys import EphIdKeyPair
from ..core.replay import SourceReplayWindows
from ..core.session import (
    ConnectionRequest,
    OwnedEphId,
    Session,
    SessionError,
    header_nonce,
)
from ..crypto.cmac import Cmac
from ..crypto.util import ct_eq
from ..netsim import Node
from ..wire.apna import ApnaHeader, ApnaPacket, Endpoint
from ..wire.errors import WireError
from ..wire.transport import PROTO_DATA, TransportHeader, build_segment, split_segment

if TYPE_CHECKING:
    from ..core.certs import EphIdCertificate


# Local control protocol on the client<->AP links (the "inside the cafe"
# protocol; plays the role DHCP/802.1X play today).  Every message ends
# with an 8-byte CMAC under the client<->AP shared key.
LC_EPHID_REQ = 0x01
LC_EPHID_REP = 0x02
LC_DATA = 0x03

_LC_MAC_SIZE = 8
#: An ``LC_EPHID_REQ`` body: request id, X25519 and Ed25519 public keys,
#: flags byte.
_LC_EPHID_REQ_SIZE = 4 + 32 + 32 + 1


def _lc_seal(mac: Cmac, msg_type: int, body: bytes) -> bytes:
    head = bytes([msg_type]) + body
    return head + mac.tag(head, _LC_MAC_SIZE)


def _lc_open(mac: Cmac, frame_bytes: bytes) -> tuple[int, bytes]:
    if len(frame_bytes) < 1 + _LC_MAC_SIZE:
        raise MacError("local control frame too short")
    head, tag = frame_bytes[:-_LC_MAC_SIZE], frame_bytes[-_LC_MAC_SIZE:]
    if not ct_eq(mac.tag(head, _LC_MAC_SIZE), tag):
        raise MacError("local control frame failed authentication")
    return head[0], head[1:]


class NatAccessPoint(ApnaHostNode):
    """NAT-mode AP: one AS subscriber fronting many internal clients."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._clients: dict[str, Cmac] = {}  # client node name -> shared key MAC
        self.ephid_info: dict[bytes, str] = {}  # EphID -> client node name
        self._pending_client_ephid: list[tuple[str, int]] = []  # (client, req id)
        self.relayed_out = 0
        self.relayed_in = 0
        self.rejected_frames = 0
        self.blocked_clients: set[str] = set()

    # -- as RS: client bootstrap (shared-key establishment) --

    def register_client(self, name: str, *, latency: float = 0.0005) -> "ApClientNode":
        """Authenticate a client into the AP's internal network."""
        shared_key = self.assembly.rng.read(16)
        client = ApClientNode(name, self, shared_key)
        self.assembly.network.add_node(client)
        self.assembly.network.connect(self, client, latency=latency)
        self._clients[name] = Cmac(shared_key)
        return client

    # -- as MS: proxied EphID issuance --

    def _proxy_ephid_request(
        self, client_name: str, request_id: int, dh_public: bytes, sig_public: bytes, flags: int
    ) -> None:
        sealed = self.stack.build_ephid_request_for(dh_public, sig_public, flags)
        self._pending_client_ephid.append((client_name, request_id))
        assert self.stack.ms_cert is not None
        self._send(
            None,
            Endpoint(self.assembly.aid, self.stack.ms_cert.ephid),
            framing.frame(framing.PT_CONTROL_REQ, sealed),
        )

    # -- frame handling (both sides) --

    def handle_frame(self, frame_bytes: bytes, *, from_node: str) -> None:
        if from_node in self._clients:
            self._handle_client_frame(frame_bytes, from_node)
        else:
            self._handle_uplink_frame(frame_bytes, from_node)

    def _handle_client_frame(self, frame_bytes: bytes, client_name: str) -> None:
        mac = self._clients[client_name]
        try:
            msg_type, body = _lc_open(mac, frame_bytes)
        except MacError:
            self.rejected_frames += 1
            return
        if client_name in self.blocked_clients:
            self.rejected_frames += 1
            return
        if msg_type == LC_EPHID_REQ:
            if len(body) != _LC_EPHID_REQ_SIZE:
                self.malformed_frames += 1
                return
            (request_id,) = struct.unpack_from(">I", body)
            dh_public = body[4:36]
            sig_public = body[36:68]
            flags = body[68]
            self._proxy_ephid_request(client_name, request_id, dh_public, sig_public, flags)
        elif msg_type == LC_DATA:
            self._relay_out(body, client_name)

    def _relay_out(self, apna_bytes: bytes, client_name: str) -> None:
        """The AP-as-router egress: verify ownership, re-MAC, forward."""
        try:
            packet = ApnaPacket.from_wire(
                apna_bytes, with_nonce=self.assembly.config.replay_protection
            )
        except WireError:
            self.malformed_frames += 1
            return
        owner = self.ephid_info.get(packet.header.src_ephid)
        if owner != client_name:
            self.rejected_frames += 1
            return
        # Replace the client's MAC with the AP's kHA MAC (Section VII-B:
        # "the AP replaces the MAC using its shared key with the AS").
        assert self.stack._packet_mac is not None
        remacked = packet.header.signed(self.stack._packet_mac, packet.payload)
        self.relayed_out += 1
        self.send(self.assembly.node.name, remacked.to_wire())

    def _handle_uplink_frame(self, frame_bytes: bytes, from_node: str) -> None:
        try:
            packet = ApnaPacket.from_wire(
                frame_bytes, with_nonce=self.assembly.config.replay_protection
            )
            payload_type, body = framing.unframe(packet.payload)
            if payload_type == framing.PT_CONTROL_REP:
                self._on_proxied_reply(body)
                return
        except (WireError, ApnaError):
            # As on any host: a bad frame is dropped and counted, never
            # raised into the event loop.
            self.malformed_frames += 1
            return
        client_name = self.ephid_info.get(packet.header.dst_ephid)
        if client_name is not None:
            mac = self._clients[client_name]
            self.relayed_in += 1
            self.send(client_name, _lc_seal(mac, LC_DATA, frame_bytes))
            return
        # Not a client EphID: it is for the AP itself (its own stack).
        super().handle_frame(frame_bytes, from_node=from_node)

    def _on_proxied_reply(self, sealed: bytes) -> None:
        if not self._pending_client_ephid:
            return
        cert = self.stack.accept_ephid_reply_cert(sealed)
        # Only an authentic reply settles the oldest request.
        client_name, request_id = self._pending_client_ephid.pop(0)
        # Track the binding: the AP cannot decrypt EphIDs (they contain
        # *its* HID under the AS key), so it keeps the EphID_info list.
        self.ephid_info[cert.ephid] = client_name
        mac = self._clients[client_name]
        body = struct.pack(">I", request_id) + cert.pack()
        self.send(client_name, _lc_seal(mac, LC_EPHID_REP, body))

    # -- as accountability agent for its clients --

    def identify(self, ephid: bytes) -> str | None:
        """Which client is behind this EphID (the AS holds *us* accountable)."""
        return self.ephid_info.get(ephid)

    def block_client(self, name: str) -> None:
        self.blocked_clients.add(name)


class ApClientNode(Node):
    """A device behind a NAT-mode AP (laptop in the cafe).

    It generates its own EphID key pairs (so the AP never learns session
    keys — data privacy holds against the AP) and authenticates frames to
    the AP with their shared key.
    """

    def __init__(self, name: str, ap: NatAccessPoint, shared_key: bytes) -> None:
        super().__init__(name)
        self.ap = ap
        self._mac = Cmac(shared_key)
        self.owned: dict[bytes, OwnedEphId] = {}
        self.sessions: dict[tuple[bytes, bytes], Session] = {}
        self._pending: dict[int, tuple[EphIdKeyPair, Callable | None]] = {}
        self._next_request = 1
        self.inbox: list[tuple[Session, TransportHeader, bytes]] = []
        #: Source EphID -> its nonces' window (see :meth:`_on_apna`).
        self._replay_windows = SourceReplayWindows(
            autonomous_system.REPLAY_WINDOW_CAPACITY
        )
        self.replay_drops = 0
        #: Frames dropped because they fail the AP's MAC, a parse or a
        #: reply check (see :meth:`handle_frame`).
        self.malformed_frames = 0

    @property
    def aid(self) -> int:
        return self.ap.assembly.aid

    # -- EphID acquisition through the AP --

    def acquire_ephid(self, callback: Callable[[OwnedEphId], None] | None = None, flags: int = 0) -> None:
        keypair = EphIdKeyPair.generate(self.ap.assembly.rng)
        request_id = self._next_request
        self._next_request += 1
        self._pending[request_id] = (keypair, callback)
        body = (
            struct.pack(">I", request_id)
            + keypair.exchange.public
            + keypair.signing.public
            + bytes([flags])
        )
        self.send(self.ap.name, _lc_seal(self._mac, LC_EPHID_REQ, body))

    # -- data path --

    def _make_packet(self, src: OwnedEphId, dst: Endpoint, payload: bytes) -> ApnaPacket:
        header = ApnaHeader(
            src_aid=self.aid,
            src_ephid=src.ephid,
            dst_ephid=dst.ephid,
            dst_aid=dst.aid,
            nonce=header_nonce(src.nonces, self.ap.assembly.config.replay_protection),
        )
        # MAC with the client<->AP key; the AP re-MACs with its kHA.
        return header.signed(self._mac, payload)

    def connect(
        self,
        peer_cert: "EphIdCertificate",
        src_owned: OwnedEphId,
        *,
        early_data: bytes = b"",
        src_port: int = 0,
        dst_port: int = 0,
    ) -> Session:
        session = Session(src_owned, peer_cert)
        self.sessions[(src_owned.ephid, peer_cert.ephid)] = session
        sealed_early = b""
        if early_data:
            segment = build_segment(
                TransportHeader(src_port, dst_port, proto=PROTO_DATA), early_data
            )
            sealed_early = session.seal(segment)
        request = ConnectionRequest(cert=src_owned.cert, early_data=sealed_early)
        packet = self._make_packet(
            src_owned,
            Endpoint(peer_cert.aid, peer_cert.ephid),
            framing.frame(framing.PT_CONN_REQUEST, request.pack()),
        )
        self.send(self.ap.name, _lc_seal(self._mac, LC_DATA, packet.to_wire()))
        return session

    def send_data(self, session: Session, data: bytes, *, src_port: int = 0, dst_port: int = 0) -> None:
        segment = build_segment(
            TransportHeader(src_port, dst_port, proto=PROTO_DATA), data
        )
        local = self.owned.get(session.local.ephid)
        if local is None:
            raise ApnaError("session source EphID is not owned by this client")
        packet = self._make_packet(
            local,
            Endpoint(session.peer_cert.aid, session.peer_cert.ephid),
            framing.frame(framing.PT_DATA, session.seal(segment)),
        )
        self.send(self.ap.name, _lc_seal(self._mac, LC_DATA, packet.to_wire()))

    # -- receive path --

    def handle_frame(self, frame_bytes: bytes, *, from_node: str) -> None:
        owed = None
        try:
            msg_type, body = _lc_open(self._mac, frame_bytes)
            if msg_type == LC_EPHID_REP:
                owed = self._on_ephid_reply(body)
            elif msg_type == LC_DATA:
                self._on_apna(body)
        except (MacError, WireError, ApnaError):
            # As on a host: a frame that fails the AP's MAC, a parse or a
            # reply check is dropped and counted, never raised into the
            # event loop.  The callback an EphID reply owes runs after,
            # outside this net, so its own errors still propagate.
            self.malformed_frames += 1
            return
        if owed is not None:
            owed()

    def _on_ephid_reply(self, body: bytes) -> "Callable[[], None] | None":
        """Settle a pending request; returns the callback it owes."""
        from ..core.certs import EphIdCertificate

        if len(body) < 4:
            raise WireError("EphID reply shorter than its request id")
        (request_id,) = struct.unpack_from(">I", body)
        cert = EphIdCertificate.parse(body[4:])
        pending = self._pending.pop(request_id, None)
        if pending is None:
            return None
        keypair, callback = pending
        if cert.dh_public != keypair.exchange.public:
            return None  # not our keys: the AP substituted them
        owned = OwnedEphId(cert=cert, keypair=keypair)
        self.owned[owned.ephid] = owned
        return None if callback is None else partial(callback, owned)

    def _on_apna(self, apna_bytes: bytes) -> None:
        """Dispatch one relayed APNA frame.  With ``replay_protection``
        on, its nonce is tested against the source EphID's window first
        and recorded only once the payload authenticated, as
        :meth:`repro.core.autonomous_system.ApnaHostNode._accept` does."""
        replay_protection = self.ap.assembly.config.replay_protection
        packet = ApnaPacket.from_wire(apna_bytes, with_nonce=replay_protection)
        header = packet.header
        windows = self._replay_windows
        if replay_protection and not windows.fresh(header.src_ephid, header.nonce):
            self.replay_drops += 1
            return
        payload_type, body = framing.unframe(packet.payload)
        authentic = False
        if payload_type == framing.PT_DATA:
            session = self.sessions.get((header.dst_ephid, header.src_ephid))
            authentic = session is not None and self._deliver(session, body)
        elif payload_type == framing.PT_CONN_REQUEST:
            request = ConnectionRequest.parse(body)
            local = self.owned.get(header.dst_ephid)
            if local is None:
                return
            key = (local.ephid, request.cert.ephid)
            session = self.sessions.get(key)
            if session is None:
                session = Session(local, request.cert)
                self.sessions[key] = session
            authentic = bool(request.early_data) and self._deliver(
                session, request.early_data
            )
        if authentic and replay_protection:
            windows.record(header.src_ephid, header.nonce)

    def _deliver(self, session: Session, sealed: bytes) -> bool:
        """Open a sealed segment into the inbox; whether it authenticated."""
        try:
            segment = session.open(sealed)
        except SessionError:
            return False
        transport, data = split_segment(segment)
        self.inbox.append((session, transport, data))
        return True
