"""AS assembly: RS + MS + BR + AA composed into a simulated AS node,
plus the host-side network adapter.

This module is the glue between the sans-IO protocol engines and the
discrete-event simulator: the :class:`BorderRouterNode` runs the Fig. 4
pipelines on real wire bytes (GRE/IPv4-encapsulated between ASes, per the
Section VII-D deployment), dispatches intra-AS traffic to hosts and to
the MS/AA service endpoints by HID, and emits ICMP errors for inbound
drops.  :class:`ApnaHostNode` runs a :class:`repro.core.host.HostStack`
behind an access link.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

from ..crypto.cmac import Cmac
from ..crypto.rng import Rng, SystemRng
from ..netsim import Network, Node
from ..wire import gre
from ..wire import icmp as icmp_wire
from ..wire.apna import ApnaHeader, ApnaPacket, Endpoint
from ..wire.errors import WireError
from ..wire.transport import (
    PROTO_DATA,
    TransportHeader,
    build_segment,
    split_segment,
)
from . import framing
from .accountability import AccountabilityAgent
from .border_router import Action, BorderRouter, ICMP_CODES, Verdict
from .certs import EphIdCertificate, FLAG_CONTROL, FLAG_RECEIVE_ONLY
from .config import ApnaConfig, DEFAULT_CONFIG
from .ephid import EphIdCodec, IvAllocator
from .errors import ApnaError, IssuanceError, ShutoffError
from .granularity import GranularityPolicy, PerFlowPolicy
from .host import HostStack
from .hostdb import (
    HID_ACCOUNTABILITY,
    HID_DNS,
    HID_MANAGEMENT,
    HID_REGISTRY,
    HostRecord,
)
from .infrabus import InfraBus
from .keys import AsKeyMaterial, EphIdKeyPair, HostAsKeys
from .management import ManagementService
from .messages import ShutoffRequest, ShutoffResponse
from .registry import RegistryService
from .replay import SourceReplayWindows
from .replay_filter import RotatingReplayFilter
from .rpki import RpkiDirectory, TrustAnchor
from .session import (
    ConnectionAccept,
    ConnectionRequest,
    OwnedEphId,
    Session,
    SessionError,
    header_nonce,
)
from .verdict import verdicts_of

HID_ROUTER = 5

#: Lifetime of AS service EphIDs (MS/AA/DNS/router identities).
SERVICE_EPHID_LIFETIME = 10 * 365 * 86_400.0

#: Most per-source-EphID replay windows one host, or one client behind
#: a NAT-mode AP, keeps (see :meth:`ApnaHostNode._accept`).  Measured, no
#: host ever holds more than one: tier-1's replay-protected worlds give
#: each host one peer EphID, and ``python -m repro.evaluation --scale
#: 1k`` delivers no frame to a host node.  64 leaves room for a server with many peers; an
#: evicted window forgets only which 0-RTT payloads it saw, since every
#: session keeps its own window.  A constant, not a knob.
REPLAY_WINDOW_CAPACITY = 64


@dataclass
class ServiceIdentity:
    """An AS-internal service endpoint: HID, kHA, EphID and certificate."""

    hid: int
    keys: HostAsKeys
    owned: OwnedEphId
    _mac: Cmac

    def make_packet(
        self, aid: int, dst: Endpoint, payload: bytes, *, nonce: int | None = None
    ) -> ApnaPacket:
        header = ApnaHeader(
            src_aid=aid,
            src_ephid=self.owned.ephid,
            dst_ephid=dst.ephid,
            dst_aid=dst.aid,
            nonce=nonce,
        )
        return header.signed(self._mac, payload)


class ApnaAutonomousSystem:
    """One APNA-deploying AS: services, border router and attached hosts."""

    def __init__(
        self,
        aid: int,
        network: Network,
        rpki: RpkiDirectory,
        anchor: TrustAnchor,
        *,
        config: ApnaConfig = DEFAULT_CONFIG,
        rng: Rng | None = None,
    ) -> None:
        self.aid = aid
        self.network = network
        self.rpki = rpki
        self.config = config
        self.rng = rng or SystemRng()
        clock = network.scheduler.clock()
        self.clock = clock

        self.keys = AsKeyMaterial.generate(self.rng)
        rpki.publish(anchor.certify(aid, self.keys))

        self.codec = EphIdCodec(self.keys.secret.ephid_enc, self.keys.secret.ephid_mac)
        #: HID -> shard ownership for the sharded data plane.  Fixed at
        #: construction (before any EphID is sealed) so every IV the AS
        #: ever issues is pinned to its owner shard; ``None`` for the
        #: single-process deployment.
        self.shard_plan = None
        if config.forwarding_shards >= 2:
            from ..sharding.plan import ShardPlan

            self.shard_plan = ShardPlan(
                config.forwarding_shards, key=self.keys.secret.shard_route
            ).validate_routing()
        #: The live worker pool (see :meth:`start_shard_pool`).
        self.shard_pool = None
        self.ivs = IvAllocator(self.rng, plan=self.shard_plan)
        from ..state import ColumnarHostDatabase, ColumnarRevocationList

        self.hostdb = ColumnarHostDatabase()
        self.revocations = ColumnarRevocationList()
        self.bus = InfraBus(self.keys.secret)
        self.bus.subscribe_revocations(self.revocations)

        self.rs = RegistryService(
            aid, self.keys, self.codec, self.ivs, self.hostdb, self.bus, clock, config, self.rng
        )
        self.ms = ManagementService(
            aid, self.keys, self.codec, self.ivs, self.hostdb, clock, config, self.rng
        )
        self.aa = AccountabilityAgent(
            aid, self.codec, self.hostdb, self.bus, rpki, clock, config
        )
        #: The in-line data plane of a single-process AS.  A sharded AS
        #: has none: its shard pool is its only data plane.
        self.br = None
        if self.shard_plan is None:
            replay_filter = None
            if config.in_network_replay_filter:
                replay_filter = RotatingReplayFilter(
                    window=config.replay_filter_window,
                    bits_per_generation=config.replay_filter_bits,
                )
            self.br = BorderRouter(
                aid,
                self.codec,
                self.hostdb,
                self.revocations,
                clock,
                replay_filter=replay_filter,
            )

        # Service identities (reserved HIDs).  The AA comes first so every
        # other certificate can point shutoff requests at its EphID.
        self.aa_identity = self._make_service_identity(
            HID_ACCOUNTABILITY, FLAG_CONTROL, aa_ephid=bytes(16)
        )
        aa_ephid = self.aa_identity.owned.ephid
        self.registry_identity = self._make_service_identity(
            HID_REGISTRY, FLAG_CONTROL, aa_ephid=aa_ephid
        )
        self.ms_identity = self._make_service_identity(
            HID_MANAGEMENT, FLAG_CONTROL, aa_ephid=aa_ephid
        )
        self.dns_identity = self._make_service_identity(
            HID_DNS, FLAG_CONTROL, aa_ephid=aa_ephid
        )
        self.router_identity = self._make_service_identity(
            HID_ROUTER, FLAG_CONTROL, aa_ephid=aa_ephid
        )
        self.ms.aa_ephid = aa_ephid
        self.rs.ms_cert = self.ms_identity.owned.cert
        self.rs.dns_cert = self.dns_identity.owned.cert

        # Simulation wiring.
        self.node = BorderRouterNode(self)
        network.add_node(self.node)
        self.host_nodes: dict[int, "ApnaHostNode"] = {}  # hid -> node
        self._host_node_names: set[str] = set()
        self._service_handlers: dict[int, Callable[[ApnaPacket], None]] = {
            HID_MANAGEMENT: self._handle_ms_packet,
            HID_ACCOUNTABILITY: self._handle_aa_packet,
        }
        self._next_subscriber = 1

    # -- construction helpers --

    def _make_service_identity(
        self, hid: int, flags: int = 0, *, aa_ephid: bytes = bytes(16)
    ) -> ServiceIdentity:
        keys = HostAsKeys(self.rng.read(16), self.rng.read(16))
        self.hostdb.register(HostRecord(hid=hid, keys=keys))
        keypair = EphIdKeyPair.generate(self.rng)
        exp_time = int(self.clock() + SERVICE_EPHID_LIFETIME)
        ephid = self.codec.seal(hid=hid, exp_time=exp_time, iv=self.ivs.next_iv_for(hid))
        cert = EphIdCertificate.issue(
            self.keys.signing,
            ephid=ephid,
            exp_time=exp_time,
            dh_public=keypair.exchange.public,
            sig_public=keypair.signing.public,
            aid=self.aid,
            aa_ephid=aa_ephid,
            flags=flags,
        )
        return ServiceIdentity(
            hid=hid,
            keys=keys,
            owned=OwnedEphId(cert=cert, keypair=keypair),
            _mac=Cmac(keys.packet_mac),
        )

    def register_service_handler(
        self, hid: int, handler: Callable[[ApnaPacket], None]
    ) -> None:
        """Attach an extra service endpoint (used by the DNS substrate)."""
        self._service_handlers[hid] = handler

    def connect_to(
        self, other: "ApnaAutonomousSystem", *, latency: float = 0.010, bandwidth: float = 1e9
    ) -> None:
        """Peer two ASes (an inter-domain link)."""
        self.network.connect(self.node, other.node, latency=latency, bandwidth=bandwidth)

    # -- sharded data plane (paper §V-A3; see repro.sharding) --

    def start_shard_pool(self):
        """Spawn the persistent worker shards: the sharded AS's one data
        plane.

        Snapshot-then-subscribe: the pool is seeded with the current
        hostdb/revocation state, and the database hooks keep the worker
        replicas in sync from then on — each write is queued per shard
        and sent, one batch per shard, ahead of the next burst, so it
        reaches every shard before that burst is judged (with bursts in
        flight or not).
        The pool also retains the hostdb/revocation list as its
        authoritative state source, from which the supervisor resyncs a
        restarted worker (and a degraded plane's in-process shards) —
        see the fault-model section of :mod:`repro.sharding`.

        :meth:`repro.topology.World.from_spec` calls it once every
        build-time host is registered; until then, and after
        :meth:`stop_shard_pool`, the AS judges no data packet.
        """
        if self.shard_plan is None:
            raise ApnaError(
                "AS was built without sharding; set "
                "ApnaConfig.forwarding_shards >= 2"
            )
        if self.shard_pool is not None:
            return self.shard_pool
        from ..sharding.pool import ShardedDataPlane

        pool = ShardedDataPlane.for_assembly(self)
        self.shard_pool = pool
        self.revocations.on_add = pool.revoke_ephid
        self.hostdb.on_register = pool.register_host
        self.hostdb.on_revoke_hid = pool.revoke_hid
        return pool

    def stop_shard_pool(self) -> None:
        """Tear the worker pool down (idempotent).

        The shards' replay-filter history and verdict counters die with
        the worker processes; nothing takes their traffic over, so a
        data packet offered afterwards raises :class:`ApnaError`.
        """
        pool, self.shard_pool = self.shard_pool, None
        if pool is None:
            return
        self.revocations.on_add = None
        self.hostdb.on_register = None
        self.hostdb.on_revoke_hid = None
        pool.close()

    def judge(self, frames: "list[bytes]", egress: "list[bool]") -> "list[Verdict]":
        """The AS's one verdict path: both Fig. 4 pipelines over a burst
        of raw APNA frames (``egress[k]``: ``frames[k]`` came from a local
        host), one :class:`Verdict` per frame in arrival order.

        The in-line router judges a single-process AS; the shard pool
        judges a sharded one, which raises :class:`ApnaError` while no
        pool runs.  Both refuse a bad burst alike, before any counter
        moves: ``ParseError`` for a frame shorter than the header,
        ``ValueError`` when ``egress`` and ``frames`` differ in length.
        The node, E2, E7, E12 and :mod:`repro.attacks` all judge here.
        """
        if self.br is not None:
            return verdicts_of(b"".join(self.br.process_burst(frames, egress)))
        if self.shard_pool is None:
            raise ApnaError(
                f"AS {self.aid} is sharded and has no shard pool running "
                "to judge this burst"
            )
        return self.shard_pool.process(frames, egress, self.clock())

    def attach_host(
        self,
        name: str,
        *,
        latency: float = 0.001,
        bandwidth: float = 1e8,
        policy: type[GranularityPolicy] = PerFlowPolicy,
        node_cls: "type[ApnaHostNode] | None" = None,
        **node_kwargs,
    ) -> "ApnaHostNode":
        """Create a host node, enroll it as a subscriber and wire it up.

        The host still has to call :meth:`ApnaHostNode.bootstrap`.
        ``node_cls`` lets callers attach specialised hosts (gateways,
        NAT-mode access points).
        """
        cls = node_cls or ApnaHostNode
        subscriber_id = self._next_subscriber
        self._next_subscriber += 1
        secret = self.rs.enroll_subscriber(subscriber_id)
        host = cls(name, self, subscriber_id, secret, policy_cls=policy, **node_kwargs)
        self.network.add_node(host)
        self.network.connect(self.node, host, latency=latency, bandwidth=bandwidth)
        self._host_node_names.add(name)
        return host

    def register_population(self, count: int) -> range:
        """Bulk-register ``count`` hosts in ``host_info`` (scale presets).

        The hosts get HIDs and kHA subkeys but no simulated nodes — they
        are the metro-area population the AS is accountable for, against
        which issuance/verdict machinery is exercised at scale.  Key
        material comes from one AES-CTR keystream seeded by a single
        ``rng.read(32)`` draw (:func:`repro.state.population_key_material`),
        and the registration is a few column
        appends with zero per-host objects
        (:meth:`repro.state.ColumnarHostDatabase.bulk_register`).
        Returns the registered HID range.

        Must run before :meth:`start_shard_pool`: a bulk load is meant
        to ride the shard-spawn snapshot, not a million per-host hook
        fan-outs.
        """
        if count < 1:
            raise ValueError("count must be at least 1")
        if self.shard_pool is not None:
            raise ApnaError(
                "register_population must run before start_shard_pool "
                "(populations ship with the spawn snapshot)"
            )
        from ..state import population_key_material

        material = population_key_material(self.rng.read(32), count)
        first = self.hostdb.bulk_register(count, material)
        return range(first, first + count)

    def _register_host_hid(self, host: "ApnaHostNode") -> None:
        record = self.hostdb.find_by_subscriber(host.subscriber_id)
        if record is None:
            raise ApnaError("host bootstrap did not register an HID")
        self.host_nodes[record.hid] = host
        host.hid_hint = record.hid  # the AS-side view; hosts never use it

    # -- packet plumbing --

    def send_from(self, service: ServiceIdentity, dst: Endpoint, payload: bytes) -> None:
        """Send a packet from one of this AS's service EphIDs toward
        ``dst``, numbered from that EphID's own nonce sequence."""
        packet = service.make_packet(
            self.aid,
            dst,
            payload,
            nonce=header_nonce(service.owned.nonces, self.config.replay_protection),
        )
        self.node.route_local(packet)

    # -- service endpoints --

    def _handle_ms_packet(self, packet: ApnaPacket) -> None:
        payload_type, body = framing.unframe(packet.payload)
        if payload_type != framing.PT_CONTROL_REQ:
            return
        try:
            sealed_reply = self.ms.handle_request(packet.header.src_ephid, body)
        except IssuanceError:
            return  # Fig. 3: invalid requests are dropped.
        self.send_from(
            self.ms_identity,
            Endpoint(packet.header.src_aid, packet.header.src_ephid),
            framing.frame(framing.PT_CONTROL_REP, sealed_reply),
        )

    def _handle_aa_packet(self, packet: ApnaPacket) -> None:
        payload_type, body = framing.unframe(packet.payload)
        if payload_type != framing.PT_SHUTOFF:
            return
        try:
            request = ShutoffRequest.parse(body)
        except ApnaError:
            return
        response = self.aa.handle_shutoff(
            request, with_nonce=self.config.replay_protection
        )
        self.send_from(
            self.aa_identity,
            Endpoint(packet.header.src_aid, packet.header.src_ephid),
            framing.frame(framing.PT_SHUTOFF_RESP, response.pack()),
        )


class BorderRouterNode(Node):
    """The simulated border router: wire bytes in, wire bytes out.

    The node runs the paper's burst data plane: arriving packets are
    accumulated and judged by :meth:`ApnaAutonomousSystem.judge` once
    ``config.forwarding_batch_size`` of them are waiting (or after
    ``forwarding_batch_window`` virtual seconds, whichever comes first),
    and the verdicts are acted on in arrival order.  A burst size of 1
    flushes every packet as a burst of one.  The flush timer guarantees a
    partially-filled burst always drains when the event queue is run.

    ``judge`` is the node's only verdict source, whether the in-line
    router or a sharded AS's pool sits behind it: a sharded AS with no
    pool running (before :meth:`ApnaAutonomousSystem.start_shard_pool`,
    or after :meth:`~ApnaAutonomousSystem.stop_shard_pool`) raises
    :class:`ApnaError` at the flush.
    """

    def __init__(self, assembly: ApnaAutonomousSystem) -> None:
        super().__init__(f"AS{assembly.aid}")
        self.assembly = assembly
        self.icmp_sent = 0
        #: Frames dropped at the node because they do not parse (a runt,
        #: a broken GRE/IPv4 wrapper, a header without the configured
        #: nonce): they never reach a verdict, so no ``DropReason``.
        self.malformed_frames = 0
        #: Pending (packet, arrived_from_outside, wire_frame) triples
        #: awaiting a burst.
        self._burst: list[tuple[ApnaPacket, bool, bytes]] = []
        self._burst_timer = None
        self.bursts_flushed = 0
        self.largest_burst = 0

    # -- frame entry points --

    def handle_frame(self, frame_bytes: bytes, *, from_node: str) -> None:
        assembly = self.assembly
        arrived_from_outside = from_node not in assembly._host_node_names
        try:
            if arrived_from_outside:
                # GRE/IPv4 encapsulated bytes from a neighbor AS.
                _, apna_bytes = gre.decapsulate(frame_bytes)
            else:
                # Raw APNA bytes from a local host: the egress pipeline.
                apna_bytes = frame_bytes
            packet = ApnaPacket.from_wire(
                apna_bytes, with_nonce=assembly.config.replay_protection
            )
        except WireError:
            # Anyone on a link can send bytes: one bad frame is dropped
            # here, never raised into the event loop.
            self.malformed_frames += 1
            return
        self._burst.append((packet, arrived_from_outside, apna_bytes))
        if len(self._burst) >= assembly.config.forwarding_batch_size:
            self._flush_burst()
        elif self._burst_timer is None:
            self._burst_timer = self.scheduler.schedule(
                assembly.config.forwarding_batch_window, self._flush_burst
            )

    def _flush_burst(self) -> None:
        """Run the batched verdict loop over the accumulated burst."""
        if self._burst_timer is not None:
            self._burst_timer.cancel()
            self._burst_timer = None
        burst, self._burst = self._burst, []
        if not burst:
            return
        self.bursts_flushed += 1
        self.largest_burst = max(self.largest_burst, len(burst))
        verdicts = self.assembly.judge(
            [frame for _, _, frame in burst], [not outside for _, outside, _ in burst]
        )
        for (packet, outside, _), verdict in zip(burst, verdicts):
            assert verdict is not None
            self._act(packet, verdict, arrived_from_outside=outside)

    def route_local(self, packet: ApnaPacket) -> None:
        """Route a packet originated by this AS's own services."""
        if packet.header.dst_aid == self.assembly.aid:
            self._deliver_intra(packet)
        else:
            self._forward_inter(packet, packet.header.dst_aid)

    # -- verdict execution --

    def _act(self, packet: ApnaPacket, verdict: Verdict, *, arrived_from_outside: bool) -> None:
        if verdict.action is Action.FORWARD_INTER:
            assert verdict.next_aid is not None
            self._forward_inter(packet, verdict.next_aid)
        elif verdict.action is Action.FORWARD_INTRA:
            assert verdict.hid is not None
            self._deliver_hid(packet, verdict.hid)
        else:
            if arrived_from_outside and verdict.reason in ICMP_CODES:
                self._send_icmp_unreachable(packet, ICMP_CODES[verdict.reason])

    def _forward_inter(self, packet: ApnaPacket, dst_aid: int) -> None:
        encapsulated = gre.encapsulate(
            packet.to_wire(), src_ip=self.assembly.aid, dst_ip=dst_aid
        )
        target = f"AS{dst_aid}"
        if self.network is None:
            raise ApnaError("border router is not attached to a network")
        next_hop = self.network.next_hop(self.name, target)
        self.send(next_hop, encapsulated)

    def _deliver_intra(self, packet: ApnaPacket) -> None:
        info = self.assembly.codec.open(packet.header.dst_ephid)
        self._deliver_hid(packet, info.hid)

    def _deliver_hid(self, packet: ApnaPacket, hid: int) -> None:
        handler = self.assembly._service_handlers.get(hid)
        if handler is not None:
            handler(packet)
            return
        host = self.assembly.host_nodes.get(hid)
        if host is not None:
            self.send(host.name, packet.to_wire())

    def _send_icmp_unreachable(self, packet: ApnaPacket, code: int) -> None:
        """ICMP back to the source endpoint (Section VIII-B)."""
        message = icmp_wire.IcmpMessage(
            type=icmp_wire.DEST_UNREACHABLE,
            code=code,
            payload=packet.to_wire()[:64],
        )
        self.icmp_sent += 1
        self.assembly.send_from(
            self.assembly.router_identity,
            Endpoint(packet.header.src_aid, packet.header.src_ephid),
            framing.frame(framing.PT_ICMP, message.pack()),
        )


class ApnaHostNode(Node):
    """A host attached to an APNA AS via an access link."""

    def __init__(
        self,
        name: str,
        assembly: ApnaAutonomousSystem,
        subscriber_id: int,
        subscriber_secret: bytes,
        *,
        policy_cls: type[GranularityPolicy] = PerFlowPolicy,
    ) -> None:
        super().__init__(name)
        self.assembly = assembly
        self.subscriber_id = subscriber_id
        self.stack = HostStack(
            assembly.aid,
            subscriber_id,
            subscriber_secret,
            assembly.rpki,
            assembly.network.scheduler.clock(),
            config=assembly.config,
            rng=assembly.rng,
        )
        self.policy: GranularityPolicy = policy_cls(
            self._policy_requester, assembly.network.scheduler.clock()
        )
        self.hid_hint: int | None = None  # AS-side bookkeeping only

        self.owned: dict[bytes, OwnedEphId] = {}
        self.sessions: dict[tuple[bytes, bytes], Session] = {}
        self._pending_ephid: list[tuple[EphIdKeyPair, Callable | None]] = []
        self._pending_accept: dict[tuple[bytes, bytes], Callable] = {}
        self._pending_pings: dict[tuple[int, int], Callable] = {}
        self._pending_shutoff: list[Callable] = []
        self._listeners: dict[int, Callable] = {}
        #: Source EphID -> its nonces' window (see :meth:`_accept`).
        self._replay_windows = SourceReplayWindows(REPLAY_WINDOW_CAPACITY)
        self.inbox: list[tuple[Session, TransportHeader, bytes]] = []
        self.icmp_log: list[icmp_wire.IcmpMessage] = []
        self.replay_drops = 0
        #: Frames dropped because they fail a parse, certificate or reply
        #: check (see :meth:`handle_frame`).
        self.malformed_frames = 0
        #: Application callbacks the frame being checked owes.
        self._owed: list[Callable[[], None]] = []
        self._ping_id = 0
        #: Application hook: called with the new Session whenever a peer's
        #: connection request creates one (lets servers speak first).
        self.on_connection: Callable[[Session], None] | None = None

    # -- bootstrap (out-of-band host<->RS authentication, Fig. 2) --

    def bootstrap(self) -> None:
        request = self.stack.build_bootstrap_request()
        reply = self.assembly.rs.bootstrap(request)
        self.stack.accept_bootstrap_reply(reply)
        self.assembly._register_host_hid(self)

    # -- EphID acquisition --

    def acquire_ephid_direct(
        self, flags: int = 0, lifetime: float | None = None
    ) -> OwnedEphId:
        """Synchronous issuance through the MS engine (no packets).

        Models the host having pre-fetched EphIDs; the packet-based path
        below exercises the full Fig. 3 exchange.
        """
        keypair, sealed = self.stack.build_ephid_request(flags, lifetime)
        assert self.stack.control_ephid is not None
        reply = self.assembly.ms.handle_request(self.stack.control_ephid, sealed)
        owned = self.stack.accept_ephid_reply(keypair, reply)
        self.owned[owned.ephid] = owned
        return owned

    def acquire_ephid(
        self,
        callback: Callable[[OwnedEphId], None] | None = None,
        flags: int = 0,
        lifetime: float | None = None,
    ) -> None:
        """Request an EphID from the MS over the network (Fig. 3)."""
        keypair, sealed = self.stack.build_ephid_request(flags, lifetime)
        self._pending_ephid.append((keypair, callback))
        assert self.stack.ms_cert is not None
        self._send(
            None,
            Endpoint(self.assembly.aid, self.stack.ms_cert.ephid),
            framing.frame(framing.PT_CONTROL_REQ, sealed),
        )

    def _policy_requester(self, flags: int, lifetime: float | None) -> OwnedEphId:
        return self.acquire_ephid_direct(flags, lifetime)

    # -- packet transmission --

    def _send(self, src: OwnedEphId | None, dst: Endpoint, payload: bytes) -> None:
        """MAC a packet from ``src`` (``None``: the control EphID) and
        transmit it, numbered from that EphID's own nonce sequence."""
        stack = self.stack
        if src is None:
            assert stack.control_ephid is not None
            ephid, nonces = stack.control_ephid, stack.control_nonces
        else:
            ephid, nonces = src.ephid, src.nonces
        self._transmit(
            stack.make_packet(
                ephid,
                dst,
                payload,
                nonce=header_nonce(nonces, self.assembly.config.replay_protection),
            )
        )

    def _transmit(self, packet: ApnaPacket) -> None:
        self.send(self.assembly.node.name, packet.to_wire())

    # -- sessions (Section IV-D1 + VII-A) --

    def connect(
        self,
        peer_cert: EphIdCertificate,
        *,
        early_data: bytes = b"",
        src_owned: OwnedEphId | None = None,
        on_accept: Callable[[Session], None] | None = None,
        src_port: int = 0,
        dst_port: int = 0,
        proto: int = PROTO_DATA,
    ) -> Session:
        """Open a session toward ``peer_cert`` and send the first packet."""
        if src_owned is None:
            src_owned = self.acquire_ephid_direct()
        self.owned[src_owned.ephid] = src_owned
        session = self.stack.open_session(src_owned, peer_cert)
        self.sessions[(src_owned.ephid, peer_cert.ephid)] = session
        sealed_early = b""
        if early_data:
            segment = build_segment(
                TransportHeader(src_port, dst_port, proto=proto), early_data
            )
            sealed_early = session.seal(segment)
        if on_accept is not None:
            self._pending_accept[(src_owned.ephid, peer_cert.ephid)] = on_accept
        request = ConnectionRequest(cert=src_owned.cert, early_data=sealed_early)
        self._send(
            src_owned,
            Endpoint(peer_cert.aid, peer_cert.ephid),
            framing.frame(framing.PT_CONN_REQUEST, request.pack()),
        )
        return session

    def send_data(
        self,
        session: Session,
        data: bytes,
        *,
        src_port: int = 0,
        dst_port: int = 0,
        proto: int = PROTO_DATA,
        seq: int = 0,
    ) -> None:
        segment = build_segment(
            TransportHeader(src_port, dst_port, seq=seq, proto=proto), data
        )
        self._send(
            session.local,
            Endpoint(session.peer_cert.aid, session.peer_cert.ephid),
            framing.frame(framing.PT_DATA, session.seal(segment)),
        )

    def listen(self, port: int, handler: Callable) -> None:
        """Register ``handler(session, transport_header, data)`` for a port."""
        self._listeners[port] = handler

    # -- ICMP (Section VIII-B) --

    def ping(
        self,
        dst: Endpoint,
        *,
        src_owned: OwnedEphId | None = None,
        callback: Callable[[float], None] | None = None,
    ) -> None:
        """Send an ICMP echo request; callback receives the RTT."""
        if src_owned is None:
            src_owned = self.acquire_ephid_direct()
        self.owned[src_owned.ephid] = src_owned
        self._ping_id += 1
        identifier = self._ping_id & 0xFFFF
        sent_at = self.now
        if callback is not None:
            self._pending_pings[(identifier, 0)] = lambda: callback(self.now - sent_at)
        message = icmp_wire.IcmpMessage(
            type=icmp_wire.ECHO_REQUEST, identifier=identifier, sequence=0
        )
        self._send(src_owned, dst, framing.frame(framing.PT_ICMP, message.pack()))

    # -- shutoff (Fig. 5) --

    def send_shutoff(
        self,
        offending: ApnaPacket,
        *,
        signer: OwnedEphId,
        aa_endpoint: Endpoint,
        src_owned: OwnedEphId | None = None,
        callback: Callable[[ShutoffResponse], None] | None = None,
    ) -> None:
        """Ask the source AS's AA to shut off the sender of ``offending``."""
        if signer.ephid != offending.header.dst_ephid:
            raise ShutoffError("shutoff signer must own the packet's destination EphID")
        if src_owned is None:
            src_owned = self.acquire_ephid_direct()
        self.owned[src_owned.ephid] = src_owned
        request = self.stack.build_shutoff_request(offending.to_wire(), signer)
        if callback is not None:
            self._pending_shutoff.append(callback)
        self._send(
            src_owned, aa_endpoint, framing.frame(framing.PT_SHUTOFF, request.pack())
        )

    # -- receive path --

    def handle_frame(self, frame_bytes: bytes, *, from_node: str) -> None:
        owed = self._owed = []
        try:
            self._accept(frame_bytes)
        except (WireError, ApnaError):
            # Anyone on the access link can send bytes, and a forged
            # certificate or a garbled reply is bytes too: a frame that
            # fails a parse, certificate or reply check is dropped here,
            # never raised into the event loop.  The application callbacks
            # an accepted frame owes run after, outside this net, so their
            # own errors still propagate.
            self.malformed_frames += 1
            return
        for callback in owed:
            callback()

    def _owe(self, callback: Callable, *args) -> None:
        """Hold an application callback until the frame passes every check."""
        self._owed.append(partial(callback, *args))

    def _accept(self, frame_bytes: bytes) -> None:
        """Parse one frame and hand it to its payload type's handler.

        With ``replay_protection`` on, the nonce is first tested against
        the source EphID's :class:`ReplayWindow`, which records nothing.
        It is recorded, and the window created, only once a handler
        returns true: the frame's payload authenticated under a key its
        sender holds, as a session payload that opens (``PT_DATA``, 0-RTT
        data) or an EphID reply sealed under kHA.
        So a forged frame can neither move a peer's window past its real
        nonces nor grow ``_replay_windows``.  A frame that nothing
        authenticates records nothing: one with no session, a payload
        that fails ``session.open``, a handshake whose only credential
        is a certificate (certificates are public, so a valid one vouches
        for itself, not for the frame), a shutoff response or a plaintext
        ICMP message.  Such a frame can be replayed, but it could as well
        be forged.
        """
        replay_protection = self.assembly.config.replay_protection
        packet = ApnaPacket.from_wire(frame_bytes, with_nonce=replay_protection)
        header = packet.header
        windows = self._replay_windows
        if replay_protection and not windows.fresh(header.src_ephid, header.nonce):
            self.replay_drops += 1
            return
        payload_type, body = framing.unframe(packet.payload)
        authentic = False
        if payload_type == framing.PT_DATA:
            authentic = self._on_data(packet, body)
        elif payload_type == framing.PT_CONN_REQUEST:
            authentic = self._on_conn_request(packet, body)
        elif payload_type == framing.PT_CONN_ACCEPT:
            self._on_conn_accept(packet, body)
        elif payload_type == framing.PT_CONTROL_REP:
            authentic = self._on_control_reply(body)
        elif payload_type == framing.PT_SHUTOFF_RESP:
            self._on_shutoff_response(body)
        elif payload_type == framing.PT_ICMP:
            self._on_icmp(packet, body)
        if authentic and replay_protection:
            windows.record(header.src_ephid, header.nonce)

    def _dispatch_segment(
        self, session: Session, transport: TransportHeader, data: bytes
    ) -> None:
        handler = self._listeners.get(transport.dst_port)
        if handler is not None:
            handler(session, transport, data)
        else:
            self.inbox.append((session, transport, data))

    # Each handler returns whether the frame's payload authenticated
    # (see :meth:`_accept`); the ones that never do return nothing.

    def _on_data(self, packet: ApnaPacket, body: bytes) -> bool:
        key = (packet.header.dst_ephid, packet.header.src_ephid)
        session = self.sessions.get(key)
        if session is None:
            return False
        transport, data = split_segment(session.open(body))
        self._owe(self._dispatch_segment, session, transport, data)
        return True

    def _on_conn_request(self, packet: ApnaPacket, body: bytes) -> bool:
        """True only if the request carried 0-RTT data that opened."""
        request = ConnectionRequest.parse(body)
        self.stack.verify_peer_cert(request.cert)
        local = self.owned.get(packet.header.dst_ephid)
        if local is None:
            return False
        if local.receive_only:
            return self._accept_via_serving_ephid(request, local)
        session = self.sessions.get((local.ephid, request.cert.ephid))
        if session is None:
            session = Session(local, request.cert)
            self.sessions[(local.ephid, request.cert.ephid)] = session
            if self.on_connection is not None:
                self._owe(self.on_connection, session)
        return bool(request.early_data) and self._deliver_early(
            session, request.early_data, session
        )

    def _accept_via_serving_ephid(
        self, request: ConnectionRequest, receive_only: OwnedEphId
    ) -> bool:
        """The Section VII-A server flow: answer with a serving EphID."""
        serving = self.acquire_ephid_direct()
        serving_session = Session(serving, request.cert)
        self.sessions[(serving.ephid, request.cert.ephid)] = serving_session
        # Send the accept BEFORE dispatching data to the application: any
        # response the application emits must arrive behind the accept
        # that creates the client-side session.
        accept = ConnectionAccept(serving_cert=serving.cert)
        self._send(
            serving,
            Endpoint(request.cert.aid, request.cert.ephid),
            framing.frame(framing.PT_CONN_ACCEPT, accept.pack()),
        )
        if self.on_connection is not None:
            self._owe(self.on_connection, serving_session)
        # 0-RTT data was encrypted against the receive-only EphID's key;
        # decrypt with it but hand the application the serving session,
        # which is what replies must flow through.
        return bool(request.early_data) and self._deliver_early(
            Session(receive_only, request.cert), request.early_data, serving_session
        )

    def _on_conn_accept(self, packet: ApnaPacket, body: bytes) -> None:
        accept = ConnectionAccept.parse(body)
        self.stack.verify_peer_cert(accept.serving_cert)
        # Find which of our pending connects this serves: the accept comes
        # from the serving EphID, addressed to our source EphID.
        local_ephid = packet.header.dst_ephid
        local = self.owned.get(local_ephid)
        if local is None:
            return
        session = Session(local, accept.serving_cert)
        self.sessions[(local_ephid, accept.serving_cert.ephid)] = session
        for (pending_local, original_peer), callback in list(self._pending_accept.items()):
            if pending_local == local_ephid:
                del self._pending_accept[(pending_local, original_peer)]
                self._owe(callback, session)
                break

    def _deliver_early(self, opener: Session, sealed: bytes, session: Session) -> bool:
        """0-RTT data, opened under ``opener`` and handed to the
        application on ``session``; whether it opened.  Data that does
        not open is dropped; the connection stands without it."""
        try:
            transport, data = split_segment(opener.open(sealed))
        except (SessionError, WireError):
            return False
        self._owe(self._dispatch_segment, session, transport, data)
        return True

    def _on_control_reply(self, sealed: bytes) -> bool:
        if not self._pending_ephid:
            return False
        keypair, callback = self._pending_ephid[0]
        owned = self.stack.accept_ephid_reply(keypair, sealed)
        # Only an authentic reply settles the request; a garbled one
        # leaves it waiting for the real reply.
        self._pending_ephid.pop(0)
        self.owned[owned.ephid] = owned
        if callback is not None:
            self._owe(callback, owned)
        return True

    def _on_shutoff_response(self, body: bytes) -> None:
        response = ShutoffResponse.parse(body)
        if self._pending_shutoff:
            self._owe(self._pending_shutoff.pop(0), response)

    def _on_icmp(self, packet: ApnaPacket, body: bytes) -> None:
        message = icmp_wire.IcmpMessage.parse(body)
        self.icmp_log.append(message)
        if message.type == icmp_wire.ECHO_REQUEST:
            # Answered from the EphID asked, if this host holds it: each
            # EphID numbers its own nonces (see :meth:`_send`).
            dst_ephid = packet.header.dst_ephid
            local = self.owned.get(dst_ephid)
            if local is None and dst_ephid != self.stack.control_ephid:
                return
            self._send(
                local,
                Endpoint(packet.header.src_aid, packet.header.src_ephid),
                framing.frame(framing.PT_ICMP, message.reply().pack()),
            )
        elif message.type == icmp_wire.ECHO_REPLY:
            key = (message.identifier, message.sequence)
            callback = self._pending_pings.pop(key, None)
            if callback is not None:
                self._owe(callback)
