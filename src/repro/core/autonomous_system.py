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
from typing import Callable

from ..crypto.cmac import Cmac
from ..crypto.rng import Rng, SystemRng
from ..netsim import Network, Node
from ..wire import gre
from ..wire import icmp as icmp_wire
from ..wire.apna import ApnaHeader, ApnaPacket, Endpoint
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
from .errors import ApnaError, IssuanceError, ShardError, ShutoffError
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
from .onetime import DemuxError, FlowTagger, TagDemuxer, pack_tagged, unpack_tagged
from .replay import ReplayWindow
from .replay_filter import RotatingReplayFilter
from .rpki import RpkiDirectory, TrustAnchor
from .session import ConnectionAccept, ConnectionRequest, OwnedEphId, Session, SessionError
from .verdict import verdicts_of

HID_ROUTER = 5

#: Lifetime of AS service EphIDs (MS/AA/DNS/router identities).
SERVICE_EPHID_LIFETIME = 10 * 365 * 86_400.0


@dataclass
class ServiceIdentity:
    """An AS-internal service endpoint: HID, kHA, EphID and certificate."""

    hid: int
    keys: HostAsKeys
    owned: OwnedEphId
    _mac: Cmac

    def make_packet(
        self, aid: int, dst: Endpoint, payload: bytes, *, mac_size: int, nonce: int | None = None
    ) -> ApnaPacket:
        header = ApnaHeader(
            src_aid=aid,
            src_ephid=self.owned.ephid,
            dst_ephid=dst.ephid,
            dst_aid=dst.aid,
            nonce=nonce,
        )
        mac = self._mac.tag(header.mac_input(payload), mac_size)
        return ApnaPacket(header.with_mac(mac), payload)


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
                config.forwarding_shards,
                block=config.shard_block,
                key=self.keys.secret.shard_route,
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
        replay_filter = None
        # The filter keys on the Section VIII-D nonce, which the burst
        # path reads at a fixed frame offset: without nonces on the wire
        # there is nothing to observe, so no filter is run.
        if config.in_network_replay_filter and config.replay_protection:
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
            packet_mac_size=config.packet_mac_size,
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
        self._service_nonces = 0

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

    def start_shard_pool(self, *, fault_plan=None):
        """Spawn the persistent worker shards and route the data plane
        through them.

        Snapshot-then-subscribe: the pool is seeded with the current
        hostdb/revocation state, and the database hooks keep the worker
        replicas in sync from then on — a revoke pushed over the infra
        bus reaches every shard before the next burst is dispatched.
        The pool also retains the hostdb/revocation list as its
        authoritative state source, from which the supervisor resyncs a
        restarted worker (and a degraded plane's in-process shards) —
        see the fault-model section of
        :mod:`repro.sharding`.  ``fault_plan`` arms a deterministic
        :class:`repro.faults.FaultPlan` on the new pool's data path
        (chaos testing).

        Intended at world-build time (before data traffic), which is
        when :meth:`repro.topology.World.from_spec` calls it.  Replay-
        filter history does *not* cross the transition: Bloom membership
        cannot be re-keyed into per-shard filters, so the workers start
        with empty filters and packets seen by the in-line router could
        replay once.  A mid-traffic switch therefore warns.
        """
        if self.shard_plan is None:
            raise ApnaError(
                "AS was built without sharding; set "
                "ApnaConfig.forwarding_shards >= 2"
            )
        if self.shard_pool is not None:
            return self.shard_pool
        inline_filter = self.br.replay_filter
        if inline_filter is not None and (
            inline_filter.passed or inline_filter.replays
        ):
            self._warn_replay_history_lost("start_shard_pool")
        from ..sharding.pool import ShardedDataPlane

        pool = ShardedDataPlane.for_assembly(self)
        if fault_plan is not None:
            pool.install_faults(fault_plan)
        self.shard_pool = pool
        self.revocations.on_add = pool.revoke_ephid
        self.hostdb.on_register = pool.register_host
        self.hostdb.on_revoke_hid = pool.revoke_hid
        return pool

    def stop_shard_pool(self, *, final: bool = False) -> None:
        """Tear the worker pool down and fall back to the in-line router.

        A teardown path, not a live migration: the shards' replay-filter
        history and verdict counters die with the worker processes, so
        switching back mid-traffic reopens the replay window exactly as
        :meth:`start_shard_pool` does — hence the same warning.  Pass
        ``final=True`` (as ``World.close`` does) when the world is done
        and no further traffic exists to protect.
        """
        pool, self.shard_pool = self.shard_pool, None
        if pool is None:
            return
        self.revocations.on_add = None
        self.hostdb.on_register = None
        self.hostdb.on_revoke_hid = None
        if not final and self.config.in_network_replay_filter and not pool.closed:
            # Best-effort read purely to decide whether to warn: a shard
            # failure here must not block teardown, but anything other
            # than a shard failure is a real bug and propagates.
            try:
                stats = pool.stats()
            except ShardError:
                stats = {}
            if stats.get("replay_passed", 0) or stats.get("replay_replays", 0):
                self._warn_replay_history_lost("stop_shard_pool")
        pool.close()

    def _warn_replay_history_lost(self, transition: str) -> None:
        """The caller saw replay-filter traffic before a plane transition."""
        import warnings

        warnings.warn(
            f"{transition} with in-network replay filtering mid-traffic: "
            "filter history does not cross the transition, so packets "
            "already seen could replay once",
            RuntimeWarning,
            stacklevel=3,
        )

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

    def attach_host_behind_bridge(
        self,
        bridge: Node,
        name: str,
        *,
        latency: float = 0.001,
        bandwidth: float = 1e8,
        policy: type[GranularityPolicy] = PerFlowPolicy,
    ) -> "ApnaHostNode":
        """Attach a host whose access link runs through a bridge-mode AP
        (Section VII-B): the host authenticates directly to the AS, the
        bridge transparently relays frames."""
        subscriber_id = self._next_subscriber
        self._next_subscriber += 1
        secret = self.rs.enroll_subscriber(subscriber_id)
        host = ApnaHostNode(name, self, subscriber_id, secret, policy_cls=policy)
        host.uplink = bridge.name
        host.via = bridge.name
        self.network.add_node(host)
        self.network.connect(bridge, host, latency=latency, bandwidth=bandwidth)
        return host

    def register_population(self, count: int) -> range:
        """Bulk-register ``count`` hosts in ``host_info`` (scale presets).

        The hosts get HIDs and kHA subkeys but no simulated nodes — they
        are the metro-area population the AS is accountable for, against
        which issuance/verdict machinery is exercised at scale.  Key
        material comes from one SHAKE-256 keystream seeded by a single
        ``rng.read(32)`` draw, and the registration is a few column
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

    def route_packet(self, packet: ApnaPacket) -> None:
        """Send a locally-originated (service) packet toward its destination."""
        self.node.route_local(packet)

    def next_service_nonce(self) -> int | None:
        if not self.config.replay_protection:
            return None
        self._service_nonces += 1
        return self._service_nonces

    # -- service endpoints --

    def _handle_ms_packet(self, packet: ApnaPacket) -> None:
        payload_type, body = framing.unframe(packet.payload)
        if payload_type != framing.PT_CONTROL_REQ:
            return
        try:
            sealed_reply = self.ms.handle_request(packet.header.src_ephid, body)
        except IssuanceError:
            return  # Fig. 3: invalid requests are dropped.
        reply = self.ms_identity.make_packet(
            self.aid,
            Endpoint(packet.header.src_aid, packet.header.src_ephid),
            framing.frame(framing.PT_CONTROL_REP, sealed_reply),
            mac_size=self.config.packet_mac_size,
            nonce=self.next_service_nonce(),
        )
        self.route_packet(reply)

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
        reply = self.aa_identity.make_packet(
            self.aid,
            Endpoint(packet.header.src_aid, packet.header.src_ephid),
            framing.frame(framing.PT_SHUTOFF_RESP, response.pack()),
            mac_size=self.config.packet_mac_size,
            nonce=self.next_service_nonce(),
        )
        self.route_packet(reply)


class BorderRouterNode(Node):
    """The simulated border router: wire bytes in, wire bytes out.

    The node runs the paper's burst data plane: arriving packets are
    accumulated and pushed through :meth:`BorderRouter.process_burst`
    once ``config.forwarding_batch_size`` of them are waiting (or after
    ``forwarding_batch_window`` virtual seconds, whichever comes first),
    and the verdicts are acted on in arrival order.  A burst size of 1
    flushes every packet as a burst of one.  The flush timer guarantees a
    partially-filled burst always drains when the event queue is run.

    When the assembly has a live shard pool (``config.forwarding_shards
    >= 2`` + :meth:`ApnaAutonomousSystem.start_shard_pool`), every data
    packet's verdict comes from the pool instead of the in-line router —
    the accumulated burst is dispatched as packed wire frames, one IPC
    message per shard, and the merged verdicts are acted on in arrival
    order.  The in-line ``assembly.br`` is bypassed entirely for data
    traffic so router state cannot diverge from the shards'.
    """

    def __init__(self, assembly: ApnaAutonomousSystem) -> None:
        super().__init__(f"AS{assembly.aid}")
        self.assembly = assembly
        self.icmp_sent = 0
        #: Pending (packet, arrived_from_outside, wire_frame) triples
        #: awaiting a burst.
        self._burst: list[tuple[ApnaPacket, bool, bytes]] = []
        self._burst_timer = None
        self.bursts_flushed = 0
        self.largest_burst = 0

    # -- frame entry points --

    def handle_frame(self, frame_bytes: bytes, *, from_node: str) -> None:
        assembly = self.assembly
        if from_node in assembly._host_node_names:
            # Raw APNA bytes from a local host: the egress pipeline.
            apna_bytes = frame_bytes
            arrived_from_outside = False
        else:
            # GRE/IPv4 encapsulated bytes from a neighbor AS.
            _, apna_bytes = gre.decapsulate(frame_bytes)
            arrived_from_outside = True
        packet = ApnaPacket.from_wire(
            apna_bytes, with_nonce=assembly.config.replay_protection
        )
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
        frames = [frame for _, _, frame in burst]
        egress = [not outside for _, outside, _ in burst]
        pool = self.assembly.shard_pool
        if pool is not None:
            verdicts = pool.process(frames, egress, self.assembly.clock())
        else:
            verdicts = verdicts_of(
                b"".join(self.assembly.br.process_burst(frames, egress))
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
            if (
                arrived_from_outside
                and self.assembly.config.icmp_on_drop
                and verdict.reason in ICMP_CODES
            ):
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
            # Bridged hosts are reached through their bridge (host.via).
            self.send(host.via or host.name, packet.to_wire())

    def _send_icmp_unreachable(self, packet: ApnaPacket, code: int) -> None:
        """ICMP back to the source endpoint (Section VIII-B)."""
        message = icmp_wire.IcmpMessage(
            type=icmp_wire.DEST_UNREACHABLE,
            code=code,
            payload=packet.to_wire()[:64],
        )
        assembly = self.assembly
        reply = assembly.router_identity.make_packet(
            assembly.aid,
            Endpoint(packet.header.src_aid, packet.header.src_ephid),
            framing.frame(framing.PT_ICMP, message.pack()),
            mac_size=assembly.config.packet_mac_size,
            nonce=assembly.next_service_nonce(),
        )
        self.icmp_sent += 1
        self.route_local(reply)


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
        #: Next-hop node name for transmissions (a bridge for bridged hosts).
        self.uplink: str | None = None
        #: Where the border router should send frames destined to us.
        self.via: str | None = None

        self.owned: dict[bytes, OwnedEphId] = {}
        self.sessions: dict[tuple[bytes, bytes], Session] = {}
        self._pending_ephid: list[tuple[EphIdKeyPair, Callable | None]] = []
        self._pending_accept: dict[tuple[bytes, bytes], Callable] = {}
        self._pending_pings: dict[tuple[int, int], Callable] = {}
        self._pending_shutoff: list[Callable] = []
        self._listeners: dict[int, Callable] = {}
        self._replay_windows: dict[bytes, ReplayWindow] = {}
        self._nonce_counter = 0
        self.inbox: list[tuple[Session, TransportHeader, bytes]] = []
        self.icmp_log: list[icmp_wire.IcmpMessage] = []
        self.replay_drops = 0
        #: Per-packet EphID support (VIII-A): flow-tag demultiplexer and
        #: per-session taggers, created on first use.
        self.demux = TagDemuxer()
        self._taggers: dict[int, FlowTagger] = {}
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
        assert self.stack.control_ephid is not None and self.stack.ms_cert is not None
        packet = self.stack.make_packet(
            self.stack.control_ephid,
            Endpoint(self.assembly.aid, self.stack.ms_cert.ephid),
            framing.frame(framing.PT_CONTROL_REQ, sealed),
            nonce=self._next_nonce(),
        )
        self._transmit(packet)

    def _policy_requester(self, flags: int, lifetime: float | None) -> OwnedEphId:
        return self.acquire_ephid_direct(flags, lifetime)

    # -- packet transmission --

    def _next_nonce(self) -> int | None:
        if not self.assembly.config.replay_protection:
            return None
        self._nonce_counter += 1
        return self._nonce_counter

    def _transmit(self, packet: ApnaPacket) -> None:
        self.send(self.uplink or self.assembly.node.name, packet.to_wire())

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
        packet = self.stack.make_packet(
            src_owned.ephid,
            Endpoint(peer_cert.aid, peer_cert.ephid),
            framing.frame(framing.PT_CONN_REQUEST, request.pack()),
            nonce=self._next_nonce(),
        )
        self._transmit(packet)
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
        packet = self.stack.make_packet(
            session.local.ephid,
            Endpoint(session.peer_cert.aid, session.peer_cert.ephid),
            framing.frame(framing.PT_DATA, session.seal(segment)),
            nonce=self._next_nonce(),
        )
        self._transmit(packet)

    def listen(self, port: int, handler: Callable) -> None:
        """Register ``handler(session, transport_header, data)`` for a port."""
        self._listeners[port] = handler

    # -- per-packet EphIDs (Section VIII-A + its reference [23]) --

    def ota_listen(self, session: Session) -> None:
        """Accept one-time-tagged traffic on ``session``.

        Required before a peer can send with :meth:`send_data_ota`: with
        per-packet source EphIDs the APNA header no longer identifies the
        session, so the flow-tag demultiplexer takes over.
        """
        self.demux.register(session)

    def send_data_ota(
        self,
        session: Session,
        data: bytes,
        *,
        src_port: int = 0,
        dst_port: int = 0,
        proto: int = PROTO_DATA,
        seq: int = 0,
    ) -> None:
        """Send one payload under a fresh, single-use source EphID.

        The strongest privacy mode of Section VIII-A: every packet gets
        its own EphID (one Fig. 3 issuance per packet — E5 quantifies the
        cost) plus a flow tag so the receiver can still demultiplex.
        """
        tagger = self._taggers.get(id(session))
        if tagger is None:
            tagger = FlowTagger(session)
            self._taggers[id(session)] = tagger
        one_time = self.acquire_ephid_direct()
        self.owned[one_time.ephid] = one_time
        segment = build_segment(
            TransportHeader(src_port, dst_port, seq=seq, proto=proto), data
        )
        body = pack_tagged(tagger.next_tag(), session.seal(segment))
        packet = self.stack.make_packet(
            one_time.ephid,
            Endpoint(session.peer_cert.aid, session.peer_cert.ephid),
            framing.frame(framing.PT_DATA_OTA, body),
            nonce=self._next_nonce(),
        )
        self._transmit(packet)

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
        packet = self.stack.make_packet(
            src_owned.ephid,
            dst,
            framing.frame(framing.PT_ICMP, message.pack()),
            nonce=self._next_nonce(),
        )
        self._transmit(packet)

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
        packet = self.stack.make_packet(
            src_owned.ephid,
            aa_endpoint,
            framing.frame(framing.PT_SHUTOFF, request.pack()),
            nonce=self._next_nonce(),
        )
        self._transmit(packet)

    # -- receive path --

    def handle_frame(self, frame_bytes: bytes, *, from_node: str) -> None:
        packet = ApnaPacket.from_wire(
            frame_bytes, with_nonce=self.assembly.config.replay_protection
        )
        header = packet.header
        if self.assembly.config.replay_protection:
            window = self._replay_windows.setdefault(header.src_ephid, ReplayWindow())
            if header.nonce is None or not window.check(header.nonce):
                self.replay_drops += 1
                return
        payload_type, body = framing.unframe(packet.payload)
        if payload_type == framing.PT_DATA:
            self._on_data(packet, body)
        elif payload_type == framing.PT_DATA_OTA:
            self._on_data_ota(body)
        elif payload_type == framing.PT_CONN_REQUEST:
            self._on_conn_request(packet, body)
        elif payload_type == framing.PT_CONN_ACCEPT:
            self._on_conn_accept(packet, body)
        elif payload_type == framing.PT_CONTROL_REP:
            self._on_control_reply(body)
        elif payload_type == framing.PT_SHUTOFF_RESP:
            self._on_shutoff_response(body)
        elif payload_type == framing.PT_ICMP:
            self._on_icmp(packet, body)

    def _dispatch_segment(
        self, session: Session, transport: TransportHeader, data: bytes
    ) -> None:
        handler = self._listeners.get(transport.dst_port)
        if handler is not None:
            handler(session, transport, data)
        else:
            self.inbox.append((session, transport, data))

    def _on_data(self, packet: ApnaPacket, body: bytes) -> None:
        key = (packet.header.dst_ephid, packet.header.src_ephid)
        session = self.sessions.get(key)
        if session is None:
            return
        try:
            segment = session.open(body)
        except SessionError:
            return
        transport, data = split_segment(segment)
        self._dispatch_segment(session, transport, data)

    def _on_data_ota(self, body: bytes) -> None:
        """One-time-tagged data: the header's EphIDs carry no session
        information, the flow tag does (Section VIII-A, reference [23])."""
        try:
            tag, sealed = unpack_tagged(body)
            session = self.demux.match(tag)
        except DemuxError:
            return
        try:
            segment = session.open(sealed)
        except SessionError:
            return
        transport, data = split_segment(segment)
        self._dispatch_segment(session, transport, data)

    def _on_conn_request(self, packet: ApnaPacket, body: bytes) -> None:
        request = ConnectionRequest.parse(body)
        self.stack.verify_peer_cert(request.cert)
        local = self.owned.get(packet.header.dst_ephid)
        if local is None:
            return
        if local.receive_only:
            self._accept_via_serving_ephid(packet, request, local)
            return
        session = self.sessions.get((local.ephid, request.cert.ephid))
        if session is None:
            session = Session(
                local, request.cert, scheme=self.assembly.config.aead_scheme
            )
            self.sessions[(local.ephid, request.cert.ephid)] = session
            if self.on_connection is not None:
                self.on_connection(session)
        if request.early_data:
            self._deliver_early(session, request.early_data)

    def _accept_via_serving_ephid(
        self, packet: ApnaPacket, request: ConnectionRequest, receive_only: OwnedEphId
    ) -> None:
        """The Section VII-A server flow: answer with a serving EphID."""
        serving = self.acquire_ephid_direct()
        serving_session = Session(
            serving, request.cert, scheme=self.assembly.config.aead_scheme
        )
        self.sessions[(serving.ephid, request.cert.ephid)] = serving_session
        # Send the accept BEFORE dispatching data to the application: any
        # response the application emits must arrive behind the accept
        # that creates the client-side session.
        accept = ConnectionAccept(serving_cert=serving.cert)
        reply = self.stack.make_packet(
            serving.ephid,
            Endpoint(request.cert.aid, request.cert.ephid),
            framing.frame(framing.PT_CONN_ACCEPT, accept.pack()),
            nonce=self._next_nonce(),
        )
        self._transmit(reply)
        if self.on_connection is not None:
            self.on_connection(serving_session)
        if request.early_data:
            # 0-RTT data was encrypted against the receive-only EphID's
            # key; decrypt with it but hand the application the serving
            # session, which is what replies must flow through.
            early_session = Session(
                receive_only, request.cert, scheme=self.assembly.config.aead_scheme
            )
            try:
                segment = early_session.open(request.early_data)
            except SessionError:
                segment = None
            if segment is not None:
                transport, data = split_segment(segment)
                self._dispatch_segment(serving_session, transport, data)

    def _on_conn_accept(self, packet: ApnaPacket, body: bytes) -> None:
        accept = ConnectionAccept.parse(body)
        self.stack.verify_peer_cert(accept.serving_cert)
        # Find which of our pending connects this serves: the accept comes
        # from the serving EphID, addressed to our source EphID.
        local_ephid = packet.header.dst_ephid
        local = self.owned.get(local_ephid)
        if local is None:
            return
        session = Session(
            local, accept.serving_cert, scheme=self.assembly.config.aead_scheme
        )
        self.sessions[(local_ephid, accept.serving_cert.ephid)] = session
        for (pending_local, original_peer), callback in list(self._pending_accept.items()):
            if pending_local == local_ephid:
                del self._pending_accept[(pending_local, original_peer)]
                callback(session)
                break

    def _deliver_early(self, session: Session, sealed: bytes) -> None:
        try:
            segment = session.open(sealed)
        except SessionError:
            return
        transport, data = split_segment(segment)
        self._dispatch_segment(session, transport, data)

    def _on_control_reply(self, sealed: bytes) -> None:
        if not self._pending_ephid:
            return
        keypair, callback = self._pending_ephid.pop(0)
        owned = self.stack.accept_ephid_reply(keypair, sealed)
        self.owned[owned.ephid] = owned
        if callback is not None:
            callback(owned)

    def _on_shutoff_response(self, body: bytes) -> None:
        response = ShutoffResponse.parse(body)
        if self._pending_shutoff:
            self._pending_shutoff.pop(0)(response)

    def _on_icmp(self, packet: ApnaPacket, body: bytes) -> None:
        message = icmp_wire.IcmpMessage.parse(body)
        self.icmp_log.append(message)
        if message.type == icmp_wire.ECHO_REQUEST:
            local = self.owned.get(packet.header.dst_ephid)
            src = local.ephid if local is not None else packet.header.dst_ephid
            reply = self.stack.make_packet(
                src,
                Endpoint(packet.header.src_aid, packet.header.src_ephid),
                framing.frame(framing.PT_ICMP, message.reply().pack()),
                nonce=self._next_nonce(),
            )
            self._transmit(reply)
        elif message.type == icmp_wire.ECHO_REPLY:
            key = (message.identifier, message.sequence)
            callback = self._pending_pings.pop(key, None)
            if callback is not None:
                callback()
