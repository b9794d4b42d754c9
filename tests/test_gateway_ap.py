"""Tests for connection-sharing devices (VII-B), the APNA gateway (VII-D)
and APNA-as-a-Service (VIII-E)."""

import pytest

from repro.core.config import ApnaConfig
from repro.gateway import (
    ApnaGateway,
    DownstreamAs,
    LegacyHostNode,
    NatAccessPoint,
)
from repro.wire.ipv4 import ip_to_int
from tests.conftest import build_world


class TestNatMode:
    @pytest.fixture()
    def cafe(self):
        world = build_world(host_names=("bob",))
        ap = world.as_a.attach_host("cafe-ap", node_cls=NatAccessPoint)
        ap.bootstrap()
        laptop = ap.register_client("cafe-laptop")
        phone = ap.register_client("cafe-phone")
        world.network.compute_routes()
        return world, ap, laptop, phone

    def acquire(self, world, client):
        got = []
        client.acquire_ephid(callback=got.append)
        world.network.run()
        assert got, "EphID issuance through the AP failed"
        return got[0]

    def test_client_gets_ephid_through_ap(self, cafe):
        world, ap, laptop, phone = cafe
        owned = self.acquire(world, laptop)
        # The EphID decodes to the AP's HID — clients are invisible to the AS.
        info = world.as_a.codec.open(owned.ephid)
        ap_record = world.as_a.hostdb.find_by_subscriber(ap.subscriber_id)
        assert info.hid == ap_record.hid
        # The AP tracked the binding in its EphID_info list.
        assert ap.ephid_info[owned.ephid] == "cafe-laptop"

    def test_client_end_to_end_data(self, cafe):
        world, ap, laptop, phone = cafe
        owned = self.acquire(world, laptop)
        bob = world.hosts["bob"]
        bob_owned = bob.acquire_ephid_direct()
        session = laptop.connect(bob_owned.cert, owned, early_data=b"from the cafe")
        world.network.run()
        assert bob.inbox[0][2] == b"from the cafe"
        # Reply reaches the right client through the AP.
        bob_session = next(iter(bob.sessions.values()))
        bob.send_data(bob_session, b"enjoy your coffee")
        world.network.run()
        assert laptop.inbox[-1][2] == b"enjoy your coffee"
        assert ap.relayed_out >= 1 and ap.relayed_in >= 1

    def test_ap_cannot_read_client_traffic(self, cafe):
        # The client generated the EphID key pair itself; the AP relays
        # ciphertext only (data privacy against the AP).
        world, ap, laptop, phone = cafe
        owned = self.acquire(world, laptop)
        bob = world.hosts["bob"]
        bob_owned = bob.acquire_ephid_direct()
        captured = []
        original = ap._relay_out

        def spy(apna_bytes, client_name):
            captured.append(apna_bytes)
            original(apna_bytes, client_name)

        ap._relay_out = spy
        laptop.connect(bob_owned.cert, owned, early_data=b"secret order: espresso")
        world.network.run()
        assert captured
        for frame in captured:
            assert b"espresso" not in frame

    def test_client_cannot_use_anothers_ephid(self, cafe):
        world, ap, laptop, phone = cafe
        laptop_owned = self.acquire(world, laptop)
        self.acquire(world, phone)
        bob = world.hosts["bob"]
        bob_owned = bob.acquire_ephid_direct()
        # Phone tries to send with the laptop's EphID.
        rejected_before = ap.rejected_frames
        phone.connect(bob_owned.cert, laptop_owned, early_data=b"spoof attempt")
        world.network.run()
        assert ap.rejected_frames == rejected_before + 1
        assert bob.inbox == []

    def test_ap_identifies_misbehaving_client(self, cafe):
        # The AS holds the AP accountable; the AP pinpoints the client.
        world, ap, laptop, phone = cafe
        owned = self.acquire(world, laptop)
        assert ap.identify(owned.ephid) == "cafe-laptop"
        assert ap.identify(bytes(16)) is None
        ap.block_client("cafe-laptop")
        bob = world.hosts["bob"]
        bob_owned = bob.acquire_ephid_direct()
        laptop.connect(bob_owned.cert, owned, early_data=b"blocked?")
        world.network.run()
        assert bob.inbox == []

    def test_replayed_connection_request_delivers_once(self):
        """With replay protection on, a client tests a relayed frame's
        nonce against its source EphID's window before dispatch, as a
        host does: a replayed connection request re-delivers no 0-RTT
        data and builds no second session."""
        world = build_world(
            host_names=("bob",), config=ApnaConfig(replay_protection=True)
        )
        ap = world.as_a.attach_host("cafe-ap", node_cls=NatAccessPoint)
        ap.bootstrap()
        laptop = ap.register_client("cafe-laptop")
        world.network.compute_routes()
        owned = self.acquire(world, laptop)
        captured = []
        original = laptop.handle_frame

        def capture(frame_bytes, *, from_node):
            captured.append(frame_bytes)
            original(frame_bytes, from_node=from_node)

        laptop.handle_frame = capture
        world.hosts["bob"].connect(owned.cert, early_data=b"pay 10 EUR")
        world.network.run()
        assert [entry[2] for entry in laptop.inbox] == [b"pay 10 EUR"]
        sessions = dict(laptop.sessions)
        assert len(sessions) == 1
        original(captured[-1], from_node=ap.name)
        assert [entry[2] for entry in laptop.inbox] == [b"pay 10 EUR"]
        assert laptop.replay_drops == 1
        assert laptop.sessions == sessions
        assert all(laptop.sessions[key] is sessions[key] for key in sessions)

    def test_ap_replaces_mac(self, cafe):
        # Outgoing packets pass the AS border router's MAC check, which
        # uses the AP's kHA — so the AP must have re-MAC'd them.
        world, ap, laptop, phone = cafe
        owned = self.acquire(world, laptop)
        bob = world.hosts["bob"]
        bob_owned = bob.acquire_ephid_direct()
        laptop.connect(bob_owned.cert, owned, early_data=b"x")
        world.network.run()
        from repro.core.border_router import DropReason

        assert world.as_a.br.drops[DropReason.BAD_MAC] == 0
        assert bob.inbox  # delivered


class TestGateway:
    @pytest.fixture()
    def gw_world(self):
        world = build_world(host_names=("bob",))
        gateway = world.as_a.attach_host("gw", node_cls=ApnaGateway)
        gateway.bootstrap()
        legacy = gateway.add_legacy_host("legacy-pc", ip_to_int("192.168.1.10"))
        world.network.compute_routes()
        return world, gateway, legacy

    def test_outbound_flow_translation(self, gw_world):
        world, gateway, legacy = gw_world
        bob = world.hosts["bob"]
        bob_owned = bob.acquire_ephid_direct()
        server_ip = ip_to_int("203.0.113.7")
        gateway.learn_mapping(server_ip, bob_owned.cert)
        legacy.send_ipv4(server_ip, b"legacy request", src_port=4000, dst_port=80)
        world.network.run()
        assert bob.inbox[0][2] == b"legacy request"
        assert gateway.translated_out == 1

    def test_return_path_rebuilds_ipv4(self, gw_world):
        world, gateway, legacy = gw_world
        bob = world.hosts["bob"]
        bob_owned = bob.acquire_ephid_direct()
        server_ip = ip_to_int("203.0.113.7")
        gateway.learn_mapping(server_ip, bob_owned.cert)
        legacy.send_ipv4(server_ip, b"ping", src_port=4000, dst_port=80)
        world.network.run()
        bob_session = next(iter(bob.sessions.values()))
        bob.send_data(bob_session, b"pong", src_port=80, dst_port=4000)
        world.network.run()
        header, transport, data = legacy.inbox[-1]
        assert data == b"pong"
        assert header.src == server_ip  # looks like it came from the server
        assert transport.dst_port == 4000

    def test_flow_reuse(self, gw_world):
        world, gateway, legacy = gw_world
        bob = world.hosts["bob"]
        bob_owned = bob.acquire_ephid_direct()
        server_ip = ip_to_int("203.0.113.7")
        gateway.learn_mapping(server_ip, bob_owned.cert)
        for i in range(3):
            legacy.send_ipv4(server_ip, f"msg{i}".encode(), src_port=4000, dst_port=80)
        world.network.run()
        # One flow, one session, one EphID.
        assert len(gateway._flow_out) == 1
        assert len(bob.inbox) == 3

    def test_distinct_flows_distinct_ephids(self, gw_world):
        # "for each new IPv4 flow, the gateway uses a different EphID".
        world, gateway, legacy = gw_world
        bob = world.hosts["bob"]
        bob_owned = bob.acquire_ephid_direct()
        server_ip = ip_to_int("203.0.113.7")
        gateway.learn_mapping(server_ip, bob_owned.cert)
        legacy.send_ipv4(server_ip, b"a", src_port=4000, dst_port=80)
        legacy.send_ipv4(server_ip, b"b", src_port=4001, dst_port=80)
        world.network.run()
        ephids = {s.local.ephid for s in gateway._flow_out.values()}
        assert len(ephids) == 2

    def test_unmapped_destination_dropped(self, gw_world):
        world, gateway, legacy = gw_world
        legacy.send_ipv4(ip_to_int("198.51.100.1"), b"???", src_port=1, dst_port=2)
        world.network.run()
        assert gateway.unmapped_drops == 1

    def test_exposed_legacy_service(self, gw_world):
        """An APNA-native client reaches a legacy IPv4 server through the
        server-side gateway and its virtual endpoints."""
        world, gateway, legacy = gw_world
        from repro.dns import DnsZone, publish_service

        zone = DnsZone(world.rng)
        record = publish_service(gateway, zone, "legacy-svc.example")
        gateway.expose_service(80, legacy.ip)
        legacy.serve(80, lambda data: b"legacy says: " + data)

        bob = world.hosts["bob"]
        bob.connect(record.cert, early_data=b"hi", dst_port=80)
        world.network.run()
        # The request reached the legacy server from a virtual endpoint.
        header, transport, data = legacy.inbox[0]
        assert data == b"hi"
        assert header.src >= ip_to_int("10.64.0.1")
        # And the response made it all the way back, encrypted.
        assert bob.inbox[-1][2] == b"legacy says: hi"

    def test_virtual_endpoints_unique_per_flow(self, gw_world):
        world, gateway, legacy = gw_world
        from repro.dns import DnsZone, publish_service

        zone = DnsZone(world.rng)
        record = publish_service(gateway, zone, "svc.example")
        gateway.expose_service(80, legacy.ip)
        legacy.serve(80, lambda data: b"ok")
        bob = world.hosts["bob"]
        bob.connect(record.cert, early_data=b"flow-1", dst_port=80)
        bob.connect(record.cert, early_data=b"flow-2", dst_port=80)
        world.network.run()
        sources = {header.src for header, _, _ in legacy.inbox}
        assert len(sources) == 2  # two flows, two virtual endpoints


class TestApnaAsAService:
    def test_downstream_hosts_use_upstream_apna(self):
        world = build_world(host_names=("bob",))
        downstream = DownstreamAs(64999, world.as_a)
        downstream.bootstrap()
        host = downstream.attach_host("branch-pc")
        world.network.compute_routes()

        got = []
        host.acquire_ephid(callback=got.append)
        world.network.run()
        assert got
        owned = got[0]
        # The EphID attributes to the upstream ISP's AID.
        assert owned.cert.aid == world.as_a.aid

        bob = world.hosts["bob"]
        bob_owned = bob.acquire_ephid_direct()
        host.connect(bob_owned.cert, owned, early_data=b"from downstream")
        world.network.run()
        assert bob.inbox[0][2] == b"from downstream"

    def test_anonymity_set_grows_with_upstream(self):
        world = build_world(host_names=("bob",))
        downstream = DownstreamAs(64999, world.as_a)
        downstream.bootstrap()
        downstream.attach_host("pc1")
        downstream.attach_host("pc2")
        assert downstream.anonymity_set_hint >= len(world.as_a.hostdb)
