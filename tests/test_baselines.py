"""Tests for the baseline systems (Section IX comparators)."""

import pytest

from repro.baselines import (
    AipHost,
    ApipDelegate,
    ApipSender,
    ApipVerifier,
    FlowDemuxer,
    PersonaNat,
    PersonaPacket,
    PlainIpRouter,
    RoutingTable,
    eid_of,
)
from repro.crypto.rng import DeterministicRng
from repro.wire.ipv4 import Ipv4Header, ip_to_int


class TestPlainIp:
    def make_router(self):
        routes = RoutingTable()
        routes.add(ip_to_int("10.0.0.0"), 8, "via-a")
        routes.add(ip_to_int("10.1.0.0"), 16, "via-b")
        routes.add(0, 0, "default")
        return PlainIpRouter(routes)

    def test_longest_prefix_match(self):
        router = self.make_router()
        packet = Ipv4Header(src=1, dst=ip_to_int("10.1.2.3"), protocol=17).pack()
        next_hop, _ = router.process(packet)
        assert next_hop == "via-b"
        packet = Ipv4Header(src=1, dst=ip_to_int("10.9.2.3"), protocol=17).pack()
        assert router.process(packet)[0] == "via-a"
        packet = Ipv4Header(src=1, dst=ip_to_int("8.8.8.8"), protocol=17).pack()
        assert router.process(packet)[0] == "default"

    def test_ttl_decremented_and_checksum_valid(self):
        router = self.make_router()
        packet = Ipv4Header(src=1, dst=ip_to_int("10.0.0.1"), protocol=17, ttl=5).pack()
        _, rewritten = router.process(packet)
        parsed = Ipv4Header.parse(rewritten)  # checksum re-verified here
        assert parsed.ttl == 4

    def test_expired_ttl_dropped(self):
        router = self.make_router()
        packet = Ipv4Header(src=1, dst=ip_to_int("10.0.0.1"), protocol=17, ttl=1).pack()
        assert router.process(packet) is None
        assert router.dropped == 1

    def test_no_route_dropped(self):
        routes = RoutingTable()
        routes.add(ip_to_int("10.0.0.0"), 8, "via-a")
        router = PlainIpRouter(routes)
        packet = Ipv4Header(src=1, dst=ip_to_int("8.8.8.8"), protocol=17).pack()
        assert router.process(packet) is None

    def test_bad_prefix_length(self):
        with pytest.raises(ValueError):
            RoutingTable().add(0, 33, "x")


class TestAip:
    def test_self_certifying_verification(self):
        rng = DeterministicRng(1)
        a = AipHost(100, rng)
        b = AipHost(200, rng)
        packet = a.send(b, b"hello")
        assert packet is not None
        assert b.verify_source(packet, a.public_key)
        assert not b.verify_source(packet, b.public_key)

    def test_all_flows_share_one_eid(self):
        # The privacy gap vs APNA: the EID is long-lived.
        rng = DeterministicRng(2)
        a, b = AipHost(100, rng), AipHost(200, rng)
        packets = [a.send(b, bytes([i])) for i in range(5)]
        assert len({p.src_eid for p in packets}) == 1

    def test_eid_is_hash_of_key(self):
        rng = DeterministicRng(5)
        a = AipHost(1, rng)
        assert a.eid == eid_of(a.public_key)


class TestApip:
    def test_briefed_packets_verify(self):
        delegate = ApipDelegate(addr=9)
        sender = ApipSender(1, delegate, return_addr=42)
        verifier = ApipVerifier(delegate)
        packet = sender.send(dst_addr=7, flow_id=1, payload=b"data")
        assert verifier.process(packet)
        assert delegate.briefs_received == 1

    def test_unbriefed_first_packet_rejected(self):
        delegate = ApipDelegate(addr=9)
        sender = ApipSender(1, delegate, return_addr=42)
        verifier = ApipVerifier(delegate)
        packet = sender.send(dst_addr=7, flow_id=1, payload=b"x", brief=False)
        assert not verifier.process(packet)

    def test_whitelisting_hole(self):
        # The APNA paper's criticism: once whitelisted, unbriefed packets
        # sail through — they are unaccounted for.
        delegate = ApipDelegate(addr=9)
        sender = ApipSender(1, delegate, return_addr=42)
        verifier = ApipVerifier(delegate)
        first = sender.send(dst_addr=7, flow_id=5, payload=b"legit")
        assert verifier.process(first)
        sneaky = sender.send(dst_addr=7, flow_id=5, payload=b"unaccounted", brief=False)
        assert verifier.process(sneaky)  # passes!
        assert verifier.passed_unchecked == 1
        # APNA has no such hole: every packet carries its own MAC.

    def test_return_address_hidden_from_header(self):
        delegate = ApipDelegate(addr=9)
        sender = ApipSender(1, delegate, return_addr=4242)
        packet = sender.send(dst_addr=7, flow_id=1, payload=b"x")
        # The network-visible source is the delegate, not the sender.
        assert packet.delegate_addr == 9
        assert packet.hidden_return == 4242

    def test_briefing_overhead_counted(self):
        delegate = ApipDelegate(addr=9)
        sender = ApipSender(1, delegate, return_addr=1)
        for i in range(10):
            sender.send(dst_addr=7, flow_id=i, payload=b"y")
        # One extra message to a third party per packet (vs zero in APNA).
        assert sender.briefs_sent == 10


class TestPersona:
    def test_rewriting_breaks_flow_demux(self):
        rng = DeterministicRng(6)
        nat = PersonaNat(pool=list(range(100, 164)), rng=rng)
        demux = FlowDemuxer()
        # One true flow of 20 packets.
        for i in range(20):
            packet = PersonaPacket(
                src_addr=1, dst_addr=9, src_port=5000, dst_port=80, payload=bytes([i])
            )
            demux.receive(nat.process(packet))
        # The receiver sees many spurious "flows".
        assert demux.flow_count > 1
        assert demux.demux_accuracy(true_flow_count=1) < 0.5

    def test_source_address_hidden(self):
        rng = DeterministicRng(7)
        nat = PersonaNat(pool=[500, 501], rng=rng)
        packet = PersonaPacket(src_addr=1, dst_addr=9, src_port=1, dst_port=2)
        rewritten = nat.process(packet)
        assert rewritten.src_addr in (500, 501)
        assert rewritten.src_addr != 1

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            PersonaNat(pool=[])
