"""Burst mode in the simulated delivery loop.

``ApnaConfig.forwarding_batch_size > 1`` makes every border router
node accumulate frames and push them through ``process_burst`` when the
burst fills (or the flush window elapses), acting on the verdicts in
arrival order.
End-to-end traffic must come out identical to per-packet dispatch, and
a frame that does not parse is dropped and counted at the node, never
raised into the event loop.
"""

import pytest

from repro.core.config import ApnaConfig
from repro.topology import WorldBuilder
from repro.wire import gre
from repro.wire.apna import ApnaHeader, ApnaPacket
from repro.workload import TrafficProfile

from repro import scenarios
from tests.conftest import build_world


def _batched_config(size, window=0.0002, **kwargs):
    return ApnaConfig(
        forwarding_batch_size=size, forwarding_batch_window=window, **kwargs
    )


def _exchange(world):
    """One alice->bob request/response round trip; returns bob's inbox."""
    alice = world.hosts["alice"]
    bob = world.hosts["bob"]
    bob.listen(80, lambda session, transport, data: bob.send_data(
        session, b"OK " + data, dst_port=transport.src_port
    ))
    serving = bob.acquire_ephid_direct()
    alice.connect(serving.cert, early_data=b"hello", dst_port=80)
    world.network.run()
    return alice, bob


class TestBorderRouterNodeBursts:
    def test_end_to_end_session_under_burst_mode(self):
        world = build_world(config=_batched_config(8))
        alice, bob = _exchange(world)
        assert len(alice.inbox) == 1
        _, _, data = alice.inbox[0]
        assert data == b"OK hello"

    def test_partial_burst_drains_via_flush_timer(self):
        # A single packet never fills an 64-packet burst; the window
        # timer must flush it (otherwise the session would hang).
        world = build_world(config=_batched_config(64, window=0.01))
        alice, _ = _exchange(world)
        assert len(alice.inbox) == 1
        assert world.as_a.node.bursts_flushed > 0

    def test_burst_counters(self):
        world = build_world(config=_batched_config(4))
        _exchange(world)
        node = world.as_a.node
        assert node.bursts_flushed >= 1
        assert 1 <= node.largest_burst <= 4

    def test_scalar_mode_untouched(self):
        world = build_world()  # forwarding_batch_size = 1
        alice, _ = _exchange(world)
        assert len(alice.inbox) == 1
        assert world.as_a.node.largest_burst == 1

    @pytest.mark.parametrize("shards", (1, 2))
    def test_malformed_frames_are_dropped_not_raised(self, shards):
        """Anyone on a link can send bytes.  A runt from an attached host,
        a garbled frame from the neighbouring AS and a nonce-less frame in
        a replay-protected world are each dropped and counted at the node:
        the simulation runs on, and a session after them completes."""
        config = ApnaConfig(replay_protection=True, forwarding_shards=shards)
        world = (
            WorldBuilder(seed=5, config=config)
            .asys("a", aid=100)
            .asys("b", aid=200)
            .link("a", "b")
            .host("alice", at="a")
            .host("bob", at="b")
            .build()
        )
        with world:
            alice, as_a, as_b = world.host("alice"), world.asys("a"), world.asys("b")
            garbled = bytearray(gre.encapsulate(bytes(64), src_ip=200, dst_ip=100))
            garbled[8] ^= 0xFF  # the IPv4 TTL: the header checksum fails
            nonceless = ApnaPacket(ApnaHeader(100, bytes(16), bytes(16), 200))
            alice.send(as_a.node.name, bytes(20))
            alice.send(as_a.node.name, nonceless.to_wire())
            as_b.node.send(as_a.node.name, bytes(garbled))
            world.run()
            assert as_a.node.malformed_frames == 3
            assert as_b.node.malformed_frames == 0
            alice, _ = _exchange(world)
            assert [data for _, _, data in alice.inbox] == [b"OK hello"]


class TestTrafficProfileBursts:
    def test_burst_traffic_delivers_everything(self):
        world = scenarios.build("fig1", seed=11, config=_batched_config(16))
        report = TrafficProfile(
            clients=3, servers=2, max_flows=60, burst=16
        ).drive(world)
        assert report.flows_offered > 16  # enough arrivals to form bursts
        assert report.payloads_delivered == report.flows_offered
        assert report.delivery_ratio == 1.0
        # The routers really saw multi-packet bursts.
        assert max(
            asys.node.largest_burst for asys in world.ases
        ) > 1

    def test_burst_and_scalar_deliver_the_same_totals(self):
        totals = []
        for batch, burst in ((1, 1), (16, 16)):
            world = scenarios.build(
                "fig1", seed=11, config=_batched_config(batch)
            )
            report = TrafficProfile(
                clients=3, servers=2, max_flows=40, burst=burst
            ).drive(world)
            totals.append(
                (report.flows_offered, report.payloads_delivered,
                 report.responses_received)
            )
        assert totals[0] == totals[1]

    def test_burst_must_be_positive(self):
        world = scenarios.build("fig1", seed=1)
        with pytest.raises(ValueError, match="burst"):
            TrafficProfile(burst=0).drive(world)
