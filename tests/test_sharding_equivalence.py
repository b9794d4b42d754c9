"""Cross-process equivalence of the sharded data plane.

The contract (see :mod:`repro.sharding.pool`): the same packet stream
through ``ShardedDataPlane(shards=N)`` and through a single-process
:class:`BorderRouter` burst loop yields identical verdict sequences, and
the shard counters sum to the single router's counters.  A seeded fuzzer
mixes every verdict class — including mid-stream revocations and replay
duplicates whose source EphIDs straddle shard boundaries — and checks
the property at 2 and 3 shards (3 exercises the non-power-of-two
routing path).  One more test runs a single stream through pooled
workers and through in-process shards.
"""

import dataclasses
import random

import pytest

from repro.core.border_router import Action, BorderRouter, DropReason
from repro.core.config import ApnaConfig
from repro.core.replay_filter import RotatingReplayFilter
from repro.core.verdict import verdict_of
from repro.sharding import ShardedDataPlane
from repro.wire.apna import Endpoint

from tests.conftest import build_world, inprocess_plane, process_packets

WINDOW = 900.0
BITS = 1 << 16
SHARD_COUNTS = (2, 3)


def _build_world(nshards, **supervision):
    return build_world(
        config=ApnaConfig(
            replay_protection=True,
            in_network_replay_filter=True,
            replay_filter_window=WINDOW,
            replay_filter_bits=BITS,
            forwarding_shards=nshards,
            **supervision,
        ),
        host_names=("alice", "bob", "carol", "dave", "erin"),
    )


def _reference_router(world):
    """A fresh single-process router over the world's hostdb/revocations."""
    return BorderRouter(
        world.as_a.aid,
        world.as_a.codec,
        world.as_a.hostdb,
        world.as_a.revocations,
        world.network.scheduler.clock(),
        replay_filter=RotatingReplayFilter(
            window=WINDOW, bits_per_generation=BITS
        ),
    )


def _packet_mix(world, rng):
    """A packet builder covering every verdict class.

    ``alice``/``carol``/``erin`` home on AS 100 and, with round-robin
    shard assignment, land on different shards — so replay duplicates
    and revocations exercise more than one worker.
    """
    alice = world.hosts["alice"]
    carol = world.hosts["carol"]
    erin = world.hosts["erin"]
    bob = world.hosts["bob"]
    sources = [
        (host, host.acquire_ephid_direct()) for host in (alice, carol, erin)
    ]
    peer = bob.acquire_ephid_direct()
    local_peer = carol.acquire_ephid_direct()
    revocable = [
        (host, host.acquire_ephid_direct()) for host in (alice, erin)
    ]
    codec = world.as_a.codec
    alice_hid = world.as_a.hostdb.find_by_subscriber(alice.subscriber_id).hid
    expired_ephid = codec.seal(
        alice_hid, exp_time=1, iv=world.as_a.ivs.next_iv_for(alice_hid)
    )
    bad_hid = 0xDEAD_0000
    bad_hid_ephid = codec.seal(
        bad_hid, exp_time=2**31, iv=world.as_a.ivs.next_iv_for(bad_hid)
    )

    dst_inter = Endpoint(world.as_b.aid, peer.ephid)
    dst_intra = Endpoint(world.as_a.aid, local_peer.ephid)
    nonces = iter(range(1, 10**6))
    seen = []

    def build(kind):
        host, src = rng.choice(sources)
        make = host.stack.make_packet
        if kind in ("inter", "intra"):
            dst = dst_inter if kind == "inter" else dst_intra
            packet = make(src.ephid, dst, b"data", nonce=next(nonces))
            seen.append(packet)
            return packet
        if kind == "replay" and seen:
            return rng.choice(seen)
        if kind == "forged":
            packet = make(src.ephid, dst_inter, b"data", nonce=next(nonces))
            return dataclasses.replace(
                packet,
                header=dataclasses.replace(
                    packet.header, src_ephid=rng.randbytes(16)
                ),
            )
        if kind == "expired":
            return make(expired_ephid, dst_inter, b"data", nonce=next(nonces))
        if kind == "revoked":
            rev_host, rev = rng.choice(revocable)
            return rev_host.stack.make_packet(
                rev.ephid, dst_inter, b"data", nonce=next(nonces)
            )
        if kind == "bad-hid":
            return make(bad_hid_ephid, dst_inter, b"data", nonce=next(nonces))
        if kind == "bad-mac":
            packet = make(src.ephid, dst_inter, b"data", nonce=next(nonces))
            return dataclasses.replace(
                packet, header=packet.header.with_mac(b"\xff" * 8)
            )
        if kind == "foreign":
            packet = make(src.ephid, dst_inter, b"data", nonce=next(nonces))
            return dataclasses.replace(
                packet, header=dataclasses.replace(packet.header, src_aid=999)
            )
        if kind == "forged-dst":
            return make(
                src.ephid,
                Endpoint(world.as_a.aid, rng.randbytes(16)),
                b"data",
                nonce=next(nonces),
            )
        packet = make(src.ephid, dst_inter, b"data", nonce=next(nonces))
        seen.append(packet)
        return packet

    return build, revocable


KINDS = (
    "inter", "inter", "inter", "intra", "replay", "replay", "forged",
    "expired", "revoked", "bad-hid", "bad-mac", "foreign", "forged-dst",
)


def _mixed_burst(build, rng, kinds, size):
    """``size`` ``(packet, egress)`` items: about 40% re-addressed as
    ingress — transit (foreign dst) or local delivery at AS 100."""
    items = []
    for _ in range(size):
        packet = build(rng.choice(kinds))
        out = rng.random() >= 0.4
        if not out:
            packet = dataclasses.replace(
                packet,
                header=dataclasses.replace(
                    packet.header, dst_aid=777 if rng.random() < 0.4 else 100
                ),
            )
        items.append((packet, out))
    return items


def _assert_counters_match(plane, router):
    """Shard counter sums (plus dispatcher transit) == single-router state."""
    stats = plane.stats()
    for reason, count in router.drops.items():
        assert stats[reason.value] == count, reason
    assert stats["forwarded_inter"] == router.forwarded_inter
    assert stats["forwarded_intra"] == router.forwarded_intra
    if router.replay_filter is not None:
        assert stats["replay_passed"] == router.replay_filter.passed
        assert stats["replay_replays"] == router.replay_filter.replays


# The ids keep the crypto-provider and state-family labels they carried
# while each had two.
@pytest.mark.parametrize(
    "nshards", SHARD_COUNTS, ids=lambda n: f"openssl-{n}-columnar"
)
class TestShardedEquivalence:
    def test_fuzzed_egress_bursts(self, nshards):
        world = _build_world(nshards)
        world.network.run_until(5.0)  # expire the crafted exp_time=1 EphID
        rng = random.Random(0x5AD + nshards)
        build, revocable = _packet_mix(world, rng)
        # The mix revokes EphIDs mid-stream; seed the initial revocation
        # before the plane snapshots so both sides start identical.
        first_host, first = revocable[0]
        world.as_a.revocations.add(first.ephid, 1e12)
        router = _reference_router(world)
        plane = ShardedDataPlane.for_assembly(world.as_a)
        try:
            # Keep the reference revocation list and the shard replicas in
            # lockstep from here on.
            world.as_a.revocations.on_add = plane.revoke_ephid
            for round_no in range(6):
                burst = [
                    build(rng.choice(KINDS)) for _ in range(rng.randint(1, 40))
                ]
                now = world.as_a.clock()
                scalar = [router.process_outgoing(p) for p in burst]
                sharded = process_packets(plane, [(p, True) for p in burst], now)
                assert sharded == scalar
                if round_no == 2:
                    # Mid-stream revocation: must reach the owning shard
                    # before the next burst.
                    _, second = revocable[1]
                    world.as_a.revocations.add(second.ephid, 1e12)
            _assert_counters_match(plane, router)
            hits = {reason for reason, n in router.drops.items() if n}
            assert {
                DropReason.SRC_FORGED, DropReason.SRC_EXPIRED,
                DropReason.SRC_REVOKED, DropReason.SRC_HID_INVALID,
                DropReason.BAD_MAC, DropReason.REPLAYED,
                DropReason.NOT_LOCAL_SOURCE, DropReason.DST_FORGED,
            } <= hits
            assert router.forwarded_inter > 0
            assert router.forwarded_intra > 0
        finally:
            world.as_a.revocations.on_add = None
            plane.close()

    def test_fuzzed_mixed_direction_bursts(self, nshards):
        """Egress and ingress interleaved in one burst, judged in arrival
        order — by the scalar loop and by the one in-process burst
        function the shards themselves run."""
        world = _build_world(nshards)
        world.network.run_until(5.0)
        rng = random.Random(0xB0B + nshards)
        build, _ = _packet_mix(world, rng)
        router = _reference_router(world)
        burst_router = _reference_router(world)
        plane = ShardedDataPlane.for_assembly(world.as_a)
        try:
            for _ in range(5):
                items = _mixed_burst(
                    build,
                    rng,
                    ("inter", "intra", "replay", "forged-dst"),
                    rng.randint(2, 32),
                )
                now = world.as_a.clock()
                reference = [
                    router.process_outgoing(packet)
                    if out
                    else router.process_incoming(packet)
                    for packet, out in items
                ]
                records = burst_router.process_burst(
                    [packet.to_wire() for packet, _ in items],
                    [out for _, out in items],
                )
                assert [verdict_of(record) for record in records] == reference
                assert process_packets(plane, items, now) == reference
            _assert_counters_match(plane, router)
            assert router.forwarded_inter > 0
        finally:
            plane.close()

    def test_replay_duplicates_straddle_shards(self, nshards):
        """The same duplicate pair, repeated across hosts on different
        shards, is flagged identically in both planes."""
        world = _build_world(nshards)
        rng = random.Random(1)
        build, _ = _packet_mix(world, rng)
        router = _reference_router(world)
        plane = ShardedDataPlane.for_assembly(world.as_a)
        try:
            firsts = [build("inter") for _ in range(nshards * 2)]
            _, shards_hit = plane.route(
                [p.to_wire() for p in firsts], [True] * len(firsts)
            )
            assert len(shards_hit) > 1  # genuinely straddles a boundary
            burst = firsts + firsts  # every packet replayed once
            now = world.as_a.clock()
            scalar = [router.process_outgoing(p) for p in burst]
            sharded = process_packets(plane, [(p, True) for p in burst], now)
            assert sharded == scalar
            assert [v.action for v in sharded[: len(firsts)]] == [
                Action.FORWARD_INTER
            ] * len(firsts)
            assert all(
                v.reason is DropReason.REPLAYED
                for v in sharded[len(firsts) :]
            )
            _assert_counters_match(plane, router)
        finally:
            plane.close()


def test_one_stream_same_verdicts_pooled_and_in_process():
    """A mixed-direction stream with replays, a revoke and a
    ``revoke_hid`` mid-stream, through a 2-shard pooled plane and through
    a plane *constructed* on an ``InProcessCarrier`` — a carrier is a
    constructor argument, not something only a degrade can install —
    must yield the same verdicts and the same summed counters."""
    world = _build_world(2)
    world.network.run_until(5.0)  # expire the crafted exp_time=1 EphID
    rng = random.Random(0xC0DE)
    build, revocable = _packet_mix(world, rng)
    as_a = world.as_a
    as_a.revocations.add(revocable[0][1].ephid, 1e12)
    victim_hid = as_a.hostdb.find_by_subscriber(
        world.hosts["erin"].subscriber_id
    ).hid

    planes = {}
    try:
        planes["pooled"] = ShardedDataPlane.for_assembly(as_a)
        planes["in-process"] = inprocess_plane(planes["pooled"], as_a)
        assert planes["in-process"].degraded is None
        for round_no in range(6):
            items = _mixed_burst(build, rng, KINDS, rng.randint(8, 40))
            now = as_a.clock()
            first, *rest = (
                process_packets(plane, items, now) for plane in planes.values()
            )
            assert all(verdicts == first for verdicts in rest)
            if round_no == 2:
                for plane in planes.values():
                    plane.revoke_ephid(revocable[1][1].ephid, 1e12)
                    plane.revoke_hid(victim_hid)
        first, *rest = (plane.stats() for plane in planes.values())
        assert all(stats == first for stats in rest)
        # The stream was worth comparing.
        for counter in (
            DropReason.REPLAYED, DropReason.SRC_REVOKED,
            DropReason.SRC_HID_INVALID, DropReason.BAD_MAC,
        ):
            assert first[counter.value] > 0, counter
        assert first["forwarded_inter"] > 0 and first["forwarded_intra"] > 0
    finally:
        for plane in planes.values():
            plane.close()
