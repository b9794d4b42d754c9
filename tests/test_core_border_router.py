"""Tests for the Fig. 4 border-router pipelines (all verdict paths)."""

import pytest

from repro.core.border_router import Action, DropReason
from repro.wire.apna import ApnaPacket, Endpoint
from tests.conftest import build_world


@pytest.fixture()
def env(world):
    alice = world.hosts["alice"]
    bob = world.hosts["bob"]
    alice_owned = alice.acquire_ephid_direct()
    bob_owned = bob.acquire_ephid_direct()
    return world, alice, bob, alice_owned, bob_owned


def make_outgoing(world, alice, alice_owned, bob_owned, payload=b"x" * 32):
    return alice.stack.make_packet(
        alice_owned.ephid, Endpoint(200, bob_owned.ephid), payload
    )


class TestOutgoing:
    def test_valid_packet_forwarded_inter(self, env):
        world, alice, bob, alice_owned, bob_owned = env
        packet = make_outgoing(world, alice, alice_owned, bob_owned)
        verdict = world.as_a.br.process_outgoing(packet)
        assert verdict.action is Action.FORWARD_INTER
        assert verdict.next_aid == 200
        assert world.as_a.br.forwarded_inter == 1

    def test_foreign_source_aid_dropped(self, env):
        world, alice, bob, alice_owned, bob_owned = env
        packet = make_outgoing(world, alice, alice_owned, bob_owned)
        verdict = world.as_b.br.process_outgoing(packet)  # wrong AS
        assert verdict.dropped
        assert verdict.reason is DropReason.NOT_LOCAL_SOURCE

    def test_forged_source_ephid_dropped(self, env):
        world, alice, bob, alice_owned, bob_owned = env
        packet = make_outgoing(world, alice, alice_owned, bob_owned)
        from dataclasses import replace

        forged = ApnaPacket(
            replace(packet.header, src_ephid=bytes(16)), packet.payload
        )
        verdict = world.as_a.br.process_outgoing(forged)
        assert verdict.reason is DropReason.SRC_FORGED

    def test_expired_source_ephid_dropped(self, env):
        world, alice, bob, alice_owned, bob_owned = env
        record = world.as_a.hostdb.find_by_subscriber(alice.subscriber_id)
        stale = world.as_a.codec.seal(
            hid=record.hid, exp_time=5, iv=world.as_a.ivs.next_iv()
        )
        world.network.run_until(10.0)
        packet = alice.stack.make_packet(stale, Endpoint(200, bob_owned.ephid), b"p")
        verdict = world.as_a.br.process_outgoing(packet)
        assert verdict.reason is DropReason.SRC_EXPIRED

    def test_revoked_source_ephid_dropped(self, env):
        world, alice, bob, alice_owned, bob_owned = env
        world.as_a.revocations.add(alice_owned.ephid, alice_owned.exp_time)
        packet = make_outgoing(world, alice, alice_owned, bob_owned)
        verdict = world.as_a.br.process_outgoing(packet)
        assert verdict.reason is DropReason.SRC_REVOKED

    def test_revoked_hid_dropped(self, env):
        world, alice, bob, alice_owned, bob_owned = env
        record = world.as_a.hostdb.find_by_subscriber(alice.subscriber_id)
        world.as_a.hostdb.revoke_hid(record.hid)
        packet = make_outgoing(world, alice, alice_owned, bob_owned)
        verdict = world.as_a.br.process_outgoing(packet)
        assert verdict.reason is DropReason.SRC_HID_INVALID

    def test_bad_mac_dropped(self, env):
        # EphID spoofing (Section VI-A): a valid stolen EphID is useless
        # without kHA, because the per-packet MAC will not verify.
        world, alice, bob, alice_owned, bob_owned = env
        packet = make_outgoing(world, alice, alice_owned, bob_owned)
        forged = ApnaPacket(packet.header.with_mac(bytes(8)), packet.payload)
        verdict = world.as_a.br.process_outgoing(forged)
        assert verdict.reason is DropReason.BAD_MAC

    def test_payload_tamper_invalidates_mac(self, env):
        world, alice, bob, alice_owned, bob_owned = env
        packet = make_outgoing(world, alice, alice_owned, bob_owned)
        tampered = ApnaPacket(packet.header, packet.payload[:-1] + b"\x00")
        verdict = world.as_a.br.process_outgoing(tampered)
        assert verdict.reason is DropReason.BAD_MAC

    def test_intra_as_packet_delivered_locally(self, world):
        # Both endpoints in AS-A: egress runs destination checks too.
        carol = world.as_a.attach_host("carol")
        carol.bootstrap()
        alice = world.hosts["alice"]
        alice_owned = alice.acquire_ephid_direct()
        carol_owned = carol.acquire_ephid_direct()
        packet = alice.stack.make_packet(
            alice_owned.ephid, Endpoint(100, carol_owned.ephid), b"local"
        )
        verdict = world.as_a.br.process_outgoing(packet)
        assert verdict.action is Action.FORWARD_INTRA
        record = world.as_a.hostdb.find_by_subscriber(carol.subscriber_id)
        assert verdict.hid == record.hid


class TestIncoming:
    def test_transit_forwarded_by_aid(self, env):
        world, alice, bob, alice_owned, bob_owned = env
        packet = make_outgoing(world, alice, alice_owned, bob_owned)
        # AS 300 is not the destination: pure transit, no crypto checks.
        from repro.core.autonomous_system import ApnaAutonomousSystem

        as_c = ApnaAutonomousSystem(300, world.network, world.rpki, world.anchor, rng=world.rng)
        verdict = as_c.br.process_incoming(packet)
        assert verdict.action is Action.FORWARD_INTER
        assert verdict.next_aid == 200

    def test_delivery_at_destination(self, env):
        world, alice, bob, alice_owned, bob_owned = env
        packet = make_outgoing(world, alice, alice_owned, bob_owned)
        verdict = world.as_b.br.process_incoming(packet)
        assert verdict.action is Action.FORWARD_INTRA
        record = world.as_b.hostdb.find_by_subscriber(bob.subscriber_id)
        assert verdict.hid == record.hid

    def test_forged_destination_dropped(self, env):
        world, alice, bob, alice_owned, bob_owned = env
        packet = alice.stack.make_packet(
            alice_owned.ephid, Endpoint(200, bytes(16)), b"p"
        )
        verdict = world.as_b.br.process_incoming(packet)
        assert verdict.reason is DropReason.DST_FORGED

    def test_expired_destination_dropped(self, env):
        world, alice, bob, alice_owned, bob_owned = env
        record = world.as_b.hostdb.find_by_subscriber(bob.subscriber_id)
        stale = world.as_b.codec.seal(
            hid=record.hid, exp_time=5, iv=world.as_b.ivs.next_iv()
        )
        world.network.run_until(10.0)
        packet = alice.stack.make_packet(alice_owned.ephid, Endpoint(200, stale), b"p")
        verdict = world.as_b.br.process_incoming(packet)
        assert verdict.reason is DropReason.DST_EXPIRED

    def test_revoked_destination_dropped(self, env):
        world, alice, bob, alice_owned, bob_owned = env
        world.as_b.revocations.add(bob_owned.ephid, bob_owned.exp_time)
        packet = make_outgoing(world, alice, alice_owned, bob_owned)
        verdict = world.as_b.br.process_incoming(packet)
        assert verdict.reason is DropReason.DST_REVOKED

    def test_revoked_destination_hid_dropped(self, env):
        world, alice, bob, alice_owned, bob_owned = env
        record = world.as_b.hostdb.find_by_subscriber(bob.subscriber_id)
        world.as_b.hostdb.revoke_hid(record.hid)
        packet = make_outgoing(world, alice, alice_owned, bob_owned)
        verdict = world.as_b.br.process_incoming(packet)
        assert verdict.reason is DropReason.DST_HID_INVALID


class TestStats:
    def test_drop_counts_accumulate(self, env):
        world, alice, bob, alice_owned, bob_owned = env
        packet = make_outgoing(world, alice, alice_owned, bob_owned)
        forged = ApnaPacket(packet.header.with_mac(bytes(8)), packet.payload)
        for _ in range(3):
            world.as_a.br.process_outgoing(forged)
        assert world.as_a.br.drops[DropReason.BAD_MAC] == 3

    def test_expired_revocations_pruned_on_processing(self, env):
        world, alice, bob, alice_owned, bob_owned = env
        world.as_a.revocations.add(b"\x01" * 16, 5.0)
        assert len(world.as_a.revocations) == 1
        world.network.run_until(10.0)
        packet = make_outgoing(world, alice, alice_owned, bob_owned)
        world.as_a.br.process_outgoing(packet)
        assert len(world.as_a.revocations) == 0


def test_router_refuses_any_other_mac_width():
    """One Fig. 7 MAC width: the keyword survives only for ``bench/``."""
    from repro.core.border_router import BorderRouter
    from repro.core.ephid import EphIdCodec
    from repro.core.hostdb import HostDatabase
    from repro.core.revocation import RevocationList

    codec = EphIdCodec(b"\x01" * 16, b"\x02" * 16)
    with pytest.raises(ValueError, match="Fig. 7 MAC"):
        BorderRouter(100, codec, HostDatabase(), RevocationList(), float, packet_mac_size=4)
