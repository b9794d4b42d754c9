"""Tests for hostdb, revocation management, infra bus, messages and
granularity policies."""

import pytest

from repro.core.errors import MacError, RevokedError, UnknownHostError
from repro.core.granularity import (
    FlowKey,
    PerApplicationPolicy,
    PerFlowPolicy,
    PerHostPolicy,
    PerPacketPolicy,
    make_policy,
)
from repro.core.hostdb import FIRST_HOST_HID, HostDatabase, HostRecord
from repro.core.infrabus import InfraBus
from repro.core.keys import AsSecret, HostAsKeys
from repro.core.messages import (
    BootstrapRequest,
    EphIdRequest,
    InfraUpdate,
    MessageError,
    RevocationPush,
    ShutoffResponse,
)
from repro.core.revocation import RevocationList, RevocationPolicy
from repro.crypto.rng import DeterministicRng


def make_keys(seed=1):
    rng = DeterministicRng(seed)
    return HostAsKeys(rng.read(16), rng.read(16))


class TestHostDatabase:
    def test_register_and_get(self):
        db = HostDatabase()
        hid = db.allocate_hid()
        assert hid == FIRST_HOST_HID
        db.register(HostRecord(hid=hid, keys=make_keys()))
        assert db.get(hid).hid == hid
        assert hid in db
        assert len(db) == 1

    def test_unknown_hid(self):
        db = HostDatabase()
        with pytest.raises(UnknownHostError):
            db.get(12345)
        assert not db.is_valid(12345)

    def test_revoked_hid(self):
        db = HostDatabase()
        hid = db.allocate_hid()
        db.register(HostRecord(hid=hid, keys=make_keys()))
        db.revoke_hid(hid)
        with pytest.raises(RevokedError):
            db.get(hid)
        assert not db.is_valid(hid)
        assert len(db) == 0
        assert len(list(db.records())) == 1

    def test_duplicate_registration_rejected(self):
        db = HostDatabase()
        hid = db.allocate_hid()
        db.register(HostRecord(hid=hid, keys=make_keys()))
        with pytest.raises(UnknownHostError):
            db.register(HostRecord(hid=hid, keys=make_keys()))

    def test_hids_never_reused(self):
        db = HostDatabase()
        a = db.allocate_hid()
        b = db.allocate_hid()
        assert a != b

    def test_find_by_subscriber(self):
        db = HostDatabase()
        hid = db.allocate_hid()
        db.register(HostRecord(hid=hid, keys=make_keys(), subscriber_id=77))
        assert db.find_by_subscriber(77).hid == hid
        assert db.find_by_subscriber(78) is None
        db.revoke_hid(hid)
        assert db.find_by_subscriber(77) is None

    def test_find_by_subscriber_after_rebootstrap(self):
        # The registry revokes the old HID and registers a fresh one when
        # a subscriber re-bootstraps; the index must follow the new HID.
        db = HostDatabase()
        old = db.allocate_hid()
        db.register(HostRecord(hid=old, keys=make_keys(), subscriber_id=77))
        db.revoke_hid(old)
        new = db.allocate_hid()
        db.register(HostRecord(hid=new, keys=make_keys(2), subscriber_id=77))
        assert db.find_by_subscriber(77).hid == new

    def test_second_live_record_for_subscriber_rejected(self):
        # The index relies on the one-live-HID-per-host invariant; a
        # second live registration must be refused, not silently shadow
        # the first (the registry revokes the old HID before re-enrolling).
        db = HostDatabase()
        first = db.allocate_hid()
        db.register(HostRecord(hid=first, keys=make_keys(), subscriber_id=9))
        second = db.allocate_hid()
        with pytest.raises(UnknownHostError, match="already has live"):
            db.register(
                HostRecord(hid=second, keys=make_keys(2), subscriber_id=9)
            )
        assert db.find_by_subscriber(9).hid == first
        assert second not in db  # the rejected record was not registered

    def test_find_by_subscriber_is_indexed(self):
        # The lookup must not scan: register many, then check the index
        # content directly.
        db = HostDatabase()
        for sub in range(100):
            hid = db.allocate_hid()
            db.register(
                HostRecord(hid=hid, keys=make_keys(sub), subscriber_id=sub)
            )
        assert len(db._by_subscriber) == 100
        assert db.find_by_subscriber(42).subscriber_id == 42
        db.revoke_hid(db.find_by_subscriber(42).hid)
        assert 42 not in db._by_subscriber


class TestRevocationList:
    def test_add_contains(self):
        revs = RevocationList()
        revs.add(b"\x01" * 16, 100.0)
        assert revs.contains(b"\x01" * 16)
        assert b"\x01" * 16 in revs
        assert len(revs) == 1

    def test_duplicate_add_is_noop(self):
        revs = RevocationList()
        revs.add(b"\x01" * 16, 100.0)
        revs.add(b"\x01" * 16, 100.0)
        assert len(revs) == 1
        assert revs.total_added == 1

    def test_prune_removes_expired(self):
        revs = RevocationList()
        for i in range(10):
            revs.add(bytes([i]) * 16, float(i))
        assert revs.prune(now=5.0) == 5  # exp_times 0..4 are < 5
        assert len(revs) == 5
        assert not revs.contains(bytes([0]) * 16)
        assert revs.contains(bytes([9]) * 16)

    def test_auto_prune_flag(self):
        revs = RevocationList(auto_prune=False)
        revs.add(b"\x01" * 16, 1.0)
        assert revs.maybe_prune(now=100.0) == 0
        assert len(revs) == 1
        revs.auto_prune = True
        assert revs.maybe_prune(now=100.0) == 1


class TestRevocationPolicy:
    def test_threshold_trips(self):
        tripped = []
        policy = RevocationPolicy(3, on_hid_revoked=tripped.append)
        assert not policy.record(7)
        assert not policy.record(7)
        assert policy.record(7)
        assert tripped == [7]
        assert policy.count(7) == 3

    def test_counters_are_per_hid(self):
        policy = RevocationPolicy(2)
        policy.record(1)
        assert not policy.record(2)
        assert policy.record(1)

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            RevocationPolicy(0)


class TestInfraBus:
    def make_bus(self):
        secret = AsSecret.generate(DeterministicRng(9))
        return InfraBus(secret), secret

    def test_host_update_distributes(self):
        bus, _ = self.make_bus()
        seen = []
        bus.tap(lambda kind, data: seen.append(data))
        keys = make_keys()
        bus.publish_host_update(
            InfraUpdate(hid=0x10000, control_key=keys.control, packet_mac_key=keys.packet_mac)
        )
        # Sealed on the bus, verified on delivery.
        (sealed,) = seen
        assert keys.packet_mac not in sealed and keys.control not in sealed
        assert (bus.updates_sent, bus.updates_rejected) == (1, 0)

    def test_tampered_host_update_rejected(self):
        bus, _ = self.make_bus()
        keys = make_keys()
        sealed = bytearray(
            bus.seal_host_update(
                InfraUpdate(0x10000, keys.control, keys.packet_mac)
            )
        )
        sealed[20] ^= 0xFF
        with pytest.raises(MacError):
            bus.deliver_host_update(bytes(sealed))
        assert (bus.updates_sent, bus.updates_rejected) == (0, 1)

    def test_update_from_wrong_as_rejected(self):
        bus_a, _ = self.make_bus()
        bus_b = InfraBus(AsSecret.generate(DeterministicRng(10)))
        keys = make_keys()
        sealed = bus_a.seal_host_update(InfraUpdate(0x10000, keys.control, keys.packet_mac))
        with pytest.raises(MacError):
            bus_b.deliver_host_update(sealed)

    def test_revocation_push_distributes(self):
        bus, _ = self.make_bus()
        revs = RevocationList()
        bus.subscribe_revocations(revs)
        bus.publish_revocation(b"\x05" * 16, 500)
        assert revs.contains(b"\x05" * 16)

    def test_tampered_revocation_rejected(self):
        bus, _ = self.make_bus()
        revs = RevocationList()
        bus.subscribe_revocations(revs)
        wire = bytearray(bus.seal_revocation(b"\x05" * 16, 500))
        wire[0] ^= 0x01
        with pytest.raises(MacError):
            bus.deliver_revocation(bytes(wire))
        assert len(revs) == 0

    def test_tap_sees_traffic(self):
        bus, _ = self.make_bus()
        seen = []
        bus.tap(lambda kind, data: seen.append(kind))
        keys = make_keys()
        bus.publish_host_update(InfraUpdate(0x10000, keys.control, keys.packet_mac))
        bus.publish_revocation(b"\x05" * 16, 1)
        assert seen == ["m1", "revoke"]


class TestMessageFormats:
    def test_bootstrap_request_roundtrip(self):
        msg = BootstrapRequest(subscriber_id=7, host_public=bytes(32), proof=bytes(32))
        assert BootstrapRequest.parse(msg.pack()) == msg

    def test_ephid_request_roundtrip(self):
        msg = EphIdRequest(dh_public=bytes(32), sig_public=b"\x01" * 32, flags=1, lifetime=60.0)
        assert EphIdRequest.parse(msg.pack()) == msg

    def test_infra_update_roundtrip(self):
        msg = InfraUpdate(hid=99, control_key=bytes(16), packet_mac_key=b"\x02" * 16)
        assert InfraUpdate.parse(msg.pack()) == msg

    def test_shutoff_response_roundtrip(self):
        msg = ShutoffResponse(accepted=False, reason="no particular reason")
        assert ShutoffResponse.parse(msg.pack()) == msg

    def test_revocation_push_roundtrip(self):
        msg = RevocationPush(ephid=bytes(16), exp_time=12345, mac=b"\x01" * 8)
        assert RevocationPush.parse(msg.pack()) == msg

    def test_truncation_raises(self):
        msg = BootstrapRequest(subscriber_id=7, host_public=bytes(32), proof=bytes(32))
        with pytest.raises(MessageError):
            BootstrapRequest.parse(msg.pack()[:-5])


class TestGranularityPolicies:
    def make_requester(self, world):
        alice = world.hosts["alice"]
        return lambda flags, lifetime: alice.acquire_ephid_direct(flags, lifetime)

    def test_per_host_reuses_one_ephid(self, world):
        policy = PerHostPolicy(self.make_requester(world), world.network.scheduler.clock())
        flow1 = FlowKey(200, b"\x01" * 16, 1, 80)
        flow2 = FlowKey(200, b"\x02" * 16, 2, 443)
        assert policy.ephid_for(flow1).ephid == policy.ephid_for(flow2).ephid
        assert policy.requests_made == 1

    def test_per_flow_distinct_per_flow(self, world):
        policy = PerFlowPolicy(self.make_requester(world), world.network.scheduler.clock())
        flow1 = FlowKey(200, b"\x01" * 16, 1, 80)
        flow2 = FlowKey(200, b"\x02" * 16, 2, 443)
        a = policy.ephid_for(flow1)
        b = policy.ephid_for(flow2)
        assert a.ephid != b.ephid
        assert policy.ephid_for(flow1).ephid == a.ephid  # stable per flow
        assert policy.requests_made == 2

    def test_per_flow_requires_flow(self, world):
        policy = PerFlowPolicy(self.make_requester(world), world.network.scheduler.clock())
        with pytest.raises(ValueError):
            policy.ephid_for()

    def test_per_application(self, world):
        policy = PerApplicationPolicy(
            self.make_requester(world), world.network.scheduler.clock()
        )
        a = policy.ephid_for(app="browser")
        b = policy.ephid_for(app="mail")
        assert a.ephid != b.ephid
        assert policy.ephid_for(app="browser").ephid == a.ephid
        with pytest.raises(ValueError):
            policy.ephid_for()

    def test_per_packet_always_fresh(self, world):
        policy = PerPacketPolicy(self.make_requester(world), world.network.scheduler.clock())
        ephids = {policy.ephid_for().ephid for _ in range(5)}
        assert len(ephids) == 5
        assert policy.requests_made == 5

    def test_expired_ephid_replaced(self, world):
        policy = PerHostPolicy(self.make_requester(world), world.network.scheduler.clock())
        first = policy.ephid_for()
        world.network.run_until(world.config.data_ephid_lifetime + 10)
        second = policy.ephid_for()
        assert first.ephid != second.ephid

    def test_make_policy_factory(self, world):
        requester = self.make_requester(world)
        clock = world.network.scheduler.clock()
        assert make_policy("per-host", requester, clock).name == "per-host"
        assert make_policy("per-flow", requester, clock).name == "per-flow"
        with pytest.raises(ValueError):
            make_policy("per-galaxy", requester, clock)
