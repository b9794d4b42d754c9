"""The sharded data plane: plan, wire protocol, pool lifecycle, world
integration and the sharded E1 issuance runner.

Everything here is sized for the tier-1 pass: shard counts are clamped
to 2, bursts are small, and nothing asserts wall-clock speedups — the
worker processes are exercised for *correctness* on any core count (the
throughput claims are the sharded workloads of ``bench/run.py``).  A
single lenient scaling sanity check runs only on multi-core hosts.
"""

import os
from types import SimpleNamespace

import pytest

from repro.core import ephid as ephid_module
from repro.core import verdict as verdict_module
from repro.core.border_router import Action, DropReason, Verdict
from repro.core.config import ApnaConfig
from repro.core.ephid import IvAllocator
from repro.core.errors import RevokedError, UnknownHostError
from repro.core.hostdb import FIRST_HOST_HID
from repro.core.keys import HostAsKeys
from repro.crypto.cmac import Cmac
from repro.sharding import (
    ShardError,
    ShardPlan,
    ShardedDataPlane,
    SupervisorPolicy,
    split_requests,
)
from repro.sharding import wire
from repro.sharding.pool import InProcessCarrier
from repro.state import ColumnarShardView
from repro.topology import WorldBuilder
from repro.wire.apna import SRC_EPHID_FIELD, ApnaPacket
from repro.workload import TrafficProfile
from repro.workload.packets import build_apna_pool

from tests.conftest import inprocess_plane, process_packets

#: Tier-1 worlds always use two shards — enough to cross a shard
#: boundary, cheap enough for the 1-CPU CI container.
TIER1_SHARDS = 2

#: A fixed kR for plan-level tests (worlds derive theirs from the AS
#: secret).
_KR = bytes(range(16))


class TestShardPlan:
    def test_service_hids_live_on_shard_zero(self):
        plan = ShardPlan(4)
        assert {plan.owner_of(hid) for hid in range(1, 6)} == {0}

    def test_round_robin_over_host_hids(self):
        plan = ShardPlan(3)
        owners = [plan.owner_of(FIRST_HOST_HID + i) for i in range(6)]
        assert owners == [0, 1, 2, 0, 1, 2]

    def test_contiguous_blocks(self):
        plan = ShardPlan(2, block=3)
        owners = [plan.owner_of(FIRST_HOST_HID + i) for i in range(8)]
        assert owners == [0, 0, 0, 1, 1, 1, 0, 0]

    def test_keyed_mode_routes_by_prf_not_residue(self):
        plan = ShardPlan(3, key=_KR)
        ivs = list(range(64))
        owners = [plan.owner_of_iv(iv) for iv in ivs]
        for iv, owner in zip(ivs, owners):
            ephid = bytes(8) + iv.to_bytes(4, "big") + bytes(4)
            assert plan.shard_of_ephid(ephid) == owner
            assert plan.owner_of_iv_bytes(iv.to_bytes(4, "big")) == owner
        # The bulk burst entry point agrees element-for-element.
        assert (
            plan.owners_of_iv_bytes([iv.to_bytes(4, "big") for iv in ivs])
            == owners
        )
        # The keyed map is not the public residue map, and it actually
        # spreads load over every shard.
        assert owners != [iv % 3 for iv in ivs]
        assert set(owners) == {0, 1, 2}

    def test_keyed_map_depends_on_kr(self):
        ivs = [iv.to_bytes(4, "big") for iv in range(128)]
        assert ShardPlan(4, key=_KR).owners_of_iv_bytes(ivs) != ShardPlan(
            4, key=bytes(16)
        ).owners_of_iv_bytes(ivs)

    def test_keyed_map_is_cmac(self):
        """The routing PRF is genuine AES-CMAC over the IV bytes: the
        RoutingKey single-AES-block shortcut (a 4-byte message is one
        incomplete CMAC block) must stay bit-identical to the generic
        CMAC, scalar and bulk."""
        from repro.crypto.cmac import Cmac

        cmac = Cmac(_KR)
        plan = ShardPlan(5, key=_KR)
        ivs = [iv.to_bytes(4, "big") for iv in (0, 1, 7, 2**31, 2**32 - 1)]
        expected = [
            int.from_bytes(cmac.tag(iv, 8), "big") % 5 for iv in ivs
        ]
        assert [plan.owner_of_iv_bytes(iv) for iv in ivs] == expected
        assert plan.owners_of_iv_bytes(ivs) == expected

    def test_keyed_routing_requires_kr(self):
        plan = ShardPlan(2)  # legal: ownership-only uses need no key
        assert plan.owner_of(FIRST_HOST_HID) == 0
        with pytest.raises(ValueError):
            plan.owner_of_iv(5)
        with pytest.raises(ValueError):
            plan.validate_routing()
        # A single shard routes trivially, key or not.
        assert ShardPlan(1).validate_routing().owner_of_iv(5) == 0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ShardPlan(0)
        with pytest.raises(ValueError):
            ShardPlan(2, block=0)
        with pytest.raises(ValueError):
            ShardPlan(2, key=b"short")


class TestPinnedIvAllocation:
    def test_pinning_matches_plan_owner(self):
        plan = ShardPlan(3, key=_KR)
        alloc = IvAllocator(start=12345, plan=plan)
        for hid in range(FIRST_HOST_HID, FIRST_HOST_HID + 9):
            iv = alloc.next_iv_for(hid)
            assert plan.owner_of_iv(iv) == plan.owner_of(hid)

    def test_pinned_ivs_stay_unique(self):
        alloc = IvAllocator(start=7, plan=ShardPlan(2, key=_KR))
        ivs = [
            alloc.next_iv_for(FIRST_HOST_HID + (i % 4)) for i in range(200)
        ]
        assert len(set(ivs)) == len(ivs)
        assert alloc.issued == 200

    def test_skewed_draw_banks_a_bounded_surplus(self):
        """One HID drawing thousands of IVs (the per-packet policy) used
        to bank about as many candidates for *each* idle shard, without
        limit; the surplus is capped and the overflow never issued."""
        plan = ShardPlan(4, key=_KR)
        alloc = IvAllocator(start=0xBEEF, plan=plan)
        hid = FIRST_HOST_HID + 1
        draws = 4 * ephid_module.BANKED_IVS_PER_SHARD
        ivs = [alloc.next_iv_for(hid) for _ in range(draws)]
        assert len(set(ivs)) == draws
        assert set(plan.owners_of_iv_bytes([iv.to_bytes(4, "big") for iv in ivs])) == {
            plan.owner_of(hid)
        }
        banked = {shard: len(bucket) for shard, bucket in alloc._buckets.items()}
        assert max(banked.values()) == ephid_module.BANKED_IVS_PER_SHARD
        # The idle shards' banked IVs are still good: unique and pinned.
        other = next(
            h for h in range(FIRST_HOST_HID, FIRST_HOST_HID + 8)
            if plan.owner_of(h) != plan.owner_of(hid)
        )
        late = alloc.next_iv_for(other)
        assert late not in ivs and plan.owner_of_iv(late) == plan.owner_of(other)

    def test_unpinned_allocator_unchanged_by_hid_api(self):
        a = IvAllocator(start=99)
        b = IvAllocator(start=99)
        assert [a.next_iv() for _ in range(5)] == [
            b.next_iv_for(FIRST_HOST_HID + i) for i in range(5)
        ]

    def test_mixed_use_accounting_is_exact(self):
        plan = ShardPlan(3, key=_KR)
        alloc = IvAllocator(start=5, plan=plan)
        unattributed = [alloc.next_iv() for _ in range(4)]
        for hid in range(FIRST_HOST_HID, FIRST_HOST_HID + 6):
            alloc.next_iv_for(hid)
        # HID-less draws land on shard 0 (where all service HIDs live)
        # and are tallied both there and as unattributed.
        assert all(plan.owner_of_iv(iv) == 0 for iv in unattributed)
        assert alloc.issued == 10
        assert alloc.issued_unattributed == 4
        by_shard = alloc.issued_by_shard
        assert sum(by_shard.values()) == 10
        assert by_shard[0] >= 4


class TestDispatcherObserverLinkage:
    """The closed leak, from the on-path observer's seat.

    An observer sees only the EphID's four clear IV bytes.  Under an
    unkeyed residue map (the positive control, defined here — the
    library has no such mode), two EphIDs of the same host *always*
    share ``iv % nshards`` — a perfect linkage oracle.  Under the keyed
    map the same statistic must behave like chance (≈ 1/nshards
    agreement), even though the AS-internal map still pins both EphIDs
    to the same owner shard.
    """

    class _ResiduePlan(ShardPlan):
        def owners_of_iv_bytes(self, iv_columns):
            return [int.from_bytes(iv, "big") % self.nshards for iv in iv_columns]

    NSHARDS = 4
    HOSTS = 120

    def _iv_pairs(self, plan):
        alloc = IvAllocator(start=0xACE5, plan=plan)
        hids = range(FIRST_HOST_HID, FIRST_HOST_HID + self.HOSTS)
        return [(hid, alloc.next_iv_for(hid), alloc.next_iv_for(hid)) for hid in hids]

    def test_residue_mode_is_a_linkage_oracle(self):
        pairs = self._iv_pairs(self._ResiduePlan(self.NSHARDS))
        matches = sum(1 for _, a, b in pairs if a % self.NSHARDS == b % self.NSHARDS)
        assert matches == len(pairs)  # the leak: 100% linkable

    def test_keyed_mode_leaks_nothing_beyond_chance(self):
        plan = ShardPlan(self.NSHARDS, key=_KR)
        pairs = self._iv_pairs(plan)
        # The observer's best public statistic on two clear IVs.
        matches = sum(1 for _, a, b in pairs if a % self.NSHARDS == b % self.NSHARDS)
        # Expected 1/nshards = 25%; anything approaching certainty means
        # the clear bytes correlate with the host again.  120 pairs put
        # chance-level agreement far below 50%.
        assert matches / len(pairs) < 0.5
        # And yet the AS-internal map still pins both EphIDs of a host
        # to its owner shard — routing works, only the observer lost.
        for hid, a, b in pairs:
            assert plan.owner_of_iv(a) == plan.owner_of_iv(b) == plan.owner_of(hid)


class TestWireCodecs:
    def test_burst_roundtrip(self):
        frames = [b"\x01" * 48, b"\x02" * 56, b""]
        directions = [wire.EGRESS, wire.INGRESS, wire.EGRESS]
        now, seq, out_frames, out_dirs = wire.decode_burst(
            wire.encode_burst(12.5, 41, frames, directions)
        )
        assert (now, seq, out_frames, out_dirs) == (12.5, 41, frames, directions)

    def test_verdict_roundtrip(self):
        verdicts = [
            Verdict(Action.FORWARD_INTER, next_aid=200),
            Verdict(Action.FORWARD_INTRA, hid=FIRST_HOST_HID),
            Verdict(Action.DROP, reason=DropReason.BAD_MAC),
            Verdict(Action.DROP, reason=DropReason.REPLAYED),
            # The full u32 range is legal for AIDs and HIDs: the extreme
            # values must survive (no in-band None sentinel).
            Verdict(Action.FORWARD_INTER, next_aid=2**32 - 1),
            Verdict(Action.FORWARD_INTRA, hid=2**32 - 1),
            Verdict(Action.FORWARD_INTRA, hid=0),
        ]
        # The echoed burst seq rides every verdict reply (duplicate and
        # stale-reply detection); it must round-trip alongside — out of
        # an empty intern table and again out of the one that filled.
        verdict_module._VERDICT_TABLE.clear()
        msg = wire.encode_verdicts(7, verdicts)
        cold = wire.decode_verdicts(msg)
        warm = wire.decode_verdicts(msg)
        assert cold == warm == (7, verdicts)
        assert all(a is b for a, b in zip(cold[1], warm[1]))

    def test_control_roundtrips(self):
        ephid = bytes(range(16))
        assert wire.decode_revoke_ephid(
            wire.encode_revoke_ephid(ephid, 900.0)
        ) == (ephid, 900.0)
        assert wire.decode_revoke_hid(wire.encode_revoke_hid(77)) == 77
        hid, owned, control, mac = wire.decode_register_host(
            wire.encode_register_host(
                9, owned=True, control=b"c" * 16, packet_mac=b"m" * 16
            )
        )
        assert (hid, owned, control, mac) == (9, True, b"c" * 16, b"m" * 16)
        # Non-owner announcements must not carry key material.
        _, owned, control, mac = wire.decode_register_host(
            wire.encode_register_host(
                9, owned=False, control=b"c" * 16, packet_mac=b"m" * 16
            )
        )
        assert not owned and control == bytes(16) and mac == bytes(16)

    def test_stats_roundtrip(self):
        counters = {field: i for i, field in enumerate(wire.STATS_FIELDS)}
        assert wire.decode_stats(wire.encode_stats(counters)) == counters

    def test_no_module_level_table_grows_with_burst_size(self):
        """The bulk route and the burst codec keep nothing per sub-burst
        size: ``sharding/plan.py`` used to hold one compiled ``Struct``
        per distinct size forever, and ``BorderRouterNode``'s flush timer
        drains bursts of any size up to 65 535 frames a shard."""
        from repro.sharding import plan as plan_module

        def tables():
            return {
                (module.__name__, name): len(value)
                for module in (plan_module, wire)
                for name, value in vars(module).items()
                if isinstance(value, dict) and not name.startswith("__")
            }

        plan = ShardPlan(3, key=_KR)
        before = tables()
        for size in range(1, 301):
            ivs = [(size * 1009 + i).to_bytes(4, "big") for i in range(size)]
            owners = plan.owners_of_iv_bytes(ivs)
            assert len(owners) == size
            assert owners[-1] == plan.owner_of_iv_bytes(ivs[-1])
            frames = [bytes([i % 251]) * (i % 7) for i in range(size)]
            directions = [i % 2 for i in range(size)]
            assert wire.decode_burst(
                wire.encode_burst(0.5, size, frames, directions)
            ) == (0.5, size, frames, directions)
        assert tables() == before


class TestShardHostView:
    """The worker's host view (``ColumnarShardView``; the class keeps the
    name its ids were first collected under)."""

    def test_owned_vs_replicated_split(self):
        view = ColumnarShardView(shard=0, nshards=1)
        view.add_owned(10, b"c" * 16, b"m" * 16)
        view.set_live(11)
        assert view.is_valid(10) and view.is_valid(11)
        assert view.get(10).keys.packet_mac == b"m" * 16
        with pytest.raises(UnknownHostError):
            view.get(11)  # liveness replicated, keys not owned here

    def test_revoke(self):
        view = ColumnarShardView(shard=0, nshards=1)
        view.add_owned(10, b"c" * 16, b"m" * 16)
        view.revoke(10)
        assert not view.is_valid(10)
        with pytest.raises(RevokedError):
            view.get(10)


def build_sharded_world(*, seed=21, hosts=4, batch_size=8, shards=TIER1_SHARDS):
    builder = (
        WorldBuilder(
            seed=seed,
            config=ApnaConfig(
                forwarding_shards=shards, forwarding_batch_size=batch_size
            ),
        )
        .asys("a", aid=100)
        .asys("b", aid=200)
        .link("a", "b")
    )
    for i in range(hosts):
        builder.host(f"a{i}", at="a")
        builder.host(f"b{i}", at="b")
    return builder.build()


class TestSharded2ShardWorld:
    """The tier-1 sharded arm: a 2-shard world carrying real traffic."""

    def test_world_spawns_and_closes_pools(self):
        world = build_sharded_world(hosts=2)
        try:
            for name in ("a", "b"):
                pool = world.asys(name).shard_pool
                assert pool is not None and not pool.closed
                assert pool.nshards == TIER1_SHARDS
        finally:
            world.close()
        assert world.asys("a").shard_pool is None
        world.close()  # idempotent

    def test_traffic_flows_through_the_pool(self):
        with build_sharded_world(hosts=4) as world:
            report = TrafficProfile(clients=4, servers=2, max_flows=24).drive(world)
            assert report.payloads_delivered == report.flows_offered
            stats = world.asys("a").shard_pool.stats()
            # Data-plane verdicts really came from the workers.
            assert stats["forwarded_inter"] + stats["forwarded_intra"] > 0
            per_shard = world.asys("a").shard_pool.shard_stats()
            busy = [
                s
                for s in per_shard
                if s["forwarded_inter"] + s["forwarded_intra"] > 0
            ]
            # With 4 hosts round-robin over 2 shards, both shards work.
            assert len(busy) == TIER1_SHARDS

    def test_host_attached_after_build_is_reachable(self):
        with build_sharded_world(hosts=2) as world:
            late = world.attach_host("late", at="a")
            server = world.host("b0")
            serving = server.acquire_ephid_direct()
            session = late.connect(serving.cert, early_data=b"hello late")
            world.run()
            assert session is not None
            assert any(data == b"hello late" for _, _, data in server.inbox)

    def test_revocation_reaches_shards_before_next_burst(self):
        with build_sharded_world(hosts=2) as world:
            as_a = world.asys("a")
            client = world.host("a0")
            server = world.host("b0")
            serving = server.acquire_ephid_direct()
            src = client.acquire_ephid_direct()
            client.connect(serving.cert, early_data=b"ok", src_owned=src)
            world.run()
            before = as_a.shard_pool.stats()
            # Revoke through the assembly's list: the on_add hook must
            # broadcast to every worker before any later burst.
            as_a.revocations.add(src.ephid, 1e12)
            client.send_data(
                client.sessions[(src.ephid, serving.cert.ephid)], b"again"
            )
            world.run()
            after = as_a.shard_pool.stats()
            assert (
                after[DropReason.SRC_REVOKED.value]
                == before[DropReason.SRC_REVOKED.value] + 1
            )

    def test_hid_revocation_propagates(self):
        with build_sharded_world(hosts=2) as world:
            as_a = world.asys("a")
            client = world.host("a0")
            server = world.host("b0")
            serving = server.acquire_ephid_direct()
            src = client.acquire_ephid_direct()
            client.connect(serving.cert, early_data=b"ok", src_owned=src)
            world.run()
            record = as_a.hostdb.find_by_subscriber(client.subscriber_id)
            as_a.hostdb.revoke_hid(record.hid)
            client.send_data(
                client.sessions[(src.ephid, serving.cert.ephid)], b"again"
            )
            world.run()
            stats = as_a.shard_pool.stats()
            assert stats[DropReason.SRC_HID_INVALID.value] == 1


class TestMidTrafficTransitions:
    """Replay-filter history cannot cross a plane transition; switching
    mid-traffic must say so instead of silently reopening the window."""

    def test_start_after_traffic_warns(self):
        from tests.conftest import build_world

        world = build_world(
            config=ApnaConfig(
                replay_protection=True,
                in_network_replay_filter=True,
                forwarding_shards=2,
            ),
            host_names=("alice", "bob"),
        )
        alice, bob = world.hosts["alice"], world.hosts["bob"]
        serving = bob.acquire_ephid_direct()
        alice.connect(serving.cert, early_data=b"pre-shard")
        world.network.run()  # traffic through the in-line router
        assert world.as_a.br.replay_filter.passed > 0
        with pytest.warns(RuntimeWarning, match="replay"):
            world.as_a.start_shard_pool()
        world.as_a.stop_shard_pool()

    def test_stop_after_traffic_warns(self):
        with build_sharded_world(hosts=2) as world:
            # No replay filter in this world: closing must stay silent.
            world.asys("a").stop_shard_pool()

        builder = (
            WorldBuilder(
                seed=5,
                config=ApnaConfig(
                    replay_protection=True,
                    in_network_replay_filter=True,
                    forwarding_shards=2,
                    forwarding_batch_size=4,
                ),
            )
            .asys("a", aid=100)
            .asys("b", aid=200)
            .link("a", "b")
            .host("alice", at="a")
            .host("bob", at="b")
        )
        world = builder.build()
        try:
            alice, bob = world.host("alice"), world.host("bob")
            serving = bob.acquire_ephid_direct()
            alice.connect(serving.cert, early_data=b"via shards")
            world.run()
            with pytest.warns(RuntimeWarning, match="replay"):
                world.asys("a").stop_shard_pool()
        finally:
            world.close()


class TestDispatcher:
    def test_transit_short_circuits_without_worker_roundtrip(self):
        with build_sharded_world(hosts=1) as world:
            as_b = world.asys("b")
            pool = build_apna_pool(
                world.asys("a"),
                [world.host("a0")],
                size=128,
                count=4,
                dst_aid=65000,
            )
            plane = as_b.shard_pool
            verdicts = plane.process(
                pool.wire_frames, [False] * 4, as_b.clock()
            )
            assert all(v.next_aid == 65000 for v in verdicts)
            assert plane.forwarded_inter == 4
            assert all(
                s["forwarded_inter"] == 0 for s in plane.shard_stats()
            )

    def test_transit_flood_cannot_grow_the_intern_table(self):
        """A transit flood with 100 000 attacker-chosen destination AIDs
        through ``submit``/``collect``: every verdict names its AID and
        the dispatcher's verdict interning stops at the table's cap."""
        with build_sharded_world(hosts=1) as world:
            as_b = world.asys("b")
            pool = build_apna_pool(
                world.asys("a"), [world.host("a0")], size=64, count=1, dst_aid=300
            )
            template = bytearray(pool.wire_frames[0])
            plane = as_b.shard_pool
            aids = range(70_000, 170_000)
            for first in range(0, len(aids), 4096):
                chunk = aids[first : first + 4096]
                frames = []
                for aid in chunk:
                    template[36:40] = aid.to_bytes(4, "big")
                    frames.append(bytes(template))
                verdicts = plane.collect(
                    plane.submit(frames, [False] * len(frames), as_b.clock())
                )
                assert verdicts == [
                    Verdict(Action.FORWARD_INTER, next_aid=aid) for aid in chunk
                ]
            assert plane.forwarded_inter == len(aids)
            assert (
                len(verdict_module._VERDICT_TABLE)
                == verdict_module.VERDICT_TABLE_CAP
            )

    def test_out_of_order_collect_rejected(self):
        with build_sharded_world(hosts=1) as world:
            as_a = world.asys("a")
            pool = build_apna_pool(
                as_a, [world.host("a0")], size=128, count=2, dst_aid=200
            )
            plane = as_a.shard_pool
            t1 = plane.submit(pool.wire_frames, [True, True], as_a.clock())
            t2 = plane.submit(pool.wire_frames, [True, True], as_a.clock())
            with pytest.raises(ShardError):
                plane.collect(t2)
            plane.collect(t1)
            plane.collect(t2)

    def test_pool_requires_pinned_assembly(self, world):
        # tests/conftest worlds are unsharded: no IV pinning, no kR.  A
        # plane cannot be asked to shard one wider than it was built
        # (``for_assembly`` takes the assembly's own plan), and a
        # two-shard plan that cannot route IVs is refused by the
        # constructor before anything reaches the carrier.
        with ShardedDataPlane.for_assembly(world.as_a) as plane:
            assert plane.nshards == plane.plan.nshards == 1
            specs = plane.supervisor.bare_specs * 2

        class Untouched:
            def __getattr__(self, name):
                raise AssertionError(f"carrier.{name} used before validation")

        with pytest.raises(ValueError):
            ShardedDataPlane(
                Untouched(),
                specs,
                ShardPlan(2),
                aid=world.as_a.aid,
                state_source=None,
            )

    def test_runt_frame_rejected_at_dispatch(self):
        with build_sharded_world(hosts=1) as world:
            plane = world.asys("a").shard_pool
            with pytest.raises(ShardError):
                plane.process([b"\x00" * 8], [True], 0.0)

    def test_runt_rejection_is_nonce_aware(self):
        # With replay protection the wire header is 56 bytes: a 50-byte
        # frame must be rejected at dispatch (plane untouched), not
        # shipped to a worker whose parse failure would cost a restart.
        builder = (
            WorldBuilder(
                seed=9,
                config=ApnaConfig(
                    replay_protection=True,
                    forwarding_shards=2,
                    forwarding_batch_size=4,
                ),
            )
            .asys("a", aid=100)
            .host("h", at="a")
        )
        with builder.build() as world:
            plane = world.asys("a").shard_pool
            with pytest.raises(ShardError, match="56-byte"):
                plane.process([b"\x00" * 50], [True], 0.0)
            plane.shard_stats()  # still healthy

    def test_mismatched_direction_flags_rejected(self):
        with build_sharded_world(hosts=1) as world:
            plane = world.asys("a").shard_pool
            with pytest.raises(ShardError, match="direction flags"):
                plane.process([b"\x00" * 48, b"\x00" * 48], [True], 0.0)

    def test_removed_options_are_rejected(self):
        # One data-plane configuration: the residue map and unbounded
        # waits have no spelling left, at the plan or in the policy every
        # plane is built with.
        with pytest.raises(TypeError):
            ShardPlan(2, mode="residue")
        with pytest.raises(ValueError, match="reply_timeout"):
            SupervisorPolicy.from_config(ApnaConfig(shard_reply_timeout=0))
        with pytest.raises(ValueError, match="max_restarts"):
            SupervisorPolicy(max_restarts=-1)
        with pytest.raises(ValueError, match="restart_backoff"):
            SupervisorPolicy(restart_backoff=-0.1)

    def test_control_error_held_until_next_reply(self):
        """A failing fire-and-forget message must not emit an unsolicited
        reply (that would desynchronise the verdict stream); the error is
        delivered in place of the next expected reply instead."""
        with build_sharded_world(hosts=1) as world:
            plane = world.asys("a").shard_pool
            plane.supervisor.carrier.send_bytes(0, bytes([99]))  # unknown message kind
            with pytest.raises(ShardError, match="unknown message kind"):
                plane.shard_stats()

    def test_lost_reply_recovers_with_drop_accounting(self):
        """A lost burst reply costs only what it owed: those verdicts
        are dropped-and-counted, the worker is restarted with a
        resync, and the very next burst flows normally."""
        with build_sharded_world(hosts=1) as world:
            as_a = world.asys("a")
            pool = build_apna_pool(
                as_a, [world.host("a0")], size=128, count=2, dst_aid=200
            )
            plane = as_a.shard_pool
            plane.supervisor.carrier.send_bytes(0, bytes([99]))  # breaks the next reply
            ticket = plane.submit(pool.wire_frames, [True, True], as_a.clock())
            verdicts = plane.collect(ticket)
            assert all(
                v.action is Action.DROP
                and v.reason is DropReason.SHARD_FAILURE
                for v in verdicts
            )
            assert plane.supervisor.failures  # the cause was recorded
            # Recovered: real verdicts again, and the ledger shows it.
            verdicts = plane.process(pool.wire_frames, [True, True], as_a.clock())
            assert all(v.action is Action.FORWARD_INTER for v in verdicts)
            stats = plane.stats()
            assert stats["restarts"] == 1
            assert stats["dropped_bursts"] == 1
            assert stats["dropped_packets"] == 2
            assert stats[DropReason.SHARD_FAILURE.value] == 2
            assert stats["degraded"] == 0

    def test_worker_death_recovers_all_shards(self):
        with build_sharded_world(hosts=2) as world:
            as_a = world.asys("a")
            pool = build_apna_pool(
                as_a,
                [world.host("a0"), world.host("a1")],
                size=128,
                count=8,
                dst_aid=200,
            )
            plane = as_a.shard_pool
            frames = pool.wire_frames
            egress = [True] * len(frames)
            for proc in list(plane.supervisor.carrier._procs):
                proc.terminate()
                proc.join(timeout=5.0)
            # The massacre burst: every sub-burst dropped-and-counted.
            verdicts = plane.process(frames, egress, as_a.clock())
            assert {v.reason for v in verdicts} == {DropReason.SHARD_FAILURE}
            # Both workers restarted and resynced; traffic is back.
            verdicts = plane.process(frames, egress, as_a.clock())
            assert all(v.action is Action.FORWARD_INTER for v in verdicts)
            stats = plane.stats()
            assert stats["restarts"] == TIER1_SHARDS
            assert stats["dropped_packets"] == len(frames)
            assert stats["degraded"] == 0

    def test_resync_preserves_revocations_and_new_hosts(self):
        """State added *after* the pool spawned still survives a restart:
        the resync reads the authoritative hostdb/revocation list, not
        the construction-time snapshot."""
        with build_sharded_world(hosts=2) as world:
            as_a = world.asys("a")
            world.attach_host("late", at="a")
            pool = build_apna_pool(
                as_a, [world.host("late")], size=128, count=4, dst_aid=200
            )
            revoked = build_apna_pool(
                as_a, [world.host("a0")], size=128, count=2, dst_aid=200
            )
            plane = as_a.shard_pool
            as_a.revocations.add(revoked.apna_packets[0].header.src_ephid, 2**31)
            # Kill every worker so each one must resync to serve again.
            for proc in list(plane.supervisor.carrier._procs):
                proc.terminate()
                proc.join(timeout=5.0)
            plane.process(
                pool.wire_frames, [True] * 4, as_a.clock()
            )  # absorbs the failure
            verdicts = plane.process(
                pool.wire_frames + revoked.wire_frames,
                [True] * 6,
                as_a.clock(),
            )
            assert all(
                v.action is Action.FORWARD_INTER for v in verdicts[:4]
            ), "post-spawn host must survive the resync"
            assert all(
                v.action is Action.DROP and v.reason is DropReason.SRC_REVOKED
                for v in verdicts[4:]
            ), "post-spawn revocation must survive the resync"

    def test_in_flight_cap_counts_verdicts(self):
        with build_sharded_world(hosts=1) as world:
            as_a = world.asys("a")
            pool = build_apna_pool(
                as_a, [world.host("a0")], size=128, count=2, dst_aid=200
            )
            plane = as_a.shard_pool
            plane.MAX_IN_FLIGHT_VERDICTS = 4  # instance override for the test
            tickets = [
                plane.submit(pool.wire_frames, [True, True], as_a.clock())
                for _ in range(2)
            ]
            with pytest.raises(ShardError, match="in flight"):
                plane.submit(pool.wire_frames, [True, True], as_a.clock())
            for ticket in tickets:
                plane.collect(ticket)
            # Draining frees the budget again.
            plane.collect(
                plane.submit(pool.wire_frames, [True, True], as_a.clock())
            )
            # A lone burst is exempt whatever its size: nothing else is
            # outstanding, so the reply always has an immediate reader
            # (this is what keeps forwarding_batch_size > cap working).
            big = build_apna_pool(
                as_a, [world.host("a0")], size=128, count=6, dst_aid=200
            )
            plane.MAX_IN_FLIGHT_VERDICTS = 2
            verdicts = plane.process(
                big.wire_frames, [True] * 6, as_a.clock()
            )
            assert len(verdicts) == 6

    def test_control_requires_empty_ticket_queue(self):
        with build_sharded_world(hosts=1) as world:
            as_a = world.asys("a")
            pool = build_apna_pool(
                as_a, [world.host("a0")], size=128, count=2, dst_aid=200
            )
            plane = as_a.shard_pool
            ticket = plane.submit(pool.wire_frames, [True, True], as_a.clock())
            with pytest.raises(ShardError, match="in flight"):
                plane.revoke_ephid(bytes(16), 1e12)
            plane.collect(ticket)
            plane.revoke_ephid(bytes(16), 1e12)  # fine once drained

    def test_route_is_pure(self):
        """``route`` is the dispatcher's side-effect-free half: twice on
        one burst gives equal answers and moves no counter, no seq and
        nothing on the carrier — it does not need a live one at all."""
        with build_sharded_world(hosts=2) as world:
            as_a = world.asys("a")
            hosts = [world.host("a0"), world.host("a1")]
            local = build_apna_pool(as_a, hosts, size=128, count=8, dst_aid=200)
            transit = build_apna_pool(as_a, hosts, size=128, count=2, dst_aid=65000)
            frames = local.wire_frames + transit.wire_frames
            egress = [True] * 8 + [False] * 2
            plane = as_a.shard_pool
            ledger = plane.supervisor
            plane.process(frames, egress, as_a.clock())  # counters off zero

            def state():
                return (
                    plane.stats(),
                    list(ledger.burst_seq),
                    ledger.in_flight_verdicts,
                    len(ledger.tickets),
                    len(ledger.failures),
                )

            before = state()
            carrier, ledger.carrier = ledger.carrier, None
            try:
                first = plane.route(frames, egress)
                assert plane.route(frames, egress) == first
                with pytest.raises(ShardError):
                    plane.route(frames + [b"\x00" * 8], egress + [True])
            finally:
                ledger.carrier = carrier
            assert state() == before
            moved, by_shard = first
            assert moved == [8, 9]
            assert sorted(i for indices, _, _ in by_shard.values() for i in indices) == list(range(8))
            assert len(by_shard) == TIER1_SHARDS  # the burst did cross shards
            for shard, (indices, shard_frames, directions) in by_shard.items():
                assert shard_frames == [frames[i] for i in indices]
                assert directions == [wire.EGRESS] * len(indices)
                assert {
                    plane.plan.shard_of_ephid(f[SRC_EPHID_FIELD]) for f in shard_frames
                } == {shard}

    def test_rejected_burst_leaves_counters_untouched(self):
        with build_sharded_world(hosts=1) as world:
            as_a = world.asys("a")
            pool = build_apna_pool(
                as_a, [world.host("a0")], size=128, count=1, dst_aid=65000
            )
            plane = as_a.shard_pool
            transit = pool.wire_frames[0]
            with pytest.raises(ShardError):
                # Valid transit frame followed by a runt: the whole burst
                # is rejected before any counter moves.
                plane.process([transit, b"\x00" * 8], [False, False], 0.0)
            assert plane.forwarded_inter == 0
            verdicts = plane.process([transit], [False], as_a.clock())
            assert verdicts[0].next_aid == 65000
            assert plane.forwarded_inter == 1


class TestRekeyedHost:
    """``register_host`` for a HID the owning shard already holds
    replaces its kHA on that shard; the warm CMAC context must go with
    the old key, whichever carrier runs the shard."""

    @pytest.mark.parametrize("carrier", ("pool", "inprocess"))
    def test_rekeyed_host_is_verified_under_its_new_key(self, carrier):
        with build_sharded_world(hosts=1) as world:
            as_a = world.asys("a")
            plane = as_a.shard_pool
            if carrier == "inprocess":
                plane = inprocess_plane(plane, as_a)
                assert isinstance(plane.supervisor.carrier, InProcessCarrier)
                assert plane.degraded is None
            host = world.host("a0")
            packet = build_apna_pool(
                as_a, [host], size=128, count=1, dst_aid=200
            ).apna_packets[0]
            forward = Verdict(Action.FORWARD_INTER, next_aid=200)
            assert process_packets(plane, [(packet, True)], as_a.clock()) == [
                forward
            ]  # warms the host's context on its shard
            record = as_a.hostdb.find_by_subscriber(host.subscriber_id)
            new_key = bytes(b ^ 0xFF for b in record.keys.packet_mac)
            plane.register_host(
                SimpleNamespace(
                    hid=record.hid,
                    keys=HostAsKeys(
                        control=record.keys.control, packet_mac=new_key
                    ),
                )
            )
            rekeyed = ApnaPacket(
                packet.header.with_mac(
                    Cmac(new_key).tag(
                        packet.mac_input(), as_a.config.packet_mac_size
                    )
                ),
                packet.payload,
            )
            assert process_packets(
                plane, [(packet, True), (rekeyed, True)], as_a.clock()
            ) == [Verdict(Action.DROP, reason=DropReason.BAD_MAC), forward]


class TestShardedIssuance:
    def test_split_requests_exact(self):
        assert split_requests(10, 4) == [3, 3, 2, 2]
        assert split_requests(7, 3) == [3, 2, 2]
        assert split_requests(2, 4) == [1, 1]  # zero chunks dropped
        assert split_requests(12, 4) == [3, 3, 3, 3]
        for requests, workers in ((10, 4), (7, 3), (1, 5), (9, 2)):
            assert sum(split_requests(requests, workers)) == requests

    def test_split_requests_validates(self):
        with pytest.raises(ValueError):
            split_requests(0, 2)
        with pytest.raises(ValueError):
            split_requests(4, 0)

    def test_parallel_rate_with_non_divisible_workers(self):
        from repro.experiments.e1_ms_performance import measure_parallel_rate

        # 7 % 3 != 0: the pre-fix code silently issued only 6 of 7
        # requests; now every request is performed (the runner raises
        # otherwise) and the duration is the slowest worker's loop.
        elapsed = measure_parallel_rate(7, 3)
        assert elapsed > 0

    def test_hung_worker_raises_shard_timeout(self, monkeypatch):
        """A wedged MS worker must surface as ShardTimeout, not hang the
        runner forever (the pre-fix ``recv_bytes`` had no timeout)."""
        import multiprocessing
        import time

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs fork start method to inherit the monkeypatch")
        from repro.sharding import run_issuance_shards
        from repro.sharding.pool import ShardTimeout
        import repro.experiments.e1_ms_performance as e1

        # Forked workers inherit this patched module: their deferred
        # import resolves from sys.modules, so the "issuance loop" wedges.
        monkeypatch.setattr(
            e1, "measure_issuance_rate", lambda *a, **k: time.sleep(3600)
        )
        start = time.monotonic()
        with pytest.raises(ShardTimeout):
            run_issuance_shards([1], reply_timeout=0.2)
        # The bound bit quickly and teardown reaped the hung process.
        assert time.monotonic() - start < 30.0


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2,
    reason="scaling sanity check needs at least two cores",
)
@pytest.mark.xfail(
    reason="wall-clock bound; an oversubscribed runner (shared cores, "
    "cgroup quota) pays full IPC cost on one effective core",
    strict=False,
)
def test_two_shards_not_slower_than_half_single_process():
    """Lenient multi-core liveness floor (the real curve is a benchmark):
    a 2-shard pipelined run must beat half the single-process batch rate."""
    import time

    with build_sharded_world(hosts=4, batch_size=32) as world:
        as_a = world.asys("a")
        pool = build_apna_pool(
            as_a, [world.host(f"a{i}") for i in range(4)], size=256, count=32, dst_aid=200
        )
        frames = pool.wire_frames
        plane = as_a.shard_pool
        now = as_a.clock()
        rounds = 30
        plane.process(frames, [True] * len(frames), now)  # warm-up
        start = time.perf_counter()
        tickets = [
            plane.submit(frames, [True] * len(frames), now)
            for _ in range(rounds)
        ]
        for ticket in tickets:
            plane.collect(ticket)
        sharded = time.perf_counter() - start
        as_a.br.process_burst(frames, [True] * len(frames))  # warm the MAC cache
        start = time.perf_counter()
        for _ in range(rounds):
            as_a.br.process_burst(frames, [True] * len(frames))
        single = time.perf_counter() - start
        assert sharded < single * 2.0
