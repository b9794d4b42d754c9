"""Chaos acceptance suite for the self-healing shard data plane.

The contract under deterministic fault storms (:mod:`repro.faults`):

* every packet whose worker survived gets EXACTLY the verdict the
  single-process router computes — failures never blur healthy verdicts;
* every packet owed by a failed worker is dropped-and-counted
  (``DropReason.SHARD_FAILURE``), never guessed, and the ``stats()``
  ledger accounts for each one;
* the plane never deadlocks and never mispairs a reply with the wrong
  burst, whatever mix of kills, hangs, error frames, garbage replies and
  benign delays the storm throws;
* once a shard exhausts its restart budget the plane degrades to exact
  in-process forwarding instead of refusing traffic.

These runs use worlds *without* the replay filter: filter history is the
one thing a restart legitimately loses (the documented bounded-horizon
exception), so excluding it makes the equivalence bar total instead of
"total except replays".  The filterless configuration means a restarted
shard is state-identical to one that never crashed — any verdict
divergence is a real bug.
"""

import dataclasses
import multiprocessing
import os
import random
import signal
import threading
import time
from collections import Counter

import pytest

from repro.core.border_router import BorderRouter, DropReason
from repro.core.config import ApnaConfig
from repro.crypto import backend as crypto_backend
from repro.faults import FAULT_KINDS, Fault, FaultPlan, crash_storm_plan
from repro.sharding import (
    ShardError,
    ShardPlan,
    ShardSupervisor,
    ShardedDataPlane,
    SupervisorPolicy,
)
from repro.wire.apna import SRC_EPHID_FIELD, Endpoint
from repro import scenarios

from tests.conftest import build_world, process_packets

SHARD_COUNTS = (2, 3)

#: Chaos supervision: quick hang detection, effectively unlimited
#: restarts (the storm must never exhaust the budget unless a test wants
#: it to), minimal backoff so the suite stays fast.
CHAOS_POLICY = SupervisorPolicy(
    reply_timeout=0.4, max_restarts=10_000, restart_backoff=0.001
)


def _build_world(nshards, policy=CHAOS_POLICY):
    return build_world(
        config=ApnaConfig(
            forwarding_shards=nshards,
            shard_reply_timeout=policy.reply_timeout,
            shard_max_restarts=policy.max_restarts,
            shard_restart_backoff=policy.restart_backoff,
        ),
        host_names=("alice", "bob", "carol", "dave", "erin"),
    )


def _reference_router(world):
    """The single-process oracle over the same hostdb/revocations."""
    return BorderRouter(
        world.as_a.aid,
        world.as_a.codec,
        world.as_a.hostdb,
        world.as_a.revocations,
        world.network.scheduler.clock(),
        packet_mac_size=world.config.packet_mac_size,
        replay_filter=None,
    )


def _live_workers(plane):
    """This plane's worker processes still running (``apna-br-<aid>-<shard>``)."""
    prefix = f"apna-br-{plane.aid}-"
    return [
        proc
        for proc in multiprocessing.active_children()
        if proc.name.startswith(prefix)
    ]


#: Verdict classes in the storm mix.  No "replay" kind: these worlds run
#: without the filter (see the module docstring), so every packet is
#: unique and equivalence is exact across restarts.
KINDS = (
    "inter", "inter", "inter", "intra", "forged", "expired", "revoked",
    "bad-hid", "bad-mac", "foreign", "forged-dst",
)


def _packet_mix(world, rng):
    """The equivalence suite's packet builder, minus replay duplicates."""
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

    def build(kind):
        host, src = rng.choice(sources)
        make = host.stack.make_packet
        if kind == "intra":
            return make(src.ephid, dst_intra, b"data")
        if kind == "forged":
            packet = make(src.ephid, dst_inter, b"data")
            return dataclasses.replace(
                packet,
                header=dataclasses.replace(
                    packet.header, src_ephid=rng.randbytes(16)
                ),
            )
        if kind == "expired":
            return make(expired_ephid, dst_inter, b"data")
        if kind == "revoked":
            rev_host, rev = rng.choice(revocable)
            return rev_host.stack.make_packet(rev.ephid, dst_inter, b"data")
        if kind == "bad-hid":
            return make(bad_hid_ephid, dst_inter, b"data")
        if kind == "bad-mac":
            packet = make(src.ephid, dst_inter, b"data")
            return dataclasses.replace(
                packet, header=packet.header.with_mac(b"\xff" * 8)
            )
        if kind == "foreign":
            packet = make(src.ephid, dst_inter, b"data")
            return dataclasses.replace(
                packet, header=dataclasses.replace(packet.header, src_aid=999)
            )
        if kind == "forged-dst":
            return make(
                src.ephid,
                Endpoint(world.as_a.aid, rng.randbytes(16)),
                b"data",
            )
        return make(src.ephid, dst_inter, b"data")  # "inter"

    return build, revocable


class TestFaultPlan:
    def test_crash_storm_is_deterministic(self):
        a = crash_storm_plan(3, 100, seed=42)
        b = crash_storm_plan(3, 100, seed=42)
        assert a.schedule() == b.schedule()
        assert len(a) > 0
        assert a.schedule() != crash_storm_plan(3, 100, seed=43).schedule()

    def test_crash_storm_covers_every_kind(self):
        plan = crash_storm_plan(3, 200, seed=0, rate=0.2)
        kinds = {fault.kind for _, _, fault in plan.schedule()}
        assert kinds == set(FAULT_KINDS)

    def test_crash_storm_spares_opening_bursts(self):
        plan = crash_storm_plan(4, 50, seed=1, rate=1.0, spare_first=3)
        assert all(seq >= 3 for _, seq, _ in plan.schedule())

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            Fault("explode")
        with pytest.raises(ValueError, match="delay"):
            Fault("delay", delay=-1)
        with pytest.raises(ValueError, match="rate"):
            crash_storm_plan(2, 10, rate=1.5)
        with pytest.raises(ValueError, match="kinds"):
            crash_storm_plan(2, 10, kinds=())

    def test_plan_add_accepts_strings(self):
        plan = FaultPlan({(0, 3): "kill"}).add(1, 4, "hang")
        assert plan.fault_for(0, 3) == Fault("kill")
        assert plan.fault_for(1, 4) == Fault("hang")
        assert plan.fault_for(0, 0) is None
        assert len(plan) == 2


@pytest.mark.parametrize("nshards", SHARD_COUNTS)
class TestCrashStormEquivalence:
    """The acceptance bar: >= 100 bursts through a seeded storm mixing
    every fault kind, with exact verdict equivalence for every delivered
    packet and full accounting for every dropped one."""

    BURSTS = 110
    BURST_SIZE = 5

    def test_storm_preserves_delivered_verdicts(self, nshards):
        # Worker restarts resync state built under the same keyed map
        # the dispatcher routes with (kR rides ShardSpec and MSG_RESYNC),
        # so no delivered verdict may change mid-chaos.
        world = _build_world(nshards)
        world.network.run_until(5.0)  # let the exp_time=1 EphID expire
        rng = random.Random(0xFA17 + nshards)
        build, revocable = _packet_mix(world, rng)
        router = _reference_router(world)
        plan = crash_storm_plan(
            nshards, self.BURSTS, seed=7 + nshards, rate=0.06, delay=0.005
        )
        assert len(plan) > 0
        plane = ShardedDataPlane.for_assembly(world.as_a)
        plane.install_faults(plan)
        total = delivered = failures = 0
        try:
            for burst_no in range(self.BURSTS):
                packets = [
                    build(rng.choice(KINDS)) for _ in range(self.BURST_SIZE)
                ]
                now = world.as_a.clock()
                verdicts = plane.process(
                    [p.to_wire() for p in packets],
                    [True] * len(packets),
                    now,
                )
                for packet, verdict in zip(packets, verdicts):
                    total += 1
                    if verdict.reason is DropReason.SHARD_FAILURE:
                        failures += 1
                        continue
                    delivered += 1
                    assert verdict == router.process_outgoing(packet), (
                        f"burst {burst_no}: delivered verdict diverged "
                        "from the single-process oracle"
                    )
                if burst_no == self.BURSTS // 2:
                    # Mid-storm revocation: the authoritative list first
                    # (what restarts resync from), then the broadcast.
                    _, owned = revocable[0]
                    world.as_a.revocations.add(owned.ephid, 2**31)
                    plane.revoke_ephid(owned.ephid, 2**31)
            stats = plane.stats()
        finally:
            plane.close()
        # The storm actually stormed, and every loss is accounted for.
        assert plan.injected, "the schedule never fired"
        disruptive = [
            kind for _, _, kind in plan.injected if kind != "delay"
        ]
        assert disruptive, "storm contained no disruptive faults"
        assert failures > 0
        assert delivered + failures == total
        assert stats["dropped_packets"] == failures
        assert stats[DropReason.SHARD_FAILURE.value] == failures
        assert stats["restarts"] > 0
        assert stats["degraded"] == 0
        assert delivered > total // 2, "storm drowned the signal"

    def test_storm_is_reproducible(self, nshards):
        """Same seeds, same storm: the injected-fault log and the
        supervision ledger come out identical across two fresh runs."""
        ledgers = []
        for _ in range(2):
            world = _build_world(nshards)
            rng = random.Random(99)
            build, _ = _packet_mix(world, rng)
            plan = crash_storm_plan(nshards, 40, seed=5, rate=0.1)
            plane = ShardedDataPlane.for_assembly(world.as_a)
            plane.install_faults(plan)
            try:
                for _ in range(40):
                    packets = [build(rng.choice(KINDS)) for _ in range(4)]
                    plane.process(
                        [p.to_wire() for p in packets],
                        [True] * len(packets),
                        world.as_a.clock(),
                    )
                stats = plane.stats()
            finally:
                plane.close()
            ledgers.append(
                (
                    plan.injected,
                    stats["restarts"],
                    stats["dropped_bursts"],
                    stats["dropped_packets"],
                )
            )
        assert ledgers[0] == ledgers[1]


class TestFaultKindsIsolated:
    """One fault kind at a time, pinned to a specific burst."""

    def _run(self, plan, *, bursts=6, policy=CHAOS_POLICY):
        world = _build_world(2, policy)
        rng = random.Random(3)
        build, _ = _packet_mix(world, rng)
        router = _reference_router(world)
        plane = ShardedDataPlane.for_assembly(world.as_a)
        plane.install_faults(plan)
        outcomes = []
        try:
            for _ in range(bursts):
                packets = [build("inter") for _ in range(4)]
                verdicts = plane.process(
                    [p.to_wire() for p in packets],
                    [True] * len(packets),
                    world.as_a.clock(),
                )
                reference = [router.process_outgoing(p) for p in packets]
                outcomes.append(list(zip(verdicts, reference)))
            stats = plane.stats()
        finally:
            plane.close()
        return outcomes, stats

    def _assert_recovered(self, outcomes, stats, *, expect_failures):
        sharded_failures = sum(
            1
            for burst in outcomes
            for verdict, _ in burst
            if verdict.reason is DropReason.SHARD_FAILURE
        )
        for burst in outcomes:
            for verdict, reference in burst:
                if verdict.reason is not DropReason.SHARD_FAILURE:
                    assert verdict == reference
        if expect_failures:
            assert sharded_failures > 0
            assert stats["restarts"] > 0
        else:
            assert sharded_failures == 0
            assert stats["restarts"] == 0
        assert stats["dropped_packets"] == sharded_failures
        assert stats["degraded"] == 0

    # Each kind is scheduled on burst 1 of BOTH shards: which shards see
    # traffic depends on EphID routing, but whichever does will reach
    # burst seq 1 within the run and draw the fault.

    def test_kill_recovers(self):
        outcomes, stats = self._run(FaultPlan({(0, 1): "kill", (1, 1): "kill"}))
        self._assert_recovered(outcomes, stats, expect_failures=True)

    def test_hang_detected_by_timeout(self):
        outcomes, stats = self._run(FaultPlan({(0, 1): "hang", (1, 1): "hang"}))
        self._assert_recovered(outcomes, stats, expect_failures=True)

    def test_send_to_a_stopped_worker_is_bounded(self):
        """The injected ``hang`` swallows the burst; a really stopped
        worker takes it until its socket buffer fills, and the send used
        to wait on that buffer for as long as the worker stayed stopped.
        An oversized burst to a ``SIGSTOP``ped worker must cost the send
        bound, forfeit that shard's frames only, and one restart."""
        policy = SupervisorPolicy(
            reply_timeout=0.5, max_restarts=10_000, restart_backoff=0.001
        )
        world = _build_world(2, policy)
        router = _reference_router(world)
        dst = Endpoint(
            world.as_b.aid, world.hosts["bob"].acquire_ephid_direct().ephid
        )
        sources = [
            (world.hosts[name], world.hosts[name].acquire_ephid_direct().ephid)
            for name in ("alice", "carol", "erin")
        ]
        packets = [  # ~900 KB: several socket buffers' worth per shard
            host.stack.make_packet(ephid, dst, bytes(1400))
            for host, ephid in (sources[i % 3] for i in range(600))
        ]
        frames = [p.to_wire() for p in packets]
        plane = ShardedDataPlane.for_assembly(world.as_a)
        owners = [plane.plan.shard_of_ephid(f[SRC_EPHID_FIELD]) for f in frames]
        victim = max((0, 1), key=owners.count)
        assert 0 < owners.count(1 - victim) < owners.count(victim)
        stopped = plane.supervisor.carrier._procs[victim]
        # The parent's send wedges until the worker runs again: resume it
        # after a while, so the regression fails the clock, not the suite.
        rescue = threading.Timer(8.0, os.kill, (stopped.pid, signal.SIGCONT))
        try:
            os.kill(stopped.pid, signal.SIGSTOP)
            rescue.start()
            started = time.monotonic()
            verdicts = plane.process(frames, [True] * len(frames), world.as_a.clock())
            elapsed = time.monotonic() - started
            # Two send waits of the bound, then terminate → kill of a
            # process that cannot see SIGTERM (a 1 s join), a respawn.
            assert elapsed < 5.0, f"send to a stopped worker took {elapsed:.1f}s"
            for packet, owner, verdict in zip(packets, owners, verdicts):
                if owner == victim:
                    assert verdict.reason is DropReason.SHARD_FAILURE
                else:
                    assert verdict == router.process_outgoing(packet)
            stats = plane.stats()
            assert stats["restarts"] == 1
            assert stats["dropped_packets"] == owners.count(victim)
            assert stats["degraded"] == 0
            assert "send blocked" in plane.supervisor.failures[0][1]
        finally:
            rescue.cancel()
            plane.close()

    def test_error_frame_recovers(self):
        outcomes, stats = self._run(
            FaultPlan({(0, 1): "error", (1, 1): "error"})
        )
        self._assert_recovered(outcomes, stats, expect_failures=True)

    def test_garbage_reply_recovers(self):
        outcomes, stats = self._run(
            FaultPlan({(0, 1): "garbage", (1, 1): "garbage"})
        )
        self._assert_recovered(outcomes, stats, expect_failures=True)

    def test_benign_delay_triggers_no_recovery(self):
        """The false-positive check: a reply delay shorter than the
        timeout must not cost a single packet or restart."""
        plan = FaultPlan(
            {(s, q): Fault("delay", delay=0.01) for s in (0, 1) for q in (1, 3)}
        )
        outcomes, stats = self._run(plan)
        self._assert_recovered(outcomes, stats, expect_failures=False)
        assert plan.injected  # at least one delay actually fired

    def test_dropped_reply_recovers(self):
        """A reply lost in transit is exactly a timeout: the sub-burst
        is dropped-and-counted, the worker restarted, and every later
        delivered verdict matches the oracle again."""
        plan = FaultPlan({(0, 1): "drop", (1, 1): "drop"})
        outcomes, stats = self._run(plan)
        self._assert_recovered(outcomes, stats, expect_failures=True)
        assert stats["stale_replies"] == 0

    def test_duplicate_reply_is_benign(self):
        """Duplicate analogue of the delay false-positive bar: a reply
        delivered twice costs nothing — the stale copy is discarded by
        the seq check, with zero drops, zero restarts, and an exact
        count of discards."""
        plan = FaultPlan(
            {(s, q): "duplicate" for s in (0, 1) for q in (1, 3)}
        )
        outcomes, stats = self._run(plan)
        self._assert_recovered(outcomes, stats, expect_failures=False)
        assert plan.injected  # at least one duplicate actually fired
        # Every injected duplicate surfaced as exactly one discarded
        # stale reply ahead of the same shard's next real reply...
        injected = [entry for entry in plan.injected if entry[2] == "duplicate"]
        # ...except duplicates of a shard's *final* burst, which stay
        # "in the wire" forever (nothing later flushes them).  Faults on
        # burst 1 always have later bursts, so all of those must flush.
        flushed = [entry for entry in injected if entry[1] == 1]
        assert len(flushed) <= stats["stale_replies"] <= len(injected)
        assert stats["stale_replies"] > 0


class TestDegradation:
    """Budget exhaustion must end in exact in-process service, not a wall
    of exceptions."""

    def test_degrades_to_exact_inprocess_service(self):
        world = _build_world(
            2,
            SupervisorPolicy(
                reply_timeout=0.4, max_restarts=1, restart_backoff=0.001
            ),
        )
        rng = random.Random(11)
        build, revocable = _packet_mix(world, rng)
        router = _reference_router(world)
        plane = ShardedDataPlane.for_assembly(world.as_a)
        # Two kills per shard (routing decides which shards carry
        # traffic): the first kill consumes a shard's only restart, the
        # second exhausts its budget.
        plane.install_faults(
            FaultPlan({(s, q): "kill" for s in (0, 1) for q in (1, 2)})
        )
        try:
            seen_degraded = False
            for burst_no in range(30):
                packets = [build(rng.choice(KINDS)) for _ in range(4)]
                verdicts = plane.process(
                    [p.to_wire() for p in packets],
                    [True] * len(packets),
                    world.as_a.clock(),
                )
                reference = [router.process_outgoing(p) for p in packets]
                if plane.degraded is not None and not seen_degraded:
                    seen_degraded = True
                    degraded_at = burst_no
                if seen_degraded and burst_no > degraded_at:
                    # Past the transition, service is exact again.
                    assert verdicts == reference
                if burst_no == 20:
                    assert seen_degraded, "budget never exhausted"
                    # Revocations still bite in degraded mode: the
                    # control frame reaches the in-process replicas.
                    _, owned = revocable[0]
                    world.as_a.revocations.add(owned.ephid, 2**31)
                    plane.revoke_ephid(owned.ephid, 2**31)
                    drop = plane.process(
                        [
                            revocable[0][0]
                            .stack.make_packet(
                                owned.ephid,
                                Endpoint(world.as_b.aid, bytes(16)),
                                b"x",
                            )
                            .to_wire()
                        ],
                        [True],
                        world.as_a.clock(),
                    )
                    assert drop[0].reason is DropReason.SRC_REVOKED
            stats = plane.stats()
            assert stats["degraded"] == 1
            assert 1 <= stats["restarts"] <= 2  # one budgeted restart per shard
            assert stats["dropped_packets"] > 0
            assert not _live_workers(plane)  # the worker pool is gone
            plane.barrier()  # must not raise
        finally:
            plane.close()

    def test_backoff_stays_capped_through_a_chaos_grade_budget(self):
        """A shard that never comes back must cost its whole budget and
        then ``False`` — with a lifetime count as the exponent, an
        uncapped doubling outgrows a float near attempt 1025 and the
        ``OverflowError`` would escape ``collect`` mid-merge."""
        from tests.test_state_store import _shard_spec

        class DeadCarrier:
            def restart(self, shard, spec):
                raise ShardError("spawn failed", shard=shard)

        plan = ShardPlan(1)
        slept = []
        supervisor = ShardSupervisor(
            DeadCarrier(),
            plan,
            [_shard_spec(plan, 0, "columnar")],
            None,
            CHAOS_POLICY,
            sleep=slept.append,
        )
        assert supervisor.restart(0) is False
        assert supervisor.restarts == [CHAOS_POLICY.max_restarts]
        assert max(slept) <= 50 * CHAOS_POLICY.restart_backoff

    def test_send_failure_mid_submit_degrades_once(self):
        """A worker found dead while a burst is being *sent* forfeits the
        sub-bursts that ticket already shipped, once — it must not leave
        them to be read off the closed pool, blamed on a healthy shard
        and answered with a second degrade that forgets what the plane
        served in between."""
        world = _build_world(
            2, SupervisorPolicy(reply_timeout=0.4, max_restarts=0)
        )
        rng = random.Random(17)
        build, _ = _packet_mix(world, rng)
        router = _reference_router(world)
        plane = ShardedDataPlane.for_assembly(world.as_a)
        try:
            packets = [build("inter") for _ in range(8)]
            frames = [p.to_wire() for p in packets]
            send_order = list(
                dict.fromkeys(
                    plane.plan.shard_of_ephid(frame[SRC_EPHID_FIELD])
                    for frame in frames
                )
            )
            assert len(send_order) == 2, "burst must touch both shards"
            killed = send_order[1]
            plane.install_faults(FaultPlan({(killed, 0): "kill"}))
            now = world.as_a.clock()
            ticket = plane.submit(frames, [True] * 8, now)
            # Pipelined behind it, before the failed ticket is collected.
            later = [build("inter") for _ in range(8)]
            later_ticket = plane.submit(
                [p.to_wire() for p in later], [True] * 8, now
            )
            assert {v.reason for v in plane.collect(ticket)} == {
                DropReason.SHARD_FAILURE
            }
            assert plane.collect(later_ticket) == [
                router.process_outgoing(p) for p in later
            ]
            assert [shard for shard, _ in plane.supervisor.failures] == [killed]
            assert plane.degraded.startswith(f"shard {killed} unrecoverable")
            stats = plane.stats()
            assert stats["dropped_packets"] == 8
            assert stats["forwarded_inter"] == 8  # the burst in between
        finally:
            plane.close()

    def test_degraded_plane_is_the_oracle_on_every_path(self):
        """Egress, ingress, transit, intra-AS and replayed packets, then
        a revocation, a late registration and a HID revocation — each of
        which can only reach the in-process shards as a control frame —
        all judged against the scalar router, counters included."""
        from tests import test_sharding_equivalence as equivalence

        active = crypto_backend.active_backend()
        other = next(
            (n for n in crypto_backend.available_backends() if n != active.name),
            active.name,
        )
        world = equivalence._build_world(
            2, shard_reply_timeout=0.4, shard_max_restarts=0
        )
        world.network.run_until(5.0)  # expire the crafted exp_time=1 EphID
        rng = random.Random(0xDE6)
        build, revocable = equivalence._packet_mix(world, rng)
        oracle = equivalence._reference_router(world)
        as_a = world.as_a
        with crypto_backend.use_backend(other):
            plane = ShardedDataPlane.for_assembly(as_a)

        def scalar(items):
            return [
                oracle.process_outgoing(packet)
                if out
                else oracle.process_incoming(packet)
                for packet, out in items
            ]

        try:
            for shard in range(2):
                plane.supervisor.carrier.kill_worker(shard)
            # The first dead pipe degrades the plane mid-burst: what was
            # bound for it is forfeited, the rest is already served.
            opening = [build("inter") for _ in range(4)]
            for packet, verdict in zip(
                opening,
                process_packets(plane, [(p, True) for p in opening], as_a.clock()),
            ):
                if verdict.reason is not DropReason.SHARD_FAILURE:
                    assert verdict == oracle.process_outgoing(packet)
            assert plane.degraded is not None and not plane.closed
            assert plane.dropped_packets > 0
            assert not _live_workers(plane)
            # The specs name the other backend; degrading builds their
            # shards in this process and must not switch it over.
            assert crypto_backend.active_backend() is active

            as_a.revocations.on_add = plane.revoke_ephid
            as_a.hostdb.on_register = plane.register_host
            as_a.hostdb.on_revoke_hid = plane.revoke_hid
            for _ in range(3):
                items = equivalence._mixed_burst(
                    build, rng, equivalence.KINDS, 24
                )
                assert process_packets(plane, items, as_a.clock()) == scalar(items)

            revoked_host, owned = revocable[1]
            as_a.revocations.add(owned.ephid, 1e12)
            late = as_a.attach_host("late", latency=0.001, bandwidth=1e8)
            late.bootstrap()
            late_src = late.acquire_ephid_direct()
            victim = world.hosts["erin"]
            victim_src = victim.acquire_ephid_direct()
            as_a.hostdb.revoke_hid(
                as_a.hostdb.find_by_subscriber(victim.subscriber_id).hid
            )
            dst = Endpoint(world.as_b.aid, bytes(16))
            items = [
                (host.stack.make_packet(ephid, dst, b"x", nonce=10**7 + i), True)
                for i, (host, ephid) in enumerate(
                    (
                        (revoked_host, owned.ephid),
                        (late, late_src.ephid),
                        (victim, victim_src.ephid),
                    )
                )
            ]
            verdicts = process_packets(plane, items, as_a.clock())
            assert verdicts == scalar(items)
            assert [v.reason for v in verdicts] == [
                DropReason.SRC_REVOKED, None, DropReason.SRC_HID_INVALID
            ]

            shard_sums = Counter()
            for shard in plane.shard_stats():
                shard_sums.update(shard)
            for reason, count in oracle.drops.items():
                assert shard_sums[reason.value] == count, reason
            assert shard_sums["forwarded_intra"] == oracle.forwarded_intra
            assert (
                shard_sums["forwarded_inter"] + plane.forwarded_inter
                == oracle.forwarded_inter
            )
            assert plane.forwarded_inter > 0  # transit was in the mix
            assert shard_sums["replay_replays"] == oracle.replay_filter.replays > 0
            assert shard_sums["replay_passed"] == oracle.replay_filter.passed
            assert plane.stats()["degraded"] == 1
        finally:
            as_a.revocations.on_add = None
            as_a.hostdb.on_register = None
            as_a.hostdb.on_revoke_hid = None
            crypto_backend.set_backend(active)
            plane.close()


class TestFailedResyncCleanup:
    """A restart attempt whose resync fails must not leak the
    half-respawned worker process across the backoff (or past the final
    give-up): the supervisor discards it so the next attempt — or the
    degraded plane — starts from a clean slate."""

    def test_failed_resync_kills_half_respawned_worker(self):
        policy = SupervisorPolicy(
            reply_timeout=0.4, max_restarts=2, restart_backoff=0.001
        )
        world = _build_world(2, policy)
        rng = random.Random(21)
        build, _ = _packet_mix(world, rng)
        plane = ShardedDataPlane.for_assembly(world.as_a)
        try:
            # Warm burst: all workers up and serving before the sabotage.
            packets = [build("inter") for _ in range(4)]
            plane.process(
                [p.to_wire() for p in packets],
                [True] * len(packets),
                world.as_a.clock(),
            )

            # Sabotage resync: every budgeted restart attempt respawns
            # a worker, then blows up before it can be handed its state.
            # (Degrading afterwards needs the snapshot to work again.)
            pool = plane.supervisor.carrier
            source = plane.supervisor._state
            real_snapshot = source.shard_snapshot
            respawned = []

            def broken_snapshot(plan, shard):
                if len(respawned) == policy.max_restarts:
                    return real_snapshot(plan, shard)
                respawned.append(pool._procs[shard])
                raise RuntimeError("resync sabotaged")

            source.shard_snapshot = broken_snapshot
            # The backoff before attempt two is where a leaked worker
            # would linger (degrading closes the whole pool afterwards).
            alive_across_backoff = []
            plane.supervisor._sleep = lambda _delay: alive_across_backoff.append(
                pool._procs[0].is_alive()
            )
            victim = pool._procs[0]
            pool.kill_worker(0)

            # Drive traffic until the dead shard is noticed and both
            # budgeted restart attempts have failed their resync.
            for _ in range(6):
                packets = [build("inter") for _ in range(4)]
                plane.process(
                    [p.to_wire() for p in packets],
                    [True] * len(packets),
                    world.as_a.clock(),
                )
            assert plane.degraded is not None
            assert alive_across_backoff == [False]

            fresh = respawned[-1]
            assert fresh is not victim  # a respawn did happen
            fresh.join(timeout=5.0)
            assert not fresh.is_alive(), (
                "half-respawned worker left running after its resync failed"
            )
            failures = plane.supervisor.failures
            assert any("resync sabotaged" in f for _, f in failures)
        finally:
            plane.close()


class TestCrashStormScenario:
    def test_scenario_builds_and_carries_chaos(self):
        from dataclasses import replace

        config = replace(
            ApnaConfig(),
            forwarding_shards=2,
            forwarding_batch_size=8,
            shard_reply_timeout=0.4,
            shard_restart_backoff=0.001,
        )
        world = scenarios.build("crash-storm:2", seed=13, config=config)
        try:
            plane = world.asys("a").shard_pool
            assert plane is not None and plane.nshards == 2
            plan = FaultPlan({(0, 0): "kill"})
            plane.install_faults(plan)
            client = world.host("a0")
            server = world.host("b0")
            serving = server.acquire_ephid_direct()
            client.connect(serving.cert, early_data=b"storm")
            world.run()
            # The kill hit the very first burst; the session still
            # completes once the transport retries (or later bursts pass)
            # — at minimum the world neither hung nor degraded.
            assert plan.injected or plane.stats()["restarts"] == 0
            stats = plane.stats()
            assert stats["degraded"] == 0
        finally:
            world.close()

    def test_scenario_validates_argument(self):
        from repro.topology import TopologyError

        with pytest.raises(TopologyError, match="at least one host"):
            scenarios.spec("crash-storm:0")
