"""Scenario case drivers: one registered driver per adversarial pattern.

A *case* names a traffic/fault pattern, builds the world it runs on
from a :mod:`repro.scenarios` preset (``metro:N`` for the population
cases, ``shutoff-storm:N`` for the on-path one), drives it through the
world's own sharded data plane against a single-process oracle router
sharing the same host database and revocation list, and returns a
:class:`~repro.evaluation.report.ScenarioReport` with every invariant
verdict filled in.

Population traffic is synthesized directly: population hosts are
registry rows, not simulated nodes, so each source gets an EphID sealed
by the AS codec (IVs from the shard-pinned allocator) and packets are
MAC'd with the host's registered kHA packet subkey — byte-identical to
what :meth:`repro.core.host.HostStack.make_packet` would emit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .. import scenarios
from ..core.border_router import Action, BorderRouter, DropReason
from ..core.config import ApnaConfig
from ..core.hostdb import HostRecord
from ..core.keys import HostAsKeys
from ..crypto.cmac import Cmac
from ..faults import crash_storm_plan
from ..metrics import LatencyHistogram, Timer
from ..pathval import (
    AsPairwiseKeys,
    OnPathShutoffRequest,
    PassportStamper,
    upgrade_to_onpath,
)
from ..wire.apna import ApnaHeader, ApnaPacket, Endpoint
from . import invariants
from .report import InvariantResult, ScenarioReport

__all__ = ["CaseContext", "ScenarioCase", "case", "cases", "run_case"]


@dataclass(frozen=True)
class CaseContext:
    """Everything a case driver needs besides the case name."""

    scale: int
    seed: int
    nshards: int
    chaos: bool
    burst_size: int
    max_sources: int
    latency_budget: float
    stream_flows: int
    config: ApnaConfig

    @property
    def source_count(self) -> int:
        """Traffic sources drawn from the (possibly larger) population."""
        return min(self.scale, self.max_sources)

    def latency_bound(self, chaos: bool) -> float:
        """The p99 budget, stretched under chaos: a recovered fault
        legitimately costs up to a reply timeout plus the restart.
        ``chaos`` is what the case actually ran, not :attr:`chaos` — the
        churn case storms whatever the runner was asked for."""
        if not chaos:
            return self.latency_budget
        return self.latency_budget + 2.0 * self.config.shard_reply_timeout

    def storm_plan(self, bursts: int):
        plan = crash_storm_plan(
            self.nshards,
            bursts,
            seed=self.seed,
            rate=0.15,
            delay=0.002,
            spare_first=1,
        )
        if not len(plan):
            # Short runs must still storm: the probabilistic draw can
            # come up empty for tiny burst counts, so guarantee one
            # deterministic kill per shard on the second burst.
            for shard in range(self.nshards):
                plan.add(shard, 1, "kill")
        return plan


@dataclass(frozen=True)
class ScenarioCase:
    name: str
    description: str
    driver: Callable[[CaseContext], ScenarioReport]


_CASES: dict[str, ScenarioCase] = {}


def case(name: str, *, description: str = ""):
    """Decorator: register ``driver(ctx) -> ScenarioReport`` under ``name``."""

    def _register(driver):
        if name in _CASES:
            raise ValueError(f"case {name!r} is already registered")
        _CASES[name] = ScenarioCase(name, description, driver)
        return driver

    return _register


def cases() -> list[str]:
    """All registered case names, sorted."""
    return sorted(_CASES)


def run_case(name: str, ctx: CaseContext) -> ScenarioReport:
    try:
        scenario_case = _CASES[name]
    except KeyError:
        raise ValueError(
            f"unknown case {name!r}; registered: {', '.join(cases())}"
        ) from None
    return scenario_case.driver(ctx)


# --------------------------------------------------------------------------
# Population traffic synthesis


@dataclass(frozen=True)
class _Source:
    """One population host able to emit authentic packets."""

    aid: int
    hid: int
    ephid: bytes
    mac: Cmac

    def packet(self, dst: Endpoint, payload: bytes) -> ApnaPacket:
        header = ApnaHeader(
            src_aid=self.aid,
            src_ephid=self.ephid,
            dst_ephid=dst.ephid,
            dst_aid=dst.aid,
        )
        return header.signed(self.mac, payload)


def _sources(asys, hids, count: int) -> "list[_Source]":
    exp_time = int(asys.clock() + ApnaConfig.data_ephid_lifetime)
    picked = list(hids[: max(1, count)])
    out = []
    for hid in picked:
        ephid = asys.codec.seal(
            hid=hid, exp_time=exp_time, iv=asys.ivs.next_iv_for(hid)
        )
        record = asys.hostdb.get(hid)
        out.append(
            _Source(
                aid=asys.aid,
                hid=hid,
                ephid=ephid,
                mac=Cmac(record.keys.packet_mac),
            )
        )
    return out


def _oracle(asys) -> BorderRouter:
    """The single-process reference router over the same live state."""
    return BorderRouter(
        asys.aid,
        asys.codec,
        asys.hostdb,
        asys.revocations,
        asys.clock,
        replay_filter=None,
    )


@dataclass
class _Tally:
    """Verdict bookkeeping shared by every case driver."""

    offered: int = 0
    forwarded: int = 0
    failures: int = 0
    mismatches: int = 0
    drop_reasons: dict[str, int] = field(default_factory=dict)
    histogram: LatencyHistogram = field(default_factory=LatencyHistogram)

    def run_bursts(
        self,
        plane,
        oracle: BorderRouter,
        clock,
        packets: "list[ApnaPacket]",
        burst_size: int,
    ) -> "tuple[int, int]":
        """Push ``packets`` through in bursts; returns this call's
        ``(mismatches, failures)`` so probe rounds can be judged alone."""
        mismatches = failures = 0
        for start in range(0, len(packets), burst_size):
            burst = packets[start : start + burst_size]
            with Timer() as timer:
                verdicts = plane.process(
                    [p.to_wire() for p in burst],
                    [True] * len(burst),
                    clock(),
                )
            self.histogram.record(timer.elapsed)
            for packet, verdict in zip(burst, verdicts):
                self.offered += 1
                if verdict.reason is DropReason.SHARD_FAILURE:
                    failures += 1
                    self._count_drop(verdict.reason)
                    continue
                if verdict != oracle.process_outgoing(packet):
                    mismatches += 1
                if verdict.action is Action.DROP:
                    self._count_drop(verdict.reason)
                else:
                    self.forwarded += 1
        self.mismatches += mismatches
        self.failures += failures
        return mismatches, failures

    def _count_drop(self, reason) -> None:
        key = reason.value if reason is not None else "unspecified"
        self.drop_reasons[key] = self.drop_reasons.get(key, 0) + 1

    @property
    def dropped(self) -> int:
        return self.offered - self.forwarded

    def merge(self, other: "_Tally") -> "_Tally":
        self.offered += other.offered
        self.forwarded += other.forwarded
        self.failures += other.failures
        self.mismatches += other.mismatches
        for reason, count in other.drop_reasons.items():
            self.drop_reasons[reason] = (
                self.drop_reasons.get(reason, 0) + count
            )
        self.histogram.merge(other.histogram)
        return self


def _base_report(
    preset: str, ctx: CaseContext, tally: _Tally, sources: int
) -> ScenarioReport:
    return ScenarioReport(
        preset=preset,
        population=ctx.scale,
        sources=sources,
        seed=ctx.seed,
        nshards=ctx.nshards,
        chaos=ctx.chaos,
        packets=tally.offered,
        delivered=tally.forwarded,
        dropped=tally.dropped,
        drop_reasons=dict(tally.drop_reasons),
        latency=tally.histogram.snapshot(),
    )


def _core_invariants(
    ctx: CaseContext, tally: _Tally, stats: dict, *, chaos: "bool | None" = None
) -> "list[InvariantResult]":
    chaos = ctx.chaos if chaos is None else chaos
    return [
        invariants.no_false_drops(
            tally.mismatches,
            tally.offered - tally.failures,
            tally.failures,
            chaos=chaos,
        ),
        invariants.exact_accounting(
            tally.offered,
            tally.offered - tally.failures,
            tally.failures,
            stats,
        ),
        invariants.bounded_latency(tally.histogram, ctx.latency_bound(chaos)),
    ]


def _maybe_arm_chaos(ctx: CaseContext, plane, bursts: int):
    if not ctx.chaos:
        return None
    plan = ctx.storm_plan(bursts)
    plane.install_faults(plan)
    return plan


def _bursts_for(n_packets: int, burst_size: int) -> int:
    return (n_packets + burst_size - 1) // burst_size


# --------------------------------------------------------------------------
# The five case drivers


@case(
    "flash-crowd",
    description="every cold source speaks at once; nothing may drop",
)
def _flash_crowd(ctx: CaseContext) -> ScenarioReport:
    world = scenarios.build(
        f"metro:{ctx.scale}", seed=ctx.seed, config=ctx.config
    )
    try:
        as_a = world.asys("a")
        plane = as_a.shard_pool
        sources = _sources(as_a, world.population("a"), ctx.source_count)
        dst = Endpoint(
            world.asys("b").aid,
            world.host("bob").acquire_ephid_direct().ephid,
        )
        packets = [source.packet(dst, b"flash") for source in sources]
        _maybe_arm_chaos(
            ctx, plane, _bursts_for(len(packets), ctx.burst_size)
        )
        tally = _Tally()
        tally.run_bursts(
            plane, _oracle(as_a), as_a.clock, packets,
            ctx.burst_size,
        )
        stats = plane.stats()
        report = _base_report("flash-crowd", ctx, tally, len(sources))
        report.invariants = _core_invariants(ctx, tally, stats)
        if not ctx.chaos:
            report.invariants.append(
                invariants.expected_drops(
                    "surge-exactness", tally.drop_reasons, {}
                )
            )
        if ctx.stream_flows:
            report.notes.update(_stream_arm(world, ctx))
            if not ctx.chaos:
                delivered = report.notes["stream_delivered"]
                offered = report.notes["stream_flows"]
                report.invariants.append(
                    InvariantResult(
                        "stream-delivery",
                        delivered == offered,
                        f"{delivered}/{offered} streamed flows delivered",
                    )
                )
        return report
    finally:
        world.close()


def _stream_arm(world, ctx: CaseContext) -> dict:
    """The TrafficProfile composition arm: protocol-level sessions
    through the same sharded plane the synthetic surge used."""
    from ..workload import TraceConfig, TrafficProfile

    profile = TrafficProfile(
        trace=TraceConfig(hosts=16, duration=600.0),
        clients=2,
        servers=1,
        client_at="a",
        server_at="b",
        max_flows=ctx.stream_flows,
        window=1.0,
        host_prefix="eval",
    )
    traffic = profile.drive(world)
    return {
        "stream_flows": traffic.flows_offered,
        "stream_delivered": traffic.payloads_delivered,
    }


@case(
    "revocation-wave",
    description="rolling revocation slices racing live traffic",
)
def _revocation_wave(ctx: CaseContext) -> ScenarioReport:
    waves = 4
    world = scenarios.build(
        f"metro:{ctx.scale}", seed=ctx.seed, config=ctx.config
    )
    try:
        as_a = world.asys("a")
        plane = as_a.shard_pool
        sources = _sources(as_a, world.population("a"), ctx.source_count)
        dst = Endpoint(
            world.asys("b").aid,
            world.host("bob").acquire_ephid_direct().ephid,
        )
        rounds = waves + 1
        _maybe_arm_chaos(
            ctx,
            plane,
            rounds * _bursts_for(len(sources), ctx.burst_size),
        )
        oracle = _oracle(as_a)
        tally = _Tally()
        wave_size = max(1, len(sources) // waves)
        exp_time = int(as_a.clock() + ctx.config.data_ephid_lifetime)
        expected_revoked = revoked = 0
        for round_no in range(rounds):
            # Everyone keeps transmitting; the `revoked` sources so far
            # must drop as SRC_REVOKED, nobody else may.
            expected_revoked += revoked
            packets = [source.packet(dst, b"wave") for source in sources]
            tally.run_bursts(
                plane, oracle, as_a.clock, packets, ctx.burst_size
            )
            if round_no < waves:
                # Revoke the next slice through the authoritative list;
                # the on_add hook queues it for every shard, and the
                # queue rides ahead of the next burst (ordered pipe).
                wave = sources[
                    round_no * wave_size : (round_no + 1) * wave_size
                ]
                for source in wave:
                    as_a.revocations.add(source.ephid, exp_time)
                revoked += len(wave)
        stats = plane.stats()
        report = _base_report("revocation-wave", ctx, tally, len(sources))
        report.notes["revoked_sources"] = revoked
        report.invariants = _core_invariants(ctx, tally, stats)
        if not ctx.chaos:
            report.invariants.append(
                invariants.expected_drops(
                    "revocation-exactness",
                    tally.drop_reasons,
                    {DropReason.SRC_REVOKED: expected_revoked},
                )
            )
        return report
    finally:
        world.close()


@case(
    "migration",
    description="hosts deregister at one AS and re-admit at the peer",
)
def _migration(ctx: CaseContext) -> ScenarioReport:
    world = scenarios.build(
        f"metro:{ctx.scale}", seed=ctx.seed, config=ctx.config
    )
    try:
        as_a, as_b = world.asys("a"), world.asys("b")
        plane_a, plane_b = as_a.shard_pool, as_b.shard_pool
        sources = _sources(as_a, world.population("a"), ctx.source_count)
        movers = sources[: max(1, len(sources) // 3)]
        toward_b = Endpoint(
            as_b.aid, world.host("bob").acquire_ephid_direct().ephid
        )
        toward_a = Endpoint(
            as_a.aid, world.host("alice").acquire_ephid_direct().ephid
        )
        rounds_a = 2 * _bursts_for(len(sources), ctx.burst_size)
        _maybe_arm_chaos(ctx, plane_a, rounds_a)
        oracle_a = _oracle(as_a)
        oracle_b = _oracle(as_b)
        tally_a, tally_b = _Tally(), _Tally()

        # Phase 1: everyone still lives at "a" and forwards.
        tally_a.run_bursts(
            plane_a,
            oracle_a,
            as_a.clock,
            [source.packet(toward_b, b"pre") for source in sources],
            ctx.burst_size,
        )

        # Phase 2: the movers leave "a" (HID revoked — their EphIDs die
        # with it) and re-register at "b" with fresh key material; both
        # database hooks queue the writes for the respective shard pools.
        arrivals: "list[_Source]" = []
        exp_time = int(as_b.clock() + ctx.config.data_ephid_lifetime)
        for source in movers:
            as_a.hostdb.revoke_hid(source.hid)
            hid = as_b.hostdb.allocate_hid()
            keys = HostAsKeys(as_b.rng.read(16), as_b.rng.read(16))
            as_b.hostdb.register(HostRecord(hid=hid, keys=keys))
            ephid = as_b.codec.seal(
                hid=hid, exp_time=exp_time, iv=as_b.ivs.next_iv_for(hid)
            )
            arrivals.append(
                _Source(
                    aid=as_b.aid,
                    hid=hid,
                    ephid=ephid,
                    mac=Cmac(keys.packet_mac),
                )
            )

        # Phase 3a: stale movers must drop at "a", stayers still forward.
        tally_a.run_bursts(
            plane_a,
            oracle_a,
            as_a.clock,
            [source.packet(toward_b, b"post") for source in sources],
            ctx.burst_size,
        )
        # Phase 3b: the arrivals' fresh EphIDs forward at "b" at once.
        tally_b.run_bursts(
            plane_b,
            oracle_b,
            as_b.clock,
            [arrival.packet(toward_a, b"home") for arrival in arrivals],
            ctx.burst_size,
        )

        stats_a, stats_b = plane_a.stats(), plane_b.stats()
        merged_stats = {
            key: stats_a.get(key, 0) + stats_b.get(key, 0)
            for key in set(stats_a) | set(stats_b)
        }
        tally = _Tally().merge(tally_a).merge(tally_b)
        report = _base_report("migration", ctx, tally, len(sources))
        report.notes["migrated"] = len(movers)
        report.invariants = _core_invariants(ctx, tally, merged_stats)
        if not ctx.chaos:
            report.invariants.append(
                invariants.expected_drops(
                    "migration-exactness",
                    tally.drop_reasons,
                    {DropReason.SRC_HID_INVALID: len(movers)},
                )
            )
        arrived = tally_b.forwarded
        report.invariants.append(
            InvariantResult(
                "arrivals-forward",
                arrived + tally_b.failures == len(arrivals)
                and tally_b.mismatches == 0,
                f"{arrived}/{len(arrivals)} re-admitted sources forwarded "
                f"at the new AS ({tally_b.failures} lost to injected "
                "faults)",
            )
        )
        return report
    finally:
        world.close()


@case(
    "churn",
    description="flash-crowd traffic under a crash storm, exactly accounted",
)
def _churn(ctx: CaseContext) -> ScenarioReport:
    traffic_rounds = 3
    world = scenarios.build(
        f"metro:{ctx.scale}", seed=ctx.seed, config=ctx.config
    )
    try:
        as_a = world.asys("a")
        plane = as_a.shard_pool
        sources = _sources(as_a, world.population("a"), ctx.source_count)
        dst = Endpoint(
            world.asys("b").aid,
            world.host("bob").acquire_ephid_direct().ephid,
        )
        bursts = traffic_rounds * _bursts_for(len(sources), ctx.burst_size)
        # Churn *is* the chaos composition: the storm is always on.
        plan = ctx.storm_plan(bursts)
        plane.install_faults(plan)
        oracle = _oracle(as_a)
        tally = _Tally()
        for _ in range(traffic_rounds):
            packets = [source.packet(dst, b"churn") for source in sources]
            tally.run_bursts(
                plane, oracle, as_a.clock, packets, ctx.burst_size
            )
        # Convergence: two warm rounds flush any straggler faults still
        # scheduled for lagging shard seqs, then one measured probe must
        # be loss-free and oracle-exact.
        probe = [
            source.packet(dst, b"probe")
            for source in sources[: ctx.burst_size]
        ]
        for _ in range(2):
            tally.run_bursts(
                plane, oracle, as_a.clock, probe, ctx.burst_size
            )
        probe_mismatches, probe_failures = tally.run_bursts(
            plane, oracle, as_a.clock, probe, ctx.burst_size
        )
        stats = plane.stats()
        report = _base_report("churn", ctx, tally, len(sources))
        report.notes["faults_injected"] = len(plan.injected)
        report.notes["restarts"] = stats.get("restarts", 0)
        report.notes["stale_replies"] = stats.get("stale_replies", 0)
        report.invariants = _core_invariants(ctx, tally, stats, chaos=True)
        report.invariants.append(
            invariants.convergence(
                probe_mismatches, probe_failures, len(probe)
            )
        )
        report.invariants.append(
            InvariantResult(
                "storm-activity",
                bool(plan.injected) and stats.get("degraded", 0) == 0,
                f"{len(plan.injected)} faults injected, "
                f"{stats.get('restarts', 0)} restarts, plane never "
                "degraded",
            )
        )
        return report
    finally:
        world.close()


@case(
    "shutoff-storm",
    description="on-path shutoff complaint storm through pathval.shutoff_ext",
)
def _shutoff_storm(ctx: CaseContext) -> ScenarioReport:
    world = scenarios.build(
        f"shutoff-storm:{ctx.scale}", seed=ctx.seed, config=ctx.config
    )
    try:
        as1, as2, as3 = (
            world.asys("as1"),
            world.asys("as2"),
            world.asys("as3"),
        )
        agent = upgrade_to_onpath(as1)
        plane = as1.shard_pool
        sources = _sources(as1, world.population("as1"), ctx.source_count)
        accused = sources[: max(1, min(len(sources) // 2, 32))]
        dst = Endpoint(
            as3.aid, world.host("dst").acquire_ephid_direct().ephid
        )
        stamper = PassportStamper(
            AsPairwiseKeys(as1.aid, as1.keys.exchange, world.rpki)
        )
        accepted = forged = unstamped = selfish = 0
        for i, source in enumerate(accused):
            offending = source.packet(dst, b"abuse")
            passport = stamper.stamp(offending, [as2.aid, as3.aid])
            stamp = passport.mac_for(as2.aid)
            assert stamp is not None
            valid = OnPathShutoffRequest.build(
                offending.to_wire(), as2.aid, stamp, as2.keys.signing
            )
            response = agent.handle_onpath_shutoff(valid)
            accepted += int(response.accepted)
            # Interleave adversarial complaints: each must bounce with
            # its own reject reason and revoke nobody.
            if i % 3 == 0:
                bad_sig = OnPathShutoffRequest.build(
                    offending.to_wire(), as2.aid, stamp, as3.keys.signing
                )
                forged += int(
                    not agent.handle_onpath_shutoff(bad_sig).accepted
                )
            elif i % 3 == 1:
                bad_stamp = OnPathShutoffRequest.build(
                    offending.to_wire(), as2.aid, bytes(8), as2.keys.signing
                )
                unstamped += int(
                    not agent.handle_onpath_shutoff(bad_stamp).accepted
                )
            else:
                own_goal = OnPathShutoffRequest.build(
                    offending.to_wire(), as1.aid, stamp, as1.keys.signing
                )
                selfish += int(
                    not agent.handle_onpath_shutoff(own_goal).accepted
                )

        _maybe_arm_chaos(
            ctx, plane, _bursts_for(len(sources), ctx.burst_size)
        )
        oracle = _oracle(as1)
        tally = _Tally()
        tally.run_bursts(
            plane,
            oracle,
            as1.clock,
            [source.packet(dst, b"after") for source in sources],
            ctx.burst_size,
        )
        stats = plane.stats()
        report = _base_report("shutoff-storm", ctx, tally, len(sources))
        report.notes["complaints_accepted"] = accepted
        report.notes["complaints_rejected"] = dict(sorted(agent.rejected.items()))
        report.invariants = _core_invariants(ctx, tally, stats)
        ledger_ok = (
            accepted == len(accused)
            and agent.onpath_accepted == len(accused)
            and agent.rejected.get("requester-signature-invalid", 0)
            == forged
            and agent.rejected.get("stamp-invalid", 0) == unstamped
            and agent.rejected.get("requester-is-self", 0) == selfish
            and forged + unstamped + selfish == len(accused)
        )
        report.invariants.append(
            InvariantResult(
                "shutoff-ledger",
                ledger_ok,
                f"{accepted}/{len(accused)} valid complaints revoked; "
                f"rejects: {forged} forged-signature, {unstamped} "
                f"bad-stamp, {selfish} self-requester",
            )
        )
        if not ctx.chaos:
            report.invariants.append(
                invariants.expected_drops(
                    "shutoff-enforcement",
                    tally.drop_reasons,
                    {DropReason.SRC_REVOKED: len(accused)},
                )
            )
        return report
    finally:
        world.close()
