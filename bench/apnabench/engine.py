"""Build a workload's world and drive its plan through the stable seams.

The untraced end-to-end run calls into ``repro`` only through
``scenarios.build`` / ``World``; ``ShardedDataPlane.submit/collect/
process``; ``ShardState.handle_burst`` with ``wire.encode_burst`` /
``decode_verdicts``; ``ManagementService.handle_request``; the state
write calls ``revocations.add``, ``hostdb.register/revoke_hid``; and
``plane.install_faults``.  Whatever sits between those calls is what
later changes restructure, so nothing finer is named here.
"""

from __future__ import annotations

import gc
import os
import time
from collections import deque
from dataclasses import dataclass, field

from repro import scenarios
from repro.core.border_router import BorderRouter, DropReason, Verdict
from repro.core.hostdb import HostRecord
from repro.core.keys import HostAsKeys
from repro.core.replay_filter import RotatingReplayFilter
from repro.crypto import active_backend
from repro.faults import FaultPlan
from repro.sharding import wire
from repro.sharding.plan import ShardPlan
from repro.sharding.supervisor import ShardStateSource
from repro.sharding.worker import ShardSpec, ShardState
from repro.wire.apna import ApnaPacket

from . import procstat
from .measure import NOMINAL_UNIT_NS, WorkClock, percentile
from .traffic import NOW_OFFSET, ControlRound, Plan, open_reply

_clock = time.perf_counter_ns


def shard_spec(asys, config, plan: ShardPlan, shard: int) -> ShardSpec:
    """One shard's worker spec over the AS's current state — what
    ``ShardedDataPlane.from_parts`` hands a spawned worker."""
    snapshot = ShardStateSource(asys.hostdb, asys.revocations).shard_snapshot(
        plan, shard
    )
    return ShardSpec(
        shard=shard,
        nshards=plan.nshards,
        aid=asys.aid,
        ephid_enc_key=asys.keys.secret.ephid_enc,
        ephid_mac_key=asys.keys.secret.ephid_mac,
        crypto_backend=active_backend().name,
        packet_mac_size=config.packet_mac_size,
        with_nonce=config.replay_protection,
        replay_window=(
            config.replay_filter_window
            if config.in_network_replay_filter
            else None
        ),
        replay_bits=config.replay_filter_bits,
        shard_block=plan.block,
        routing_mode=plan.mode,
        routing_key=plan.key or b"",
        state_backend=config.state_backend,
        snapshot=snapshot.encode(),
    )


class Deployment:
    """One world built from the plan's seed, ready to take its bursts."""

    def __init__(self, plan: Plan) -> None:
        started = time.perf_counter()
        self.plan = plan
        self.world = scenarios.build(plan.preset, seed=plan.seed, config=plan.config)
        self.build_s = time.perf_counter() - started
        try:
            self.asys = asys = self.world.asys("a")
            if asys.clock() + NOW_OFFSET != plan.now:
                raise AssertionError("clock differs between same-seed worlds")
            apply_setup(asys, plan)
            self.plane = asys.shard_pool if plan.sharded else None
            if self.plane is not None:
                self.process = self.plane.process
            else:
                self.state = ShardState(
                    shard_spec(asys, plan.config, ShardPlan(1), 0)
                )
                self.process = self._process_inproc
                self._seq = 0
            for burst in plan.warm:
                if self.process(burst.frames, burst.egress, plan.now) != burst.expect:
                    raise AssertionError("warm-up burst misjudged")
            self.fault_plan = None
            if plan.kills:
                if plan.warm:
                    raise AssertionError("kill seqs assume no warm-up bursts")
                self.fault_plan = FaultPlan(
                    {(shard, seq): "kill" for shard, seq in plan.kills}
                )
                self.plane.install_faults(self.fault_plan)
        except BaseException:
            self.world.close()
            raise
        self.setup_s = time.perf_counter() - started

    def _process_inproc(self, frames, egress, now) -> "list[Verdict]":
        """The in-process wire-to-verdict loop: burst message in,
        verdict message out, no pipe."""
        seq = self._seq
        self._seq = seq + 1
        directions = [wire.EGRESS if out else wire.INGRESS for out in egress]
        reply = self.state.handle_burst(
            wire.encode_burst(now, seq, frames, directions)
        )
        return wire.decode_verdicts(reply)[1]

    @property
    def pids(self) -> "list[int]":
        workers = procstat.worker_pids(self.asys.aid) if self.plane else []
        return [os.getpid()] + workers

    def close(self) -> None:
        self.world.close()


def apply_setup(asys, plan: Plan) -> None:
    """The state the plan's first burst expects: its standing
    revocations and revoked hosts."""
    for ephid, exp in plan.pre_revoke:
        asys.revocations.add(ephid, exp)
    for hid in plan.pre_revoke_hids:
        asys.hostdb.revoke_hid(hid)


def apply_writes(asys, round_: ControlRound) -> None:
    """The round's state writes; on a sharded AS the database hooks push
    each one to the shards."""
    for ephid, exp in round_.revoke_ephids:
        asys.revocations.add(ephid, exp)
    for hid, control, packet_mac in round_.register:
        if asys.hostdb.allocate_hid() != hid:
            raise AssertionError("HID allocation diverged from the plan")
        asys.hostdb.register(
            HostRecord(hid=hid, keys=HostAsKeys(control, packet_mac))
        )
    for hid in round_.revoke_hids:
        asys.hostdb.revoke_hid(hid)


#: Bursts between two readings of the work clock: short beside the
#: seconds a CPU stays slow, long enough that the readings (which also
#: drain the pipeline) take a few percent of the run.
GROUP = 64


@dataclass
class Timed:
    """Raw observations of one timed phase."""

    #: Per group of ``GROUP`` bursts: (wall ns, ns inside the MS, factor).
    groups: "list[tuple[int, int, float]]" = field(default_factory=list)
    latencies_ns: "list[int]" = field(default_factory=list)
    verdicts: "list[list[Verdict]]" = field(default_factory=list)
    #: (sealed reply, requester control key, expected EphID)
    replies: "list[tuple[bytes, bytes, bytes]]" = field(default_factory=list)
    cpu_own_s: float = 0.0
    cpu_workers_s: float = 0.0
    peak_rss_mb: float = 0.0

    def factor_of(self, burst: int) -> float:
        return self.groups[burst // GROUP][2]


def run_timed(dep: Deployment, plan: Plan, clock: WorkClock) -> Timed:
    """Closed loop, one caller: every burst of the plan, in order, with
    the work clock read between groups of bursts (never while a burst
    is in flight)."""
    out = Timed()
    now, rounds, bursts = plan.now, plan.rounds, plan.bursts
    latencies, verdicts = out.latencies_ns, out.verdicts
    if plan.depth > 1 and rounds:
        raise AssertionError("control rounds need an empty pipeline")
    process = dep.process
    if dep.plane is not None:
        submit, collect = dep.plane.submit, dep.plane.collect
    pending: deque = deque()
    meter = procstat.CpuMeter(dep.asys.aid if dep.plane else None)
    # The plan's frames and labels are the benchmark's own heap; keep
    # the collector from walking them while the system is on the clock.
    gc.collect()
    gc.freeze()
    try:
        unit_cpu = clock.cpu_s
        meter.start()
        before = clock.read()
        for first in range(0, len(bursts), GROUP):
            issue_ns = 0
            started = _clock()
            for index in range(first, min(first + GROUP, len(bursts))):
                burst = bursts[index]
                round_ = rounds.get(index)
                if round_ is not None:
                    issue_ns += _issue(dep, round_, out.replies)
                    apply_writes(dep.asys, round_)
                if plan.depth == 1:
                    sent = _clock()
                    got = process(burst.frames, burst.egress, now)
                    latencies.append(_clock() - sent)
                    verdicts.append(got)
                    continue
                sent = _clock()
                pending.append((submit(burst.frames, burst.egress, now), sent))
                if len(pending) == plan.depth:
                    ticket, sent = pending.popleft()
                    verdicts.append(collect(ticket))
                    latencies.append(_clock() - sent)
            while pending:
                ticket, sent = pending.popleft()
                verdicts.append(collect(ticket))
                latencies.append(_clock() - sent)
            wall_ns = _clock() - started
            after = clock.read()
            out.groups.append((wall_ns, issue_ns, clock.factor(before, after)))
            before = after
        out.cpu_own_s, out.cpu_workers_s = meter.stop()
        out.cpu_own_s -= clock.cpu_s - unit_cpu
        out.peak_rss_mb = procstat.peak_rss_mb(dep.pids)
    finally:
        gc.unfreeze()
    return out


def _issue(dep: Deployment, round_: ControlRound, replies: list) -> int:
    """The round's Fig. 3 requests; returns ns spent inside the MS."""
    handle = dep.asys.ms.handle_request
    sealed_replies = []
    started = _clock()
    for control, sealed, _ in round_.requests:
        sealed_replies.append(handle(control, sealed))
    spent = _clock() - started
    for reply, (_, _, key), ephid in zip(
        sealed_replies, round_.requests, round_.issued
    ):
        replies.append((reply, key, ephid))
    return spent


@dataclass
class Judgement:
    frames: int = 0
    #: Verdicts that differ from ground truth and no injected kill explains.
    failed: int = 0
    #: Frames forfeited (``SHARD_FAILURE``) in a burst that hit a kill.
    forfeited: int = 0
    kill_bursts: "list[int]" = field(default_factory=list)
    drops: "dict[str, int]" = field(default_factory=dict)


def judge(plan: Plan, verdicts: "list[list[Verdict]]", kills_injected: int) -> Judgement:
    """Compare every verdict with the generator's label."""
    result = Judgement()
    lost_in: "dict[int, int]" = {}
    for index, (burst, got) in enumerate(zip(plan.bursts, verdicts)):
        result.frames += len(burst.frames)
        for verdict in got:
            if verdict.reason is not None:
                key = verdict.reason.value
                result.drops[key] = result.drops.get(key, 0) + 1
        if got == burst.expect:
            continue
        for verdict, expected in zip(got, burst.expect):
            if verdict == expected:
                continue
            if verdict.reason is DropReason.SHARD_FAILURE:
                lost_in[index] = lost_in.get(index, 0) + 1
            else:
                result.failed += 1
        if len(got) != len(burst.expect):
            result.failed += abs(len(got) - len(burst.expect))
    if len(verdicts) != len(plan.bursts):
        result.failed += plan.frames - result.frames
    # Each kill forfeits exactly one sub-burst; more bursts with
    # forfeits than kills means something else failed.
    if len(lost_in) <= kills_injected:
        result.forfeited = sum(lost_in.values())
        result.kill_bursts = sorted(lost_in)
    else:
        result.failed += sum(lost_in.values())
    return result


def verify_issuance(dep_asys, replies, now: float) -> int:
    """Open and certificate-verify every sealed reply (outside the timed
    region); returns how many are wrong."""
    public = dep_asys.keys.signing.public
    wrong = 0
    for reply, key, ephid in replies:
        try:
            cert = open_reply(reply, key)
            cert.verify(public, now=now)
        except Exception:  # any failure to open or verify is one wrong reply
            wrong += 1
            continue
        if cert.ephid != ephid:
            wrong += 1
    return wrong


@dataclass
class Repeat:
    """One repeat, reduced to its per-repeat metric values (timings
    calibrated by the work clock; ``raw`` holds the wall-clock ones)."""

    metrics: "dict[str, float]"
    raw: "dict[str, float]"
    #: Mean unit time over the repeat — how fast the host was running.
    unit_ms: float
    frames: int
    failed: int
    forfeited: int
    issued: int
    issue_s: float
    restart_ms: "list[float]"
    build_s: float
    worker_cpu_share: float
    drops: "dict[str, int]"
    problems: "list[str]"


def run_repeat(plan: Plan, clock: WorkClock) -> "tuple[Repeat, Timed]":
    dep = Deployment(plan)
    try:
        timed = run_timed(dep, plan, clock)
        problems = []
        kills = 0
        if dep.plane is not None:
            stats = dep.plane.stats()
            kills = len(dep.fault_plan.injected) if dep.fault_plan else 0
            if stats["degraded"] or stats["restarts"] != kills:
                problems.append(
                    f"plane degraded={stats['degraded']} "
                    f"restarts={stats['restarts']} with {kills} kills injected"
                )
            if kills != len(plan.kills):
                problems.append(
                    f"{kills} of {len(plan.kills)} planned kills fired"
                )
        wrong_replies = verify_issuance(dep.asys, timed.replies, plan.now)
        if wrong_replies:
            problems.append(f"{wrong_replies} issuance replies wrong")
    finally:
        dep.close()
    judgement = judge(plan, timed.verdicts, kills)
    frames = judgement.frames
    wall_ns = sum(wall - issue for wall, issue, _ in timed.groups)
    cal_wall_ns = sum((wall - issue) * factor for wall, issue, factor in timed.groups)
    cal_issue_ns = sum(issue * factor for _, issue, factor in timed.groups)
    #: Time-weighted mean factor: scales whole-phase totals such as CPU.
    factor = cal_wall_ns / wall_ns
    raw_sorted = sorted(timed.latencies_ns)
    cal_sorted = sorted(
        latency * timed.factor_of(index)
        for index, latency in enumerate(timed.latencies_ns)
    )
    cpu_s = timed.cpu_own_s + timed.cpu_workers_s
    repeat = Repeat(
        metrics={
            "pkt_per_s": frames / (cal_wall_ns / 1e9),
            "burst_p50_us": percentile(cal_sorted, 0.50) / 1e3,
            "burst_p99_us": percentile(cal_sorted, 0.99) / 1e3,
            "cpu_us_per_pkt": cpu_s * factor / frames * 1e6,
            "peak_rss_mb": timed.peak_rss_mb,
            # Set-up is too short to bracket with readings of its own;
            # the factor of the timed phase that follows it stands in.
            "setup_s": dep.setup_s * factor,
        },
        raw={
            "pkt_per_s": frames / (wall_ns / 1e9),
            "burst_p50_us": percentile(raw_sorted, 0.50) / 1e3,
            "burst_p99_us": percentile(raw_sorted, 0.99) / 1e3,
            "cpu_us_per_pkt": cpu_s / frames * 1e6,
            "setup_s": dep.setup_s,
        },
        unit_ms=NOMINAL_UNIT_NS / factor / 1e6,
        frames=frames,
        failed=judgement.failed + wrong_replies,
        forfeited=judgement.forfeited,
        issued=len(timed.replies),
        issue_s=cal_issue_ns / 1e9,
        restart_ms=[
            timed.latencies_ns[i] * timed.factor_of(i) / 1e6
            for i in judgement.kill_bursts
        ],
        build_s=dep.build_s * factor,
        worker_cpu_share=timed.cpu_workers_s / cpu_s if cpu_s else 0.0,
        drops=judgement.drops,
        problems=problems,
    )
    return repeat, timed


def oracle_check(plan: Plan, bursts: int = 64) -> int:
    """Re-judge the plan's first bursts with the scalar Fig. 4 pipelines
    over the same state; returns how many labels the oracle disputes."""
    config = plan.config
    world = scenarios.build(plan.preset, seed=plan.seed, config=config)
    try:
        asys = world.asys("a")
        apply_setup(asys, plan)
        replay_filter = None
        if config.in_network_replay_filter:
            replay_filter = RotatingReplayFilter(window=config.replay_filter_window)
        oracle = BorderRouter(
            asys.aid,
            asys.codec,
            asys.hostdb,
            asys.revocations,
            lambda: plan.now,
            packet_mac_size=config.packet_mac_size,
            replay_filter=replay_filter,
        )
        disputed = 0
        for index, burst in enumerate(plan.bursts[:bursts]):
            round_ = plan.rounds.get(index)
            if round_ is not None:
                apply_writes(asys, round_)
            for frame, out, expected in zip(burst.frames, burst.egress, burst.expect):
                packet = ApnaPacket.from_wire(
                    frame, with_nonce=config.replay_protection
                )
                judge_one = oracle.process_outgoing if out else oracle.process_incoming
                if judge_one(packet) != expected:
                    disputed += 1
        return disputed
    finally:
        world.close()
