"""The traced run: where a burst's time goes, layer by layer.

One untraced reference pass (the plan at pipeline depth 1, so
``process`` latency is what gets decomposed), then the same bursts
again on a fresh same-seed world where each burst is

* sent through the live plane with ``submit`` and ``collect`` timed
  apart (pass A), and then, once the live system is shut down,
* replayed through an *exploded* pipeline (pass B): every layer's public
  function called in Fig. 4 order on in-process twins of the shard
  workers (``ShardState`` built from the same snapshots and fed the same
  warm-up and control writes, so cache temperature matches), each call
  recorded as a span ``[name, parent, burst, shard, start_ns, end_ns]``.

All spans are taken from this file, around calls into ``repro``;
nothing inside the program is instrumented.  Unlike the end-to-end
engine, this file necessarily names finer functions than the stable
seams — it is the part to update when a layer is restructured.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from dataclasses import replace
from pathlib import Path

from repro.core.border_router import DropReason
from repro.core.ephid import CIPHERTEXT_SIZE, IV_SIZE, EphIdCodec
from repro.core.hostdb import HostRecord
from repro.core.keys import HostAsKeys
from repro.core.messages import EphIdRequest
from repro.core.replay_filter import RotatingReplayFilter
from repro.crypto.aead import EtmScheme
from repro.crypto.cmac import Cmac
from repro.crypto.util import ct_eq
from repro.sharding import wire
from repro.sharding.plan import ShardPlan
from repro.sharding.supervisor import ShardStateSource
from repro.sharding.worker import ShardState
from repro.wire.apna import AID_SIZE, EPHID_SIZE, ApnaPacket

from . import engine
from .measure import WorkClock, percentile
from .traffic import ControlRound, Plan

_clock = time.perf_counter_ns

#: Clear IV of the source EphID and destination AID inside a packed
#: header — what the dispatcher routes on (Fig. 7 / Fig. 6 layouts).
_SRC_IV = slice(AID_SIZE + CIPHERTEXT_SIZE, AID_SIZE + CIPHERTEXT_SIZE + IV_SIZE)
_DST_AID = slice(AID_SIZE + 2 * EPHID_SIZE, 2 * AID_SIZE + 2 * EPHID_SIZE)

class Spans:
    """Span rows and counts of one pass, held in memory until the run
    ends.  Rows keep raw nanoseconds; the reductions below scale each
    span by the work-clock factor of its burst."""

    def __init__(self) -> None:
        self.rows: "list[tuple]" = []
        self.counts: "list[tuple]" = []
        #: burst index -> work-clock factor of the group it ran in.
        self.factor: "dict[int, float]" = {}
        self._by_name: "dict[str, list[tuple]]" = {}

    def _named(self, name: str) -> "list[tuple]":
        """Rows of one span name (indexed once, after the passes)."""
        if not self._by_name:
            for row in self.rows:
                self._by_name.setdefault(row[0], []).append(row)
        return self._by_name.get(name, [])

    def span(self, name, parent, burst, shard, start, end) -> None:
        self.rows.append((name, parent, burst, shard, start, end))

    def count(self, name, burst, shard, value) -> None:
        self.counts.append((name, burst, shard, value))

    def per_burst(self, name: str, reduce=sum) -> "list[float]":
        """One value per burst: the reduction over the burst's spans of
        that name (its shards, or its requests)."""
        grouped: "dict[int, list[int]]" = {}
        for row in self._named(name):
            if row[2] >= 0:
                grouped.setdefault(row[2], []).append(row[5] - row[4])
        factor = self.factor
        return [
            reduce(values) * factor.get(burst, 1.0)
            for burst, values in grouped.items()
        ]

    def each(self, name: str) -> "list[float]":
        factor = self.factor
        return [
            (row[5] - row[4]) * factor.get(row[2], 1.0)
            for row in self._named(name)
        ]

    def count_per_burst(self, name: str) -> "list[float]":
        grouped: "dict[int, float]" = {}
        for row in self.counts:
            if row[0] == name and row[1] >= 0:
                grouped[row[1]] = grouped.get(row[1], 0) + row[3]
        return list(grouped.values())


class Exploded:
    """Each layer's public function, called in pipeline order on twins
    of the shard workers."""

    def __init__(self, dep: engine.Deployment, plan: Plan, spans: Spans) -> None:
        asys, config = dep.asys, plan.config
        self.spans = spans
        self.now = plan.now
        self.aid = asys.aid
        self.sharded = plan.sharded
        self.shard_plan = asys.shard_plan if plan.sharded else ShardPlan(1)
        self.mac_size = config.packet_mac_size
        self.with_nonce = config.replay_protection
        nshards = self.shard_plan.nshards
        specs = [
            engine.shard_spec(asys, config, self.shard_plan, shard)
            for shard in range(nshards)
        ]
        #: Twin A runs ``handle_burst`` whole; twin B's state backs the
        #: stage-by-stage calls, so neither warms the other's caches.
        self.whole = [ShardState(spec) for spec in specs]
        self.stage = [ShardState(spec) for spec in specs]
        self.codec = EphIdCodec(
            asys.keys.secret.ephid_enc, asys.keys.secret.ephid_mac
        )
        #: Per shard: the CMAC contexts the stage calls have built so
        #: far (mirrors the router's per-host cache).
        self.macs: "list[dict[int, Cmac]]" = [{} for _ in range(nshards)]
        self.filters = [
            RotatingReplayFilter(
                window=config.replay_filter_window,
                bits_per_generation=config.replay_filter_bits,
            )
            if config.in_network_replay_filter
            else None
            for _ in range(nshards)
        ]
        self.seq = [0] * nshards

    # -- control writes, mirrored into the twins --

    def apply_writes(self, round_: ControlRound) -> None:
        for twins in (self.whole, self.stage):
            for shard, twin in enumerate(twins):
                for ephid, exp in round_.revoke_ephids:
                    twin.handle_revoke_ephid(wire.encode_revoke_ephid(ephid, exp))
                for hid, control, packet_mac in round_.register:
                    twin.handle_register_host(
                        wire.encode_register_host(
                            hid,
                            owned=self.shard_plan.owner_of(hid) == shard,
                            control=control,
                            packet_mac=packet_mac,
                        )
                    )
                for hid in round_.revoke_hids:
                    twin.handle_revoke_hid(wire.encode_revoke_hid(hid))

    # -- one burst --

    def burst(self, index: int, frames, egress) -> list:
        """Replay one burst; returns its verdicts in arrival order.
        ``index`` < 0 marks a warm-up burst: same calls, spans ignored
        by every metric."""
        spans, now = self.spans, self.now
        verdicts: list = [None] * len(frames)
        aid_bytes = self.aid.to_bytes(4, "big")
        routed, ivs = [], []
        for i, (frame, out) in enumerate(zip(frames, egress)):
            if not out and frame[_DST_AID] != aid_bytes:
                continue  # transit: the dispatcher answers, no shard sees it
            routed.append(i)
            ivs.append(frame[_SRC_IV])
        transit = len(frames) - len(routed)
        spans.count("sharding.pool.transit_frames", index, -1, transit)
        if self.sharded:
            start = _clock()
            owners = self.shard_plan.owners_of_iv_bytes(ivs)
            spans.span("sharding.plan.route", "burst", index, -1, start, _clock())
        else:
            owners = [0] * len(routed)
        by_shard: "dict[int, list[int]]" = {}
        for i, shard in zip(routed, owners):
            by_shard.setdefault(shard, []).append(i)
        largest = max((len(idx) for idx in by_shard.values()), default=0)
        mean = len(routed) / len(self.whole)
        spans.count(
            "sharding.pool.shard_imbalance", index, -1,
            largest / mean if mean else 0.0,
        )
        for shard, indexes in by_shard.items():
            sub = [frames[i] for i in indexes]
            directions = [wire.EGRESS if egress[i] else wire.INGRESS for i in indexes]
            seq = self.seq[shard]
            self.seq[shard] = seq + 1
            start = _clock()
            message = wire.encode_burst(now, seq, sub, directions)
            spans.span("sharding.wire.burst_encode", "burst", index, shard, start, _clock())
            start = _clock()
            reply = self.whole[shard].handle_burst(message)
            spans.span("sharding.worker.handle_burst", "burst", index, shard, start, _clock())
            start = _clock()
            _, _, sub, directions = wire.decode_burst(message)
            spans.span("sharding.wire.burst_decode", "sharding.worker.handle_burst", index, shard, start, _clock())
            staged = self._stages(index, shard, sub, directions)
            start = _clock()
            restaged = wire.encode_verdicts(seq, staged)
            spans.span("sharding.wire.verdict_encode", "sharding.worker.handle_burst", index, shard, start, _clock())
            start = _clock()
            _, answered = wire.decode_verdicts(reply)
            spans.span("sharding.wire.verdict_decode", "burst", index, shard, start, _clock())
            if restaged != reply:
                raise AssertionError(
                    f"burst {index} shard {shard}: stage twin and whole twin disagree"
                )
            spans.count("sharding.pool.ipc_bytes", index, shard, len(message) + len(reply))
            for i, verdict in zip(indexes, answered):
                verdicts[i] = verdict
        return verdicts

    def _stages(self, index: int, shard: int, frames, directions) -> list:
        """The Fig. 4 stages one by one on twin B; returns the verdicts
        of twin B's own ``process_mixed_batch``."""
        spans, now, aid = self.spans, self.now, self.aid
        twin = self.stage[shard]
        hosts, revocations = twin.hosts, twin.revocations
        parent = "core.border_router.verdict"

        start = _clock()
        packets = [
            ApnaPacket.from_wire(frame, with_nonce=self.with_nonce)
            for frame in frames
        ]
        spans.span("wire.apna.parse", "sharding.worker.handle_burst", index, shard, start, _clock())
        egress = [d == wire.EGRESS for d in directions]

        # Source side (egress frames): open, expiry, revocation, HID.
        outgoing = [
            i for i, out in enumerate(egress)
            if out and packets[i].header.src_aid == aid
        ]
        distinct = list(dict.fromkeys(packets[i].header.src_ephid for i in outgoing))
        start = _clock()
        infos = dict(zip(distinct, self.codec.open_batch(distinct)))
        spans.span("core.ephid.open", parent, index, shard, start, _clock())
        opened = len(distinct)
        candidates = []
        for i in outgoing:
            info = infos[packets[i].header.src_ephid]
            if info is not None and info.exp_time >= now:
                candidates.append((i, packets[i].header.src_ephid, info.hid))
        contains, is_valid = revocations.contains, hosts.is_valid
        start = _clock()
        checks = [(contains(ephid), is_valid(hid)) for _, ephid, hid in candidates]
        spans.span("state.lookup", parent, index, shard, start, _clock())
        by_hid: "dict[int, list[int]]" = {}
        for (i, _, hid), (revoked, valid) in zip(candidates, checks):
            if not revoked and valid:
                by_hid.setdefault(hid, []).append(i)

        # Per-host CMAC: key fetch and key schedule for first-seen HIDs,
        # then one tag_many per HID group.
        macs = self.macs[shard]
        first_seen = [hid for hid in by_hid if hid not in macs]
        start = _clock()
        keys = [hosts.get(hid).keys.packet_mac for hid in first_seen]
        spans.span("state.key_fetch", parent, index, shard, start, _clock())
        start = _clock()
        built = [Cmac(key) for key in keys]
        spans.span("crypto.cmac.keysched", parent, index, shard, start, _clock())
        macs.update(zip(first_seen, built))
        spans.count("crypto.cmac.first_seen", index, shard, len(first_seen))
        groups = [
            (macs[hid], [packets[i].mac_input() for i in indexes], indexes)
            for hid, indexes in by_hid.items()
        ]
        mac_size = self.mac_size
        start = _clock()
        tagged = [mac.tag_many(inputs, mac_size) for mac, inputs, _ in groups]
        spans.span("crypto.cmac.tag", parent, index, shard, start, _clock())
        spans.count("crypto.cmac.groups", index, shard, len(groups))
        spans.count(
            "crypto.cmac.bytes", index, shard,
            sum(len(message) for _, inputs, _ in groups for message in inputs),
        )
        authentic = sorted(
            i
            for (_, _, indexes), tags in zip(groups, tagged)
            for i, tag in zip(indexes, tags)
            if ct_eq(tag, packets[i].header.mac)
        )

        # Replay filter, then the destination side for local deliveries.
        incoming = [
            i for i, out in enumerate(egress)
            if not out and packets[i].header.dst_aid == aid
        ]
        replay_filter = self.filters[shard]
        fresh_out, fresh_in = authentic, incoming
        if replay_filter is not None:
            observe = replay_filter.observe
            nonced = [
                (packets[i].header.src_ephid, packets[i].header.nonce)
                for i in authentic + incoming
            ]
            start = _clock()
            fresh = [observe(ephid, nonce, now) for ephid, nonce in nonced]
            spans.span("core.replay_filter.observe", parent, index, shard, start, _clock())
            fresh_out = [i for i, ok in zip(authentic, fresh) if ok]
            fresh_in = [i for i, ok in zip(incoming, fresh[len(authentic):]) if ok]
        local = [i for i in fresh_out if packets[i].header.dst_aid == aid] + fresh_in
        if local:
            distinct = list(dict.fromkeys(packets[i].header.dst_ephid for i in local))
            start = _clock()
            infos = dict(zip(distinct, self.codec.open_batch(distinct)))
            spans.span("core.ephid.open", parent, index, shard, start, _clock())
            opened += len(distinct)
            candidates = [
                (packets[i].header.dst_ephid, infos[packets[i].header.dst_ephid])
                for i in local
            ]
            candidates = [
                (ephid, info.hid) for ephid, info in candidates
                if info is not None and info.exp_time >= now
            ]
            start = _clock()
            for ephid, hid in candidates:
                contains(ephid)
                is_valid(hid)
            spans.span("state.lookup", parent, index, shard, start, _clock())
        spans.count("core.ephid.distinct", index, shard, opened)

        twin.clock.now = now  # handle_burst would set it from the message
        start = _clock()
        verdicts = twin.router.process_mixed_batch(packets, egress)
        spans.span(parent, "sharding.worker.handle_burst", index, shard, start, _clock())
        return verdicts


def _traced_writes(dep: engine.Deployment, round_: ControlRound, index: int, spans: Spans) -> None:
    """The round's state writes with the store call and its broadcast
    to the shards timed apart: the database hook is detached, the write
    made, then the hook called by hand."""
    asys = dep.asys
    revocations, hostdb = asys.revocations, asys.hostdb
    push = revocations.on_add
    revocations.on_add = None
    try:
        for ephid, exp in round_.revoke_ephids:
            start = _clock()
            revocations.add(ephid, exp)
            middle = _clock()
            push(ephid, exp)
            spans.span("state.revlist.add", "control", index, -1, start, middle)
            spans.span("sharding.pool.ctrl_push", "control", index, -1, middle, _clock())
    finally:
        revocations.on_add = push
    push = hostdb.on_register
    hostdb.on_register = None
    try:
        for hid, control, packet_mac in round_.register:
            if hostdb.allocate_hid() != hid:
                raise AssertionError("HID allocation diverged from the plan")
            record = HostRecord(hid=hid, keys=HostAsKeys(control, packet_mac))
            start = _clock()
            hostdb.register(record)
            middle = _clock()
            push(record)
            spans.span("state.columns.register", "control", index, -1, start, middle)
            spans.span("sharding.pool.ctrl_push", "control", index, -1, middle, _clock())
    finally:
        hostdb.on_register = push
    for hid in round_.revoke_hids:
        hostdb.revoke_hid(hid)


def _traced_issuance(dep: engine.Deployment, round_: ControlRound, index: int, spans: Spans, replies: list) -> None:
    """The live Fig. 3 path timed per request, then its parts —
    ``issue``, ``codec.seal``, the certificate signature, the request
    open and reply seal — on AS ``b``'s idle services, so AS ``a``'s IV
    allocator and RNG stay on the plan's sequence."""
    handle = dep.asys.ms.handle_request
    b = dep.world.asys("b")
    peers = dep.world.population("b")
    exp = int(b.clock() + dep.plan.config.data_ephid_lifetime)
    for k, ((control, sealed, key), ephid) in enumerate(
        zip(round_.requests, round_.issued)
    ):
        start = _clock()
        reply = handle(control, sealed)
        spans.span("core.management.handle_request", "control", index, -1, start, _clock())
        replies.append((reply, key, ephid))

        scheme = EtmScheme(key)
        start = _clock()
        plain = scheme.open(sealed[:12], sealed[12:], b"ephid-request")
        resealed = scheme.seal(reply[:12], plain, b"ephid-reply")
        spans.span("crypto.aead.etm", "core.management.handle_request", index, -1, start, _clock())
        del resealed
        request = EphIdRequest.parse(plain)
        hid = peers[(index * len(round_.requests) + k) % len(peers)]
        start = _clock()
        cert = b.ms.issue(hid, request)
        spans.span("core.management.issue", "core.management.handle_request", index, -1, start, _clock())
        iv = b.ivs.next_iv_for(hid)
        start = _clock()
        b.codec.seal(hid=hid, exp_time=exp, iv=iv)
        spans.span("core.ephid.seal", "core.management.issue", index, -1, start, _clock())
        tbs = cert.tbs()
        start = _clock()
        b.keys.signing.sign(tbs)
        spans.span("crypto.ed25519.sign", "core.management.issue", index, -1, start, _clock())


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _grouped(count: int):
    """Burst index ranges between two work-clock readings."""
    for first in range(0, count, engine.GROUP):
        yield range(first, min(first + engine.GROUP, count))


def run_traced(plan: Plan, names: "list[str]", out_dir: "Path | None") -> dict:
    """Reference pass + traced passes; returns the per-layer metrics
    ``names`` (the contract's), checks and the attempted/failed tally."""
    sync = replace(plan, depth=1)
    clock = WorkClock(per_cpu=sync.sharded)
    reference, ref_timed = engine.run_repeat(sync, clock)
    ref_verdicts = ref_timed.verdicts
    problems = list(reference.problems)

    live, spans = Spans(), Spans()
    dep = engine.Deployment(sync)
    try:
        # Twins are cut from the set-up state now, replayed later.
        exploded = Exploded(dep, sync, spans)
        source = ShardStateSource(dep.asys.hostdb, dep.asys.revocations)
        start = _clock()
        resync = source.shard_snapshot(exploded.shard_plan, 0).encode()
        live.span("state.snapshot.encode", "setup", 0, 0, start, _clock())

        # Pass A — the live system alone, so twin work cannot disturb
        # it: submit and collect timed apart, control calls one by one.
        live_verdicts, live_ns, replies = [], [], []
        # As in the untraced engine: the plan's heap is the benchmark's
        # own and stays out of the collector's way while spans are taken.
        gc.collect()
        gc.freeze()
        try:
            before = clock.read()
            for group in _grouped(len(sync.bursts)):
                for index in group:
                    burst = sync.bursts[index]
                    round_ = sync.rounds.get(index)
                    if round_ is not None:
                        _traced_issuance(dep, round_, index, live, replies)
                        _traced_writes(dep, round_, index, live)
                    if dep.plane is not None:
                        start = _clock()
                        ticket = dep.plane.submit(burst.frames, burst.egress, sync.now)
                        middle = _clock()
                        got = dep.plane.collect(ticket)
                        end = _clock()
                        live.span("sharding.pool.submit", "burst", index, -1, start, middle)
                        live.span("sharding.pool.collect", "burst", index, -1, middle, end)
                    else:
                        start = _clock()
                        got = dep.process(burst.frames, burst.egress, sync.now)
                        end = _clock()
                    live_ns.append(end - start)
                    live_verdicts.append(got)
                after = clock.read()
                live.factor.update(dict.fromkeys(group, clock.factor(before, after)))
                before = after
        finally:
            gc.unfreeze()
        kills = len(dep.fault_plan.injected) if dep.fault_plan else 0
        wrong_replies = engine.verify_issuance(dep.asys, replies, sync.now)
    finally:
        dep.close()

    # Pass B — the same bursts through the exploded pipeline, with the
    # live system gone: one process, so the clock reads where it runs.
    mismatched = 0
    clock = WorkClock(per_cpu=False)
    gc.collect()
    gc.freeze()
    try:
        for k, burst in enumerate(sync.warm):
            exploded.burst(-1 - k, burst.frames, burst.egress)
        before = clock.read()
        for group in _grouped(len(sync.bursts)):
            for index in group:
                burst = sync.bursts[index]
                round_ = sync.rounds.get(index)
                if round_ is not None:
                    exploded.apply_writes(round_)
                replayed = exploded.burst(index, burst.frames, burst.egress)
                # Transit frames never reach a twin; the reference run's
                # forfeits (SHARD_FAILURE) have no exploded counterpart.
                for mine, real in zip(replayed, ref_verdicts[index]):
                    if mine is None or real.reason is DropReason.SHARD_FAILURE:
                        continue
                    if mine != real:
                        mismatched += 1
            after = clock.read()
            spans.factor.update(dict.fromkeys(group, clock.factor(before, after)))
            before = after
    finally:
        gc.unfreeze()
    judged = engine.judge(sync, live_verdicts, kills)
    if mismatched:
        problems.append(f"{mismatched} exploded verdicts differ from the untraced run")
    if wrong_replies:
        problems.append(f"{wrong_replies} traced issuance replies wrong")

    frames = judged.frames
    bursts = len(sync.bursts)
    us = 1e-3
    metrics = dict.fromkeys(names, 0.0)
    samples = {name: 0 for name in metrics}

    def stage(metric: str, span: str, source: Spans = spans) -> float:
        values = source.per_burst(span)
        samples[metric] = len(values)
        metrics[metric] = _median(values) * us
        return metrics[metric]

    def each(metric: str, span: str) -> None:
        values = live.each(span)
        samples[metric] = len(values)
        metrics[metric] = _median(values) * us

    def share(metric: str, count: str) -> None:
        values = spans.count_per_burst(count)
        samples[metric] = len(values)
        metrics[metric] = sum(values) / frames

    def per_burst_count(metric: str, count: str) -> None:
        values = spans.count_per_burst(count)
        samples[metric] = len(values)
        metrics[metric] = _median(values)

    stage("wire.apna.parse_us", "wire.apna.parse")
    children = sum(
        stage(metric, span)
        for metric, span in (
            ("core.ephid.open_us", "core.ephid.open"),
            ("state.lookup_us", "state.lookup"),
            ("state.key_fetch_us", "state.key_fetch"),
            ("crypto.cmac.keysched_us", "crypto.cmac.keysched"),
            ("crypto.cmac.tag_us", "crypto.cmac.tag"),
            ("core.replay_filter.observe_us", "core.replay_filter.observe"),
        )
    )
    verdict_us = stage("core.border_router.verdict_us", "core.border_router.verdict")
    metrics["core.border_router.self_us"] = verdict_us - children
    samples["core.border_router.self_us"] = samples["core.border_router.verdict_us"]
    share("core.ephid.distinct_share", "core.ephid.distinct")
    share("crypto.cmac.cold_share", "crypto.cmac.first_seen")
    per_burst_count("crypto.cmac.bytes_per_burst", "crypto.cmac.bytes")
    per_burst_count("crypto.cmac.groups_per_burst", "crypto.cmac.groups")
    drops = sum(n for reason, n in judged.drops.items())
    metrics["core.border_router.drop_share"] = drops / frames
    metrics["core.replay_filter.replay_share"] = (
        judged.drops.get(DropReason.REPLAYED.value, 0) / frames
    )
    samples["core.border_router.drop_share"] = frames
    samples["core.replay_filter.replay_share"] = frames
    stage("sharding.worker.handle_burst_us", "sharding.worker.handle_burst")
    stage("sharding.wire.burst_encode_us", "sharding.wire.burst_encode")
    stage("sharding.wire.burst_decode_us", "sharding.wire.burst_decode")
    stage("sharding.wire.verdict_encode_us", "sharding.wire.verdict_encode")
    stage("sharding.wire.verdict_decode_us", "sharding.wire.verdict_decode")
    each("state.snapshot.encode_us", "state.snapshot.encode")
    metrics["state.snapshot.resync_bytes"] = float(len(resync))
    samples["state.snapshot.resync_bytes"] = 1
    metrics["topology.build_s"] = reference.build_s
    samples["topology.build_s"] = 1
    for metric, span in (
        ("core.management.handle_request_us", "core.management.handle_request"),
        ("core.management.issue_us", "core.management.issue"),
        ("core.ephid.seal_us", "core.ephid.seal"),
        ("crypto.ed25519.sign_us", "crypto.ed25519.sign"),
        ("crypto.aead.etm_us", "crypto.aead.etm"),
        ("state.revlist.add_us", "state.revlist.add"),
        ("state.columns.register_us", "state.columns.register"),
        ("sharding.pool.ctrl_push_us", "sharding.pool.ctrl_push"),
    ):
        each(metric, span)
    if reference.issue_s:
        metrics["core.management.issue_per_s"] = reference.issued / reference.issue_s
        samples["core.management.issue_per_s"] = reference.issued
    metrics["sharding.supervisor.restart_ms"] = _median(reference.restart_ms)
    samples["sharding.supervisor.restart_ms"] = len(reference.restart_ms)
    metrics["sharding.supervisor.forfeited_share"] = reference.forfeited / reference.frames
    samples["sharding.supervisor.forfeited_share"] = reference.frames

    untraced_p50 = reference.metrics["burst_p50_us"]
    traced_p50 = us * percentile(
        sorted(ns * live.factor[i] for i, ns in enumerate(live_ns)), 0.50
    )
    metrics["trace_overhead_pct"] = 100.0 * (traced_p50 / untraced_p50 - 1.0)
    samples["trace_overhead_pct"] = bursts
    checks = {
        "untraced_burst_p50_us": untraced_p50,
        "traced_burst_p50_us": traced_p50,
    }
    if sync.sharded:
        stage("sharding.plan.route_us", "sharding.plan.route")
        stage("sharding.pool.submit_us", "sharding.pool.submit", live)
        stage("sharding.pool.collect_us", "sharding.pool.collect", live)
        per_burst_count("sharding.pool.ipc_bytes_per_burst", "sharding.pool.ipc_bytes")
        per_burst_count("sharding.pool.shard_imbalance", "sharding.pool.shard_imbalance")
        share("sharding.pool.transit_share", "sharding.pool.transit_frames")
        metrics["sharding.pool.worker_cpu_share"] = reference.worker_cpu_share
        samples["sharding.pool.worker_cpu_share"] = reference.frames
        # What blocks a synchronous burst: route, every encode, the
        # slowest shard, every verdict decode.  What the untraced
        # process() p50 takes beyond that is pipe wake-ups, ticket
        # bookkeeping and merge.
        blocking = (
            metrics["sharding.plan.route_us"]
            + metrics["sharding.wire.burst_encode_us"]
            + _median(spans.per_burst("sharding.worker.handle_burst", max)) * us
            + metrics["sharding.wire.verdict_decode_us"]
        )
        metrics["sharding.pool.unattributed_us"] = untraced_p50 - blocking
        samples["sharding.pool.unattributed_us"] = bursts
        checks["blocking_stage_sum_us"] = blocking

    result = {
        "metrics": metrics,
        "samples": samples,
        "checks": checks,
        "drops": judged.drops,
        "attempted": reference.frames + frames,
        "failed": reference.failed + judged.failed + mismatched + wrong_replies,
        "problems": problems,
    }
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"trace_{plan.name}.json"
        with open(path, "w") as handle:
            json.dump(
                {
                    "workload": plan.name,
                    "seed": plan.seed,
                    "span_columns": ["name", "parent", "burst", "shard", "start_ns", "end_ns"],
                    "count_columns": ["name", "burst", "shard", "value"],
                    "metrics": metrics,
                    "samples": samples,
                    "checks": checks,
                    "drops": judged.drops,
                    "factor_note": "calibrated ns = (end_ns - start_ns) * factor[burst]",
                    "live_pass": {
                        "factor": [live.factor[i] for i in range(bursts)],
                        "spans": live.rows,
                    },
                    "exploded_pass": {
                        "factor": [spans.factor[i] for i in range(bursts)],
                        "spans": spans.rows,
                        "counts": spans.counts,
                    },
                },
                handle,
            )
        result["trace_file"] = str(path)
    return result
