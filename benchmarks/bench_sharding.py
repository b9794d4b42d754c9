"""Sharded data plane — the §V-A3 share-nothing scaling curve.

The paper's MS throughput comes from 4 coordination-free processes; PR 4
made the burst the unit of work (``process_batch``, ~3x the scalar loop
at burst 64 on openssl).  This module measures what stacking the two
buys: a :class:`~repro.sharding.ShardedDataPlane` at 1/2/4 shards
against the single-process batch and scalar loops over the same
64-packet bursts.

Reading the curve: the 1-shard arm prices the dispatcher + IPC overhead
(route, pack, one pipe round-trip per burst); each added shard should
recover worker time roughly linearly *on a multi-core host*, and because
every worker runs the batched loop, the sharded plane's throughput vs
the **scalar** single-process loop is super-linear in the shard count —
the acceptance bar recorded in ``extra_info``.  Bursts are pipelined
(several in flight) exactly as a line-rate deployment would run, so the
dispatcher packs burst k+1 while the shards crunch burst k.

On a single-core CI container the curve degenerates (everything shares
one core); ``extra_info["cpu_count"]`` says which regime a snapshot was
measured in.

PR 6 adds the robustness arms: ``test_shard_recovery_time`` prices one
full failure cycle (worker SIGKILL → drop-and-count → respawn + state
resync → first clean burst), and ``test_supervision_steady_state_overhead``
runs the scaling curve's pipelined workload through the bounded
``poll``-then-``recv`` reply wait the supervisor needs on the no-failure
path.
"""

import os

import pytest

from repro.core.border_router import Action, DropReason
from repro.core.config import ApnaConfig
from repro.crypto import backend as crypto_backend
from repro.experiments.common import build_bench_world
from repro.faults import FaultPlan
from repro.sharding import (
    ShardedDataPlane,
    SupervisorPolicy,
    run_issuance_shards,
    split_requests,
)
from repro.workload.packets import build_apna_pool

SHARD_COUNTS = (1, 2, 4)
BURST = 64
#: Bursts in flight per measured round (the pipelining depth).
ROUNDS = 8


def _preferred_backend() -> str:
    names = crypto_backend.available_backends()
    return "openssl" if "openssl" in names else names[0]


def _build(nshards: int):
    """A two-AS world (shard-pinned when ``nshards > 1``) plus one
    64-packet egress burst and a running plane of ``nshards`` workers."""
    backend = _preferred_backend()
    with crypto_backend.use_backend(backend):
        config = ApnaConfig(
            forwarding_shards=nshards if nshards > 1 else 0,
            forwarding_batch_size=BURST,
        )
        world = build_bench_world(seed=4321, hosts_per_as=4, config=config)
        as_a = world.asys("a")
        frames = build_apna_pool(
            as_a, world.hosts_a, size=512, count=BURST, dst_aid=200
        ).wire_frames
        if nshards > 1:
            plane = as_a.shard_pool
        else:
            plane = ShardedDataPlane.for_assembly(as_a, 1)
        # Warm every worker's per-host CMAC cache inside the context.
        for verdict in plane.process(frames, [True] * len(frames), as_a.clock()):
            assert verdict.action is Action.FORWARD_INTER
    return backend, world, plane, frames


@pytest.fixture(scope="module", params=SHARD_COUNTS)
def sharded_plane(request):
    nshards = request.param
    backend, world, plane, frames = _build(nshards)
    yield nshards, backend, world, plane, frames
    if plane is not world.asys("a").shard_pool:
        plane.close()
    world.close()


def test_sharded_egress_pipelined(benchmark, sharded_plane):
    """The scaling curve: ROUNDS pipelined 64-packet bursts per round,
    at 1/2/4 worker shards."""
    nshards, backend, world, plane, frames = sharded_plane
    as_a = world.asys("a")
    now = as_a.clock()
    egress = [True] * len(frames)

    def run_pipelined():
        tickets = [plane.submit(frames, egress, now) for _ in range(ROUNDS)]
        verdicts = None
        for ticket in tickets:
            verdicts = plane.collect(ticket)
        assert verdicts[-1].action is Action.FORWARD_INTER

    benchmark(run_pipelined)
    benchmark.extra_info["crypto_backend"] = backend
    benchmark.extra_info["shards"] = nshards
    benchmark.extra_info["burst_size"] = BURST
    benchmark.extra_info["bursts_per_round"] = ROUNDS
    benchmark.extra_info["packets_per_round"] = ROUNDS * BURST
    benchmark.extra_info["cpu_count"] = os.cpu_count()
    benchmark.extra_info["paper_result"] = (
        "share-nothing processes scale with no coordination (§V-A3)"
    )


@pytest.fixture(scope="module")
def reference_world():
    """Single-process comparator world (same backend, same burst)."""
    backend = _preferred_backend()
    with crypto_backend.use_backend(backend):
        world = build_bench_world(
            seed=4321,
            hosts_per_as=4,
            config=ApnaConfig(forwarding_batch_size=BURST),
        )
        as_a = world.asys("a")
        packets = build_apna_pool(
            as_a, world.hosts_a, size=512, count=BURST, dst_aid=200
        ).apna_packets
        for verdict in as_a.br.process_batch(list(packets)):
            assert verdict.action is Action.FORWARD_INTER
    return backend, world, packets


@pytest.mark.parametrize("mode", ["scalar", "batch"])
def test_single_process_reference(benchmark, reference_world, mode):
    """The in-process loops over the identical workload (ROUNDS x 64
    packets) — the denominators of the scaling claim."""
    backend, world, packets = reference_world
    br = world.asys("a").br

    if mode == "scalar":

        def run_rounds():
            process = br.process_outgoing
            for _ in range(ROUNDS):
                for packet in packets:
                    verdict = process(packet)
            assert verdict.action is Action.FORWARD_INTER

    else:

        def run_rounds():
            for _ in range(ROUNDS):
                verdicts = br.process_batch(packets)
            assert verdicts[-1].action is Action.FORWARD_INTER

    benchmark(run_rounds)
    benchmark.extra_info["crypto_backend"] = backend
    benchmark.extra_info["mode"] = mode
    benchmark.extra_info["burst_size"] = BURST
    benchmark.extra_info["packets_per_round"] = ROUNDS * BURST
    benchmark.extra_info["cpu_count"] = os.cpu_count()
    benchmark.extra_info["paper_result"] = (
        "2-shard throughput should beat this batch arm on multi-core hosts; "
        "sharded-vs-scalar should scale super-linearly"
    )


def test_dispatch_only_routing(benchmark, sharded_plane):
    """Dispatcher overhead in isolation: route one burst's frames to
    shards without any IPC — the budget the shards must amortise."""
    nshards, backend, world, plane, frames = sharded_plane

    def route_burst():
        total = 0
        for frame in frames:
            total += plane.shard_of_frame(frame)
        assert 0 <= total <= len(frames) * max(1, plane.nshards - 1)

    benchmark(route_burst)
    benchmark.extra_info["crypto_backend"] = backend
    benchmark.extra_info["shards"] = nshards
    benchmark.extra_info["burst_size"] = BURST


def _supervised_plane(world, policy):
    """A 2-shard plane over the world's AS ``a`` with an explicit
    supervision policy (``for_assembly`` would read it from config)."""
    as_a = world.asys("a")
    return ShardedDataPlane.from_parts(
        aid=as_a.aid,
        enc_key=as_a.keys.secret.ephid_enc,
        mac_key=as_a.keys.secret.ephid_mac,
        hostdb=as_a.hostdb,
        revocations=as_a.revocations,
        nshards=2,
        plan=as_a.shard_plan,
        crypto_backend=_preferred_backend(),
        packet_mac_size=world.asys("a").config.packet_mac_size,
        supervision=policy,
    )


@pytest.fixture(scope="module")
def recovery_plane():
    """A supervised 2-shard plane armed so every odd burst to shard 0
    SIGKILLs its worker — each measured round is one full failure cycle."""
    backend = _preferred_backend()
    with crypto_backend.use_backend(backend):
        config = ApnaConfig(forwarding_shards=2, forwarding_batch_size=BURST)
        world = build_bench_world(seed=4321, hosts_per_as=4, config=config)
        as_a = world.asys("a")
        frames = build_apna_pool(
            as_a, world.hosts_a, size=512, count=BURST, dst_aid=200
        ).wire_frames
        plane = _supervised_plane(
            world,
            SupervisorPolicy(
                reply_timeout=5.0, max_restarts=1_000_000, restart_backoff=0.001
            ),
        )
        # Warm burst: every shard at seq 0, before the kill schedule bites.
        plane.process(frames, [True] * len(frames), as_a.clock())
    plane.install_faults(
        FaultPlan({(0, seq): "kill" for seq in range(1, 10_000, 2)})
    )
    yield backend, world, plane, frames
    plane.close()
    world.close()


def test_shard_recovery_time(benchmark, recovery_plane):
    """Time-to-recover from a worker death: each round absorbs one
    SIGKILL (drop-and-count the widowed sub-burst, respawn the worker,
    resync hostdb/revocations over the pipe) and then carries one fully
    clean burst — the first post-resync verdicts."""
    backend, world, plane, frames = recovery_plane
    as_a = world.asys("a")
    now = as_a.clock()
    egress = [True] * len(frames)

    def kill_and_recover():
        crashed = plane.process(frames, egress, now)  # draws the kill
        assert any(
            v.reason is DropReason.SHARD_FAILURE for v in crashed
        ), "the kill schedule did not fire"
        recovered = plane.process(frames, egress, now)  # first clean burst
        assert all(v.action is Action.FORWARD_INTER for v in recovered)

    # Pedantic: every call kills and respawns a real process — a
    # macro-benchmark, not a calibrated microloop.
    benchmark.pedantic(kill_and_recover, rounds=10, iterations=1)
    benchmark.extra_info["crypto_backend"] = backend
    benchmark.extra_info["shards"] = 2
    benchmark.extra_info["burst_size"] = BURST
    benchmark.extra_info["restarts_observed"] = plane.stats()["restarts"]
    benchmark.extra_info["measures"] = (
        "per round: detect worker death, drop-and-count its sub-burst, "
        "respawn + state-resync the shard, then one clean 64-packet burst"
    )
    benchmark.extra_info["cpu_count"] = os.cpu_count()


@pytest.fixture(scope="module")
def overhead_plane():
    """A 2-shard plane with the default supervision policy: every reply
    wait is the bounded ``poll``-then-``recv`` hang detection needs."""
    backend = _preferred_backend()
    with crypto_backend.use_backend(backend):
        config = ApnaConfig(forwarding_shards=2, forwarding_batch_size=BURST)
        world = build_bench_world(seed=4321, hosts_per_as=4, config=config)
        as_a = world.asys("a")
        frames = build_apna_pool(
            as_a, world.hosts_a, size=512, count=BURST, dst_aid=200
        ).wire_frames
        plane = _supervised_plane(world, SupervisorPolicy())
        plane.process(frames, [True] * len(frames), as_a.clock())  # warm
    yield backend, world, plane, frames
    plane.close()
    world.close()


def test_supervision_steady_state_overhead(benchmark, overhead_plane):
    """The supervised plane when nothing fails: the same pipelined
    workload as the scaling curve, every reply wait bounded."""
    backend, world, plane, frames = overhead_plane
    as_a = world.asys("a")
    now = as_a.clock()
    egress = [True] * len(frames)

    def run_pipelined():
        tickets = [plane.submit(frames, egress, now) for _ in range(ROUNDS)]
        verdicts = None
        for ticket in tickets:
            verdicts = plane.collect(ticket)
        assert verdicts[-1].action is Action.FORWARD_INTER

    benchmark(run_pipelined)
    benchmark.extra_info["crypto_backend"] = backend
    benchmark.extra_info["reply_wait"] = "supervised"
    benchmark.extra_info["shards"] = 2
    benchmark.extra_info["burst_size"] = BURST
    benchmark.extra_info["packets_per_round"] = ROUNDS * BURST
    benchmark.extra_info["cpu_count"] = os.cpu_count()
    benchmark.extra_info["paper_result"] = (
        "hang detection (bounded poll) must not tax the §V-A3 curve"
    )


def test_sharded_ms_issuance(benchmark):
    """E1's machinery at bench scale: one share-nothing issuance round
    over min(4, cpu) workers (each times its own full-path loop)."""
    workers = max(1, min(4, os.cpu_count() or 1))
    counts = split_requests(48, workers)

    def run_issuance():
        results = run_issuance_shards(counts)
        assert sum(done for done, _ in results) == 48

    # Pedantic: each call spawns processes and builds worlds — a
    # macro-benchmark where two rounds beat a long calibration.
    benchmark.pedantic(run_issuance, rounds=2, iterations=1)
    benchmark.extra_info["workers"] = workers
    benchmark.extra_info["requests"] = 48
    benchmark.extra_info["cpu_count"] = os.cpu_count()
    benchmark.extra_info["paper_result"] = (
        "500k EphIDs in 6.9s over 4 share-nothing processes"
    )
