"""Shared fixtures: deterministic single- and two-AS worlds, plus the
watchdog that keeps multi-process sharding/fault tests from hanging CI."""

import dataclasses
import signal
from types import SimpleNamespace

import pytest

from repro.core.autonomous_system import ApnaAutonomousSystem
from repro.core.config import ApnaConfig
from repro.core.rpki import RpkiDirectory, TrustAnchor
from repro.crypto.rng import DeterministicRng
from repro.netsim import Network
from repro.sharding import ShardStateSource, ShardedDataPlane
from repro.sharding.pool import InProcessCarrier

#: Test files that drive worker *processes* — the only tests that can
#: genuinely wedge (a worker stuck on a pipe the dispatcher never
#: reads).  Everything else is pure in-process simulation.
_WATCHDOG_FILES = (
    "test_evaluation.py",
    "test_sharding.py",
    "test_sharding_equivalence.py",
    "test_sharding_faults.py",
)
_WATCHDOG_SECONDS = 120


@pytest.fixture(autouse=True)
def _shard_test_watchdog(request):
    """SIGALRM watchdog for the sharding/fault suites.

    ``pytest-timeout`` is not in the container, so this is the
    no-dependency equivalent: any sharding test that deadlocks (worker
    and dispatcher each waiting on the other's pipe) is killed after
    ``_WATCHDOG_SECONDS`` with a stack-bearing failure instead of
    hanging the whole run.  SIGALRM is process-wide, so the fixture
    arms it only for the files that spawn workers, and only where the
    platform has it (it is a no-op guard everywhere else).
    """
    if request.node.path.name not in _WATCHDOG_FILES or not hasattr(
        signal, "SIGALRM"
    ):
        yield
        return

    def _expired(signum, frame):
        raise TimeoutError(
            f"{request.node.nodeid} exceeded the {_WATCHDOG_SECONDS}s "
            "sharding watchdog — dispatcher/worker deadlock?"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(_WATCHDOG_SECONDS)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def build_world(*, seed=7, config=None, host_names=("alice", "bob"), latency=0.010):
    """Two peered ASes (AID 100 and 200) with one bootstrapped host each."""
    rng = DeterministicRng(seed)
    network = Network()
    config = config or ApnaConfig()
    anchor = TrustAnchor(rng)
    rpki = RpkiDirectory(anchor.public_key, network.scheduler.clock())
    as_a = ApnaAutonomousSystem(100, network, rpki, anchor, config=config, rng=rng)
    as_b = ApnaAutonomousSystem(200, network, rpki, anchor, config=config, rng=rng)
    as_a.connect_to(as_b, latency=latency, bandwidth=1e9)

    hosts = {}
    for i, name in enumerate(host_names):
        assembly = as_a if i % 2 == 0 else as_b
        host = assembly.attach_host(name, latency=0.001, bandwidth=1e8)
        host.bootstrap()
        hosts[name] = host
    network.compute_routes()
    return SimpleNamespace(
        rng=rng,
        network=network,
        anchor=anchor,
        rpki=rpki,
        as_a=as_a,
        as_b=as_b,
        hosts=hosts,
        config=config,
    )


def process_packets(plane, items, now):
    """One synchronous burst of ``(ApnaPacket, egress)`` pairs through a
    ``ShardedDataPlane``, as the wire frames it takes."""
    frames = [packet.to_wire() for packet, _ in items]
    return plane.process(frames, [out for _, out in items], now)


def inprocess_plane(pooled, asys):
    """A plane over ``asys`` *constructed* on an ``InProcessCarrier`` —
    ``pooled``'s specs (over the state as it is now), plan and policy,
    no worker process and no degrade behind it."""
    source = ShardStateSource(asys.hostdb, asys.revocations)
    specs = [
        dataclasses.replace(
            spec, snapshot=source.shard_snapshot(pooled.plan, spec.shard).encode()
        )
        for spec in pooled.supervisor.bare_specs
    ]
    return ShardedDataPlane(
        InProcessCarrier(specs),
        specs,
        pooled.plan,
        aid=asys.aid,
        state_source=source,
        supervision=pooled.supervisor.policy,
    )


@pytest.fixture()
def world():
    return build_world()


@pytest.fixture()
def world_with_nonces():
    return build_world(config=ApnaConfig(replay_protection=True))
