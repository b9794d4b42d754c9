"""Shared scaffolding for the experiment runners (E1-E15)."""

from __future__ import annotations

from ..core.config import ApnaConfig
from ..topology import World, WorldBuilder

#: Frames per burst handed to ``ApnaAutonomousSystem.judge`` by the
#: forwarding experiments (E2, E7, E12): the burst the benchmark and the
#: evaluation runner time.
BURST = 64


def bursts(frames: list[bytes]) -> list[list[bytes]]:
    """``frames`` cut into :data:`BURST`-frame bursts (the last may be short)."""
    return [frames[k : k + BURST] for k in range(0, len(frames), BURST)]


def judge_egress(asys, burst: list[bytes]) -> list:
    """``asys.judge``'s verdicts on one burst of frames that all came
    from local hosts: the egress burst every forwarding experiment times."""
    return asys.judge(burst, [True] * len(burst))


def build_bench_world(
    *,
    seed: int = 1,
    hosts_per_as: int = 1,
    config: ApnaConfig | None = None,
    latency: float = 0.010,
    access_latency: float = 0.001,
) -> World:
    """A deterministic two-AS world sized for benchmarking.

    Built through the unified :class:`~repro.topology.WorldBuilder`; the
    returned world additionally carries ``hosts_a`` / ``hosts_b`` lists
    (the bootstrapped hosts per side) for the experiments' convenience.
    """
    builder = (
        WorldBuilder(seed=seed, config=config)
        .asys("a", aid=100)
        .asys("b", aid=200)
        .link("a", "b", latency=latency, bandwidth=1e10)
    )
    for i in range(hosts_per_as):
        builder.host(f"a{i}", at="a", latency=access_latency)
        builder.host(f"b{i}", at="b", latency=access_latency)
    world = builder.build()
    world.hosts_a = [world.hosts[f"a{i}"] for i in range(hosts_per_as)]
    world.hosts_b = [world.hosts[f"b{i}"] for i in range(hosts_per_as)]
    return world


def print_header(title: str, paper_reference: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print(f"(reproduces {paper_reference})")
    print("=" * 72)
