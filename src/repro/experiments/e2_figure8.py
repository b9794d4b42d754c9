"""E2/E3 — Border router forwarding performance (paper Fig. 8a and 8b).

Paper setup: a DPDK border router on 2x Xeon E5-2680 with 6 dual-port
10 GbE NICs (120 Gbps) fed by a Spirent generator at packet sizes
{128, 256, 512, 1024, 1518}.  Result: measured throughput matches the
theoretical line-rate maximum at every size — the APNA checks (EphID
decrypt + table lookups + MAC verify) add no throughput penalty.

Reproduction: the production egress path on one core.  Valid egress
frames of each size go through :meth:`ApnaAutonomousSystem.judge` in
64-frame bursts, and every forwarded frame is GRE/IPv4-encapsulated, as
the paper's router does; the best of several repeats is kept.  We
report, per size, µs per packet, the per-core packet and bit rates
(Fig. 8a/8b's axes) and the cores a 120 Gbps line would need.  No line
rate is simulated: a pure-Python core does not reach the paper's, and
the core count says by how far.  The shape claim — packet rate falls
and bit rate rises with size — is read off the measured rates, so it
can fail (neighbouring small sizes differ by ~0.1 µs of MAC work).

Measured 2026-10-16 on a shared 2-vCPU Intel Xeon VM (Python 3.11.7,
``cryptography`` 48), default arguments, over nine runs: 6.7–12.5
µs/pkt at 128 B and 8.2–14.2 µs/pkt at 1518 B.  The host's speed moved
the absolute figures by up to 2x between runs; the ordering held in
each.  About 4.3 µs of every packet is ``gre.encapsulate``; ``judge``
alone took ~2.0 µs at 128 B and ~3.3 µs at 1518 B.  A 120 Gbps line
would need ~660–1230 such cores at 128 B and ~80–140 at 1518 B.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.border_router import Action
from ..metrics import Timer, format_table
from ..wire import gre
from ..workload.packets import PAPER_PACKET_SIZES, build_apna_pool
from .common import build_bench_world, bursts, judge_egress, print_header

PAPER_CAPACITY_GBPS = 120.0

#: Per-frame wire overhead (Ethernet preamble 8 B + IFG 12 B + CRC 4 B):
#: this is why the paper's Fig. 8(b) rises with packet size before
#: saturating — small packets waste a larger share of the wire.
FRAME_OVERHEAD = 24

#: Timed passes over every size's bursts; each burst keeps its best.
REPEATS = 7


@dataclass
class SizePoint:
    """One packet size, judged on one core."""

    size: int
    us_per_pkt: float
    pps: float
    gbps: float
    #: Cores a :data:`PAPER_CAPACITY_GBPS` line of this size would need.
    cores_for_line: float


@dataclass
class E2Result:
    points: list[SizePoint]


def _forward_seconds(asys, burst: list[bytes]) -> float:
    """Seconds to judge one egress burst and GRE/IPv4-encapsulate each
    forwarded frame, as the paper's router does."""
    with Timer() as timer:
        for frame, verdict in zip(burst, judge_egress(asys, burst)):
            if verdict.action is Action.FORWARD_INTER:
                gre.encapsulate(frame, src_ip=asys.aid, dst_ip=verdict.next_aid)
    return timer.elapsed


def run(
    *,
    packets_per_size: int = 320,
    hosts: int = 4,
    sizes: tuple[int, ...] = PAPER_PACKET_SIZES,
    quiet: bool = False,
) -> E2Result:
    world = build_bench_world(seed=2, hosts_per_as=hosts)
    asys = world.as_a
    chunks = {
        size: bursts(
            build_apna_pool(
                asys, world.hosts_a, size=size, count=packets_per_size, dst_aid=200
            ).wire_frames
        )
        for size in sizes
    }
    # Each burst keeps its best of :data:`REPEATS`, and the sizes
    # interleave within a repeat, so a slow stretch of the host costs
    # every size one repeat instead of deciding one size's timing.
    best = {size: [float("inf")] * len(chunk) for size, chunk in chunks.items()}
    for _ in range(REPEATS):
        for size, chunk in chunks.items():
            for k, burst in enumerate(chunk):
                best[size][k] = min(best[size][k], _forward_seconds(asys, burst))
    points = []
    for size in sizes:
        us = sum(best[size]) / packets_per_size * 1e6
        pps = 1e6 / us
        line_pps = PAPER_CAPACITY_GBPS * 1e9 / ((size + FRAME_OVERHEAD) * 8)
        points.append(
            SizePoint(
                size=size,
                us_per_pkt=us,
                pps=pps,
                gbps=pps * size * 8 / 1e9,
                cores_for_line=line_pps / pps,
            )
        )
    result = E2Result(points=points)
    if not quiet:
        report(result)
    return result


def report(result: E2Result) -> None:
    print_header(
        "E2/E3: border-router forwarding throughput", "paper Fig. 8(a) and 8(b)"
    )
    rows = [
        (
            p.size,
            f"{p.us_per_pkt:.2f}",
            f"{p.pps:,.0f}",
            f"{p.gbps:.3f}",
            f"{p.cores_for_line:,.0f}",
        )
        for p in result.points
    ]
    print(
        format_table(
            (
                "size (B)",
                "us/pkt",
                "pps per core",
                "Gbps per core",
                f"cores for {PAPER_CAPACITY_GBPS:.0f} Gbps",
            ),
            rows,
        )
    )
    pps = [p.pps for p in result.points]
    gbps = [p.gbps for p in result.points]
    shape = pps == sorted(pps, reverse=True) and gbps == sorted(gbps)
    verdict = "HOLDS" if shape else "FAILS"
    print(
        "\nshape claim (Fig. 8: packet rate falls and bit rate rises with "
        f"packet size): {verdict}"
    )


if __name__ == "__main__":
    run()
