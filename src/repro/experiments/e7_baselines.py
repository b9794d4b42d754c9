"""E7 — Baseline comparison (paper Section IX / Table-style summary).

Quantifies APNA against the related-work systems it is compared to in
prose: per-packet cost at the accountability enforcement point, extra
control messages to third parties, and the security-property matrix.
Also demonstrates APIP's whitelisting hole and Persona's flow-demux
failure — the two concrete criticisms the paper makes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..baselines import (
    AipHost,
    ApipDelegate,
    ApipSender,
    ApipVerifier,
    FlowDemuxer,
    PersonaNat,
    PersonaPacket,
    PlainIpRouter,
    RoutingTable,
)
from ..crypto.rng import DeterministicRng
from ..metrics import Timer, format_table, rate
from ..workload.packets import build_apna_pool, build_ipv4_pool
from .common import BURST, build_bench_world, bursts, judge_egress, print_header

PROPERTY_MATRIX = [
    # system, per-pkt accountability, host privacy, data privacy+PFS, shutoff point
    ("APNA", "yes (in-packet MAC)", "yes (EphIDs)", "yes (native)", "source AS"),
    ("APIP", "no (whitelist hole)", "partial (delegate)", "no", "delegate"),
    ("AIP", "yes (self-certifying)", "no (static EID)", "no", "host NIC"),
    ("Persona", "no", "yes (pool NAT)", "no", "none"),
    ("IPv4", "no", "no", "no", "none"),
]


@dataclass
class E7Result:
    apna_pps: float
    apip_pps: float
    aip_pps: float
    ipv4_pps: float
    apip_msgs_per_packet: float
    apna_msgs_per_packet: float
    apip_hole_packets: int
    persona_demux_accuracy: float

    @property
    def claims_hold(self) -> bool:
        return (
            self.apip_hole_packets > 0  # APIP lets unbriefed packets through
            and self.persona_demux_accuracy < 0.9  # Persona breaks flows
            and self.apna_msgs_per_packet == 0.0  # APNA needs no third party
        )


def _measure_apna(count: int) -> float:
    world = build_bench_world(seed=7, hosts_per_as=2)
    pool = build_apna_pool(world.as_a, world.hosts_a, size=256, count=count, dst_aid=200)
    chunks = bursts(pool.wire_frames)
    with Timer() as timer:
        for burst in chunks:
            judge_egress(world.as_a, burst)
    return rate(count, timer.elapsed)


def _measure_apip(count: int) -> tuple[float, float, int]:
    delegate = ApipDelegate(addr=1)
    sender = ApipSender(1, delegate, return_addr=7)
    verifier = ApipVerifier(delegate)
    packets = [sender.send(dst_addr=9, flow_id=i % 16, payload=b"x" * 200) for i in range(count)]
    with Timer() as timer:
        for packet in packets:
            verifier.process(packet)
    # The whitelisting hole: unbriefed packets on whitelisted flows pass.
    hole_packets = 0
    for i in range(16):
        sneaky = sender.send(dst_addr=9, flow_id=i, payload=b"evil", brief=False)
        if verifier.process(sneaky):
            hole_packets += 1
    msgs_per_packet = sender.briefs_sent / max(1, len(packets))
    return rate(count, timer.elapsed), msgs_per_packet, hole_packets


def _measure_aip(count: int) -> float:
    rng = DeterministicRng(77)
    a, b = AipHost(100, rng), AipHost(200, rng)
    packets = [a.send(b, b"y" * 200) for _ in range(count)]
    with Timer() as timer:
        for packet in packets:
            b.verify_source(packet, a.public_key)
    return rate(count, timer.elapsed)


def _measure_ipv4(count: int) -> float:
    routes = RoutingTable()
    routes.add(0, 0, "up")
    router = PlainIpRouter(routes)
    pool = build_ipv4_pool(size=256, count=count)
    with Timer() as timer:
        for frame in pool.wire_frames:
            router.process(frame)
    return rate(count, timer.elapsed)


def _measure_persona(flows: int, packets_per_flow: int) -> float:
    rng = DeterministicRng(78)
    nat = PersonaNat(pool=list(range(1000, 1064)), rng=rng)
    demux = FlowDemuxer()
    for f in range(flows):
        for p in range(packets_per_flow):
            packet = PersonaPacket(
                src_addr=5, dst_addr=9, src_port=2000 + f, dst_port=80, payload=bytes([p])
            )
            demux.receive(nat.process(packet))
    return demux.demux_accuracy(true_flow_count=flows)


def run(*, count: int = 400, quiet: bool = False) -> E7Result:
    apna_pps = _measure_apna(count)
    apip_pps, apip_msgs, hole = _measure_apip(count)
    aip_pps = _measure_aip(count)
    ipv4_pps = _measure_ipv4(count)
    persona_accuracy = _measure_persona(flows=10, packets_per_flow=20)

    result = E7Result(
        apna_pps=apna_pps,
        apip_pps=apip_pps,
        aip_pps=aip_pps,
        ipv4_pps=ipv4_pps,
        apip_msgs_per_packet=apip_msgs,
        apna_msgs_per_packet=0.0,
        apip_hole_packets=hole,
        persona_demux_accuracy=persona_accuracy,
    )
    if not quiet:
        report(result)
    return result


def report(result: E7Result) -> None:
    print_header("E7: baseline comparison", "paper Section IX")
    rows = [
        (f"APNA (BR egress, {BURST}-pkt bursts)", f"{result.apna_pps:,.0f}",
         f"{result.apna_msgs_per_packet:.1f}"),
        ("APIP (verify path)", f"{result.apip_pps:,.0f}", f"{result.apip_msgs_per_packet:.1f}"),
        ("AIP (first-pkt verify)", f"{result.aip_pps:,.0f}", "0.0"),
        ("plain IPv4", f"{result.ipv4_pps:,.0f}", "0.0"),
    ]
    print(format_table(("system", "packets/s (this machine)", "3rd-party msgs/pkt"), rows))
    print(
        f"(APNA is timed through its {BURST}-frame burst path; the other "
        "rows one packet at a time, so they are not like for like)"
    )
    print()
    print(format_table(
        ("system", "per-pkt accountability", "host privacy", "data privacy+PFS", "shutoff"),
        PROPERTY_MATRIX,
    ))
    print(
        f"\nAPIP whitelisting hole: {result.apip_hole_packets}/16 unbriefed packets "
        "passed verifiers on whitelisted flows (APNA: impossible, every packet MAC'd)"
    )
    print(
        f"Persona flow-demux accuracy at the receiver: "
        f"{result.persona_demux_accuracy:.2f} (APNA: 1.00 — EphIDs are stable per flow)"
    )
    verdict = "HOLDS" if result.claims_hold else "FAILS"
    print(f"shape claim (paper's criticisms of APIP/Persona are real): {verdict}")


if __name__ == "__main__":
    run()
