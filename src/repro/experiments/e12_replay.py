"""E12 — In-network replay detection (paper Section VIII-D).

The paper adds a header nonce so destinations can discard replays, and
leaves in-network filtering as future work because it "should not affect
routers' forwarding performance".  This experiment evaluates the
rotating-Bloom-filter design of :mod:`repro.core.replay_filter` against
exactly that bar:

1. effectiveness — replayed packets die at the source AS border router,
   before they consume inter-domain bandwidth;
2. forwarding cost — µs per packet through
   :meth:`ApnaAutonomousSystem.judge` with and without the filter, over
   64-frame bursts of fresh-nonce frames built before the timing;
3. memory/accuracy trade-off — false-positive probability as a function
   of filter size for a border-router-scale packet window.

Measured 2026-10-20 on a shared 2-vCPU Intel Xeon VM (Python 3.11.7,
``cryptography`` 48), default arguments, over eight runs: every replay
is caught (800 of 800), and the burst path costs 2.5–4.6 µs/pkt without
the filter and 3.6–7.1 µs/pkt with it, +42 % to +57 %.  So the cost
claim prints FAILS: with no cipher call left (the index bits are each
frame's MAC), cutting the EphID and MAC columns and one word
test-and-set per key cost 1.1–2.5 µs a packet, almost half a warm
verdict; the earlier cipher-indexed filter read +38 % to +52 % in eight
runs interleaved with these.  Timed per packet through the scalar
pipelines instead, the same cost hides under ~12 µs of parsing.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import median

from ..core.border_router import DropReason
from ..core.config import ApnaConfig
from ..core.replay_filter import BloomFilter
from ..metrics import Timer, format_table
from ..wire.apna import Endpoint
from .common import BURST, build_bench_world, bursts, judge_egress, print_header


@dataclass
class E12Result:
    replayed: int
    caught_at_source: int
    egress_us_without: float
    egress_us_with: float
    fp_rows: list[tuple[int, int, float]]  # (bits, KiB, fp probability)

    @property
    def detection_complete(self) -> bool:
        return self.caught_at_source == self.replayed

    @property
    def overhead_fraction(self) -> float:
        if self.egress_us_without == 0:
            return 0.0
        return (self.egress_us_with - self.egress_us_without) / self.egress_us_without

    @property
    def overhead_negligible(self) -> bool:
        """The paper's bar: replay detection must not hurt forwarding."""
        return self.overhead_fraction < 0.15


def _frames(host, owned, dst: Endpoint, payload: bytes, nonces) -> list[bytes]:
    """``host``'s wire frames from ``owned`` to ``dst``, one per nonce."""
    return [
        host.stack.make_packet(owned.ephid, dst, payload, nonce=n).to_wire()
        for n in nonces
    ]


def run(
    *,
    packets: int = 400,
    replay_factor: int = 3,
    timed_bursts: int = 20,
    window_packets: int = 90_000,
    quiet: bool = False,
) -> E12Result:
    # -- 1. effectiveness ------------------------------------------------
    config = ApnaConfig(
        replay_protection=True,
        in_network_replay_filter=True,
        replay_filter_bits=1 << 20,
    )
    world = build_bench_world(seed=12, hosts_per_as=1, config=config)
    alice = world.hosts_a[0]
    bob = world.hosts_b[0]
    owned = alice.acquire_ephid_direct()
    peer = bob.acquire_ephid_direct()
    peer_ep = Endpoint(world.as_b.aid, peer.ephid)

    originals = _frames(alice, owned, peer_ep, b"data", range(1, packets + 1))
    for burst in bursts(originals):
        assert not any(v.dropped for v in judge_egress(world.as_a, burst))

    replayed = 0
    caught = 0
    for burst in bursts(originals * (replay_factor - 1)):
        replayed += len(burst)
        caught += sum(
            verdict.reason is DropReason.REPLAYED
            for verdict in judge_egress(world.as_a, burst)
        )

    # -- 2. forwarding cost ----------------------------------------------
    plain_world = build_bench_world(
        seed=12, hosts_per_as=1, config=ApnaConfig(replay_protection=True)
    )
    p_alice = plain_world.hosts_a[0]
    p_owned = p_alice.acquire_ephid_direct()
    p_peer = plain_world.hosts_b[0].acquire_ephid_direct()
    p_peer_ep = Endpoint(plain_world.as_b.aid, p_peer.ephid)

    # Every timed frame carries a fresh nonce, past the effectiveness
    # arm's, and all are built before any clock starts: the arms time
    # ``judge`` alone.
    nonces = range(1_000_000, 1_000_000 + timed_bursts * BURST)
    plain_bursts = bursts(_frames(p_alice, p_owned, p_peer_ep, b"x" * 512, nonces))
    filtered_bursts = bursts(_frames(alice, owned, peer_ep, b"x" * 512, nonces))
    # Alternate the two arms burst by burst so that transient background
    # load perturbs both equally (a sequential A/B turns any load spike
    # into a phantom filter cost), and keep each arm's median burst.
    arms, seconds = (plain_world.as_a, world.as_a), ([], [])
    for pair in zip(plain_bursts, filtered_bursts):
        for asys, burst, arm in zip(arms, pair, seconds):
            with Timer() as timer:
                judge_egress(asys, burst)
            arm.append(timer.elapsed)
    egress_without, egress_with = (median(arm) / BURST * 1e6 for arm in seconds)

    # -- 3. memory/accuracy trade-off -------------------------------------
    fp_rows = []
    for bits_log2 in (16, 18, 20, 22):
        bloom = BloomFilter(1 << bits_log2)
        fp = bloom.fp_probability(window_packets)
        fp_rows.append((bits_log2, (1 << bits_log2) // 8 // 1024, fp))

    result = E12Result(
        replayed=replayed,
        caught_at_source=caught,
        egress_us_without=egress_without,
        egress_us_with=egress_with,
        fp_rows=fp_rows,
    )
    if not quiet:
        report(result)
    return result


def report(result: E12Result) -> None:
    print_header("E12: in-network replay detection", "paper Section VIII-D")
    print(
        f"replayed copies injected at the source AS: {result.replayed}; "
        f"caught at the border router: {result.caught_at_source}"
    )
    print(
        f"egress pipeline: {result.egress_us_without:.1f} us/pkt without filter, "
        f"{result.egress_us_with:.1f} us/pkt with filter "
        f"({result.overhead_fraction:+.1%})"
    )
    print()
    rows = [
        (f"2^{bits}", f"{kib} KiB/gen", f"{fp:.2e}")
        for bits, kib, fp in result.fp_rows
    ]
    print(
        format_table(
            ("filter bits", "memory", "FP probability @ 90k pkts/window"), rows
        )
    )
    detection = "HOLDS" if result.detection_complete else "FAILS"
    print(f"\nshape claim (replays are filtered near the replay location): {detection}")
    overhead = "HOLDS" if result.overhead_negligible else "FAILS"
    print(
        "shape claim (in-network replay detection without affecting "
        f"forwarding performance): {overhead}"
    )


if __name__ == "__main__":
    run()
