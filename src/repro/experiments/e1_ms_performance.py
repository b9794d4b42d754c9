"""E1 — Management Service performance (paper Section V-A3).

Paper setup: a 24-hour HTTP(S) trace from a national research network
(1,266,598 hosts, peak 3,888 new sessions/s) against an MS on a 4-core
desktop: 500,000 EphID requests in 6.9 s = 13.7 us/EphID = 72.8k
EphIDs/s, an 18.7x headroom over peak demand.

This reproduction scales the trace down (pure-Python crypto is orders of
magnitude slower than AES-NI + C ed25519) and measures the *same
quantities* over the full Fig. 3 request path, single-process and with
the paper's share-nothing 4-worker parallelisation.  The claim under
test is the shape: EphID generation rate comfortably exceeds the peak
per-flow demand of a trace with that many hosts.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..metrics import Timer, format_table, rate
from ..sharding import run_issuance_shards, split_requests
from ..workload import TraceConfig, TraceGenerator, analyze
from .common import build_bench_world, print_header

PAPER = {
    "requests": 500_000,
    "total_seconds": 6.9,
    "us_per_ephid": 13.7,
    "ephids_per_sec": 72_800,
    "peak_demand": 3_888,
    "hosts": 1_266_598,
    "headroom": 72_800 / 3_888,
}


@dataclass
class E1Result:
    hosts: int
    peak_demand: float
    requests: int
    single_seconds: float
    single_rate: float
    parallel_seconds: float
    parallel_rate: float
    workers: int

    @property
    def headroom(self) -> float:
        return self.parallel_rate / self.peak_demand if self.peak_demand else float("inf")

    @property
    def us_per_ephid(self) -> float:
        return 1e6 * self.parallel_seconds / self.requests


def measure_issuance_rate(requests: int, *, seed: int = 7) -> float:
    """Sequential full-path (Fig. 3) issuance time for ``requests`` —
    the best of three passes over fresh requests (the ``timeit`` rule,
    as :func:`repro.metrics.time_loop`): a pass is tens of milliseconds,
    so one preemption would otherwise decide the rate."""
    world = build_bench_world(seed=seed)
    host = world.hosts_a[0]
    ms = world.as_a.ms
    ctrl = host.stack.control_ephid
    assert ctrl is not None
    best = float("inf")
    for _ in range(3):
        prepared = [host.stack.build_ephid_request() for _ in range(requests)]
        with Timer() as timer:
            for _keypair, sealed in prepared:
                ms.handle_request(ctrl, sealed)
        best = min(best, timer.elapsed)
    return best


def measure_parallel_rate(
    requests: int, workers: int, *, reply_timeout: "float | None" = None
) -> float:
    """Share-nothing parallel issuance (the paper's 4-process setup).

    Each worker runs an independent MS instance on the shared
    :mod:`repro.sharding` process machinery; the paper notes the
    generation "does not require any coordination between the processes".
    The full request count is distributed exactly — a non-divisible load
    spreads its remainder over the first workers rather than dropping it,
    so a rate computed over ``requests`` is honest.  Workers time only
    their issuance loops (setup excluded, as in the sequential
    measurement) — each runs :func:`measure_issuance_rate`, so both arms
    of E1 take the best of three passes alike, the workers' passes side
    by side; the effective duration for ``requests`` total is the
    slowest worker's loop.  ``reply_timeout`` bounds each worker's wait
    (default: the issuance runner's generous
    :data:`~repro.sharding.issuance.DEFAULT_REPLY_TIMEOUT`).
    """
    counts = split_requests(requests, workers)
    if reply_timeout is None:
        results = run_issuance_shards(counts)
    else:
        results = run_issuance_shards(counts, reply_timeout=reply_timeout)
    done = sum(count for count, _ in results)
    if done != requests:
        raise RuntimeError(
            f"issuance shards performed {done} requests, expected {requests}"
        )
    return max(elapsed for _, elapsed in results)


def run(
    *,
    requests: int = 400,
    trace_hosts: int = 12_666,
    workers: int | None = None,
    quiet: bool = False,
) -> E1Result:
    if workers is None:
        # The paper used 4 processes on a 4-core desktop; use what we have.
        import os

        workers = max(2, min(4, os.cpu_count() or 1))
    # 1) The trace side: peak per-flow EphID demand.
    trace_config = TraceConfig(hosts=trace_hosts, duration=86_400.0)
    trace = TraceGenerator(trace_config).generate_arrays()
    stats = analyze(trace, duration=trace_config.duration)

    # 2) The MS side.  The two arms take turns, five rounds, best of
    # each: a shared host hands its two CPUs one core's worth for a
    # second or two at a time, and that must slow both arms, not
    # whichever happened to be on the clock.
    single_seconds = parallel_seconds = float("inf")
    for _ in range(5):
        single_seconds = min(single_seconds, measure_issuance_rate(requests))
        parallel_seconds = min(
            parallel_seconds, measure_parallel_rate(requests, workers)
        )

    result = E1Result(
        hosts=stats.unique_hosts,
        peak_demand=stats.peak_sessions_per_second,
        requests=requests,
        single_seconds=single_seconds,
        single_rate=rate(requests, single_seconds),
        parallel_seconds=parallel_seconds,
        parallel_rate=rate(requests, parallel_seconds),
        workers=workers,
    )
    if not quiet:
        report(result, stats)
    return result


def report(result: E1Result, stats) -> None:
    print_header(
        "E1: EphID Management Server performance", "paper Section V-A3"
    )
    print(f"trace: {stats.summary()}")
    rows = [
        (
            "paper (AES-NI, 4 cores)",
            f"{PAPER['hosts']:,}",
            f"{PAPER['peak_demand']:,}",
            f"{PAPER['requests']:,}",
            f"{PAPER['us_per_ephid']:.1f}",
            f"{PAPER['ephids_per_sec']:,}",
            f"{PAPER['headroom']:.1f}x",
        ),
        (
            f"repro 1 worker",
            f"{result.hosts:,}",
            f"{result.peak_demand:,.0f}",
            f"{result.requests:,}",
            f"{1e6 * result.single_seconds / result.requests:,.1f}",
            f"{result.single_rate:,.0f}",
            f"{result.single_rate / result.peak_demand:.1f}x",
        ),
        (
            f"repro {result.workers} workers",
            f"{result.hosts:,}",
            f"{result.peak_demand:,.0f}",
            f"{result.requests:,}",
            f"{result.us_per_ephid:,.1f}",
            f"{result.parallel_rate:,.0f}",
            f"{result.headroom:.1f}x",
        ),
    ]
    print(
        format_table(
            (
                "setup",
                "hosts",
                "peak demand/s",
                "requests",
                "us/EphID",
                "EphIDs/s",
                "headroom",
            ),
            rows,
        )
    )
    verdict = "HOLDS" if result.headroom > 1.0 else "FAILS"
    print(
        f"\nshape claim (issuance rate exceeds peak per-flow demand): {verdict} "
        f"({result.headroom:.1f}x vs paper's {PAPER['headroom']:.1f}x)"
    )


if __name__ == "__main__":
    run()
