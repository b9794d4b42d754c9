"""Tests for the synthetic trace generator and analyzer (Section V-A3
substitute)."""

import hashlib

import numpy as np
import pytest

from repro.workload import (
    PAPER_HOSTS,
    PAPER_PEAK_RATE,
    TraceConfig,
    TraceGenerator,
    analyze,
    build_ipv4_pool,
)


#: SHA-256 of the four column buffers of the ``small_trace`` draw.  E1
#: and E14 read their numbers off ``generate_arrays()``: an edit that
#: moves the draw must re-pin this on purpose, never by accident.
SMALL_TRACE_SHA256 = "1cfe2a9b2d761cff4d704ea419969b9e56a1f2bc0dd50d8ce2789dd87758eceb"
_COLUMNS = ("start", "duration", "host_id", "is_https")


@pytest.fixture(scope="module")
def small_trace():
    # 1000 hosts over 2 simulated hours keeps the test fast.
    config = TraceConfig(hosts=1000, duration=7200.0, seed=99)
    generator = TraceGenerator(config)
    return config, generator.generate_arrays()


class TestGenerator:
    def test_deterministic_from_seed(self):
        config = TraceConfig(hosts=100, duration=600.0, seed=5)
        a = TraceGenerator(config).generate_arrays()
        b = TraceGenerator(config).generate_arrays()
        assert np.array_equal(a["start"], b["start"])
        assert np.array_equal(a["host_id"], b["host_id"])

    def test_trace_is_pinned_bit_for_bit(self, small_trace):
        _, trace = small_trace
        digest = hashlib.sha256()
        for column in _COLUMNS:
            digest.update(np.ascontiguousarray(trace[column]).tobytes())
        assert digest.hexdigest() == SMALL_TRACE_SHA256

    def test_arrays_are_the_one_slice_trace(self, small_trace):
        config, trace = small_trace
        generator = TraceGenerator(config)
        (single,) = generator.iter_arrays(chunk_duration=config.duration)
        again = generator.generate_arrays()  # no random state kept between calls
        for column in _COLUMNS:
            assert np.array_equal(single[column], trace[column])
            assert np.array_equal(again[column], trace[column])

    def test_starts_sorted_and_in_range(self, small_trace):
        config, trace = small_trace
        starts = trace["start"]
        assert np.all(np.diff(starts) >= 0)
        assert starts.min() >= 0
        assert starts.max() <= config.duration

    def test_host_ids_in_range(self, small_trace):
        config, trace = small_trace
        assert trace["host_id"].min() >= 0
        assert trace["host_id"].max() < config.hosts

    def test_duration_distribution_matches_paper_citation(self):
        # "98% of the flows in the Internet last less than 15 minutes".
        config = TraceConfig(hosts=2000, duration=7200.0, seed=3)
        trace = TraceGenerator(config).generate_arrays()
        under_15min = (trace["duration"] < 900.0).mean()
        assert 0.95 <= under_15min <= 0.995

    def test_https_fraction(self, small_trace):
        config, trace = small_trace
        fraction = trace["is_https"].mean()
        assert abs(fraction - 74 / 178) < 0.05

    def test_record_iterator_matches_arrays(self):
        config = TraceConfig(hosts=50, duration=300.0, seed=8)
        records = list(TraceGenerator(config).stream())
        arrays = TraceGenerator(config).generate_arrays()
        assert len(records) == len(arrays["start"])
        assert records[0].start == pytest.approx(float(arrays["start"][0]))
        assert records[-1].duration >= 0

    def test_peak_rate_scales_with_hosts(self):
        # The per-host intensity calibration: peak rate ~ hosts * paper
        # ratio.  The measured peak (max over ~86k Poisson bins) sits a
        # few sigma above the intensity peak, so bound it from both sides.
        config = TraceConfig(hosts=20_000, duration=86_400.0, seed=11)
        trace = TraceGenerator(config).generate_arrays()
        stats = analyze(trace, duration=config.duration)
        expected_peak = PAPER_PEAK_RATE * config.hosts / PAPER_HOSTS
        sigma = expected_peak**0.5
        assert expected_peak <= stats.peak_sessions_per_second <= expected_peak + 6 * sigma


class TestAnalyzer:
    def test_stats_fields(self, small_trace):
        config, trace = small_trace
        stats = analyze(trace, duration=config.duration)
        assert stats.total_flows == len(trace["start"])
        assert 0 < stats.unique_hosts <= config.hosts
        assert stats.peak_sessions_per_second >= 1
        assert 0 <= stats.peak_second <= config.duration
        assert stats.p98_duration < 1000.0
        assert "flows from" in stats.summary()

    def test_empty_trace(self):
        stats = analyze({"start": np.array([]), "duration": np.array([]),
                         "host_id": np.array([]), "is_https": np.array([])})
        assert stats.total_flows == 0


class TestPacketPools:
    def test_ipv4_pool_sizes(self):
        pool = build_ipv4_pool(size=128, count=10)
        assert all(len(f) == 128 for f in pool.wire_frames)

    def test_ipv4_pool_parses(self):
        from repro.wire.ipv4 import Ipv4Header

        pool = build_ipv4_pool(size=256, count=5)
        for frame in pool.wire_frames:
            Ipv4Header.parse(frame)

    def test_apna_pool_valid_at_border_router(self, world):
        from repro.core.border_router import Action
        from repro.workload.packets import build_apna_pool

        alice = world.hosts["alice"]
        pool = build_apna_pool(world.as_a, [alice], size=128, count=8, dst_aid=200)
        assert all(len(f) == 128 for f in pool.wire_frames)
        for packet in pool.apna_packets:
            verdict = world.as_a.br.process_outgoing(packet)
            assert verdict.action is Action.FORWARD_INTER

    def test_apna_pool_size_guard(self, world):
        from repro.workload.packets import build_apna_pool

        with pytest.raises(ValueError):
            build_apna_pool(world.as_a, [world.hosts["alice"]], size=40, count=1)
