"""Smoke + invariant tests for the experiment runners (E1-E12).

Each runner is executed at reduced scale with ``quiet=True`` and its
paper shape claim is asserted — the experiments are part of the library
surface, so they must stay runnable and keep reproducing the paper's
qualitative results as the code evolves.
"""

import os

import pytest

from repro.experiments import (
    e1_ms_performance,
    e2_figure8,
    e4_latency,
    e5_granularity,
    e6_revocation,
    e7_baselines,
    e8_overhead,
    e10_security,
    e11_pathval,
    e12_replay,
    e13_aaas,
    e14_lifetimes,
    e15_receive_only,
)


class TestE1MsPerformance:
    @pytest.fixture(scope="class")
    def result(self):
        # 240 requests keeps the timed loop well above scheduler jitter
        # now that the openssl crypto backend makes each issuance ~100x
        # cheaper than the pure-Python path the 60-request value was
        # sized for.
        return e1_ms_performance.run(requests=240, trace_hosts=800, workers=2, quiet=True)

    def test_issuance_exceeds_peak_demand(self, result):
        # The paper's claim at matched scale: the MS keeps up.
        assert result.headroom > 1.0

    def test_parallelism_helps(self, result):
        # The share-nothing workers need their own cores to show a
        # speedup; on a single-core machine the most the paper's claim
        # can mean is that parallelisation doesn't collapse throughput.
        floor = 0.9 if (os.cpu_count() or 1) >= 2 else 0.5
        assert result.parallel_rate >= result.single_rate * floor

    def test_latency_is_finite_and_positive(self, result):
        assert 0 < result.us_per_ephid < 1e6


class TestE2Figure8:
    # The two rates are measured, so the ordering is a wall-clock
    # comparison.  On a 2-vCPU Xeon VM, 1518 B took 1.19-1.27x as long
    # per packet as 128 B over 20 idle runs, and 1.14-1.39x over 30 runs
    # beside three busy-looping processes: sizes interleave within each
    # of E2's repeats, so load slows both alike.  Four bursts a size
    # average out one unlucky burst.
    @pytest.fixture(scope="class")
    def result(self):
        return e2_figure8.run(packets_per_size=256, hosts=2, sizes=(128, 1518), quiet=True)

    def test_packet_rate_decreases_with_size(self, result):
        rates = [point.pps for point in result.points]
        assert rates == sorted(rates, reverse=True)

    def test_bit_rate_increases_with_size(self, result):
        bitrates = [point.gbps for point in result.points]
        assert bitrates == sorted(bitrates)


class TestE4Latency:
    @pytest.fixture(scope="class")
    def result(self):
        return e4_latency.run(quiet=True)

    def test_all_scenarios_match_paper(self, result):
        assert result.all_match

    def test_rtt_ladder_values(self, result):
        measured = {p.scenario: round(p.measured_value, 2) for p in result.points}
        assert measured["host-host, 0-RTT data"] == 0.0
        assert measured["client-server, data after accept"] == 1.5


class TestE5Granularity:
    @pytest.fixture(scope="class")
    def result(self):
        return e5_granularity.run(flows=6, packets_per_flow=2, applications=2, quiet=True)

    def test_tradeoff_ordering(self, result):
        assert result.ordering_holds

    def test_per_flow_is_unlinkable(self, result):
        assert result.by_name("per-flow").linkage_score == 0.0

    def test_per_host_costs_one_request(self, result):
        assert result.by_name("per-host").ms_requests == 1


class TestE6Revocation:
    @pytest.fixture(scope="class")
    def result(self):
        return e6_revocation.run(
            duration=1200.0, revocations_per_second=4.0, ephid_lifetime=120.0,
            sample_every=60.0, quiet=True,
        )

    def test_pruning_bounds_the_list(self, result):
        assert result.pruning_wins

    def test_unpruned_grows_monotonically(self, result):
        assert result.unpruned_sizes == sorted(result.unpruned_sizes)

    def test_threshold_policy_fires(self, result):
        assert result.hids_revoked > 0


class TestE7Baselines:
    @pytest.fixture(scope="class")
    def result(self):
        return e7_baselines.run(count=60, quiet=True)

    def test_paper_criticisms_reproduce(self, result):
        assert result.claims_hold

    def test_apip_whitelist_hole(self, result):
        assert result.apip_hole_packets > 0

    def test_persona_breaks_demux(self, result):
        assert result.persona_demux_accuracy < 0.5


class TestE8Overhead:
    @pytest.fixture(scope="class")
    def result(self):
        return e8_overhead.run(quiet=True)

    def test_mtu_goodput_above_90_percent(self, result):
        assert result.overhead_acceptable

    def test_goodput_monotone_in_size(self, result):
        apna = [point.apna_native_goodput for point in result.points]
        assert apna == sorted(apna)

    def test_ipv4_beats_apna_everywhere(self, result):
        # The overhead is the price of the 48 B accountable header.
        assert all(
            point.ipv4_goodput > point.apna_native_goodput
            for point in result.points
        )


class TestE10Security:
    @pytest.fixture(scope="class")
    def result(self):
        return e10_security.run(quiet=True)

    def test_every_attack_defended(self, result):
        assert result.all_defended

    def test_attacks_actually_ran(self, result):
        assert all(outcome.attempts > 0 for outcome in result.outcomes)


class TestE11Pathval:
    @pytest.fixture(scope="class")
    def result(self):
        return e11_pathval.run(path_lengths=(2, 4), iterations=20, quiet=True)

    def test_extension_works(self, result):
        assert result.extension_works

    def test_stamping_scales_linearly(self, result):
        assert result.stamping_scales_linearly

    def test_verification_roughly_constant(self, result):
        assert max(result.verify_us) < 5 * min(result.verify_us)


class TestE12Replay:
    @pytest.fixture(scope="class")
    def result(self):
        return e12_replay.run(packets=40, replay_factor=2, timed_bursts=2, quiet=True)

    def test_all_replays_caught(self, result):
        assert result.detection_complete

    def test_fp_rate_improves_with_memory(self, result):
        fps = [fp for _bits, _kib, fp in result.fp_rows]
        assert fps == sorted(fps, reverse=True)


class TestE13Aaas:
    @pytest.fixture(scope="class")
    def result(self):
        return e13_aaas.run(stub_sizes=(3, 10), upstream_hosts=40, quiet=True)

    def test_privacy_amplification(self, result):
        assert result.privacy_claim_holds

    def test_accountability_preserved(self, result):
        assert result.accountability_preserved

    def test_amplification_factor_sensible(self, result):
        small = result.points[0]
        assert small.amplification > 5.0


class TestE14Lifetimes:
    @pytest.fixture(scope="class")
    def result(self):
        return e14_lifetimes.run(hosts=500, trace_duration=7200.0, quiet=True)

    def test_fifteen_minutes_covers_most_flows(self, result):
        assert result.fifteen_minutes_covers_most_flows

    def test_classes_beat_fixed(self, result):
        assert result.classes_beat_fixed

    def test_shorter_lifetime_means_more_renewals(self, result):
        assert (
            result.by_name("fixed 60 s").issuances_per_flow
            > result.by_name("fixed 900 s (paper)").issuances_per_flow
            > result.by_name("fixed 3600 s").issuances_per_flow
        )

    def test_longer_lifetime_means_more_exposure(self, result):
        assert (
            result.by_name("fixed 60 s").mean_exposure_s
            < result.by_name("fixed 900 s (paper)").mean_exposure_s
            < result.by_name("fixed 3600 s").mean_exposure_s
        )


class TestE15ReceiveOnly:
    @pytest.fixture(scope="class")
    def result(self):
        return e15_receive_only.run(n_clients=2, attack_rounds=2, quiet=True)

    def test_mitigation_works(self, result):
        assert result.mitigation_works

    def test_naive_design_is_actually_vulnerable(self, result):
        # The attack must be real for the mitigation to mean anything.
        assert result.naive.shutoff_accepted
        assert result.naive.benign_sessions_broken == 2
        assert result.naive.dns_updates_forced == 2

    def test_receive_only_isolates_the_attacker(self, result):
        assert result.receive_only.benign_sessions_broken == 0
        assert result.receive_only.published_ephid_survives
