"""Tests for in-network replay detection (Section VIII-D future work)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.border_router import Action, DropReason
from repro.core.config import ApnaConfig
from repro.core.replay_filter import BloomFilter, RotatingReplayFilter
from repro.core.verdict import verdict_of
from repro.wire.apna import Endpoint

from tests.conftest import build_world


class TestBloomFilter:
    def test_empty_contains_nothing(self):
        bloom = BloomFilter(1 << 10)
        assert b"anything" not in bloom
        assert bloom.fp_probability() == 0.0

    def test_added_items_are_found(self):
        bloom = BloomFilter(1 << 10)
        for i in range(100):
            bloom.add(f"item-{i}".encode())
        for i in range(100):
            assert f"item-{i}".encode() in bloom
        assert bloom.inserted == 100

    def test_check_and_add_semantics(self):
        bloom = BloomFilter(1 << 12)
        assert not bloom.check_and_add(b"first")
        assert bloom.check_and_add(b"first")
        assert bloom.inserted == 1

    def test_clear(self):
        bloom = BloomFilter(1 << 10)
        bloom.add(b"x")
        bloom.clear()
        assert b"x" not in bloom
        assert bloom.inserted == 0

    def test_memory_is_bits_over_eight(self):
        assert BloomFilter(1 << 20).memory_bytes == (1 << 20) // 8

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            BloomFilter(1000)

    def test_rejects_bad_hash_count(self):
        with pytest.raises(ValueError):
            BloomFilter(1 << 10, hashes=0)

    def test_fp_probability_grows_with_load(self):
        bloom = BloomFilter(1 << 10, hashes=4)
        assert bloom.fp_probability(10) < bloom.fp_probability(1000)

    def test_measured_fp_rate_matches_model(self):
        # Insert n items, probe with fresh ones; the measured FP rate
        # should be within a small factor of the analytic estimate.
        bloom = BloomFilter(1 << 14, hashes=4)
        n = 2000
        for i in range(n):
            bloom.add(f"present-{i}".encode())
        false_positives = sum(
            f"absent-{i}".encode() in bloom for i in range(10_000)
        )
        measured = false_positives / 10_000
        predicted = bloom.fp_probability()
        assert measured <= max(4 * predicted, 0.02)

    @given(st.binary(min_size=0, max_size=64))
    @settings(max_examples=50)
    def test_no_false_negatives(self, item):
        bloom = BloomFilter(1 << 10)
        bloom.add(item)
        assert item in bloom


class TestRotatingReplayFilter:
    def test_fresh_then_replay(self):
        filt = RotatingReplayFilter(window=10.0, bits_per_generation=1 << 12)
        assert filt.observe(b"\x01" * 16, 1, now=0.0)
        assert not filt.observe(b"\x01" * 16, 1, now=1.0)
        assert filt.passed == 1
        assert filt.replays == 1

    def test_distinct_nonces_pass(self):
        filt = RotatingReplayFilter(window=10.0, bits_per_generation=1 << 14)
        assert all(filt.observe(b"\x01" * 16, n, now=0.0) for n in range(100))

    def test_same_nonce_different_ephid_passes(self):
        filt = RotatingReplayFilter(window=10.0, bits_per_generation=1 << 12)
        assert filt.observe(b"\x01" * 16, 7, now=0.0)
        assert filt.observe(b"\x02" * 16, 7, now=0.0)

    def test_remembered_across_one_rotation(self):
        filt = RotatingReplayFilter(window=10.0, bits_per_generation=1 << 12)
        filt.observe(b"\x01" * 16, 1, now=0.0)
        # One window later the entry moved to the previous generation.
        assert not filt.observe(b"\x01" * 16, 1, now=10.5)
        assert filt.rotations == 1

    def test_forgotten_after_two_rotations(self):
        # The documented replay horizon: after two full windows the nonce
        # is forgotten (by then the EphID itself should have expired).
        filt = RotatingReplayFilter(window=10.0, bits_per_generation=1 << 12)
        filt.observe(b"\x01" * 16, 1, now=0.0)
        filt.observe(b"\x02" * 16, 2, now=10.5)  # forces first rotation
        assert filt.observe(b"\x01" * 16, 1, now=21.0)  # second rotation

    def test_idle_gap_forgets_beyond_horizon(self):
        # Regression: a single rotation per observe() used to leave the
        # pre-gap generation populated after an idle gap >= 2 windows, so
        # a fresh nonce far beyond the documented two-window horizon was
        # wrongly dropped as a replay.
        filt = RotatingReplayFilter(window=10.0, bits_per_generation=1 << 12)
        assert filt.observe(b"\x01" * 16, 1, now=5.0)
        # 35 s of silence — the nonce is more than two windows old and
        # must have been forgotten, exactly like the steady-traffic case
        # in test_forgotten_after_two_rotations.
        assert filt.observe(b"\x01" * 16, 1, now=40.0)

    def test_idle_gap_clears_both_generations(self):
        filt = RotatingReplayFilter(window=10.0, bits_per_generation=1 << 12)
        filt.observe(b"\x01" * 16, 1, now=0.0)
        filt.observe(b"\x02" * 16, 2, now=10.5)  # 1 -> previous, 2 -> current
        # A jumped clock (NTP step, VM resume): both generations are now
        # beyond the horizon and neither nonce may be remembered.
        assert filt.observe(b"\x01" * 16, 1, now=1e9)
        assert filt.observe(b"\x02" * 16, 2, now=1e9)

    def test_short_idle_gap_keeps_previous_generation(self):
        # A gap in [window, 2*window) rotates once: the last generation's
        # entries are still inside the horizon and must be remembered.
        filt = RotatingReplayFilter(window=10.0, bits_per_generation=1 << 12)
        filt.observe(b"\x01" * 16, 1, now=0.0)
        assert not filt.observe(b"\x01" * 16, 1, now=19.9)

    def test_first_packet_on_wall_clock_is_not_a_rotation(self):
        # Deployments feed wall-clock time; the first packet used to look
        # like a giant gap from the initial _rotated_at = 0.0 and counted
        # a bogus rotation.
        filt = RotatingReplayFilter(window=10.0, bits_per_generation=1 << 12)
        assert filt.observe(b"\x01" * 16, 1, now=1.7e9)
        assert filt.rotations == 0
        assert not filt.observe(b"\x01" * 16, 1, now=1.7e9 + 1.0)

    @pytest.mark.parametrize("bits", [1 << 12, 1 << 6])
    def test_observe_many_is_the_scalar_loop(self, bits):
        """Burst by burst, ``observe_many`` answers and leaves the filter
        exactly as a loop of ``observe`` at the same instant does: same
        bit arrays, same counters.  The stream holds a duplicate inside
        one burst, replays of earlier bursts, a burst straddling one
        rotation, one landing an idle gap later — and, on the 64-bit
        arm, plenty of Bloom false positives."""
        reference, scalar, bulk = (
            RotatingReplayFilter(window=10.0, bits_per_generation=bits)
            for _ in range(3)
        )
        key = RotatingReplayFilter._key

        def lookup_then_insert(ephid, nonce, now):
            # The two-generation rule spelled out on the Bloom filters'
            # public calls (two hashes per fresh key).
            reference._maybe_rotate(now)
            item = key(ephid, nonce)
            if item in reference._previous or reference._current.check_and_add(item):
                reference.replays += 1
                return False
            reference.passed += 1
            return True

        ephids = [bytes([i]) * 16 for i in range(4)]
        nonce = 0
        earlier: list = []
        for now in (0.0, 3.0, 9.9, 10.0, 10.1, 19.9, 20.5, 55.0, 55.0):
            burst = []
            for k in range(12):
                if earlier and k % 4 == 3:
                    burst.append(earlier[(k * 7 + nonce) % len(earlier)])
                else:
                    nonce += 1
                    burst.append((ephids[k % 4], nonce))
            burst.insert(5, burst[2])  # a duplicate inside the burst
            earlier.extend(burst)
            expected = [lookup_then_insert(ephid, n, now) for ephid, n in burst]
            assert [scalar.observe(ephid, n, now) for ephid, n in burst] == expected
            assert bulk.observe_many([key(e, n) for e, n in burst], now) == expected
            for filt in (scalar, bulk):
                for attr in ("passed", "replays", "rotations", "_rotated_at"):
                    assert getattr(filt, attr) == getattr(reference, attr), attr
                for generation in ("_current", "_previous"):
                    mine, theirs = getattr(filt, generation), getattr(reference, generation)
                    assert mine._array == theirs._array
                    assert mine.inserted == theirs.inserted
        assert reference.rotations >= 3 and reference.replays > 9
        assert bulk.observe_many([], 60.0) == []

    def test_memory_accounting(self):
        filt = RotatingReplayFilter(window=1.0, bits_per_generation=1 << 13)
        assert filt.memory_bytes == 2 * (1 << 13) // 8

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            RotatingReplayFilter(window=0.0)


class TestBorderRouterIntegration:
    @pytest.fixture()
    def replay_world(self):
        return build_world(
            config=ApnaConfig(
                replay_protection=True,
                in_network_replay_filter=True,
                replay_filter_window=900.0,
                replay_filter_bits=1 << 14,
            )
        )

    def _outgoing_packet(self, world, nonce=1):
        alice = world.hosts["alice"]
        bob = world.hosts["bob"]
        owned = alice.acquire_ephid_direct()
        peer = bob.acquire_ephid_direct()
        return alice.stack.make_packet(
            owned.ephid, Endpoint(200, peer.ephid), b"data", nonce=nonce
        )

    def test_assembly_builds_filter_from_config(self, replay_world):
        assert replay_world.as_a.br.replay_filter is not None

    def test_assembly_without_config_has_no_filter(self, world):
        assert world.as_a.br.replay_filter is None

    def test_first_copy_forwards_replay_drops(self, replay_world):
        packet = self._outgoing_packet(replay_world)
        br = replay_world.as_a.br
        assert br.process_outgoing(packet).action is Action.FORWARD_INTER
        verdict = br.process_outgoing(packet)
        assert verdict.dropped
        assert verdict.reason is DropReason.REPLAYED
        assert br.drops[DropReason.REPLAYED] == 1

    def test_replay_dropped_at_destination_ingress(self, replay_world):
        packet = self._outgoing_packet(replay_world)
        br_b = replay_world.as_b.br
        assert br_b.process_incoming(packet).action is Action.FORWARD_INTRA
        verdict = br_b.process_incoming(packet)
        assert verdict.dropped
        assert verdict.reason is DropReason.REPLAYED

    def test_transit_does_not_consume_filter(self, replay_world):
        # A transit AS forwards without replay bookkeeping: the check
        # protects the source and destination edges.
        import dataclasses

        packet = self._outgoing_packet(replay_world)
        transit_router = replay_world.as_a.br
        # Re-address the packet so AS A sees it as pure transit traffic.
        transit_header = dataclasses.replace(packet.header, dst_aid=999)
        transit_packet = dataclasses.replace(packet, header=transit_header)
        verdict = transit_router.process_incoming(transit_packet)
        assert verdict.action is Action.FORWARD_INTER
        assert transit_router.replay_filter.passed == 0

    def test_spoofed_packet_cannot_poison_filter(self, replay_world):
        # A packet with a bad MAC dies before the filter sees its nonce,
        # so an attacker cannot pre-burn a victim's nonces.
        packet = self._outgoing_packet(replay_world)
        import dataclasses

        spoofed = dataclasses.replace(
            packet, header=packet.header.with_mac(b"\xff" * 8)
        )
        br = replay_world.as_a.br
        assert br.process_outgoing(spoofed).reason is DropReason.BAD_MAC
        assert br.replay_filter.passed == 0
        assert br.process_outgoing(packet).action is Action.FORWARD_INTER

    def test_nonceless_deployment_never_consults_filter(self):
        # Filter enabled but nonces disabled: everything passes (the
        # mechanism requires the Section VIII-D header extension) — on
        # the burst path too, which would otherwise read the first
        # payload bytes as a nonce.
        world = build_world(
            config=ApnaConfig(
                replay_protection=False, in_network_replay_filter=True
            )
        )
        packet = self._outgoing_packet(world, nonce=None)
        br = world.as_a.br
        assert br.process_outgoing(packet).action is Action.FORWARD_INTER
        assert br.process_outgoing(packet).action is Action.FORWARD_INTER
        assert br.replay_filter is None
        records = br.process_burst([packet.to_wire()] * 2, [True, True])
        assert [verdict_of(r).action for r in records] == [Action.FORWARD_INTER] * 2

    def _outgoing_packet_nonceless(self, world):
        return self._outgoing_packet(world, nonce=None)
