"""Tests for in-network replay detection (Section VIII-D future work)."""

import dataclasses
import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.border_router import Action, DropReason
from repro.core.config import ApnaConfig
from repro.core.replay_filter import (
    _PAIR,
    MAX_BITS,
    BloomFilter,
    RotatingReplayFilter,
    _indices,
)
from repro.core.verdict import verdict_of
from repro.crypto.aes import AES
from repro.sharding.pool import ShardedDataPlane
from repro.wire.apna import Endpoint

from tests.conftest import build_world, inprocess_plane


def _keys(rng, count):
    """``count`` random (EphID, 64-bit key) items."""
    return [(rng.randbytes(16), rng.getrandbits(64)) for _ in range(count)]


def _columns(burst):
    """A burst of (EphID, key) items as ``observe_many``'s two columns."""
    return [ephid for ephid, _ in burst], [n.to_bytes(8, "big") for _, n in burst]


class TestBloomFilter:
    def test_empty_contains_nothing(self):
        bloom = BloomFilter(1 << 10)
        assert (b"\x01" * 16, 1) not in bloom
        assert bloom.fp_probability() == 0.0

    def test_added_items_are_found(self):
        bloom = BloomFilter(1 << 10)
        keys = _keys(random.Random(1), 100)
        for key in keys:
            bloom.add(key)
        assert all(key in bloom for key in keys)
        assert bloom.inserted == 100

    def test_clear(self):
        bloom = BloomFilter(1 << 10)
        bloom.add((b"\x01" * 16, 1))
        bloom.clear()
        assert (b"\x01" * 16, 1) not in bloom
        assert bloom.inserted == 0

    def test_memory_is_bits_over_eight(self):
        assert BloomFilter(1 << 20).memory_bytes == (1 << 20) // 8

    def test_rejects_non_power_of_two(self):
        # 32: a power of two under one word; 2^35: one the 64-bit index
        # cannot address (refused before anything is allocated).
        for bits in (1000, 32, 0, MAX_BITS * 2):
            with pytest.raises(ValueError):
                BloomFilter(bits)

    def test_index_reads_every_key_bit_once(self):
        """At the largest size, each of the 64 bits of key XOR EphID[:8]
        moves either the word (the low 28) or the probe mask (the top
        36), never both and never neither; the EphID's last 8 bytes are
        not read.  So every power-of-two size from 64 bits to
        ``MAX_BITS`` draws its word and its probes from disjoint bits."""
        assert MAX_BITS == 1 << 34 and MAX_BITS // 64 >= 1 << 20  # >= 2^26 bits
        word_mask = MAX_BITS // 64 - 1
        ephid = bytes(range(16))
        base = int.from_bytes(ephid[:8], "big")  # key XOR EphID[:8] == 0
        zero = base.to_bytes(8, "big")
        assert _indices([ephid], [zero], word_mask) == [(0, _PAIR[0])]
        for bit in range(64):
            key = (base ^ 1 << bit).to_bytes(8, "big")
            (word, mask), = _indices([ephid], [key], word_mask)
            if bit < 28:
                assert (word, mask) == (1 << bit, _PAIR[0]), bit
            else:
                assert word == 0 and mask != _PAIR[0], bit
        other = ephid[:8] + bytes(8)
        assert _indices([other], [bytes(8)], word_mask) == _indices(
            [ephid], [bytes(8)], word_mask
        )

    def test_fp_probability_grows_with_load(self):
        bloom = BloomFilter(1 << 10)
        assert bloom.fp_probability(10) < bloom.fp_probability(1000)

    def test_measured_fp_rate_matches_model(self):
        """The blocked model pinned at three fill levels of 2^20 bits:
        20k keys (8.5e-5), 50k (1.5e-3) and 84k (8.6e-3).  One seeded
        fill grows through the levels; the same 100k absent keys probe
        each (this seed measures 1.9e-4 / 1.7e-3 / 9.1e-3).  Measured
        must be within a factor of two of the model, or three at 20k
        keys, where ~9 false positives are expected in 100k probes."""
        rng = random.Random(0xB100)
        bloom = BloomFilter(1 << 20)
        probes = _keys(rng, 100_000)
        predicted = []
        for fill, factor in ((20_000, 3.0), (50_000, 2.0), (84_000, 2.0)):
            for key in _keys(rng, fill - bloom.inserted):
                bloom.add(key)
            model = bloom.fp_probability()
            measured = sum(key in bloom for key in probes) / len(probes)
            assert model / factor <= measured <= model * factor, (fill, measured, model)
            predicted.append(model)
        assert predicted == sorted(predicted)
        assert 8e-5 < predicted[0] < 9e-5 and 8.5e-3 < predicted[2] < 8.7e-3

    @given(st.binary(min_size=16, max_size=16), st.integers(0, 2**64 - 1))
    @settings(max_examples=50)
    def test_no_false_negatives(self, ephid, nonce):
        bloom = BloomFilter(1 << 10)
        bloom.add((ephid, nonce))
        assert (ephid, nonce) in bloom


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

        def lookup_then_insert(ephid, nonce, now):
            # The two-generation rule spelled out on the Bloom filters'
            # public calls.
            reference._maybe_rotate(now)
            item = (ephid, nonce)
            if item in reference._previous or item in reference._current:
                reference.replays += 1
                return False
            reference._current.add(item)
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
            assert bulk.observe_many(*_columns(burst), now) == expected
            for filt in (scalar, bulk):
                for attr in ("passed", "replays", "rotations", "_rotated_at"):
                    assert getattr(filt, attr) == getattr(reference, attr), attr
                for generation in ("_current", "_previous"):
                    mine, theirs = getattr(filt, generation), getattr(reference, generation)
                    assert mine._array == theirs._array
                    assert mine.inserted == theirs.inserted
        assert reference.rotations >= 3 and reference.replays > 9
        assert bulk.observe_many([], [], 60.0) == []

    @pytest.mark.parametrize("count", [1, 29, 64])
    def test_crypto_work_is_a_per_burst_budget(self, monkeypatch, count):
        """One ``observe_many`` over a burst's keys makes no ECB call and
        no hash whatever its size: the index bits are the keys' own."""
        calls = {"aes": 0, "sha256": 0}
        encrypt_block, encrypt_blocks = AES.encrypt_block, AES.encrypt_blocks
        sha256 = hashlib.sha256

        def counted_encrypt_block(self, data):
            calls["aes"] += 1
            return encrypt_block(self, data)

        def counted_encrypt_blocks(self, data):
            calls["aes"] += 1
            return encrypt_blocks(self, data)

        def counted_sha256(*args, **kwargs):
            calls["sha256"] += 1
            return sha256(*args, **kwargs)

        filt = RotatingReplayFilter(window=10.0, bits_per_generation=1 << 16)
        burst = [(bytes([k % 7]) * 16, k) for k in range(count)]
        ephids, keys = _columns(burst)
        monkeypatch.setattr(AES, "encrypt_block", counted_encrypt_block)
        monkeypatch.setattr(AES, "encrypt_blocks", counted_encrypt_blocks)
        monkeypatch.setattr(hashlib, "sha256", counted_sha256)
        assert filt.observe_many(ephids, keys, 1.0) == [True] * count
        assert calls == {"aes": 0, "sha256": 0}

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

    @pytest.mark.parametrize("path", ["scalar", "judge", "sharded"])
    @pytest.mark.parametrize("egress", [True, False], ids=["egress", "ingress"])
    def test_spoofed_packet_cannot_poison_filter(self, egress, path):
        """A frame under a victim's source EphID and next nonce, with a
        garbage MAC and a garbage destination EphID, then the victim's
        real packet.  The spoof dies (egress: ``BAD_MAC``, before the
        filter; ingress, where nothing can check the MAC: ``DST_FORGED``,
        after the filter recorded it) and the real packet passes, on the
        scalar pipeline, the AS's burst path and a two-shard plane: the
        filter keys on the carried MAC, so a spoof burns no real packet."""
        config = ApnaConfig(
            replay_protection=True,
            in_network_replay_filter=True,
            replay_filter_bits=1 << 14,
            forwarding_shards=2 if path == "sharded" else 0,
        )
        world = build_world(config=config)
        packet = self._outgoing_packet(world)
        spoofed = dataclasses.replace(
            packet,
            header=dataclasses.replace(
                packet.header, dst_ephid=b"\xee" * 16
            ).with_mac(b"\xff" * 8),
        )
        asys = world.as_a if egress else world.as_b
        burst = [spoofed.to_wire(), packet.to_wire()]
        if path == "scalar":
            judge = asys.br.process_outgoing if egress else asys.br.process_incoming
            verdicts = [judge(spoofed), judge(packet)]
            passed = asys.br.replay_filter.passed
        elif path == "judge":
            verdicts = asys.judge(burst, [egress] * 2)
            passed = asys.br.replay_filter.passed
        else:
            pooled = ShardedDataPlane.for_assembly(asys)
            try:
                plane = inprocess_plane(pooled, asys)
            finally:
                pooled.close()
            try:
                verdicts = plane.process(burst, [egress] * 2, asys.clock())
                passed = plane.stats()["replay_passed"]
            finally:
                plane.close()
        spoof_reason = DropReason.BAD_MAC if egress else DropReason.DST_FORGED
        real_action = Action.FORWARD_INTER if egress else Action.FORWARD_INTRA
        assert [verdicts[0].reason, verdicts[1].action] == [spoof_reason, real_action]
        assert passed == (1 if egress else 2)  # an ingress spoof is recorded

    def test_filter_without_nonces_is_refused(self):
        # The filter keys on the packet MAC, which only the Section
        # VIII-D nonce makes distinct per packet: asking for it without
        # the header extension is an error, not a silent no-op.
        with pytest.raises(ValueError, match="replay_protection"):
            ApnaConfig(in_network_replay_filter=True)
        with pytest.raises(ValueError, match="replay_protection"):
            ApnaConfig(replay_protection=False, in_network_replay_filter=True)

    def test_config_refuses_sizes_the_filter_refuses(self):
        # Refused where the config is built, not when a plane first
        # builds its filter from it.
        on = dict(replay_protection=True, in_network_replay_filter=True)
        for bits in (1000, 32, 0, -64, MAX_BITS * 2):
            with pytest.raises(ValueError, match="replay_filter_bits"):
                ApnaConfig(**on, replay_filter_bits=bits)
        for window in (0.0, -1.0):
            with pytest.raises(ValueError, match="replay_filter_window"):
                ApnaConfig(**on, replay_filter_window=window)
        for bits in (64, MAX_BITS):
            assert ApnaConfig(**on, replay_filter_bits=bits).replay_filter_bits == bits

    def test_nonceless_burst_path_reads_no_nonce(self):
        # Without nonces there is no filter, and the burst path must not
        # read the first payload bytes as one: a repeated packet passes.
        world = build_world(config=ApnaConfig())
        packet = self._outgoing_packet(world, nonce=None)
        br = world.as_a.br
        assert br.process_outgoing(packet).action is Action.FORWARD_INTER
        assert br.process_outgoing(packet).action is Action.FORWARD_INTER
        assert br.replay_filter is None
        records = br.process_burst([packet.to_wire()] * 2, [True, True])
        assert [verdict_of(r).action for r in records] == [Action.FORWARD_INTER] * 2
