"""Property-style fuzz tests for the data-plane hot paths.

Seeded-random sweeps (deterministic, so failures reproduce) over:

* :class:`EphIdCodec` — seal→open round-trips across the whole
  (hid, exp_time, iv) space and rejection of *every* single-bit
  corruption of a sealed EphID.
* :class:`RotatingReplayFilter` — accept/reject and counter invariants
  under randomised traffic and rotation schedules.
"""

import random

import pytest

from repro.core.ephid import EPHID_SIZE, EphIdCodec
from repro.core.errors import EphIdError
from repro.core.replay_filter import RotatingReplayFilter

ENC_KEY = bytes(range(16))
MAC_KEY = bytes(range(16, 32))
CODEC = EphIdCodec(ENC_KEY, MAC_KEY)


def test_ephid_roundtrip_over_random_inputs():
    rnd = random.Random(20260730)
    boundary = [0, 1, 2**32 - 1]
    triples = [(h, e, iv) for h in boundary for e in boundary for iv in boundary]
    triples += [
        (rnd.randrange(2**32), rnd.randrange(2**32), rnd.randrange(2**32))
        for _ in range(200)
    ]
    for hid, exp_time, iv in triples:
        token = CODEC.seal(hid, exp_time, iv)
        assert len(token) == EPHID_SIZE
        assert CODEC.open(token) == (hid, exp_time)


def test_every_single_bit_flip_is_rejected():
    rnd = random.Random(0xB17F11B)
    for _ in range(4):
        hid, exp_time, iv = (rnd.randrange(2**32) for _ in range(3))
        sealed = CODEC.seal(hid, exp_time, iv)
        for bit in range(8 * EPHID_SIZE):
            corrupted = bytearray(sealed)
            corrupted[bit // 8] ^= 1 << (bit % 8)
            with pytest.raises(EphIdError):
                CODEC.open(bytes(corrupted))


def test_ephid_wrong_length_rejected():
    for bad_len in (0, 1, 15, 17, 32):
        with pytest.raises(EphIdError):
            CODEC.open(bytes(bad_len))


def test_replay_filter_invariants_under_random_schedules():
    rnd = random.Random(0x5EED)
    for trial in range(5):
        window = rnd.choice([1.0, 5.0, 30.0])
        filt = RotatingReplayFilter(window=window, bits_per_generation=1 << 16)
        now = 0.0
        seen_since_rotation: set[tuple[bytes, int]] = set()
        observes = 0
        for _ in range(400):
            now += rnd.choice([0.0, 0.01, window / 7, window / 3])
            ephid = rnd.randrange(16).to_bytes(16, "big")
            nonce = rnd.randrange(64)
            rotations_before = filt.rotations
            fresh = filt.observe(ephid, nonce, now)
            observes += 1
            key = (ephid, nonce)
            if key in seen_since_rotation:
                # Anything observed since the last rotation is in the
                # current or previous generation (a single observe can
                # rotate at most once), so the filter MUST flag it.
                assert not fresh
            if filt.rotations != rotations_before:
                seen_since_rotation = set()
            seen_since_rotation.add(key)
            # Counter bookkeeping never drifts.
            assert filt.passed + filt.replays == observes
        assert filt.memory_bytes == 2 * (1 << 16) // 8


def test_replay_filter_immediate_duplicate_always_rejected():
    rnd = random.Random(0xD011)
    filt = RotatingReplayFilter(window=10.0, bits_per_generation=1 << 16)
    now = 0.0
    for _ in range(200):
        now += rnd.random()
        ephid = rnd.randbytes(16)
        nonce = rnd.randrange(2**32)
        filt.observe(ephid, nonce, now)
        assert not filt.observe(ephid, nonce, now)


def test_replay_filter_key_expires_after_two_rotations():
    window = 10.0
    filt = RotatingReplayFilter(window=window, bits_per_generation=1 << 16)
    ephid, nonce = bytes(16), 7
    assert filt.observe(ephid, nonce, 0.0)
    assert not filt.observe(ephid, nonce, 1.0)
    # Steady background traffic drives the generation rotation.
    rnd = random.Random(1)
    t = 0.0
    while filt.rotations < 2:
        t += 1.0
        filt.observe(rnd.randbytes(16), rnd.randrange(2**32), t)
    # After two full rotations the original key has aged out entirely.
    assert filt.observe(ephid, nonce, t)
