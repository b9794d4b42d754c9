"""Burst/scalar equivalence of the border router's burst pipeline.

The contract (see :mod:`repro.core.border_router`): for any burst of
wire frames, ``process_burst`` returns the records of exactly the
verdicts the scalar loop returns — ``process_outgoing`` /
``process_incoming`` per frame, in arrival order — and leaves the router
in the identical state: same drop counters, same forwarded counters,
same replay-filter statistics.  A seeded fuzzer mixes every verdict
class (forged, expired, revoked, bad-MAC, replayed, transit, intra,
foreign-source) into random bursts and checks the property across the
state families: the burst side runs over the columnar stores the system
runs, the scalar side over the per-record ``HostDatabase`` /
``RevocationList`` fed the same registrations and revocations
(``_object_oracle``).  ``TestShardBurst`` pins the shard's reply to the
scalar verdicts byte for byte over the benchmark's own smoke traffic;
the classes at the bottom pin the codec's column open and the bulk
crypto entry points against their scalar forms.
"""

import dataclasses
import random
import sys
from pathlib import Path

import pytest

from repro import scenarios
from repro.core import verdict as verdict_module
from repro.core.border_router import Action, BorderRouter, DropReason, Verdict
from repro.core.config import ApnaConfig
from repro.core.ephid import EphIdCodec
from repro.core.errors import EphIdError
from repro.core.hostdb import HostDatabase, HostRecord
from repro.core.keys import HostAsKeys
from repro.core.replay_filter import RotatingReplayFilter
from repro.core.revocation import RevocationList
from repro.core.verdict import VERDICT_TABLE_CAP, verdict_of
from repro.sharding import wire
from repro.sharding.plan import ShardPlan
from repro.sharding.worker import ShardState
from repro.wire.apna import ApnaPacket, Endpoint
from repro.wire.errors import ParseError

from tests.conftest import build_world

#: ``bench/apnabench`` — the benchmark's traffic plans are the frames
#: ``TestShardBurst`` replays.
sys.path.append(str(Path(__file__).resolve().parent.parent / "bench"))
from apnabench import engine, traffic  # noqa: E402

WINDOW = 900.0
BITS = 1 << 14


# The ids keep the crypto-provider and state-family labels they carried
# while each had two.
@pytest.fixture(params=[pytest.param(None, id="openssl-columnar")])
def burst_world():
    """A replay-protected world."""
    return build_world(
        config=ApnaConfig(
            replay_protection=True,
            in_network_replay_filter=True,
            replay_filter_window=WINDOW,
            replay_filter_bits=BITS,
        ),
        host_names=("alice", "bob", "carol"),  # alice, carol on AS 100
    )


def _fresh_router(world, stores=None):
    """A router over AS 100's own (columnar) stores, or the given pair."""
    hostdb, revocations = stores or (world.as_a.hostdb, world.as_a.revocations)
    return BorderRouter(
        world.as_a.aid,
        world.as_a.codec,
        hostdb,
        revocations,
        world.network.scheduler.clock(),
        packet_mac_size=world.config.packet_mac_size,
        replay_filter=RotatingReplayFilter(
            window=WINDOW, bits_per_generation=BITS
        ),
    )


def _object_oracle(world):
    """The cross-family reference: a scalar router over a per-record
    ``HostDatabase`` + ``RevocationList`` holding every registration, HID
    revocation and EphID revocation AS 100's columnar stores hold."""
    hostdb = HostDatabase()
    for record in world.as_a.hostdb.records():
        hostdb.register(
            HostRecord(hid=record.hid, keys=record.keys, revoked=record.revoked)
        )
    revocations = RevocationList()
    for ephid, exp_time in world.as_a.revocations.snapshot():
        revocations.add(ephid, exp_time)
    return _fresh_router(world, (hostdb, revocations))


def _filter_stats(router):
    filt = router.replay_filter
    return (filt.passed, filt.replays, filt.rotations)


def _scalar(router, packets, egress):
    """The oracle: one scalar pipeline call per packet, in arrival order."""
    return [
        router.process_outgoing(packet) if out else router.process_incoming(packet)
        for packet, out in zip(packets, egress)
    ]


def _burst(router, packets, egress):
    """``process_burst`` over the packets' wire frames, materialised."""
    records = router.process_burst([p.to_wire() for p in packets], egress)
    return [verdict_of(record) for record in records]


def _assert_same_state(scalar_router, batch_router):
    assert scalar_router.drops == batch_router.drops
    assert scalar_router.forwarded_inter == batch_router.forwarded_inter
    assert scalar_router.forwarded_intra == batch_router.forwarded_intra
    assert _filter_stats(scalar_router) == _filter_stats(batch_router)


def _packet_mix(world, rng):
    """A generator of packets drawn from every verdict class."""
    alice = world.hosts["alice"]
    carol = world.hosts["carol"]
    bob = world.hosts["bob"]
    src = alice.acquire_ephid_direct()
    peer = bob.acquire_ephid_direct()
    local_peer = carol.acquire_ephid_direct()
    revoked = alice.acquire_ephid_direct()
    world.as_a.revocations.add(revoked.ephid, 1e12)
    revoked_dst = carol.acquire_ephid_direct()
    world.as_a.revocations.add(revoked_dst.ephid, 1e12)
    # Crafted EphIDs: expired and unknown-HID, sealed under the AS key
    # so they authenticate but fail the later checks.
    codec = world.as_a.codec
    alice_hid = world.as_a.hostdb.find_by_subscriber(alice.subscriber_id).hid
    expired_ephid = codec.seal(alice_hid, exp_time=1, iv=world.as_a.ivs.next_iv())
    # Two invalid HIDs: one never registered, one registered then revoked.
    gone_hid = world.as_a.hostdb.allocate_hid()
    world.as_a.hostdb.register(
        HostRecord(gone_hid, HostAsKeys(control=bytes(16), packet_mac=bytes(16)))
    )
    world.as_a.hostdb.revoke_hid(gone_hid)
    bad_hid_ephids = [
        codec.seal(hid, exp_time=2**31, iv=world.as_a.ivs.next_iv())
        for hid in (0xDEAD, gone_hid)
    ]

    dst_inter = Endpoint(world.as_b.aid, peer.ephid)
    dst_intra = Endpoint(world.as_a.aid, local_peer.ephid)
    nonces = iter(range(1, 10**6))
    seen = []

    def build(kind):
        make = alice.stack.make_packet
        if kind == "inter":
            packet = make(src.ephid, dst_inter, b"data", nonce=next(nonces))
            seen.append(packet)
            return packet
        if kind == "intra":
            packet = make(src.ephid, dst_intra, b"data", nonce=next(nonces))
            seen.append(packet)
            return packet
        if kind == "replay" and seen:
            return rng.choice(seen)
        if kind == "forged":
            packet = make(src.ephid, dst_inter, b"data", nonce=next(nonces))
            return dataclasses.replace(
                packet,
                header=dataclasses.replace(
                    packet.header, src_ephid=rng.randbytes(16)
                ),
            )
        if kind == "expired":
            return make(expired_ephid, dst_inter, b"data", nonce=next(nonces))
        if kind == "revoked":
            return make(revoked.ephid, dst_inter, b"data", nonce=next(nonces))
        if kind == "bad-hid":
            return make(
                rng.choice(bad_hid_ephids), dst_inter, b"data", nonce=next(nonces)
            )
        if kind == "bad-mac":
            packet = make(src.ephid, dst_inter, b"data", nonce=next(nonces))
            return dataclasses.replace(
                packet, header=packet.header.with_mac(b"\xff" * 8)
            )
        if kind == "foreign":
            packet = make(src.ephid, dst_inter, b"data", nonce=next(nonces))
            return dataclasses.replace(
                packet, header=dataclasses.replace(packet.header, src_aid=999)
            )
        if kind == "revoked-dst":
            return make(
                src.ephid,
                Endpoint(world.as_a.aid, revoked_dst.ephid),
                b"data",
                nonce=next(nonces),
            )
        if kind == "forged-dst":
            return make(
                src.ephid,
                Endpoint(world.as_a.aid, rng.randbytes(16)),
                b"data",
                nonce=next(nonces),
            )
        # Fallback (e.g. "replay" before any packet exists).
        packet = make(src.ephid, dst_inter, b"data", nonce=next(nonces))
        seen.append(packet)
        return packet

    return build


KINDS = (
    "inter", "inter", "inter", "intra", "replay", "forged", "expired",
    "revoked", "bad-hid", "bad-mac", "foreign", "revoked-dst", "forged-dst",
)


class TestEgressEquivalence:
    def test_fuzzed_bursts(self, burst_world):
        # Advance virtual time so the crafted exp_time=1 EphID is expired.
        burst_world.network.run_until(5.0)
        rng = random.Random(0xA9A)
        build = _packet_mix(burst_world, rng)
        scalar_router = _object_oracle(burst_world)
        batch_router = _fresh_router(burst_world)
        for _ in range(6):
            burst = [build(rng.choice(KINDS)) for _ in range(rng.randint(1, 48))]
            egress = [True] * len(burst)
            assert _scalar(scalar_router, burst, egress) == _burst(
                batch_router, burst, egress
            )
            _assert_same_state(scalar_router, batch_router)
        # Every verdict class must actually have been exercised.
        hits = {r for r, n in batch_router.drops.items() if n}
        assert {
            DropReason.SRC_FORGED, DropReason.SRC_EXPIRED,
            DropReason.SRC_REVOKED, DropReason.SRC_HID_INVALID,
            DropReason.BAD_MAC, DropReason.REPLAYED,
            DropReason.NOT_LOCAL_SOURCE, DropReason.DST_REVOKED,
            DropReason.DST_FORGED,
        } <= hits
        assert batch_router.forwarded_inter > 0
        assert batch_router.forwarded_intra > 0

    def test_duplicate_nonce_inside_one_burst(self, burst_world):
        rng = random.Random(7)
        build = _packet_mix(burst_world, rng)
        packet = build("inter")
        scalar_router = _fresh_router(burst_world)
        batch_router = _fresh_router(burst_world)
        burst = [packet, packet, packet]
        batched = _burst(batch_router, burst, [True] * 3)
        assert _scalar(scalar_router, burst, [True] * 3) == batched
        assert batched[0].action is Action.FORWARD_INTER
        assert batched[1].reason is DropReason.REPLAYED
        assert batched[2].reason is DropReason.REPLAYED
        _assert_same_state(scalar_router, batch_router)

    @pytest.mark.parametrize("size", (1, 2, 17))
    def test_joined_mac_compare_locates_the_bad_frame(self, burst_world, size):
        """One HID's MAC group with a single bad MAC first, in the middle
        or last: the group fails its one joined compare, and the frame by
        frame pass behind it must charge exactly that frame — the rest
        are forwarded and keyed into the replay filter as the scalar loop
        over an object ``HostDatabase`` does."""
        build = _packet_mix(burst_world, random.Random(size))
        for bad_at in sorted({0, size // 2, size - 1}):
            scalar_router = _object_oracle(burst_world)
            batch_router = _fresh_router(burst_world)
            burst = [
                build("bad-mac" if k == bad_at else "inter") for k in range(size)
            ]
            egress = [True] * size
            batched = _burst(batch_router, burst, egress)
            assert batched == _scalar(scalar_router, burst, egress)
            assert [verdict.reason for verdict in batched] == [
                DropReason.BAD_MAC if k == bad_at else None for k in range(size)
            ]
            assert [verdict.action for verdict in batched].count(
                Action.FORWARD_INTER
            ) == size - 1
            _assert_same_state(scalar_router, batch_router)
            assert batch_router.drops[DropReason.BAD_MAC] == 1
            assert batch_router.total_drops == 1
            assert _filter_stats(batch_router) == (size - 1, 0, 0)
            assert bytes(batch_router.replay_filter._current._array) == bytes(
                scalar_router.replay_filter._current._array
            )

    def test_empty_burst(self, burst_world):
        router = _fresh_router(burst_world)
        assert router.process_burst([], []) == []
        assert router.total_drops == 0
        assert _filter_stats(router) == (0, 0, 0)
        with pytest.raises(ValueError):
            router.process_burst([bytes(64)], [])


class TestIngressEquivalence:
    def test_fuzzed_bursts(self, burst_world):
        burst_world.network.run_until(5.0)
        rng = random.Random(0xB0B)
        build = _packet_mix(burst_world, rng)

        def as_incoming(packet):
            if rng.random() < 0.3:  # transit: re-address to a foreign AS
                return dataclasses.replace(
                    packet,
                    header=dataclasses.replace(packet.header, dst_aid=777),
                )
            # Local delivery at AS 100: swap so dst is the local endpoint.
            return dataclasses.replace(
                packet, header=dataclasses.replace(packet.header, dst_aid=100)
            )

        scalar_router = _object_oracle(burst_world)
        batch_router = _fresh_router(burst_world)
        for _ in range(6):
            burst = [
                as_incoming(build(rng.choice(("inter", "intra", "replay", "forged-dst", "revoked-dst"))))
                for _ in range(rng.randint(1, 48))
            ]
            ingress = [False] * len(burst)
            assert _scalar(scalar_router, burst, ingress) == _burst(
                batch_router, burst, ingress
            )
            _assert_same_state(scalar_router, batch_router)
        assert batch_router.forwarded_inter > 0  # transit exercised
        assert batch_router.forwarded_intra > 0  # local delivery exercised


class TestMixedEquivalence:
    def test_fuzzed_bursts(self, burst_world):
        """Both directions interleaved in one burst.  ``replay`` re-offers
        an earlier packet in either direction, so the same (EphID, nonce)
        can arrive once outbound and once inbound: whichever comes first
        in the burst is the fresh one, as in the scalar loop."""
        burst_world.network.run_until(5.0)
        rng = random.Random(0xC0DE)
        build = _packet_mix(burst_world, rng)
        scalar_router = _object_oracle(burst_world)
        batch_router = _fresh_router(burst_world)
        crossed = 0
        for _ in range(8):
            burst = [build(rng.choice(KINDS)) for _ in range(rng.randint(1, 48))]
            egress = [rng.random() < 0.5 for _ in burst]
            seen = {}
            for packet, out in zip(burst, egress):
                key = (packet.header.src_ephid, packet.header.nonce)
                crossed += seen.setdefault(key, out) != out
            scalar = _scalar(scalar_router, burst, egress)
            assert scalar == _burst(batch_router, burst, egress)
            _assert_same_state(scalar_router, batch_router)
        assert crossed  # a duplicate did straddle the two directions
        assert batch_router.drops[DropReason.REPLAYED] > 0
        assert batch_router.forwarded_inter > 0
        assert batch_router.forwarded_intra > 0

    def test_transit_flood_cannot_grow_the_intern_table(self, burst_world):
        """100 000 attacker-chosen destination AIDs: every verdict is
        right and the record -> Verdict table stops at its cap."""
        router = _fresh_router(burst_world)
        template = bytearray(_packet_mix(burst_world, random.Random(3))("inter").to_wire())
        aids = range(70_000, 170_000)
        for first in range(0, len(aids), 4096):
            chunk = aids[first : first + 4096]
            frames = []
            for aid in chunk:
                template[36:40] = aid.to_bytes(4, "big")
                frames.append(bytes(template))
            records = router.process_burst(frames, [False] * len(frames))
            assert [verdict_of(record) for record in records] == [
                Verdict(Action.FORWARD_INTER, next_aid=aid) for aid in chunk
            ]
        assert router.forwarded_inter == len(aids)
        assert len(verdict_module._VERDICT_TABLE) == VERDICT_TABLE_CAP


def _smoke_twin(plan):
    """A world for ``plan`` with a one-shard :class:`ShardState` cut from
    it and a scalar oracle router over the same authoritative state."""
    world = scenarios.build(plan.preset, seed=plan.seed, config=plan.config)
    asys = world.asys("a")
    engine.apply_setup(asys, plan)
    state = ShardState(engine.shard_spec(asys, plan.config, ShardPlan(1), 0))
    replay_filter = None
    if plan.config.in_network_replay_filter:
        replay_filter = RotatingReplayFilter(
            window=plan.config.replay_filter_window,
            bits_per_generation=plan.config.replay_filter_bits,
        )
    oracle = BorderRouter(
        asys.aid,
        asys.codec,
        asys.hostdb,
        asys.revocations,
        lambda: plan.now,
        packet_mac_size=plan.config.packet_mac_size,
        replay_filter=replay_filter,
    )
    return world, state, oracle


def _burst_message(plan, seq, burst):
    directions = [wire.EGRESS if out else wire.INGRESS for out in burst.egress]
    return wire.encode_burst(plan.now, seq, burst.frames, directions)


class TestShardBurst:
    @pytest.mark.parametrize("name", sorted(traffic.GENERATORS))
    def test_reply_is_the_scalar_verdicts_byte_for_byte(self, name):
        plan = traffic.GENERATORS[name](1, traffic.SMOKE)
        world, state, oracle = _smoke_twin(plan)
        try:
            asys = world.asys("a")
            for seq, burst in enumerate(plan.warm + plan.bursts):
                round_ = plan.rounds.get(seq - len(plan.warm))
                if round_ is not None:
                    engine.apply_writes(asys, round_)
                    for ephid, exp in round_.revoke_ephids:
                        state.handle_revoke_ephid(wire.encode_revoke_ephid(ephid, exp))
                    for hid, control, packet_mac in round_.register:
                        state.handle_register_host(
                            wire.encode_register_host(
                                hid, owned=True, control=control, packet_mac=packet_mac
                            )
                        )
                    for hid in round_.revoke_hids:
                        state.handle_revoke_hid(wire.encode_revoke_hid(hid))
                packets = [
                    ApnaPacket.from_wire(
                        frame, with_nonce=plan.config.replay_protection
                    )
                    for frame in burst.frames
                ]
                scalar = _scalar(oracle, packets, burst.egress)
                assert scalar == burst.expect
                assert state.handle_burst(
                    _burst_message(plan, seq, burst)
                ) == wire.encode_verdicts(seq, scalar)
            assert wire.decode_stats(state.stats()) == {
                **dict.fromkeys(wire.STATS_FIELDS, 0),
                **{reason.value: n for reason, n in oracle.drops.items()},
                "forwarded_inter": oracle.forwarded_inter,
                "forwarded_intra": oracle.forwarded_intra,
                **(
                    {
                        "replay_passed": oracle.replay_filter.passed,
                        "replay_replays": oracle.replay_filter.replays,
                        "replay_rotations": oracle.replay_filter.rotations,
                    }
                    if oracle.replay_filter is not None
                    else {}
                ),
            }
        finally:
            world.close()

    @pytest.mark.parametrize("short_at", [0, 17, 63])
    def test_short_frame_is_an_error_and_touches_nothing(self, short_at):
        """One frame a byte short of the (nonce-carrying) header: the
        burst is refused whole, before any counter or filter insert."""
        plan = traffic.mixed_imix_pipelined(1, traffic.SMOKE)
        world, state, _ = _smoke_twin(plan)
        try:
            burst = plan.bursts[0]
            state.handle_burst(_burst_message(plan, 0, burst))  # non-zero state
            stats = state.stats()
            replay_filter = state.router.replay_filter
            bits = bytes(replay_filter._current._array)
            cut = dataclasses.replace(burst, frames=list(burst.frames))
            cut.frames[short_at] = cut.frames[short_at][:55]
            reply = state.handle(_burst_message(plan, 1, cut))
            assert reply[0] == wire.MSG_ERROR
            assert ParseError.__name__ in wire.decode_error(reply)
            assert f"frame {short_at} " in wire.decode_error(reply)
            assert state.stats() == stats
            assert bytes(replay_filter._current._array) == bits
            assert replay_filter._current.inserted == wire.decode_stats(stats)[
                "replay_passed"
            ]
        finally:
            world.close()


# The ``openssl`` ids here and in the suites below keep the crypto-provider
# label they carried while there were two providers.
@pytest.fixture(params=[pytest.param(None, id="openssl")])
def codec():
    return EphIdCodec(b"\x01" * 16, b"\x02" * 16)


class TestOpenBatch:
    """EphIdCodec.open_batch mirrors open() element for element."""

    def test_mixed_validity(self, codec):
        good = [codec.seal(i, 1000 + i, iv=i) for i in range(20)]
        bad = [b"\x00" * 16, b"short", b"", good[0][:-1] + b"\xff"]
        mixed = good + bad + good[:3]
        results = codec.open_batch(mixed)
        for ephid, info in zip(mixed, results):
            try:
                expected = codec.open(ephid)
            except Exception:
                expected = None
            assert info == expected

    def test_empty(self):
        codec = EphIdCodec(b"\x01" * 16, b"\x02" * 16)
        assert codec.open_batch([]) == []

    @pytest.mark.parametrize(
        "forged",
        [(0,), (31,), (63,), (0, 63), (30, 31)],
        ids=[
            f"{where}-openssl"
            for where in ("first", "middle", "last", "both-ends", "adjacent")
        ],
    )
    def test_joined_tag_compare_locates_the_forgeries(self, forged):
        """A column whose one joined tag compare fails is opened EphID by
        EphID: ``None`` in exactly the forged slots, every other slot
        what scalar ``open`` returns."""
        codec = EphIdCodec(b"\x01" * 16, b"\x02" * 16)
        column = [
            codec.seal(7000 + i, 10**9 + i, iv=i * 2654435761 % 2**32)
            for i in range(64)
        ]
        expected = [codec.open(ephid) for ephid in column]
        assert codec.open_batch(column) == expected
        for slot in forged:  # one bit of the tag
            column[slot] = column[slot][:-1] + bytes([column[slot][-1] ^ 0x10])
            expected[slot] = None
            with pytest.raises(EphIdError):
                codec.open(column[slot])
        assert codec.open_batch(column) == expected
        assert expected.count(None) == len(forged)

    def test_fuzzed_column(self, codec):
        """The column-wise open (one XOR over the whole column, tags and
        plaintexts read back with ``iter_unpack``) against scalar
        ``open``: valid EphIDs, a bit flipped in each of ciphertext / IV
        / tag, wrong lengths and duplicates, shuffled — same ``None``
        positions, same ``(hid, exp_time)``."""
        rng = random.Random(0xE9)

        def flipped(ephid, lo, hi):
            bit = rng.randrange(8 * lo, 8 * hi)
            return bytes(
                byte ^ (1 << bit % 8) if i == bit // 8 else byte
                for i, byte in enumerate(ephid)
            )

        opened = 0
        for _ in range(40):
            valid = [
                codec.seal(
                    rng.choice((0, 2**32 - 1, rng.getrandbits(32))),
                    rng.choice((0, 2**32 - 1, rng.getrandbits(32))),
                    iv=rng.getrandbits(32),
                )
                for _ in range(rng.randrange(2, 12))
            ]
            column = valid + [rng.choice(valid) for _ in range(3)]
            for lo, hi in ((0, 8), (8, 12), (12, 16)):
                column += [flipped(ephid, lo, hi) for ephid in valid[:2]]
            column += [bytes(16), b"", valid[0][:15], valid[0] + b"\x00"]
            column.append(valid[0] * 2)
            rng.shuffle(column)
            expected = []
            for ephid in column:
                try:
                    expected.append(codec.open(ephid))
                except EphIdError:
                    expected.append(None)
            assert codec.open_batch(column) == expected
            opened += len(column) - expected.count(None)
            assert expected.count(None) >= 11  # every tampered entry refused
        assert opened > 200


@pytest.mark.parametrize("key", [pytest.param(bytes(range(16)), id="openssl")])
class TestBulkPrimitives:
    """The bulk crypto entry points agree with their scalar forms."""

    def test_encrypt_blocks(self, key):
        from repro.crypto.aes import AES

        cipher = AES(key)
        blocks = [bytes([i]) * 16 for i in range(9)]
        bulk = cipher.encrypt_blocks(b"".join(blocks))
        assert bulk == b"".join(cipher.encrypt_block(b) for b in blocks)
        assert cipher.encrypt_blocks(b"") == b""
        with pytest.raises(ValueError):
            cipher.encrypt_blocks(b"\x00" * 15)

    def test_tag_many(self, key):
        from repro.crypto.cmac import Cmac

        mac = Cmac(key)
        messages = [bytes([i]) * (i * 7 % 40) for i in range(12)]
        assert mac.tag_many(messages, 8) == [mac.tag(m, 8) for m in messages]
        assert mac.tag_many([], 8) == []
        with pytest.raises(ValueError):
            mac.tag_many(messages, 0)
