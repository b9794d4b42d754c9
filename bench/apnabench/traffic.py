"""Seeded traffic, control operations and ground truth for the workloads.

Each generator builds a *generation world* from the seed, synthesises
every frame the workload will offer (population hosts are registry rows,
so EphIDs are sealed with the AS codec and packets MAC'd with the host's
registered subkey, as ``repro.evaluation.cases`` does), labels every
frame with the verdict it must receive, and closes the world.  Worlds
are deterministic per seed, so the frames are valid against every world
the engine later builds from the same seed.  Nothing here is timed as
system cost: it is reported as the informational ``gen_s``.
"""

from __future__ import annotations

import random
import time
from contextlib import closing
from dataclasses import dataclass, field, replace

from repro import scenarios
from repro.core.border_router import Action, DropReason, Verdict
from repro.core.config import ApnaConfig
from repro.core.keys import HostAsKeys
from repro.core.messages import EphIdReply, EphIdRequest
from repro.crypto.aead import EtmScheme
from repro.crypto.cmac import Cmac
from repro.wire.apna import AID_SIZE, EPHID_SIZE, MAC_SIZE, ApnaHeader

from . import BURST

#: Where the MAC sits in a packed header (Fig. 7: AID, EphID, EphID, AID, MAC).
_MAC_AT = 2 * AID_SIZE + 2 * EPHID_SIZE
#: A byte of the source EphID's authentication tag (Fig. 6: ct, IV, tag).
_SRC_TAG_BYTE = AID_SIZE + EPHID_SIZE - 1
#: Transit frames head for an AS that is neither ``a`` nor ``b``.
_THIRD_AID = 300
#: The data-plane clock read handed to every burst.  The worlds' virtual
#: clocks stand at 0, so EphIDs sealed to expire at 30 are expired and
#: the default 900 s data lifetime is live.
NOW_OFFSET = 60.0
_EXPIRED_AT = 30


@dataclass(frozen=True)
class Sizes:
    """Population and burst counts; ``SMOKE`` exists for the self-check."""

    hot_preset: str = "metro:100k"
    hot_bursts: int = 4096
    cold_preset: str = "metro:300k"
    cold_bursts: int = 1024
    mixed_preset: str = "metro:100k"
    mixed_bursts: int = 1024
    mixed_sources: int = 2048
    churn_preset: str = "metro:100k"
    churn_bursts: int = 1024
    churn_round_every: int = 32
    churn_sources: int = 1024
    churn_prerevoked: int = 2048
    #: (shard, per-shard burst seq) of each injected worker kill.
    churn_kills: "tuple[tuple[int, int], ...]" = (
        (0, 150), (1, 400), (0, 650), (1, 900),
    )


FULL = Sizes()
SMOKE = Sizes(
    hot_preset="metro:2k",
    hot_bursts=8,
    cold_preset="metro:2k",
    cold_bursts=8,
    mixed_preset="metro:2k",
    mixed_bursts=8,
    mixed_sources=128,
    churn_preset="metro:2k",
    churn_bursts=8,
    churn_round_every=4,
    churn_sources=64,
    churn_prerevoked=64,
    churn_kills=((0, 2), (1, 6)),
)


def deployment_config(**overrides) -> ApnaConfig:
    """Columnar state and chaos-grade supervision as in
    ``EvaluationRunner`` (effectively unlimited restarts, minimal
    backoff).  The reply timeout stays at the 5 s default: only kills
    are injected, which surface as pipe EOF at once, and a short timeout
    would turn a preempted core into a spurious restart."""
    return replace(
        ApnaConfig(),
        state_backend="columnar",
        shard_max_restarts=10_000,
        shard_restart_backoff=0.001,
        **overrides,
    )


@dataclass
class Burst:
    frames: "list[bytes]"
    egress: "list[bool]"
    expect: "list[Verdict]"


@dataclass
class ControlRound:
    """State writes and issuance applied between two bursts."""

    #: (control EphID, sealed Fig. 3 request, requester's kHA control key)
    requests: "list[tuple[bytes, bytes, bytes]]" = field(default_factory=list)
    #: The EphIDs the MS must hand back, in request order.
    issued: "list[bytes]" = field(default_factory=list)
    revoke_ephids: "list[tuple[bytes, float]]" = field(default_factory=list)
    #: (hid, control key, packet-MAC key) of hosts to register.
    register: "list[tuple[int, bytes, bytes]]" = field(default_factory=list)
    revoke_hids: "list[int]" = field(default_factory=list)


@dataclass
class Plan:
    """Everything one workload offers the system, with ground truth."""

    name: str
    preset: str
    config: ApnaConfig
    seed: int
    now: float
    bursts: "list[Burst]"
    #: Submit/collect pipeline depth (1 = synchronous ``process``).
    depth: int = 1
    #: False = ``ShardState.handle_burst`` in the bench process, no pool.
    sharded: bool = True
    #: Bursts pushed through during set-up so per-host caches are hot.
    warm: "list[Burst]" = field(default_factory=list)
    pre_revoke: "list[tuple[bytes, float]]" = field(default_factory=list)
    pre_revoke_hids: "list[int]" = field(default_factory=list)
    #: Control round applied *before* the burst with this index.
    rounds: "dict[int, ControlRound]" = field(default_factory=dict)
    kills: "tuple[tuple[int, int], ...]" = ()
    gen_s: float = 0.0

    @property
    def frames(self) -> int:
        return sum(len(burst.frames) for burst in self.bursts)


class _Source:
    """One host identity able to emit authentic packets."""

    __slots__ = ("aid", "hid", "ephid", "mac", "frame")

    def __init__(self, aid: int, hid: int, ephid: bytes, mac_key: bytes) -> None:
        self.aid = aid
        self.hid = hid
        self.ephid = ephid
        self.mac = Cmac(mac_key)
        self.frame = b""


def _seal_source(asys, hid: int, exp_time: int, mac_key: "bytes | None" = None):
    ephid = asys.codec.seal(
        hid=hid, exp_time=exp_time, iv=asys.ivs.next_iv_for(hid)
    )
    if mac_key is None:
        mac_key = asys.hostdb.get(hid).keys.packet_mac
    return _Source(asys.aid, hid, ephid, mac_key)


def _frame(
    src: _Source,
    dst_aid: int,
    dst_ephid: bytes,
    payload: bytes,
    nonce: "int | None" = None,
) -> bytes:
    # A header packed with the zero MAC is exactly the MAC input's head
    # (``ApnaHeader.mac_input``), so one pack serves both.
    head = ApnaHeader(
        src_aid=src.aid,
        src_ephid=src.ephid,
        dst_ephid=dst_ephid,
        dst_aid=dst_aid,
        nonce=nonce,
    ).pack()
    tag = src.mac.tag(head + payload, MAC_SIZE)
    return head[:_MAC_AT] + tag + head[_MAC_AT + MAC_SIZE :] + payload


def _flip(frame: bytes, at: int) -> bytes:
    return frame[:at] + bytes((frame[at] ^ 0x01,)) + frame[at + 1 :]


def _drop(reason: DropReason) -> Verdict:
    return Verdict(Action.DROP, reason=reason)


def _finish(plan: Plan, started: float) -> Plan:
    plan.gen_s = time.perf_counter() - started
    return plan


# --------------------------------------------------------------------------
# egress_hot_inproc


def egress_hot_inproc(seed: int, sizes: Sizes = FULL) -> Plan:
    started = time.perf_counter()
    rng = random.Random(f"{seed}:egress_hot_inproc")
    config = deployment_config()
    with closing(
        scenarios.build(sizes.hot_preset, seed=seed, config=config)
    ) as world:
        a, b = world.asys("a"), world.asys("b")
        exp = int(a.clock() + config.data_ephid_lifetime)
        dst_hid = world.population("b")[0]
        dst = b.codec.seal(hid=dst_hid, exp_time=exp, iv=b.ivs.next_iv_for(dst_hid))
        flows = []
        for hid in rng.sample(world.population("a"), 64):
            for _ in range(4):
                flows.append(_frame(_seal_source(a, hid, exp), b.aid, dst, bytes(16)))
        forward = Verdict(Action.FORWARD_INTER, next_aid=b.aid)
        plan = Plan(
            name="egress_hot_inproc",
            preset=sizes.hot_preset,
            config=config,
            seed=seed,
            now=a.clock() + NOW_OFFSET,
            bursts=[],
            sharded=False,
        )
    egress, expect = [True] * BURST, [forward] * BURST
    for _ in range(sizes.hot_bursts):
        # Pareto(1.1) over the flows: about half of every burst is flow 0.
        picks = [
            flows[int(rng.paretovariate(1.1) - 1.0) % len(flows)]
            for _ in range(BURST)
        ]
        plan.bursts.append(Burst(picks, egress, expect))
    plan.warm = [
        Burst(flows[i : i + BURST], egress, expect)
        for i in range(0, len(flows), BURST)
    ]
    return _finish(plan, started)


# --------------------------------------------------------------------------
# egress_cold_metro


def egress_cold_metro(seed: int, sizes: Sizes = FULL) -> Plan:
    started = time.perf_counter()
    rng = random.Random(f"{seed}:egress_cold_metro")
    config = deployment_config(forwarding_shards=2)
    with closing(
        scenarios.build(sizes.cold_preset, seed=seed, config=config)
    ) as world:
        a, b = world.asys("a"), world.asys("b")
        exp = int(a.clock() + config.data_ephid_lifetime)
        dst_hid = world.population("b")[0]
        dst = b.codec.seal(hid=dst_hid, exp_time=exp, iv=b.ivs.next_iv_for(dst_hid))
        hids = rng.sample(world.population("a"), sizes.cold_bursts * BURST)
        frames = [
            _frame(_seal_source(a, hid, exp), b.aid, dst, bytes(16))
            for hid in hids
        ]
        forward = Verdict(Action.FORWARD_INTER, next_aid=b.aid)
        plan = Plan(
            name="egress_cold_metro",
            preset=sizes.cold_preset,
            config=config,
            seed=seed,
            now=a.clock() + NOW_OFFSET,
            bursts=[],
        )
    egress, expect = [True] * BURST, [forward] * BURST
    plan.bursts = [
        Burst(frames[i : i + BURST], egress, expect)
        for i in range(0, len(frames), BURST)
    ]
    return _finish(plan, started)


# --------------------------------------------------------------------------
# mixed_imix_pipelined

#: Frames per burst by kind: 50% egress inter-AS, 20% egress intra-AS,
#: 20% ingress-local, 10% transit (of 64).
_MIX = (("inter", 32), ("intra", 13), ("ingress", 13), ("transit", 6))
#: IMIX wire sizes and their 7:4:1 weights.
_IMIX_SIZES, _IMIX_WEIGHTS = (128, 512, 1518), (7, 4, 1)
_REPLAY_SHARE = 0.02
#: Bloom bits per replay-filter generation.  The default 2^20 is sized
#: for ~90k packets per window; a run offers several times that inside
#: one window, and a Bloom false positive would read as a wrong verdict.
_REPLAY_BITS = 1 << 26


def mixed_imix_pipelined(seed: int, sizes: Sizes = FULL) -> Plan:
    started = time.perf_counter()
    rng = random.Random(f"{seed}:mixed_imix_pipelined")
    config = deployment_config(
        forwarding_shards=2,
        replay_protection=True,
        in_network_replay_filter=True,
        replay_filter_bits=_REPLAY_BITS,
    )
    with closing(
        scenarios.build(sizes.mixed_preset, seed=seed, config=config)
    ) as world:
        a, b = world.asys("a"), world.asys("b")
        exp = int(a.clock() + config.data_ephid_lifetime)
        local = [
            _seal_source(a, hid, exp)
            for hid in rng.sample(world.population("a"), sizes.mixed_sources)
        ]
        remote = [
            _seal_source(b, hid, exp)
            for hid in rng.sample(world.population("b"), sizes.mixed_sources // 4)
        ]
        header = ApnaHeader(
            src_aid=a.aid, src_ephid=local[0].ephid,
            dst_ephid=local[0].ephid, dst_aid=a.aid, nonce=0,
        ).wire_size
        payloads = {size: rng.randbytes(size - header) for size in _IMIX_SIZES}
        far = remote[0].ephid
        nonce = 0
        plan = Plan(
            name="mixed_imix_pipelined",
            preset=sizes.mixed_preset,
            config=config,
            seed=seed,
            now=a.clock() + NOW_OFFSET,
            bursts=[],
            depth=2,
        )
        to_b = Verdict(Action.FORWARD_INTER, next_aid=b.aid)
        onward = Verdict(Action.FORWARD_INTER, next_aid=_THIRD_AID)
        replayed = _drop(DropReason.REPLAYED)

        def one(kind: str) -> "tuple[bytes, bool, Verdict]":
            nonlocal nonce
            nonce += 1
            size = rng.choices(_IMIX_SIZES, _IMIX_WEIGHTS)[0]
            payload = payloads[size]
            if kind == "inter":
                return _frame(rng.choice(local), b.aid, far, payload, nonce), True, to_b
            if kind == "transit":
                frame = _frame(rng.choice(remote), _THIRD_AID, far, payload, nonce)
                return frame, False, onward
            peer = rng.choice(local)
            delivered = Verdict(Action.FORWARD_INTRA, hid=peer.hid)
            if kind == "intra":
                return (
                    _frame(rng.choice(local), a.aid, peer.ephid, payload, nonce),
                    True,
                    delivered,
                )
            return (
                _frame(rng.choice(remote), a.aid, peer.ephid, payload, nonce),
                False,
                delivered,
            )

        # One warm-up pass: every local source speaks once.
        for i in range(0, len(local), BURST):
            group = local[i : i + BURST]
            nonce += len(group)
            plan.warm.append(
                Burst(
                    [
                        _frame(src, b.aid, far, payloads[128], nonce - k)
                        for k, src in enumerate(group)
                    ],
                    [True] * len(group),
                    [to_b] * len(group),
                )
            )
        #: Frames of earlier bursts a replay may repeat, by kind (transit
        #: never reaches a replay filter, so it is never replayed).
        seen: "dict[str, list[tuple[bytes, bool]]]" = {
            kind: [] for kind, _ in _MIX if kind != "transit"
        }
        for _ in range(sizes.mixed_bursts):
            slots = []
            fresh: "list[tuple[str, bytes, bool]]" = []
            for kind, count in _MIX:
                for _ in range(count):
                    earlier = seen.get(kind)
                    if earlier and rng.random() < _REPLAY_SHARE:
                        frame, out = rng.choice(earlier)
                        slots.append((frame, out, replayed))
                    else:
                        frame, out, verdict = one(kind)
                        slots.append((frame, out, verdict))
                        fresh.append((kind, frame, out))
            rng.shuffle(slots)
            plan.bursts.append(
                Burst(
                    [s[0] for s in slots],
                    [s[1] for s in slots],
                    [s[2] for s in slots],
                )
            )
            for kind, frame, out in fresh:
                if kind in seen:
                    seen[kind].append((frame, out))
    return _finish(plan, started)


# --------------------------------------------------------------------------
# churn_hostile

#: Frame kinds of a data burst and their weights (70% authentic, 6% each).
_HOSTILE_KINDS = ("authentic", "forged", "expired", "revoked", "hid_revoked", "bad_mac")
_HOSTILE_WEIGHTS = (70, 6, 6, 6, 6, 6)
#: Control operations per round.
_ROUND_REQUESTS, _ROUND_REVOKES, _ROUND_REGISTERS, _ROUND_HID_REVOKES = 32, 16, 8, 2


def churn_hostile(seed: int, sizes: Sizes = FULL) -> Plan:
    started = time.perf_counter()
    rng = random.Random(f"{seed}:churn_hostile")
    config = deployment_config(forwarding_shards=2)
    every = sizes.churn_round_every
    # A round runs after bursts every-1, 2*every-1, ... whenever a later
    # burst exists to carry its probe frames.
    round_before = list(range(every, sizes.churn_bursts, every))
    with closing(
        scenarios.build(sizes.churn_preset, seed=seed, config=config)
    ) as world:
        a, b = world.asys("a"), world.asys("b")
        live = int(a.clock() + config.data_ephid_lifetime)
        pool = list(world.population("a"))
        rng.shuffle(pool)
        take = pool.pop

        # Issuance first, on the untouched world: the MS draws IVs and
        # reply nonces from the AS's own allocator and RNG, so the same
        # requests in the same order on a fresh same-seed world hand back
        # these very EphIDs.  Control EphIDs never cross the sharded
        # router, so their IVs need no shard pinning and leave the AS
        # allocator alone.
        control_exp = int(a.clock() + config.control_ephid_lifetime)
        rounds: "dict[int, ControlRound]" = {}
        requesters: "dict[int, list[tuple[int, bytes]]]" = {}
        for before in round_before:
            round_ = rounds[before] = ControlRound()
            requesters[before] = []
            for _ in range(_ROUND_REQUESTS):
                hid = take()
                keys = a.hostdb.get(hid).keys
                control = a.codec.seal(
                    hid=hid, exp_time=control_exp, iv=rng.getrandbits(32)
                )
                request = EphIdRequest(
                    dh_public=rng.randbytes(32), sig_public=rng.randbytes(32)
                )
                nonce = rng.randbytes(12)
                sealed = nonce + EtmScheme(keys.control).seal(
                    nonce, request.pack(), b"ephid-request"
                )
                round_.requests.append((control, sealed, keys.control))
                reply = a.ms.handle_request(control, sealed)
                round_.issued.append(open_reply(reply, keys.control).ephid)
                requesters[before].append((hid, keys.packet_mac))

        dst_hid = world.population("b")[0]
        dst = b.codec.seal(hid=dst_hid, exp_time=live, iv=b.ivs.next_iv_for(dst_hid))

        def source(hid: int, exp: int = live, mac_key=None, ephid=None) -> _Source:
            if ephid is None:
                src = _seal_source(a, hid, exp, mac_key)
            else:
                src = _Source(a.aid, hid, ephid, mac_key)
            src.frame = _frame(src, b.aid, dst, bytes(16))
            return src

        active = [source(take()) for _ in range(sizes.churn_sources)]
        expired = [source(take(), _EXPIRED_AT) for _ in range(256)]
        revoked = [source(take()) for _ in range(sizes.churn_prerevoked)]
        hid_revoked = [source(take()) for _ in range(64)]
        # Hosts reserved for tampering, so no later revocation changes
        # which check a tampered frame trips first.
        tampered = [source(take()) for _ in range(256)]
        forged = [_flip(src.frame, _SRC_TAG_BYTE) for src in tampered]
        bad_mac = [_flip(src.frame, _MAC_AT) for src in tampered]

        verdicts = {
            "authentic": Verdict(Action.FORWARD_INTER, next_aid=b.aid),
            "forged": _drop(DropReason.SRC_FORGED),
            "expired": _drop(DropReason.SRC_EXPIRED),
            "revoked": _drop(DropReason.SRC_REVOKED),
            "hid_revoked": _drop(DropReason.SRC_HID_INVALID),
            "bad_mac": _drop(DropReason.BAD_MAC),
        }
        plan = Plan(
            name="churn_hostile",
            preset=sizes.churn_preset,
            config=config,
            seed=seed,
            now=a.clock() + NOW_OFFSET,
            bursts=[],
            pre_revoke=[(src.ephid, float(live)) for src in revoked],
            pre_revoke_hids=[src.hid for src in hid_revoked],
            rounds=rounds,
            kills=sizes.churn_kills,
        )

        def draw(kind: str) -> bytes:
            if kind == "forged":
                return rng.choice(forged)
            if kind == "bad_mac":
                return rng.choice(bad_mac)
            pools = {
                "authentic": active,
                "expired": expired,
                "revoked": revoked,
                "hid_revoked": hid_revoked,
            }
            return rng.choice(pools[kind]).frame

        egress = [True] * BURST
        for index in range(sizes.churn_bursts):
            round_ = rounds.get(index)
            if round_ is None:
                kinds = rng.choices(_HOSTILE_KINDS, _HOSTILE_WEIGHTS, k=BURST)
                plan.bursts.append(
                    Burst(
                        [draw(kind) for kind in kinds],
                        egress,
                        [verdicts[kind] for kind in kinds],
                    )
                )
                continue
            # The round's writes, then a probe burst: one frame per
            # operation that must now be accepted or dropped.
            issued = [
                source(hid, mac_key=mac_key, ephid=ephid)
                for (hid, mac_key), ephid in zip(requesters[index], round_.issued)
            ]
            cut = [
                active.pop(rng.randrange(len(active)))
                for _ in range(_ROUND_REVOKES)
            ]
            round_.revoke_ephids = [(src.ephid, float(live)) for src in cut]
            joined = []
            for _ in range(_ROUND_REGISTERS):
                hid = a.hostdb.allocate_hid()
                keys = HostAsKeys(rng.randbytes(16), rng.randbytes(16))
                round_.register.append((hid, keys.control, keys.packet_mac))
                joined.append(source(hid, mac_key=keys.packet_mac))
            gone = [
                active.pop(rng.randrange(len(active)))
                for _ in range(_ROUND_HID_REVOKES)
            ]
            round_.revoke_hids = [src.hid for src in gone]
            probe = (
                [(src.frame, "authentic") for src in issued + joined]
                + [(src.frame, "revoked") for src in cut]
                + [(src.frame, "hid_revoked") for src in gone]
            )
            while len(probe) < BURST:
                probe.append((rng.choice(active).frame, "authentic"))
            rng.shuffle(probe)
            plan.bursts.append(
                Burst(
                    [frame for frame, _ in probe],
                    egress,
                    [verdicts[kind] for _, kind in probe],
                )
            )
            revoked.extend(cut)
            hid_revoked.extend(gone)
            active.extend(issued)
            active.extend(joined)
    return _finish(plan, started)


def open_reply(sealed_reply: bytes, control_key: bytes):
    """The certificate inside a sealed Fig. 3 reply (host side)."""
    nonce, body = sealed_reply[:12], sealed_reply[12:]
    plain = EtmScheme(control_key).open(nonce, body, b"ephid-reply")
    return EphIdReply.parse(plain).cert


GENERATORS = {
    "egress_hot_inproc": egress_hot_inproc,
    "egress_cold_metro": egress_cold_metro,
    "mixed_imix_pipelined": mixed_imix_pipelined,
    "churn_hostile": churn_hostile,
}
