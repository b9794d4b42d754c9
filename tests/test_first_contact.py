"""A host's first packet: the key fetch, the bounded CMAC-context cache
and what invalidates it.

The contract (see :mod:`repro.core.border_router`): the router fetches a
host's packet-MAC key through ``packet_mac_key`` — on the columnar
stores a 16-byte slice of the key column, no per-host object — and keeps
the CMAC context it builds in one bounded LRU.  So a flash crowd of
never-seen sources cannot grow the router or the view, eviction never
changes a verdict, and a context never outlives the key it was built
from: re-keying or revoking a HID on a shard drops it.
"""

import dataclasses
import gc

import pytest

from repro.core import border_router
from repro.core.border_router import Action, BorderRouter, DropReason, Verdict
from repro.core.ephid import EphIdCodec
from repro.core.errors import RevokedError, UnknownHostError
from repro.core.hostdb import FIRST_HOST_HID, HostDatabase, HostRecord
from repro.core.keys import HostAsKeys
from repro.core.revocation import RevocationList
from repro.crypto.cmac import Cmac
from repro.sharding import wire
from repro.sharding.plan import ShardPlan
from repro.sharding.worker import ShardState
from repro.state import ColumnarHostDatabase, ShardSnapshot
from repro.wire.apna import ApnaHeader, ApnaPacket

from tests.test_state_store import _outcome, _shard_spec

#: Every shard here is ``tests.test_state_store``'s; frames are sealed
#: and addressed to match it.
_BASE_SPEC = _shard_spec(ShardPlan(1), 0)
AID = _BASE_SPEC.aid
PEER_AID = 200
CODEC = EphIdCodec(_BASE_SPEC.ephid_enc_key, _BASE_SPEC.ephid_mac_key)
NOW = 1_000.0
LIVE = 2**31
#: Keeps the state-family label on the ids of the tests that ran on two.
COLUMNAR = pytest.mark.parametrize((), [pytest.param(id="columnar")])

FORWARD = Verdict(Action.FORWARD_INTER, next_aid=PEER_AID)
BAD_MAC = Verdict(Action.DROP, reason=DropReason.BAD_MAC)


def _spec(*, shard=0, nshards=1, snapshot=b""):
    return _shard_spec(ShardPlan(nshards), shard, snapshot)


def _mac_key(hid: int) -> bytes:
    return hid.to_bytes(4, "big") * 4


def _packet(hid: int, mac_key: bytes) -> ApnaPacket:
    """An egress packet from ``hid``, MAC'd under ``mac_key``."""
    header = ApnaHeader(
        src_aid=AID,
        src_ephid=CODEC.seal(hid, LIVE, iv=hid),
        dst_ephid=bytes(16),
        dst_aid=PEER_AID,
    )
    payload = bytes(16)
    mac = Cmac(mac_key).tag(header.mac_input(payload), 8)
    return ApnaPacket(header.with_mac(mac), payload)


def _tampered(packet: ApnaPacket) -> ApnaPacket:
    mac = bytes([packet.header.mac[0] ^ 1]) + packet.header.mac[1:]
    return ApnaPacket(packet.header.with_mac(mac), packet.payload)


def _offer(state: ShardState, packets) -> "list[Verdict]":
    """One egress burst through the worker protocol, as the dispatcher
    sends it."""
    frames = [packet.to_wire() for packet in packets]
    reply = state.handle(
        wire.encode_burst(NOW, 0, frames, [wire.EGRESS] * len(frames))
    )
    return wire.decode_verdicts(reply)[1]


def _register(state: ShardState, hid: int, packet_mac: bytes) -> None:
    message = wire.encode_register_host(
        hid, owned=True, control=b"\x0c" * 16, packet_mac=packet_mac
    )
    assert state.handle(message) is None


# --------------------------------------------------------------------------
# A cached context never outlives its key


@COLUMNAR
def test_rekeyed_hid_is_verified_under_its_new_key():
    """``MSG_REGISTER_HOST`` for an owned HID the shard already holds
    replaces its kHA; the warm CMAC context built from the old key must
    go with it, or the shard forwards old-key frames and drops the
    host's real ones."""
    state = ShardState(_spec())
    hid = FIRST_HOST_HID + 5
    old, new = b"\x11" * 16, b"\x22" * 16
    _register(state, hid, old)
    assert _offer(state, [_packet(hid, old)]) == [FORWARD]  # warms the context
    _register(state, hid, new)
    assert _offer(state, [_packet(hid, old), _packet(hid, new)]) == [
        BAD_MAC,
        FORWARD,
    ]


@COLUMNAR
def test_revoked_hid_leaves_no_context_behind():
    """Key material of a revoked host does not linger in the router."""
    state = ShardState(_spec())
    hid, bystander = FIRST_HOST_HID + 5, FIRST_HOST_HID + 6
    for each in (hid, bystander):
        _register(state, each, _mac_key(each))
    packets = [_packet(each, _mac_key(each)) for each in (hid, bystander)]
    assert _offer(state, packets) == [FORWARD, FORWARD]
    assert hid in state.router._mac_cache
    assert state.handle(wire.encode_revoke_hid(hid)) is None
    assert hid not in state.router._mac_cache
    assert bystander in state.router._mac_cache
    assert _offer(state, packets) == [
        Verdict(Action.DROP, reason=DropReason.SRC_HID_INVALID),
        FORWARD,
    ]


@pytest.mark.parametrize("flag", (2, 3, 128, 255))
def test_snapshot_flag_byte_cannot_unrevoke_a_host(flag):
    """An owned row's flag is 0 or 1.  The numpy loader multiplied any
    other byte into its flag column, where 2 and 128 lose the revoked
    bit: the row loaded live and ``packet_mac_key`` released a key the
    stdlib loader held revoked.  The codec refuses such a byte — at
    construction, at ``decode``, and as the ``MSG_ERROR`` reply to a
    ``MSG_RESYNC`` that carries it, the shard's previous state serving."""
    hid = FIRST_HOST_HID + 5
    good = ShardSnapshot.from_rows(
        [(hid, b"\x0c" * 16, _mac_key(hid), False)], [hid], []
    )
    with pytest.raises(ValueError, match="owned flag byte"):
        dataclasses.replace(good, owned_flags=bytes([flag]))
    blob = bytearray(good.encode())
    blob[12 + 4] = flag  # after the 12-byte header and the one u32 HID
    with pytest.raises(ValueError, match="owned flag byte"):
        ShardSnapshot.decode(blob)
    state = ShardState(_spec(snapshot=good.encode()))
    packets = [_packet(hid, _mac_key(hid))]
    assert _offer(state, packets) == [FORWARD]
    reply = state.handle(bytes([wire.MSG_RESYNC]) + blob)
    assert reply[0] == wire.MSG_ERROR
    assert "owned flag byte" in wire.decode_error(reply)
    assert _offer(state, packets) == [FORWARD]
    assert state.hosts.packet_mac_key(hid) == _mac_key(hid)


# --------------------------------------------------------------------------
# Bounded under a flash crowd, exact under eviction

CAPACITY = 64
WARM = 8


def _scalar_oracle(rows) -> BorderRouter:
    """An in-line router over an object ``HostDatabase`` of the same
    hosts: the scalar Fig. 4 pipeline the burst path must agree with."""
    hostdb = HostDatabase()
    for hid, control, packet_mac, _ in rows:
        hostdb.register(
            HostRecord(hid, HostAsKeys(control=control, packet_mac=packet_mac))
        )
    return BorderRouter(AID, CODEC, hostdb, RevocationList(), lambda: NOW)


def test_flash_crowd_grows_neither_router_nor_view(monkeypatch):
    """4x the cache's capacity of never-seen authentic sources, eight at
    a time between eight warm hosts, one frame of each burst tampered:
    the cache stays at its bound, every verdict is the scalar oracle's,
    the warm hosts are never evicted, and nothing per source survives in
    the router or the view (gc object count flat from 1x to 4x)."""
    monkeypatch.setattr(border_router, "MAC_CACHE_CAPACITY", CAPACITY)
    hids = [FIRST_HOST_HID + i for i in range(WARM + 4 * CAPACITY)]
    rows = [(hid, b"\x0c" * 16, _mac_key(hid), False) for hid in hids]
    state = ShardState(
        _spec(snapshot=ShardSnapshot.from_rows(rows, hids, []).encode())
    )
    oracle = _scalar_oracle(rows)
    cache = state.router._mac_cache
    warm, crowd = hids[:WARM], hids[WARM:]
    objects = {}
    for seen in range(WARM, len(crowd) + 1, WARM):
        fresh = [_packet(hid, _mac_key(hid)) for hid in crowd[seen - WARM : seen]]
        fresh[-1] = _tampered(fresh[-1])  # a first contact that fails its MAC
        packets = [
            packet
            for pair in zip((_packet(hid, _mac_key(hid)) for hid in warm), fresh)
            for packet in pair
        ]
        verdicts = _offer(state, packets)
        assert verdicts == [oracle.process_outgoing(p) for p in packets]
        assert verdicts.count(FORWARD) == 2 * WARM - 1
        assert verdicts.count(BAD_MAC) == 1
        assert len(cache) <= CAPACITY
        if seen in (CAPACITY, 4 * CAPACITY):
            del fresh, packets, verdicts
            gc.collect()
            objects[seen] = len(gc.get_objects())
    assert len(cache) == cache.capacity == CAPACITY
    assert all(hid in cache for hid in warm)
    assert objects[4 * CAPACITY] - objects[CAPACITY] < 16, objects


# --------------------------------------------------------------------------
# packet_mac_key(hid) is get(hid).keys.packet_mac, on every store

H = FIRST_HOST_HID
OK = None  # in the expectation tables below: the key comes back


def _assert_key_fetch_is_get(store, expected) -> None:
    """Same key, or the same exception type and message, from both."""
    for hid, error in expected.items():
        fetched = _outcome(lambda: store.packet_mac_key(hid))
        assert fetched == _outcome(lambda: store.get(hid).keys.packet_mac), hid
        if error is OK:
            assert fetched == ("ok", _mac_key(hid)) and type(fetched[1]) is bytes
        else:
            assert fetched[:2] == ("err", error), hid


def _keys(hid: int) -> HostAsKeys:
    return HostAsKeys(control=b"\x0c" * 16, packet_mac=_mac_key(hid))


@pytest.mark.parametrize(
    "store", (HostDatabase, ColumnarHostDatabase), ids=("object", "columnar")
)
def test_key_fetch_on_the_authoritative_stores(store):
    """The per-record spec and the columns the AS runs, side by side."""
    db = store()
    for hid in (H, H + 1, H + 5, 3, 4):  # H+2..H+4: a hole inside the columns
        db.register(HostRecord(hid, _keys(hid)))
    db.register(HostRecord(H + 6, _keys(H + 6), revoked=True))
    db.revoke_hid(H + 1)
    db.revoke_hid(4)
    _assert_key_fetch_is_get(
        db,
        {
            H: OK,
            H + 5: OK,
            H + 1: RevokedError,
            H + 6: RevokedError,  # registered already revoked
            H + 3: UnknownHostError,
            H + 99: UnknownHostError,  # past the end of the columns
            3: OK,  # service HIDs keep real records on both stores
            4: RevokedError,
            9: UnknownHostError,
        },
    )


#: A shard-1-of-2 view's hosts (it owns the odd rows), as ``(hid,
#: registered revoked)``: in-plan rows, service HIDs and host rows of the
#: other shard pushed here anyway (both out of plan — ``_extra`` on the
#: columnar view).
_VIEW_OWNED = [
    (H + 1, False),
    (H + 3, False),
    (H + 5, True),
    (H + 11, False),  # leaves H+7 and H+9 absent inside the columns
    (3, False),
    (4, False),
    (H + 2, False),
    (H + 4, True),
    (H + 8, False),
]
_VIEW_LIVE_ONLY = [H + 6]  # liveness is replicated, the keys live on shard 0
_VIEW_REVOKED_LATER = [H + 3, 4, H + 8]
_VIEW_EXPECTED = {
    H + 1: OK,
    H + 11: OK,
    3: OK,
    H + 2: OK,
    H + 3: RevokedError,
    H + 5: RevokedError,
    4: RevokedError,
    H + 4: RevokedError,
    H + 8: RevokedError,
    H + 6: UnknownHostError,  # not owned by this shard
    H + 7: UnknownHostError,
    H + 99: UnknownHostError,
    H + 100: UnknownHostError,
    9: UnknownHostError,
}


@COLUMNAR
@pytest.mark.parametrize("loaded", ("by calls", "from a snapshot"))
def test_key_fetch_on_the_shard_views(loaded):
    rows = [
        (hid, b"\x0c" * 16, _mac_key(hid), revoked) for hid, revoked in _VIEW_OWNED
    ]
    live = [hid for hid, revoked in _VIEW_OWNED if not revoked] + _VIEW_LIVE_ONLY
    snapshot = ShardSnapshot.from_rows(rows, live, []).encode()
    if loaded == "by calls":
        snapshot = b""
    state = ShardState(_spec(shard=1, nshards=2, snapshot=snapshot))
    view = state.hosts
    if loaded == "by calls":
        for hid, control, packet_mac, revoked in rows:
            view.add_owned(hid, control, packet_mac, revoked=revoked)
        for hid in _VIEW_LIVE_ONLY:
            view.set_live(hid)
    for hid in _VIEW_REVOKED_LATER:
        view.revoke(hid)
    assert view.owned_count == len(_VIEW_OWNED)
    assert view.is_valid(H + 6) and not view.is_valid(H + 8)
    _assert_key_fetch_is_get(view, _VIEW_EXPECTED)
