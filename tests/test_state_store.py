"""The repro.state columnar stores vs. their per-record spec.

The contract (see :mod:`repro.state`): ``ColumnarHostDatabase`` /
``ColumnarRevocationList`` answer every call exactly as the per-record
``HostDatabase`` / ``RevocationList`` do — same results, same error
types and messages, same observable ordering — and the
:class:`ShardSnapshot` a shard is spawned and resynced from holds the
bytes a per-record walk of either family would write, so a worker
resynced over ``MSG_RESYNC`` holds exactly the authoritative rows.
"""

import gc
import hashlib
import random
import sys
from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import ApnaConfig
from repro.core.errors import RevokedError, UnknownHostError
from repro.core.hostdb import FIRST_HOST_HID, HostDatabase, HostRecord
from repro.core.keys import HostAsKeys
from repro.core.revocation import RevocationList
from repro.crypto import AES, PureAES
from repro.sharding import wire
from repro.sharding.plan import ShardPlan
from repro.sharding.worker import ShardSpec, ShardState
from repro.state import (
    ColumnarHostDatabase,
    ColumnarRevocationList,
    ColumnarShardView,
    ShardSnapshot,
    build_shard_snapshot,
    population_key_material,
)
from repro.state import _KEYSTREAM_SLICE
from repro.state.revlist import _COMPACT_MIN_ROWS
from repro.state.snapshot import KEY_BYTES, pack_f64s, pack_u32s

SERVICE_HIDS = (3, 1, 2, 4, 5)  # AA, registry, MS, DNS, router order


def _keys(i: int) -> HostAsKeys:
    return HostAsKeys(control=bytes([i % 251]) * 16, packet_mac=bytes([i % 249]) * 16)


def _outcome(fn):
    """Normalize a call to a comparable (status, payload) pair."""
    try:
        return ("ok", fn())
    except Exception as exc:  # noqa: BLE001 - parity includes error identity
        return ("err", type(exc), str(exc))


def _describe(record):
    """A store-neutral view of a host record/row proxy."""
    if record is None:
        return None
    return (
        record.hid,
        record.keys.control,
        record.keys.packet_mac,
        record.subscriber_id,
        record.revoked,
    )


def _describe_outcome(outcome):
    if outcome[0] == "ok":
        return ("ok", _describe(outcome[1]))
    return outcome


def _assert_same_db(obj, col, hids, subscribers):
    assert len(obj) == len(col)
    assert len(list(obj.records())) == len(list(col.records()))
    for hid in hids:
        assert obj.is_valid(hid) == col.is_valid(hid), hid
        assert (hid in obj) == (hid in col)
        left = _describe_outcome(_outcome(lambda: obj.get(hid)))
        right = _describe_outcome(_outcome(lambda: col.get(hid)))
        assert left == right, hid
    for subscriber in subscribers:
        assert _describe(obj.find_by_subscriber(subscriber)) == _describe(
            col.find_by_subscriber(subscriber)
        ), subscriber
    obj_rows = [_describe(record) for record in obj.records()]
    col_rows = [_describe(record) for record in col.records()]
    assert obj_rows == col_rows


class TestHostDatabaseDifferential:
    """Identical op sequences leave both stores observably identical."""

    def _populate(self, db, hosts=8):
        for i, hid in enumerate(SERVICE_HIDS):
            db.register(HostRecord(hid=hid, keys=_keys(100 + i)))
        hids = []
        for i in range(hosts):
            hid = db.allocate_hid()
            db.register(
                HostRecord(hid=hid, keys=_keys(10 + i), subscriber_id=700 + i)
            )
            hids.append(hid)
        return hids

    def test_register_get_revoke_parity(self):
        obj = HostDatabase()
        col = ColumnarHostDatabase()
        obj_hids = self._populate(obj)
        col_hids = self._populate(col)
        assert obj_hids == col_hids == list(
            range(FIRST_HOST_HID, FIRST_HOST_HID + 8)
        )
        all_hids = list(SERVICE_HIDS) + obj_hids + [0xDEAD_0000]
        subscribers = list(range(700, 710))
        _assert_same_db(obj, col, all_hids, subscribers)

        for db in (obj, col):
            db.revoke_hid(obj_hids[2])
            db.revoke_hid(obj_hids[2])  # idempotent re-revoke
            db.revoke_hid(4)  # a service endpoint
        _assert_same_db(obj, col, all_hids, subscribers)

        # Error parity: unknown HIDs, duplicate HIDs, duplicate subscribers.
        for op in (
            lambda db: db.revoke_hid(0xDEAD_0000),
            lambda db: db.get(0xDEAD_0000),
            lambda db: db.get(obj_hids[2]),
            lambda db: db.register(
                HostRecord(hid=obj_hids[0], keys=_keys(1))
            ),
            lambda db: db.register(HostRecord(hid=3, keys=_keys(1))),
            lambda db: db.register(
                HostRecord(
                    hid=db.allocate_hid(), keys=_keys(2), subscriber_id=701
                )
            ),
        ):
            assert _outcome(lambda: op(obj)) == _outcome(lambda: op(col))
        # The failed subscriber registration burned one HID on each side;
        # the allocators must stay aligned.
        assert obj.allocate_hid() == col.allocate_hid()

    def test_pre_revoked_registration_parity(self):
        obj = HostDatabase()
        col = ColumnarHostDatabase()
        for db in (obj, col):
            hid = db.allocate_hid()
            db.register(
                HostRecord(hid=hid, keys=_keys(9), subscriber_id=42, revoked=True)
            )
        assert len(obj) == len(col) == 0
        assert len(list(obj.records())) == len(list(col.records())) == 1
        _assert_same_db(obj, col, [FIRST_HOST_HID], [42])

    def test_hooks_fire_identically(self):
        events = {"object": [], "columnar": []}
        for name, db in (("object", HostDatabase()), ("columnar", ColumnarHostDatabase())):
            log = events[name]
            db.on_register = lambda record, log=log: log.append(
                ("reg", record.hid)
            )
            db.on_revoke_hid = lambda hid, log=log: log.append(("rev", hid))
            self._populate(db, hosts=3)
            db.revoke_hid(FIRST_HOST_HID + 1)
        assert events["object"] == events["columnar"]

    def test_unknown_backend_rejected(self):
        """There is no store to select: the vestigial config name takes
        its one value (the ``gone-names`` and ``identifier-homes`` rules
        of ``repro.analysis`` pin the rest)."""
        with pytest.raises(ValueError, match="only state family"):
            ApnaConfig(state_backend="bogus")

    def test_columnar_rejects_short_keys(self):
        col = ColumnarHostDatabase()
        with pytest.raises(ValueError, match="16 bytes"):
            col.register(
                HostRecord(
                    hid=col.allocate_hid(),
                    keys=HostAsKeys(control=b"short", packet_mac=b"\x00" * 16),
                )
            )

    def test_bulk_register_validation(self):
        col = ColumnarHostDatabase()
        with pytest.raises(ValueError, match="count must be at least 1"):
            col.bulk_register(0, b"")
        with pytest.raises(ValueError, match="key material is"):
            col.bulk_register(2, b"\x00" * 63)

    def test_bulk_register_matches_per_record_loop(self):
        material = population_key_material(b"bulk-parity", 40)
        col = ColumnarHostDatabase()
        first = col.bulk_register(40, material)
        assert first == FIRST_HOST_HID
        obj = HostDatabase()
        for i in range(40):
            base = 32 * i
            obj.register(
                HostRecord(
                    hid=obj.allocate_hid(),
                    keys=HostAsKeys(
                        control=material[base : base + 16],
                        packet_mac=material[base + 16 : base + 32],
                    ),
                )
            )
        _assert_same_db(obj, col, range(first, first + 40), [700])
        assert col.allocate_hid() == obj.allocate_hid()

    def test_allocate_hid_skips_registered_hids(self):
        """``register`` moves the allocation cursor past any host HID it
        accepts, in both stores, so ``allocate_hid`` never hands out a
        registered HID; a hole below the cursor stays registrable."""
        for db in (HostDatabase(), ColumnarHostDatabase()):
            hid = db.allocate_hid()
            db.register(HostRecord(hid=hid + 1, keys=_keys(1)))
            fresh = db.allocate_hid()
            assert fresh == hid + 2, type(db).__name__
            db.register(HostRecord(hid=fresh, keys=_keys(2)))
            db.register(HostRecord(hid=hid, keys=_keys(3)))
            assert db.allocate_hid() == hid + 3
            db.register(HostRecord(hid=3, keys=_keys(4)))  # a service HID
            assert db.allocate_hid() == hid + 4

    def test_bulk_register_starts_past_the_cursor(self):
        """No row lies past the cursor, so a bulk population appends:
        after explicit rows, and after HIDs allocated but never
        registered (which stay unregistered)."""
        col = ColumnarHostDatabase()
        hid = col.allocate_hid()
        col.register(HostRecord(hid=hid + 2, keys=_keys(1)))
        first = col.bulk_register(2, population_key_material(b"gap", 2))
        assert first == hid + 3
        assert col.allocate_hid() == first + 2
        first = col.bulk_register(1, population_key_material(b"x", 1))
        assert first == hid + 6
        valid = [h for h in range(hid, hid + 8) if col.is_valid(h)]
        assert valid == [hid + 2, hid + 3, hid + 4, hid + 6]
        assert [record.hid for record in col.records()] == valid


class TestRevocationListDifferential:
    def test_lifecycle_parity(self):
        obj = RevocationList()
        col = ColumnarRevocationList()
        observed = {}
        for name, lst in (("object", obj), ("columnar", col)):
            calls = []
            lst.on_add = lambda e, t, calls=calls: calls.append((e, t))
            for i in range(10):
                lst.add(i.to_bytes(16, "big"), 50.0 + 10 * i)
            lst.add((3).to_bytes(16, "big"), 999.0)  # duplicate: ignored
            observed[name] = calls
        assert observed["object"] == observed["columnar"]
        assert len(observed["object"]) == 10
        for lst in (obj, col):
            assert len(lst) == 10
            assert lst.total_added == 10
            assert (4).to_bytes(16, "big") in lst
            assert (99).to_bytes(16, "big") not in lst
        assert obj.prune(95.0) == col.prune(95.0) == 5
        assert len(obj) == len(col) == 5
        assert set(obj.snapshot()) == set(col.snapshot())
        for lst in (obj, col):  # a pruned EphID can be re-revoked
            lst.add((0).to_bytes(16, "big"), 500.0)
            assert (0).to_bytes(16, "big") in lst

    def test_auto_prune_off_parity(self):
        obj = RevocationList(auto_prune=False)
        col = ColumnarRevocationList(auto_prune=False)
        for lst in (obj, col):
            lst.add(b"\x01" * 16, 10.0)
            assert lst.maybe_prune(100.0) == 0
            assert len(lst) == 1
            assert lst.prune(100.0) == 1

    def test_columnar_compaction_keeps_membership(self):
        col = ColumnarRevocationList()
        for i in range(200):
            col.add(i.to_bytes(16, "big"), float(i) + 1.0)
        assert col.prune(181.0) == 180  # compacts: live*2 < rows
        assert len(col) == 20
        assert not col.contains((5).to_bytes(16, "big"))
        for i in range(180, 200):
            assert col.contains(i.to_bytes(16, "big"))
        # Post-compaction state still snapshots and prunes correctly.
        exp_blob, ephid_blob = col.packed_snapshot()
        fresh = ColumnarRevocationList()
        assert fresh.load_packed(exp_blob, ephid_blob) == 20
        assert set(fresh.snapshot()) == set(col.snapshot())
        assert fresh.prune(1e9) == 20
        assert len(fresh) == 0

    def test_packed_snapshot_with_holes(self):
        """packed_snapshot must skip pruned holes before compaction kicks
        in (fewer than _COMPACT_MIN_ROWS rows)."""
        col = ColumnarRevocationList()
        for i in range(10):
            col.add(i.to_bytes(16, "big"), float(i) + 1.0)
        col.prune(6.0)  # 5 holes, no compaction at this size
        exp_blob, ephid_blob = col.packed_snapshot()
        fresh = ColumnarRevocationList()
        assert fresh.load_packed(exp_blob, ephid_blob) == 5
        assert set(fresh.snapshot()) == set(col.snapshot())

    def test_hole_heavy_packed_round_trip(self):
        """Prunes scattered through insertion order leave holes the
        columns keep (live rows never fall below half, so nothing
        compacts): the packed columns are the survivors in insertion
        order, and a replica loaded from them answers and prunes as the
        original does."""
        rng = random.Random(48)
        for size in (_COMPACT_MIN_ROWS - 1, 2048):
            col = ColumnarRevocationList()
            expiries = [float(rng.randrange(1, 10 * size)) for _ in range(size)]
            for i, exp_time in enumerate(expiries):
                col.add(i.to_bytes(16, "big"), exp_time)
            cut = sorted(expiries)[size // 2]
            pruned = col.prune(cut)
            assert 0 < pruned and len(col) * 2 >= len(col._exp) == size
            survivors = [
                (i.to_bytes(16, "big"), exp_time)
                for i, exp_time in enumerate(expiries)
                if exp_time >= cut
            ]
            assert col.snapshot() == survivors
            exp_blob, ephid_blob = col.packed_snapshot()
            assert exp_blob == pack_f64s(exp for _, exp in survivors)
            assert ephid_blob == b"".join(ephid for ephid, _ in survivors)
            fresh = ColumnarRevocationList()
            assert fresh.load_packed(exp_blob, ephid_blob) == len(survivors)
            assert fresh.snapshot() == survivors
            assert fresh.packed_snapshot() == (exp_blob, ephid_blob)
            later = sorted(expiries)[3 * size // 4]
            assert fresh.prune(later) == col.prune(later)
            assert fresh.snapshot() == col.snapshot()

    def test_load_packed_validation(self):
        with pytest.raises(ValueError, match="disagree"):
            ColumnarRevocationList().load_packed(pack_f64s([1.0]), b"")
        with pytest.raises(ValueError, match="duplicate"):
            ColumnarRevocationList().load_packed(
                pack_f64s([1.0, 2.0]), b"\x01" * 16 + b"\x01" * 16
            )


class TestShardSnapshotCodec:
    def test_empty_roundtrip(self):
        snap = ShardSnapshot.empty()
        assert ShardSnapshot.decode(snap.encode()) == snap
        assert (snap.owned_count, snap.live_count, snap.revoked_count) == (0, 0, 0)

    def test_from_rows_roundtrip(self):
        rows = [
            (FIRST_HOST_HID, b"\x01" * 16, b"\x02" * 16, False),
            (FIRST_HOST_HID + 1, b"\x03" * 16, b"\x04" * 16, True),
        ]
        live = [3, FIRST_HOST_HID]
        revoked = [(b"\x05" * 16, 100.0), (b"\x06" * 16, 200.0)]
        snap = ShardSnapshot.from_rows(rows, live, revoked)
        decoded = ShardSnapshot.decode(snap.encode())
        assert list(decoded.iter_owned()) == rows
        assert list(decoded.iter_live()) == live
        assert list(decoded.iter_revoked()) == revoked
        # The routing trailer — kR's length, then kR — round-trips too,
        # and is required: a blob cut exactly where it starts is
        # truncated, not a trailer-less snapshot (that would skip the
        # worker's kR cross-check).
        keyed = replace(snap, routing_key=b"\x07" * 16)
        blob = keyed.encode()
        assert blob[-17:] == b"\x10" + b"\x07" * 16
        assert ShardSnapshot.decode(blob) == keyed
        with pytest.raises(ValueError, match="routing trailer"):
            ShardSnapshot.decode(blob[:-17])
        with pytest.raises(ValueError, match="header implies"):
            ShardSnapshot.decode(blob[:-1])

    def test_decode_rejects_trailing_bytes(self):
        blob = ShardSnapshot.empty().encode() + b"\x00"
        with pytest.raises(ValueError, match="header implies"):
            ShardSnapshot.decode(blob)

    def test_mismatched_columns_rejected(self):
        with pytest.raises(ValueError, match="owned columns disagree"):
            ShardSnapshot(
                owned_hids=pack_u32s([FIRST_HOST_HID]),
                owned_flags=b"",
                owned_keys=b"\x00" * 32,
                live_hids=b"",
                rev_exp=b"",
                rev_ephids=b"",
            )
        with pytest.raises(ValueError, match="revocation columns disagree"):
            ShardSnapshot(
                owned_hids=b"",
                owned_flags=b"",
                owned_keys=b"",
                live_hids=b"",
                rev_exp=pack_f64s([1.0]),
                rev_ephids=b"",
            )

    def test_repeated_owned_hid_refused_at_load(self):
        """One row per owned HID: numpy's scatter leaves the winner of a
        repeated index undefined and used to count the row twice, so the
        loader refuses the snapshot — for an in-plan HID and an
        out-of-plan one alike."""
        row = (FIRST_HOST_HID, b"\x01" * 16, b"\x02" * 16, False)
        for rows in ([row, row], [(3, *row[1:]), row, (3, *row[1:])]):
            snap = ShardSnapshot.decode(ShardSnapshot.from_rows(rows, [], []).encode())
            with pytest.raises(ValueError, match="owned HIDs repeat"):
                ColumnarShardView(ShardPlan(1), 0).load_snapshot(snap)


def _authoritative(columnar: bool = True, hosts: int = 240):
    """An AS-state pair (hostdb, revocations) with services, a metro-style
    bulk population, some revoked HIDs and a revocation replica —
    byte-identical content in the columns or in per-record objects."""
    db = ColumnarHostDatabase() if columnar else HostDatabase()
    for i, hid in enumerate(SERVICE_HIDS):
        db.register(HostRecord(hid=hid, keys=_keys(100 + i)))
    material = population_key_material(b"metro-resync", hosts)
    if columnar:
        first = db.bulk_register(hosts, material)
    else:
        first = None
        for i in range(hosts):
            hid = db.allocate_hid()
            first = hid if first is None else first
            base = 32 * i
            db.register(
                HostRecord(
                    hid=hid,
                    keys=HostAsKeys(
                        control=material[base : base + 16],
                        packet_mac=material[base + 16 : base + 32],
                    ),
                )
            )
    for offset in range(0, hosts, 17):
        db.revoke_hid(first + offset)
    rev = ColumnarRevocationList() if columnar else RevocationList()
    for i in range(12):
        # Increasing expiries keep the per-record list's heap in
        # insertion order, so both emit identical snapshot columns.
        rev.add(i.to_bytes(16, "big"), 1_000.0 + i)
    return db, rev


def _walked_snapshot(hostdb, revocations, plan, shard) -> ShardSnapshot:
    """The oracle for ``build_shard_snapshot``: one shard's snapshot by a
    per-record walk of ``records()`` / ``snapshot()``, which every store
    of either family answers."""
    owned, live = [], []
    for record in hostdb.records():
        if not record.revoked:
            live.append(record.hid)
        if plan.owner_of(record.hid) == shard:
            owned.append(
                (
                    record.hid,
                    record.keys.control,
                    record.keys.packet_mac,
                    record.revoked,
                )
            )
    walked = ShardSnapshot.from_rows(owned, live, revocations.snapshot())
    return replace(walked, routing_key=plan.key or b"")


def _shard_spec(plan, shard, snapshot=b""):
    return ShardSpec(
        shard=shard,
        nshards=plan.nshards,
        aid=100,
        ephid_enc_key=b"\x01" * 16,
        ephid_mac_key=b"\x02" * 16,
        crypto_backend="openssl",
        packet_mac_size=8,
        with_nonce=True,
        replay_window=None,
        replay_bits=0,
        shard_block=plan.block,
        routing_mode=plan.mode,
        routing_key=plan.key or b"",
        state_backend="columnar",
        snapshot=snapshot,
    )


class TestMetroResyncRoundTrip:
    """The scaled-down metro resync property: the snapshot the columnar
    stores export is the one a per-record walk writes, and shipped as a
    ``MSG_RESYNC`` frame it rebuilds exactly those rows in the worker."""

    @pytest.mark.parametrize("plan", [ShardPlan(3), ShardPlan(2)])
    def test_snapshot_to_resync_to_worker_view(self, plan):
        obj_db, obj_rev = _authoritative(columnar=False)
        col_db, col_rev = _authoritative()
        all_hids = list(SERVICE_HIDS) + [
            record.hid for record in col_db.records() if record.hid >= FIRST_HOST_HID
        ]
        for shard in range(plan.nshards):
            snap = build_shard_snapshot(col_db, col_rev, plan, shard)
            # Bit-identity of the wire image with a per-record walk, of
            # the columns themselves and of the per-record stores.
            assert snap.encode() == _walked_snapshot(
                col_db, col_rev, plan, shard
            ).encode()
            assert snap.encode() == _walked_snapshot(
                obj_db, obj_rev, plan, shard
            ).encode()
            state = ShardState(_shard_spec(plan, shard))
            assert state.hosts.owned_count == 0
            ack = state.handle_resync(wire.encode_resync(snap))
            assert wire.decode_resync_ack(ack) == (
                snap.owned_count,
                snap.revoked_count,
            )
            assert state.hosts.owned_count == snap.owned_count
            for hid, control, packet_mac, revoked in snap.iter_owned():
                if revoked:
                    with pytest.raises(RevokedError):
                        state.hosts.get(hid)
                else:
                    record = state.hosts.get(hid)
                    assert record.keys.control == control
                    assert record.keys.packet_mac == packet_mac
            for hid in all_hids:
                assert state.hosts.is_valid(hid) == obj_db.is_valid(hid), hid
                if plan.owner_of(hid) != shard:
                    with pytest.raises(UnknownHostError):
                        state.hosts.get(hid)
            assert len(state.revocations) == snap.revoked_count == len(obj_rev)
            for ephid, _exp in obj_rev.snapshot():
                assert state.revocations.contains(ephid)

    def test_spawn_snapshot_equals_resync_snapshot(self):
        """The ShardSpec-embedded bytes and the MSG_RESYNC payload are the
        same serialisation: spawning from one equals resyncing the other."""
        plan = ShardPlan(2)
        col_db, col_rev = _authoritative(hosts=60)
        snap = build_shard_snapshot(col_db, col_rev, plan, 1)
        spawned = ShardState(_shard_spec(plan, 1, snapshot=snap.encode()))
        resynced = ShardState(_shard_spec(plan, 1))
        resynced.handle_resync(wire.encode_resync(snap))
        assert spawned.hosts.owned_count == resynced.hosts.owned_count
        for hid, _c, _m, revoked in snap.iter_owned():
            if revoked:
                continue
            assert spawned.hosts.get(hid).keys == resynced.hosts.get(hid).keys
        assert len(spawned.revocations) == len(resynced.revocations)


def test_refused_resync_leaves_the_previous_state_whole():
    """A snapshot that decodes but fails to load (here: one EphID revoked
    twice) is a ``MSG_ERROR`` reply, and the shard keeps the view, the
    list and the router it had — not a new view under the old router."""
    state = ShardState(_shard_spec(ShardPlan(1), 0))
    before = (state.hosts, state.revocations, state.router)
    twice = ShardSnapshot(
        b"", b"", b"", b"", pack_f64s([1.0, 2.0]), b"\x01" * 32
    )
    reply = state.handle(wire.encode_resync(twice))
    assert reply[0] == wire.MSG_ERROR
    assert "duplicate" in wire.decode_error(reply)
    after = (state.hosts, state.revocations, state.router)
    assert all(new is old for new, old in zip(after, before))
    assert state.router._hostdb is state.hosts


def test_shard_state_refuses_a_second_routing_mode():
    """The IV -> shard map is the keyed one.  ``ShardSpec.routing_mode``
    survives only because ``bench/`` still passes it, and any value but
    ``ShardPlan.mode`` is refused, as a second ``crypto_backend`` is —
    and a second Fig. 7 MAC width, state family or ownership stripe.
    The view is built from the plan itself."""
    plan = ShardPlan(2)
    spec = _shard_spec(plan, 1)
    assert ShardState(spec).hosts._plan == plan
    for field, value, reason in (
        ("routing_mode", "", "only IV -> shard routing"),
        ("routing_mode", "residue", "only IV -> shard routing"),
        ("packet_mac_size", 4, "Fig. 7 MAC"),
        ("state_backend", "object", "only state family"),
        ("crypto_backend", "pure", "only crypto provider"),
        ("shard_block", 4, "only HID -> shard ownership"),
    ):
        with pytest.raises(ValueError, match=reason):
            ShardState(replace(spec, **{field: value}))


def test_stores_are_the_only_writers_of_host_state():
    """A record is frozen and a row proxy writes nothing, so
    ``revoke_hid`` (which fires the shard pool's hook) is the only way
    to revoke a host."""
    assert HostRecord.__dataclass_params__.frozen
    keys = HostAsKeys(control=bytes(16), packet_mac=bytes(16))
    for db in (HostDatabase(), ColumnarHostDatabase()):
        for hid in (3, db.allocate_hid()):  # a service row, a host row
            db.register(HostRecord(hid=hid, keys=keys))
            with pytest.raises(AttributeError):
                db.get(hid).revoked = True
            assert db.is_valid(hid), (type(db).__name__, hid)


def test_handle_holds_a_control_error_for_the_next_reply():
    """The worker protocol's alignment rule, in-process: a failed
    fire-and-forget frame yields no reply of its own; its error takes
    the place of the next expected reply, and the stream is clean after."""
    state = ShardState(_shard_spec(ShardPlan(2), 0))
    assert state.handle(bytes([99])) is None  # unknown message kind
    held = state.handle(bytes([wire.MSG_STATS]))
    assert held[0] == wire.MSG_ERROR
    assert "unknown message kind 99" in wire.decode_error(held)
    reply = state.handle(bytes([wire.MSG_STATS]))
    assert reply[0] == wire.MSG_STATS_REPLY
    assert set(wire.decode_stats(reply)) == set(wire.STATS_FIELDS)


class TestColumnarShardView:
    def _snapshot(self):
        plan = ShardPlan(3)
        rows = []
        live = []
        # Services (out of plan for shard 1) plus a stripe of host rows.
        rows.append((3, b"\xaa" * 16, b"\xab" * 16, False))
        live.append(3)
        for i in range(30):
            hid = FIRST_HOST_HID + i
            revoked = i % 11 == 0
            if plan.owner_of(hid) == 1:
                rows.append((hid, bytes([i]) * 16, bytes([i + 1]) * 16, revoked))
            if not revoked:
                live.append(hid)
        return plan, rows, live

    def test_load_snapshot_matches_per_record_adds(self):
        plan, rows, live = self._snapshot()
        snap = ShardSnapshot.from_rows(rows, live, [])
        loaded = ColumnarShardView(plan, 1)
        loaded.load_snapshot(snap)
        manual = ColumnarShardView(plan, 1)
        for hid, control, packet_mac, revoked in rows:
            manual.add_owned(hid, control, packet_mac, revoked=revoked)
        for hid in live:
            manual.set_live(hid)
        assert loaded.owned_count == manual.owned_count == len(rows)
        for hid in range(FIRST_HOST_HID - 2, FIRST_HOST_HID + 32):
            assert loaded.is_valid(hid) == manual.is_valid(hid), hid
            assert _outcome(lambda: _describe_view(loaded.get(hid))) == _outcome(
                lambda: _describe_view(manual.get(hid))
            ), hid
        assert loaded.is_valid(3) and manual.is_valid(3)

    def test_misrouted_and_revoked_errors(self):
        view = ColumnarShardView(ShardPlan(2), 0)
        with pytest.raises(UnknownHostError, match="misrouted"):
            view.get(FIRST_HOST_HID)
        view.add_owned(FIRST_HOST_HID, b"\x01" * 16, b"\x02" * 16)
        view.revoke(FIRST_HOST_HID)
        assert not view.is_valid(FIRST_HOST_HID)
        with pytest.raises(RevokedError, match="is revoked"):
            view.get(FIRST_HOST_HID)

    def test_out_of_plan_entries(self):
        """Service HIDs, out of every plan, still work when pushed via
        add_owned (the supervisor's broadcast registration path)."""
        view = ColumnarShardView(ShardPlan(2), 0)
        view.add_owned(3, b"\x01" * 16, b"\x02" * 16)
        assert view.owned_count == 1
        assert view.get(3).keys.control == b"\x01" * 16
        view.revoke(3)
        assert not view.is_valid(3)
        with pytest.raises(RevokedError):
            view.get(3)

    def test_another_shards_host_is_refused(self):
        """A host HID outside the shard's stripe is refused by add_owned
        and by load_snapshot, so the view never serves its MAC key."""
        plan = ShardPlan(2)
        theirs = FIRST_HOST_HID + 1  # row 1: shard 1's
        view = ColumnarShardView(plan, 0)
        with pytest.raises(ValueError, match="owned by shard 1, not shard 0"):
            view.add_owned(theirs, b"\x01" * 16, b"\x02" * 16)
        assert view.owned_count == 0 and not view.is_valid(theirs)
        with pytest.raises(UnknownHostError, match="misrouted"):
            view.packet_mac_key(theirs)
        rows = [
            (FIRST_HOST_HID, b"\x03" * 16, b"\x04" * 16, False),
            (theirs, b"\x01" * 16, b"\x02" * 16, False),
        ]
        snap = ShardSnapshot.from_rows(rows, [FIRST_HOST_HID, theirs], [])
        with pytest.raises(ValueError, match="owned by shard 1, not shard 0"):
            view.load_snapshot(snap)
        state = ShardState(_shard_spec(plan, 0))
        reply = state.handle(wire.encode_resync(snap))
        assert reply[0] == wire.MSG_ERROR
        assert "owned by shard 1" in wire.decode_error(reply)
        assert state.hosts.owned_count == 0


def _describe_view(record):
    return (record.hid, record.keys.control, record.keys.packet_mac)


class TestPopulationKeyMaterial:
    """A bulk population's kHA rows are one AES-256-CTR keystream under
    ``sha256(seed)`` from counter 0: a pure function of a seed of any
    length, ``32 * count`` bytes long, and pinned here so the derivation
    cannot change silently."""

    def test_known_answer(self):
        assert population_key_material(b"population-kat", 1).hex() == (
            "4a0b6a9acc37cc4ca7d21ef64142613c"
            "5e6e4770e47cf0be0b37124732ba5e93"
        )

    def test_is_the_ctr_keystream_of_the_seed_hash(self):
        key = hashlib.sha256(b"spec").digest()
        spec = PureAES(key).ctr_xcrypt(bytes(16), bytes(3 * KEY_BYTES))
        assert population_key_material(b"spec", 3) == spec
        # Across a slice boundary the counter runs on: one CTR stream.
        count = _KEYSTREAM_SLICE // KEY_BYTES + 5
        whole = AES(key).ctr_xcrypt(bytes(16), bytes(count * KEY_BYTES))
        assert population_key_material(b"spec", count) == whole

    @pytest.mark.parametrize(
        "seed", [b"", b"x", b"bulk-parity", b"metro-resync", bytes(32), bytes(97)]
    )
    def test_any_seed_length_gives_count_rows(self, seed):
        for count in (1, 2, 40):
            material = population_key_material(seed, count)
            assert len(material) == KEY_BYTES * count
            assert material == population_key_material(seed, count)
        assert population_key_material(seed, 40)[: 2 * KEY_BYTES] == (
            population_key_material(seed, 2)
        )

    def test_distinct_seeds_give_distinct_rows(self):
        seeds = [b"", b"x", b"x\0", b"gap", b"bulk-parity", b"metro-resync"]
        seeds += [bytes([i]) * 32 for i in range(8)]
        assert len({population_key_material(seed, 2) for seed in seeds}) == len(seeds)


# --------------------------------------------------------------------------
# The export and the load against their previous bodies, byte for byte


def _reference_shard_columns(db, plan, shard):
    """``ColumnarHostDatabase.shard_columns`` as it was before it read a
    shard's rows as a strided view: owners of the whole population as an
    int64 column, keys gathered through a 2-D ``uint8`` index."""
    svc_hids: list[int] = []
    svc_flags = bytearray()
    svc_keys: list[bytes] = []
    svc_live: list[int] = []
    for record in db._services.values():
        if not record.revoked:
            svc_live.append(record.hid)
        if plan.owner_of(record.hid) == shard:
            svc_hids.append(record.hid)
            svc_flags.append(1 if record.revoked else 0)
            svc_keys.append(record.keys.control)
            svc_keys.append(record.keys.packet_mac)
    flags = np.frombuffer(db._flags, dtype=np.uint8)
    rows = np.flatnonzero(flags & 1)
    hids = (rows + FIRST_HOST_HID).astype(">u4")
    row_flags = flags[rows]
    live_hids = hids[(row_flags & 2) == 0]
    owned = plan.owners_of(hids) == shard
    owned_flags = (row_flags[owned] & 2) >> 1
    keymat = np.frombuffer(db._keys, dtype=np.uint8)
    owned_keys = keymat.reshape(-1, KEY_BYTES)[rows[owned]]
    return (
        pack_u32s(svc_hids) + hids[owned].tobytes(),
        bytes(svc_flags) + owned_flags.tobytes(),
        b"".join(svc_keys) + owned_keys.tobytes(),
        pack_u32s(svc_live) + live_hids.tobytes(),
    )


def _reference_load_snapshot(view, snap):
    """``ColumnarShardView.load_snapshot`` as it was before it scattered
    keys as 32-byte rows (a 2-D ``uint8`` index)."""
    plan, shard = view._plan, view._shard
    hids = np.frombuffer(snap.owned_hids, dtype=">u4")
    flags = np.frombuffer(snap.owned_flags, dtype=np.uint8)
    orows = plan.dense_rows(hids)
    foreign = np.flatnonzero((orows >= 0) & (plan.owners_of(hids) != shard))
    if foreign.size:
        hid = int(hids[foreign[0]])
        raise ValueError(
            f"HID {hid} is owned by shard {plan.owner_of(hid)}, not shard {shard}"
        )
    view._owned_flags = bytearray()
    view._keys = bytearray()
    view._live = bytearray()
    view._extra = {}
    in_plan = orows >= 0
    plan_idx = np.flatnonzero(in_plan)
    if plan_idx.size:
        orows = orows[plan_idx]
        view._ensure_orows(int(orows.max()) + 1)
        dest_flags = np.frombuffer(view._owned_flags, dtype=np.uint8)
        dest_flags[orows] = 1 | (flags[plan_idx] * 2)
        src_keys = np.frombuffer(snap.owned_keys, dtype=np.uint8)
        dest_keys = np.frombuffer(view._keys, dtype=np.uint8)
        dest_keys.reshape(-1, KEY_BYTES)[orows] = src_keys.reshape(-1, KEY_BYTES)[
            plan_idx
        ]
    for i in np.flatnonzero(~in_plan):
        base = int(i) * KEY_BYTES
        view._extra[int(hids[i])] = [
            bytes(snap.owned_keys[base : base + KEY_BYTES]),
            bool(flags[i]),
        ]
    live = np.frombuffer(snap.live_hids, dtype=">u4").astype(np.int64)
    live_rows = live - FIRST_HOST_HID
    host_live = live_rows >= 0
    rows_live = live_rows[host_live]
    if rows_live.size:
        view._ensure_live(int(rows_live.max()) + 1)
        np.frombuffer(view._live, dtype=np.uint8)[rows_live] = 1
    view._service_live = {int(h) for h in live[~host_live]}
    written = view._owned_flags
    view._owned_n = len(written) - written.count(0) + len(view._extra)
    if view._owned_n != snap.owned_count:
        raise ValueError("owned HIDs repeat: a shard holds one row per HID")


def _view_state(view):
    return (
        bytes(view._owned_flags),
        bytes(view._keys),
        bytes(view._live),
        view._service_live,
        view._extra,
        view.owned_count,
    )


def _mixed_population(rng: random.Random) -> ColumnarHostDatabase:
    """Services (one revoked), host HIDs allocated but never registered,
    hosts registered one by one (some revoked on arrival) and in bulk,
    and revocations after."""
    db = ColumnarHostDatabase()
    for i, hid in enumerate(SERVICE_HIDS):
        db.register(HostRecord(hid=hid, keys=_keys(100 + i), revoked=i == 1))
    for _ in range(rng.randrange(30)):
        hid = db.allocate_hid()
        if rng.random() < 0.6:
            db.register(HostRecord(hid, _keys(hid), revoked=rng.random() < 0.2))
    count = rng.randrange(1, 80)
    db.bulk_register(count, population_key_material(rng.randbytes(11), count))
    for _ in range(rng.randrange(5)):
        db.allocate_hid()
    hosts = [r.hid for r in db.records() if r.hid >= FIRST_HOST_HID and not r.revoked]
    for hid in rng.sample(hosts, len(hosts) // 7):
        db.revoke_hid(hid)
    return db


@pytest.mark.parametrize("seed", range(6))
def test_export_and_load_equal_their_previous_bodies(seed):
    rng = random.Random(seed)
    db = _mixed_population(rng)
    revocations = ColumnarRevocationList()
    for nshards in range(1, 5):
        plan = ShardPlan(nshards)
        for shard in range(nshards):
            columns = db.shard_columns(plan, shard)
            assert columns == _reference_shard_columns(db, plan, shard)
            snap = build_shard_snapshot(db, revocations, plan, shard)
            # The export's snapshot, and its rows in another order.
            owned, live = list(snap.iter_owned()), list(snap.iter_live())
            rng.shuffle(owned)
            rng.shuffle(live)
            for loaded in (snap, ShardSnapshot.from_rows(owned, live, [])):
                view = ColumnarShardView(plan, shard)
                reference = ColumnarShardView(plan, shard)
                view.load_snapshot(loaded)
                _reference_load_snapshot(reference, loaded)
                assert _view_state(view) == _view_state(reference)
            if nshards > 1 and any(hid >= FIRST_HOST_HID for hid, *_ in owned):
                # A snapshot naming hosts another shard owns is refused.
                other = (shard + 1) % nshards
                with pytest.raises(ValueError, match="is owned by shard"):
                    ColumnarShardView(plan, other).load_snapshot(snap)
                with pytest.raises(ValueError, match="is owned by shard"):
                    _reference_load_snapshot(ColumnarShardView(plan, other), snap)


def _python_steps(fn) -> int:
    """The ``call`` and ``line`` trace events of Python frames, any
    package's, that ``fn`` fires.  Lines count as well as calls because a
    comprehension over the hosts is one call but a line event per
    element.  The collector is paused: a ``gc.callbacks`` hook
    (hypothesis installs one) would add calls per collection, and
    collections scale with allocations."""
    steps = 0

    def trace(frame, event, arg):
        nonlocal steps
        steps += event in ("call", "line")
        return trace

    gc.disable()
    sys.settrace(trace)
    try:
        fn()
    finally:
        sys.settrace(None)
        gc.enable()
    return steps


def test_state_path_work_is_a_budget():
    """A shard's resync state path — export the snapshot, load the host
    view and the revocation replica — runs no Python per host or per
    revocation: it takes as many Python steps over 20k hosts and 2.5k
    revocations (scattered holes included) as over 2k and 250."""
    counts = []
    for hosts in (2_000, 20_000):
        db, _ = _authoritative(hosts=hosts)
        revocations = ColumnarRevocationList()
        for i in range(hosts // 8):
            revocations.add(i.to_bytes(16, "big"), 1_000.0 + (i * 7_919) % hosts)
        revocations.prune(1_000.0 + hosts / 4)
        plan = ShardPlan(2)

        def resync():
            for shard in range(plan.nshards):
                snap = build_shard_snapshot(db, revocations, plan, shard)
                ColumnarShardView(plan, shard).load_snapshot(snap)
                ColumnarRevocationList().load_packed(snap.rev_exp, snap.rev_ephids)

        counts.append(_python_steps(resync))
    assert counts[0] == counts[1], counts
