"""The repro.state columnar stores vs. their per-record spec.

The contract (see :mod:`repro.state`): ``ColumnarHostDatabase`` /
``ColumnarRevocationList`` answer every call exactly as the per-record
``HostDatabase`` / ``RevocationList`` do — same results, same error
types and messages, same observable ordering — and the
:class:`ShardSnapshot` a shard is spawned and resynced from holds the
bytes a per-record walk of either family would write, so a worker
resynced over ``MSG_RESYNC`` holds exactly the authoritative rows.
"""

from dataclasses import replace

import pytest

from repro.core.config import ApnaConfig
from repro.core.errors import RevokedError, UnknownHostError
from repro.core.hostdb import FIRST_HOST_HID, HostDatabase, HostRecord
from repro.core.keys import HostAsKeys
from repro.core.revocation import RevocationList
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
from repro.state import view as view_module
from repro.state.snapshot import pack_f64s, pack_u32s

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
        record.ephids_issued,
        record.ephids_revoked,
    )


def _describe_outcome(outcome):
    if outcome[0] == "ok":
        return ("ok", _describe(outcome[1]))
    return outcome


def _assert_same_db(obj, col, hids, subscribers):
    assert len(obj) == len(col)
    assert obj.total_registered == col.total_registered
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
        assert obj.total_registered == col.total_registered == 1
        _assert_same_db(obj, col, [FIRST_HOST_HID], [42])

    def test_direct_mutation_heals_identically(self):
        """``record.revoked = True`` bypasses ``revoke_hid``; after the
        ``find_by_subscriber`` heal both stores agree on everything."""
        obj = HostDatabase()
        col = ColumnarHostDatabase()
        self._populate(obj)
        self._populate(col)
        for db in (obj, col):
            db.get(FIRST_HOST_HID + 1).revoked = True
            assert db.find_by_subscriber(701) is None  # heals the index
            assert db.find_by_subscriber(701) is None  # and stays healed
        _assert_same_db(
            obj, col, range(FIRST_HOST_HID, FIRST_HOST_HID + 8), range(700, 708)
        )
        # revoke_hid after a direct mutation must not double-count.
        for db in (obj, col):
            db.get(FIRST_HOST_HID + 3).revoked = True
            db.revoke_hid(FIRST_HOST_HID + 3)
        assert len(obj) == len(col)

    def test_counter_write_through_parity(self):
        obj = HostDatabase()
        col = ColumnarHostDatabase()
        self._populate(obj, hosts=2)
        self._populate(col, hosts=2)
        for db in (obj, col):
            record = db.get(FIRST_HOST_HID)
            record.ephids_issued += 3
            record.ephids_revoked += 1
        assert _describe(obj.get(FIRST_HOST_HID)) == _describe(
            col.get(FIRST_HOST_HID)
        )

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
        its one value (``tests/test_repo_hygiene.py`` pins the rest)."""
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

    def test_bulk_register_after_explicit_rows(self):
        """The non-dense-tail path: explicit registrations past _next_hid
        force per-row writes with collision checks."""
        col = ColumnarHostDatabase()
        hid0 = col.allocate_hid()
        col.register(HostRecord(hid=hid0 + 2, keys=_keys(1)))  # out of order
        col.register(HostRecord(hid=hid0, keys=_keys(2)))
        first = col.bulk_register(1, population_key_material(b"gap", 1))
        assert first == hid0 + 1  # fills the hole between the explicit rows
        assert col.is_valid(hid0 + 1)
        with pytest.raises(UnknownHostError, match="already registered"):
            col.bulk_register(1, population_key_material(b"x", 1))


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
        # The routing trailer round-trips too, and is required: a blob
        # cut exactly where it starts is truncated, not a trailer-less
        # snapshot (that would skip the worker's kR cross-check), and
        # the retired residue flag no longer decodes.
        keyed = replace(snap, routing_mode="keyed", routing_key=b"\x07" * 16)
        blob = keyed.encode()
        assert ShardSnapshot.decode(blob) == keyed
        with pytest.raises(ValueError, match="routing trailer"):
            ShardSnapshot.decode(blob[:-18])
        with pytest.raises(ValueError, match="unknown routing-mode flag 1"):
            ShardSnapshot.decode(blob[:-18] + b"\x01\x00")

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

    @pytest.mark.parametrize("numpy", (True, False), ids=("numpy", "stdlib"))
    def test_repeated_owned_hid_refused_at_load(self, numpy, monkeypatch):
        """One row per owned HID: numpy's scatter leaves the winner of a
        repeated index undefined and used to count the row twice, so the
        loader refuses the snapshot — on both of its arms."""
        if not numpy:
            monkeypatch.setattr(view_module, "_np", None)
        row = (FIRST_HOST_HID, b"\x01" * 16, b"\x02" * 16, False)
        for rows in ([row, row], [(3, *row[1:]), row, (3, *row[1:])]):
            snap = ShardSnapshot.decode(ShardSnapshot.from_rows(rows, [], []).encode())
            with pytest.raises(ValueError, match="owned HIDs repeat"):
                ColumnarShardView(shard=0, nshards=1).load_snapshot(snap)


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
    return replace(walked, routing_mode=plan.mode, routing_key=plan.key or b"")


def _shard_spec(plan, shard, snapshot=b""):
    return ShardSpec(
        shard=shard,
        nshards=plan.nshards,
        aid=100,
        ephid_enc_key=b"\x01" * 16,
        ephid_mac_key=b"\x02" * 16,
        crypto_backend=None,
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

    @pytest.mark.parametrize("plan", [ShardPlan(3), ShardPlan(2, block=4)])
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
        loaded = ColumnarShardView(shard=1, nshards=plan.nshards, block=plan.block)
        loaded.load_snapshot(snap)
        manual = ColumnarShardView(shard=1, nshards=plan.nshards, block=plan.block)
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
        view = ColumnarShardView(shard=0, nshards=2)
        with pytest.raises(UnknownHostError, match="misrouted"):
            view.get(FIRST_HOST_HID)
        view.add_owned(FIRST_HOST_HID, b"\x01" * 16, b"\x02" * 16)
        view.revoke(FIRST_HOST_HID)
        assert not view.is_valid(FIRST_HOST_HID)
        with pytest.raises(RevokedError, match="is revoked"):
            view.get(FIRST_HOST_HID)

    def test_out_of_plan_entries(self):
        """Service HIDs and HIDs another shard owns still work when pushed
        via add_owned (the supervisor's broadcast registration path)."""
        view = ColumnarShardView(shard=1, nshards=2)
        view.add_owned(3, b"\x01" * 16, b"\x02" * 16)  # service
        foreign = FIRST_HOST_HID + 1  # shard 1 of 2 owns odd rows; row 1 -> shard 1
        not_mine = FIRST_HOST_HID  # row 0 -> shard 0
        view.add_owned(not_mine, b"\x03" * 16, b"\x04" * 16)
        view.add_owned(foreign, b"\x05" * 16, b"\x06" * 16)
        assert view.owned_count == 3
        assert view.get(3).keys.control == b"\x01" * 16
        assert view.get(not_mine).keys.control == b"\x03" * 16
        view.revoke(not_mine)
        with pytest.raises(RevokedError):
            view.get(not_mine)
        assert view.is_valid(foreign)
        view.revoke(3)
        assert not view.is_valid(3)


def _describe_view(record):
    return (record.hid, record.keys.control, record.keys.packet_mac)
