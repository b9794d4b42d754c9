"""The repro.state columnar stores vs. the original object stores.

The contract (see :mod:`repro.state`): ``ColumnarHostDatabase`` /
``ColumnarRevocationList`` / ``ColumnarShardView`` are drop-in duck
types for the object-backed stores — same results, same error types and
messages, same observable ordering — and the :class:`ShardSnapshot`
codec produces bit-identical bytes from either backend, so a worker
resynced over ``MSG_RESYNC`` ends up in the same state no matter which
pair of backends sits on either side of the pipe.
"""

from dataclasses import replace

import pytest

from repro.core.errors import RevokedError, UnknownHostError
from repro.core.hostdb import FIRST_HOST_HID, HostRecord
from repro.core.keys import HostAsKeys
from repro.sharding import wire
from repro.sharding.plan import ShardPlan
from repro.sharding.worker import ShardHostView, ShardSpec, ShardState
from repro.state import (
    ColumnarRevocationList,
    ColumnarShardView,
    ShardSnapshot,
    build_shard_snapshot,
    make_host_database,
    make_revocation_list,
    population_key_material,
)
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
    """A backend-neutral view of a host record/row proxy."""
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
    """Identical op sequences leave both backends observably identical."""

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
        obj = make_host_database("object")
        col = make_host_database("columnar")
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
        obj = make_host_database("object")
        col = make_host_database("columnar")
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
        ``find_by_subscriber`` heal both backends agree on everything."""
        obj = make_host_database("object")
        col = make_host_database("columnar")
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
        obj = make_host_database("object")
        col = make_host_database("columnar")
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
        for backend in ("object", "columnar"):
            db = make_host_database(backend)
            log = events[backend]
            db.on_register = lambda record, log=log: log.append(
                ("reg", record.hid)
            )
            db.on_revoke_hid = lambda hid, log=log: log.append(("rev", hid))
            self._populate(db, hosts=3)
            db.revoke_hid(FIRST_HOST_HID + 1)
        assert events["object"] == events["columnar"]

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown state backend"):
            make_host_database("bogus")
        with pytest.raises(ValueError, match="unknown state backend"):
            make_revocation_list("bogus")

    def test_columnar_rejects_short_keys(self):
        col = make_host_database("columnar")
        with pytest.raises(ValueError, match="16 bytes"):
            col.register(
                HostRecord(
                    hid=col.allocate_hid(),
                    keys=HostAsKeys(control=b"short", packet_mac=b"\x00" * 16),
                )
            )

    def test_bulk_register_validation(self):
        col = make_host_database("columnar")
        with pytest.raises(ValueError, match="count must be at least 1"):
            col.bulk_register(0, b"")
        with pytest.raises(ValueError, match="key material is"):
            col.bulk_register(2, b"\x00" * 63)

    def test_bulk_register_matches_per_record_loop(self):
        material = population_key_material(b"bulk-parity", 40)
        col = make_host_database("columnar")
        first = col.bulk_register(40, material)
        assert first == FIRST_HOST_HID
        obj = make_host_database("object")
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
        col = make_host_database("columnar")
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
        obj = make_revocation_list("object")
        col = make_revocation_list("columnar")
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
        obj = make_revocation_list("object", auto_prune=False)
        col = make_revocation_list("columnar", auto_prune=False)
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


def _authoritative(backend: str, hosts: int = 240):
    """An AS-state pair (hostdb, revocations) with services, a metro-style
    bulk population, some revoked HIDs and a revocation replica —
    byte-identical content whichever backend holds it."""
    db = make_host_database(backend)
    for i, hid in enumerate(SERVICE_HIDS):
        db.register(HostRecord(hid=hid, keys=_keys(100 + i)))
    material = population_key_material(b"metro-resync", hosts)
    if backend == "columnar":
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
    rev = make_revocation_list(backend)
    for i in range(12):
        # Increasing expiries keep the object store's heap in insertion
        # order, so both backends emit identical snapshot columns.
        rev.add(i.to_bytes(16, "big"), 1_000.0 + i)
    return db, rev


def _shard_spec(plan, shard, state_backend, snapshot=b""):
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
        state_backend=state_backend,
        snapshot=snapshot,
    )


class TestMetroResyncRoundTrip:
    """The ISSUE's scaled-down metro resync property: a snapshot built
    from either authoritative backend, shipped as a ``MSG_RESYNC`` frame,
    rebuilds bit-identical worker state on either worker backend."""

    @pytest.mark.parametrize("plan", [ShardPlan(3), ShardPlan(2, block=4)])
    def test_snapshot_to_resync_to_worker_view(self, plan):
        obj_db, obj_rev = _authoritative("object")
        col_db, col_rev = _authoritative("columnar")
        all_hids = list(SERVICE_HIDS) + [
            record.hid for record in col_db.records() if record.hid >= FIRST_HOST_HID
        ]
        for shard in range(plan.nshards):
            snap = build_shard_snapshot(col_db, col_rev, plan, shard)
            # Bit-identity of the wire image across authoritative backends.
            assert (
                snap.encode()
                == build_shard_snapshot(obj_db, obj_rev, plan, shard).encode()
            )
            states = {}
            for state_backend in ("object", "columnar"):
                state = ShardState(_shard_spec(plan, shard, state_backend))
                assert state.hosts.owned_count == 0
                ack = state.handle_resync(wire.encode_resync(snap))
                assert wire.decode_resync_ack(ack) == (
                    snap.owned_count,
                    snap.revoked_count,
                )
                assert state.hosts.owned_count == snap.owned_count
                states[state_backend] = state
            obj_state, col_state = states["object"], states["columnar"]
            for hid, control, packet_mac, revoked in snap.iter_owned():
                for state in states.values():
                    if revoked:
                        with pytest.raises(RevokedError):
                            state.hosts.get(hid)
                    else:
                        record = state.hosts.get(hid)
                        assert record.keys.control == control
                        assert record.keys.packet_mac == packet_mac
            for hid in all_hids:
                assert obj_state.hosts.is_valid(hid) == col_state.hosts.is_valid(
                    hid
                ), hid
                if plan.owner_of(hid) != shard:
                    with pytest.raises(UnknownHostError):
                        col_state.hosts.get(hid)
                    with pytest.raises(UnknownHostError):
                        obj_state.hosts.get(hid)
            assert (
                len(obj_state.revocations)
                == len(col_state.revocations)
                == snap.revoked_count
            )
            for ephid, _exp in snap.iter_revoked():
                assert obj_state.revocations.contains(ephid)
                assert col_state.revocations.contains(ephid)

    def test_spawn_snapshot_equals_resync_snapshot(self):
        """The ShardSpec-embedded bytes and the MSG_RESYNC payload are the
        same serialisation: spawning from one equals resyncing the other."""
        plan = ShardPlan(2)
        col_db, col_rev = _authoritative("columnar", hosts=60)
        snap = build_shard_snapshot(col_db, col_rev, plan, 1)
        for state_backend in ("object", "columnar"):
            spawned = ShardState(
                _shard_spec(plan, 1, state_backend, snapshot=snap.encode())
            )
            resynced = ShardState(_shard_spec(plan, 1, state_backend))
            resynced.handle_resync(wire.encode_resync(snap))
            assert spawned.hosts.owned_count == resynced.hosts.owned_count
            for hid, _c, _m, revoked in snap.iter_owned():
                if revoked:
                    continue
                assert (
                    spawned.hosts.get(hid).keys == resynced.hosts.get(hid).keys
                )
            assert len(spawned.revocations) == len(resynced.revocations)


def test_handle_holds_a_control_error_for_the_next_reply():
    """The worker protocol's alignment rule, in-process: a failed
    fire-and-forget frame yields no reply of its own; its error takes
    the place of the next expected reply, and the stream is clean after."""
    state = ShardState(_shard_spec(ShardPlan(2), 0, "columnar"))
    assert state.handle(bytes([99])) is None  # unknown message kind
    held = state.handle(bytes([wire.MSG_STATS]))
    assert held[0] == wire.MSG_ERROR
    assert "unknown message kind 99" in wire.decode_error(held)
    reply = state.handle(bytes([wire.MSG_STATS]))
    assert reply[0] == wire.MSG_STATS_REPLY
    assert set(wire.decode_stats(reply)) == set(wire.STATS_FIELDS)


class TestKeyInterning:
    def test_add_owned_interns_equal_keys(self):
        view = ShardHostView()
        control, mac = b"\x07" * 16, b"\x08" * 16
        view.add_owned(FIRST_HOST_HID, control, mac)
        # Equal-valued but distinct bytes objects, as each decoded resync
        # frame produces.
        view.add_owned(
            FIRST_HOST_HID + 1, bytes(bytearray(control)), bytes(bytearray(mac))
        )
        first = view.get(FIRST_HOST_HID).keys
        second = view.get(FIRST_HOST_HID + 1).keys
        assert second.control is first.control
        assert second.packet_mac is first.packet_mac

    def test_resync_reuses_previous_incarnation_keys(self):
        """Satellite guarantee: a worker that resyncs re-interns the
        re-shipped kHA subkeys against the pool its previous view built,
        so repeated resyncs don't duplicate 32 B per host."""
        plan = ShardPlan(2)
        col_db, col_rev = _authoritative("columnar", hosts=40)
        snap = build_shard_snapshot(col_db, col_rev, plan, 1)
        state = ShardState(_shard_spec(plan, 1, "object", snapshot=snap.encode()))
        hid = next(
            hid for hid, _c, _m, revoked in snap.iter_owned() if not revoked
        )
        before = state.hosts.get(hid).keys
        state.handle_resync(wire.encode_resync(snap))
        after = state.hosts.get(hid).keys
        assert after.control is before.control
        assert after.packet_mac is before.packet_mac


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
