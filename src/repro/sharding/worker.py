"""One shard of the border router, and the worker process that runs it.

Each :class:`ShardState` rebuilds, from a compact :class:`ShardSpec`, a
*real* :class:`~repro.core.border_router.BorderRouter` around local
state — its slice of the host database (MAC keys only for owned HIDs), a
replica of the revocation list and of the live-HID set, and its own
rotating replay filter.  Reusing the single-process router verbatim is
what makes the sharded plane's verdict-equivalence guarantee structural
rather than re-implemented: a shard computes exactly the verdicts the
in-process :meth:`~repro.core.border_router.BorderRouter.process_burst`
would, over the subset of frames routed to it — raw frames in, packed
verdict records out, no packet or verdict object in between.

The split between *sharded* and *replicated* state follows what each
check needs:

* source-side checks (MAC verify, source HID validity) only ever run on
  the shard that owns the source host, because the dispatcher routes by
  the source EphID's pinned IV — so MAC keys are genuinely sharded;
* destination-side checks (intra delivery, ingress local delivery) may
  run on any shard, so the inputs they need — EphID codec keys, the
  revocation set, the one-bit-per-HID liveness view — are replicated,
  kept in sync by broadcast control messages on the same ordered pipe
  as the bursts (a revoke therefore always lands before the next burst).
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass

from ..core.border_router import BorderRouter
from ..core.ephid import EphIdCodec
from ..core.replay_filter import RotatingReplayFilter
from ..state.revlist import ColumnarRevocationList
from ..state.snapshot import ShardSnapshot
from ..state.view import ColumnarShardView
from . import wire


@dataclass(frozen=True)
class ShardSpec:
    """Everything a worker needs to rebuild its slice of the data plane.

    Pure bytes/ints/tuples so it crosses process boundaries under any
    multiprocessing start method.
    """

    shard: int
    nshards: int
    aid: int
    ephid_enc_key: bytes
    ephid_mac_key: bytes
    crypto_backend: "str | None"
    packet_mac_size: int
    with_nonce: bool
    #: ``None`` disables the in-network replay filter.
    replay_window: "float | None"
    replay_bits: int
    #: Consecutive HIDs per shard-ownership block (``ShardPlan.block``).
    shard_block: int
    #: Tag of the IV -> shard map the dispatcher routes this worker's
    #: packets with (``ShardPlan.mode``, always ``"keyed"``).
    routing_mode: str
    #: kR — carried with the tag so the worker can cross-check resync'd
    #: snapshots against its spec.
    routing_key: bytes
    #: Kept for ``bench/`` until ROADMAP item 0(a); not an option.  The
    #: replica is the :mod:`repro.state` columns and :class:`ShardState`
    #: refuses any other value.
    state_backend: str
    #: Encoded :class:`repro.state.ShardSnapshot` — the shard's owned
    #: host rows, the replicated live-HID view and the revocation-list
    #: replica, as packed columns.  Empty means an empty shard.
    snapshot: bytes


class _SettableClock:
    """The worker router's clock: each burst message carries the
    dispatcher's single clock read, so expiry/replay decisions are made
    at the same instant the in-process burst loop would use."""

    __slots__ = ("now",)

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


#: ``process_burst``'s egress flags from a burst's direction column, in
#: one ``translate``: 1 where the byte says egress, 0 anywhere else.
_EGRESS_FLAG = bytes(direction == wire.EGRESS for direction in range(256))

#: Message kinds the dispatcher expects exactly one reply to.  The
#: invariant :meth:`ShardState.handle` protects: a shard produces a
#: reply *only* in response to these — an unsolicited frame would be
#: consumed as the answer to some later request and desynchronise every
#: reply after it.
_REPLYING_KINDS = frozenset({wire.MSG_BURST, wire.MSG_STATS, wire.MSG_RESYNC})


class ShardState:
    """One shard, built from its :class:`ShardSpec`: the state and the
    worker protocol (:meth:`handle`), whichever process runs it."""

    def __init__(self, spec: ShardSpec) -> None:
        if spec.state_backend != "columnar":
            raise ValueError(
                f"state_backend {spec.state_backend!r}: the columnar "
                "stores are the only state family"
            )
        if spec.crypto_backend is not None:
            from ..crypto import backend as crypto_backend

            crypto_backend.set_backend(spec.crypto_backend)
        self.spec = spec
        self.clock = _SettableClock()
        #: A failed fire-and-forget frame's error, owed to the next reply.
        self._held_error: "str | None" = None
        snap = (
            ShardSnapshot.decode(spec.snapshot)
            if spec.snapshot
            else ShardSnapshot.empty()
        )
        self._build_state(snap)

    def _build_state(self, snap: ShardSnapshot) -> None:
        """(Re)build the shard's mutable state around fixed spec keys.

        Called at construction and again on :data:`wire.MSG_RESYNC` —
        the supervisor's full-state replay into a restarted worker.
        Rebuilding (rather than patching) guarantees the worker holds
        exactly the authoritative snapshot, whatever it held before; the
        replay filter necessarily starts empty, which is where the
        documented bounded replay-horizon loss after a restart comes
        from.
        """
        spec = self.spec
        # A snapshot built under a different IV -> shard map than the one
        # the dispatcher routes with would silently mispair source-side
        # state and traffic; refuse it here, where spawn and resync meet.
        if snap.routing_mode and snap.routing_mode != spec.routing_mode:
            raise ValueError(
                f"snapshot routed {snap.routing_mode!r} but this shard's "
                f"spec routes {spec.routing_mode!r}"
            )
        if (
            snap.routing_key
            and spec.routing_key
            and snap.routing_key != spec.routing_key
        ):
            raise ValueError(
                "snapshot's routing key kR differs from this shard's spec"
            )
        # Column blobs load wholesale: the snapshot's packed arrays
        # become the view's backing stores with no per-host objects.
        hosts = ColumnarShardView(
            shard=spec.shard, nshards=spec.nshards, block=spec.shard_block
        )
        hosts.load_snapshot(snap)
        revocations = ColumnarRevocationList()
        revocations.load_packed(snap.rev_exp, snap.rev_ephids)
        # Swapped in only once both have loaded: a snapshot refused
        # halfway leaves the previous state, whole, under the old router.
        self.hosts = hosts
        self.revocations = revocations
        replay_filter = None
        # As in the assembly: no nonce on the wire, no filter to key.
        if spec.replay_window is not None and spec.with_nonce:
            replay_filter = RotatingReplayFilter(
                window=spec.replay_window, bits_per_generation=spec.replay_bits
            )
        codec = EphIdCodec(spec.ephid_enc_key, spec.ephid_mac_key)
        self.router = BorderRouter(
            spec.aid,
            codec,
            self.hosts,  # type: ignore[arg-type]  # duck-typed HostDatabase
            self.revocations,
            self.clock,
            packet_mac_size=spec.packet_mac_size,
            replay_filter=replay_filter,
        )

    # -- the worker protocol --

    def handle(self, msg: bytes) -> "bytes | None":
        """Apply one protocol frame; the reply to send back, if any.

        Every kind in ``_REPLYING_KINDS`` gets exactly one frame back
        (verdicts, stats, a resync ack, or an error frame the carrier
        re-raises).  Control frames are fire-and-forget; if one fails
        (or an unknown kind arrives), the error is *held* and delivered
        in place of the next expected reply — keeping the reply stream
        aligned while still surfacing the failure loudly.
        """
        kind = msg[0]
        expects_reply = kind in _REPLYING_KINDS
        if expects_reply and self._held_error is not None:
            held, self._held_error = self._held_error, None
            return wire.encode_error(held)
        try:
            if kind == wire.MSG_BURST:
                return self.handle_burst(msg)
            if kind == wire.MSG_STATS:
                return self.stats()
            if kind == wire.MSG_RESYNC:
                return self.handle_resync(msg)
            if kind == wire.MSG_REVOKE_EPHID:
                self.handle_revoke_ephid(msg)
            elif kind == wire.MSG_REVOKE_HID:
                self.handle_revoke_hid(msg)
            elif kind == wire.MSG_REGISTER_HOST:
                self.handle_register_host(msg)
            else:
                self._held_error = f"unknown message kind {kind}"
        # Not swallowed: the traceback becomes a MSG_ERROR frame, either
        # this request's reply or held for the next reply slot.
        except Exception:  # audit: allow(silent-except)
            if expects_reply:
                return wire.encode_error(traceback.format_exc())
            self._held_error = traceback.format_exc()
        return None

    def handle_burst(self, msg: bytes) -> bytes:
        now, seq, frames, directions = wire.decode_burst(msg)
        self.clock.now = now
        # The same burst function BorderRouterNode runs in-process — the
        # structural half of the sharded plane's equivalence guarantee.
        # Frames in, packed records out: no packet or verdict object is
        # built on this side of the pipe.
        records = self.router.process_burst(
            frames, bytes(directions).translate(_EGRESS_FLAG)
        )
        # Echo the burst seq so the dispatcher can prove this reply
        # answers the burst it is waiting on (duplicate/stale detection).
        head = wire.VERDICTS_HEAD.pack(wire.MSG_VERDICTS, seq, len(records))
        return head + b"".join(records)

    def handle_revoke_ephid(self, msg: bytes) -> None:
        ephid, exp_time = wire.decode_revoke_ephid(msg)
        self.revocations.add(ephid, exp_time)

    def handle_revoke_hid(self, msg: bytes) -> None:
        hid = wire.decode_revoke_hid(msg)
        self.hosts.revoke(hid)
        # A revoked host's key material does not linger in the router.
        self.router.forget_host(hid)

    def handle_register_host(self, msg: bytes) -> None:
        hid, owned, control, packet_mac = wire.decode_register_host(msg)
        if owned:
            self.hosts.add_owned(hid, control, packet_mac)
            # add_owned accepts an overwrite: a CMAC context built from
            # the previous kHA must not verify the re-keyed host's frames.
            self.router.forget_host(hid)
        else:
            self.hosts.set_live(hid)

    def handle_resync(self, msg: bytes) -> bytes:
        snap = wire.decode_resync(msg)
        self._build_state(snap)
        return wire.encode_resync_ack(snap.owned_count, snap.revoked_count)

    def stats(self) -> bytes:
        router = self.router
        counters = {reason.value: n for reason, n in router.drops.items()}
        counters["forwarded_inter"] = router.forwarded_inter
        counters["forwarded_intra"] = router.forwarded_intra
        if router.replay_filter is not None:
            counters["replay_passed"] = router.replay_filter.passed
            counters["replay_replays"] = router.replay_filter.replays
            counters["replay_rotations"] = router.replay_filter.rotations
        return wire.encode_stats(counters)


def data_plane_worker(conn, spec: ShardSpec) -> None:
    """Worker process main loop: build the shard, then carry the pipe's
    frames to :meth:`ShardState.handle` and its replies back.  EOF or
    MSG_STOP ends the loop."""
    try:
        state = ShardState(spec)
    # Not swallowed: the construction traceback ships to the dispatcher
    # as a MSG_ERROR frame, which recv_bytes re-raises as ShardError.
    except Exception:  # audit: allow(silent-except)
        conn.send_bytes(wire.encode_error(traceback.format_exc()))
        conn.close()
        return
    while True:
        try:
            # Worker request loop: blocking forever is the contract (the
            # dispatcher's EOF wakes it); the bounded side of every
            # exchange is the dispatcher's supervised recv.
            msg = conn.recv_bytes()  # audit: allow(bounded-wait)
        except (EOFError, OSError):
            break
        if not msg or msg[0] == wire.MSG_STOP:
            break
        reply = state.handle(msg)
        if reply is not None:
            conn.send_bytes(reply)
    conn.close()
