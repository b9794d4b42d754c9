"""The sharded data plane: persistent worker shards fed burst-sized batches.

:class:`ShardProcessPool` is the process scaffolding — N long-lived
workers, one duplex pipe each, binary messages only — one *carrier* of
worker messages ("send these bytes to shard k / give me shard k's next
reply within t"); :class:`InProcessCarrier` is another and
:class:`repro.faults.FaultCarrier` wraps one.  On top of a carrier,
:class:`ShardedDataPlane` is the paper's §V-A3 share-nothing scale-out
applied to the border router: a dispatcher that

* routes each packed wire frame to a shard by the keyed map of the
  source EphID's clear IV (one bulk PRF per burst — see
  :mod:`repro.sharding.plan`),
* short-circuits transit packets itself (forwarding by destination AID
  needs no per-host state at all, Section IV-D3),
* ships one message per shard per burst, and
* merges the per-shard verdict vectors back into arrival order.

Equivalence bar: the merged verdicts are element-for-element identical
to the single-process
:meth:`~repro.core.border_router.BorderRouter.process_burst`, and
the summed shard counters match the single router's counters
(``tests/test_sharding_equivalence.py`` fuzzes both, and runs one
stream through workers on each crypto backend).  One qualification:
replay detection is a Bloom filter, and each shard owns its own —
inserts are partitioned across N filters instead of hashed into one, so
Bloom *false positives* (and rotation counts) can differ from the
single-filter plane.  Every true verdict is
identical; the divergence is confined to the filter's engineered FP
rate (sized by ``replay_filter_bits``), and sharding only ever lowers
it.  The perf bar — shards stacking on top of the burst loop's
amortisation — is held by the sharded ``bench/`` workloads
(``egress_cold_metro``, ``mixed_imix_pipelined``, ``churn_hostile`` in
``BENCHMARK.json``).

Failure bar: the plane is *self-healing*.  Every reply wait is bounded,
a dead or hung worker is restarted and resynced from the authoritative
AS state (:mod:`repro.sharding.supervisor`), verdicts owed by a failed
worker are dropped-and-counted (never guessed), and a shard that cannot
be revived degrades the plane — the same shards, carried in-process —
instead of refusing traffic.  The package docstring's fault-model
section states exactly what survives; ``tests/test_sharding_faults.py``
drives every path with deterministic :mod:`repro.faults` storms.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import select
from collections import deque
from typing import Callable, Sequence

from ..core.verdict import INTER_HEAD, Action, DropReason, Verdict, verdict_of
from ..core.ephid import CIPHERTEXT_SIZE, IV_SIZE
from ..core.errors import ApnaError
from ..wire.apna import (
    AID_SIZE,
    DST_AID_FIELD,
    HEADER_SIZE,
    HEADER_SIZE_WITH_NONCE,
)
from . import wire
from .plan import ShardPlan
from .supervisor import ShardStateSource, ShardSupervisor, SupervisorPolicy
from .worker import ShardSpec, ShardState, data_plane_worker

__all__ = [
    "ShardError",
    "ShardTimeout",
    "ShardProcessPool",
    "InProcessCarrier",
    "ShardedDataPlane",
]

#: Wire offset into a packed APNA header, derived from the canonical
#: Fig. 7 / Fig. 6 layout constants: the source EphID's clear IV sits
#: after the source AID and the EphID ciphertext.
_SRC_IV = slice(
    AID_SIZE + CIPHERTEXT_SIZE, AID_SIZE + CIPHERTEXT_SIZE + IV_SIZE
)
_MIN_FRAME = HEADER_SIZE
_MIN_FRAME_WITH_NONCE = HEADER_SIZE_WITH_NONCE

#: The synthetic verdict a packet gets when its worker shard failed
#: before replying: the packet is dropped and accounted, never given a
#: guessed verdict.
_SHARD_FAILURE = Verdict(Action.DROP, reason=DropReason.SHARD_FAILURE)


class ShardError(ApnaError):
    """A worker shard failed; the message carries the cause and, where
    known, :attr:`shard` names the failing worker."""

    def __init__(self, message: str, *, shard: "int | None" = None) -> None:
        super().__init__(message)
        self.shard = shard


class ShardTimeout(ShardError):
    """No reply within the bounded wait: the worker is hung (or died
    without closing its pipe — practically impossible, but covered)."""


def _reply_or_raise(shard: int, msg: bytes) -> bytes:
    """A shard-sent error frame is raised as :class:`ShardError` by the
    carrier, so no caller can mistake it for a payload."""
    if msg and msg[0] == wire.MSG_ERROR:
        raise ShardError(wire.decode_error(msg), shard=shard)
    return msg


def _default_start_method() -> str:
    # fork is cheap and inherits the loaded interpreter; fall back to
    # spawn where fork is unavailable (the specs are plain picklable
    # data and the worker entry points are module-level, so both work).
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


class ShardProcessPool:
    """N persistent worker processes speaking framed bytes over pipes.

    Generic scaffolding shared by the data plane and the sharded MS
    issuance runner (:mod:`repro.sharding.issuance`): it only spawns,
    addresses, *restarts* and tears down workers — message semantics
    belong to the caller.  Workers are daemonic, so an abandoned pool
    cannot outlive the interpreter even if :meth:`close` is never
    called.

    Failure handling at this layer is purely translation: raw
    ``EOFError``/``BrokenPipeError``/``OSError`` from ``Connection``
    calls become :class:`ShardError` carrying the shard index and a
    liveness hint (``exitcode``), and a bounded :meth:`recv_bytes` wait
    that expires becomes :class:`ShardTimeout`.  *Reacting* to failures
    (restart, resync, degrade) is the supervisor's job.
    """

    def __init__(
        self,
        worker: Callable,
        specs: Sequence,
        *,
        name: str = "shard",
        start_method: "str | None" = None,
    ) -> None:
        if not specs:
            raise ValueError("a pool needs at least one worker spec")
        self._ctx = multiprocessing.get_context(
            start_method or _default_start_method()
        )
        self._worker = worker
        self._name = name
        self._procs = []
        self._conns = []
        #: One ``select.poll`` per worker, its pipe registered once: the
        #: bounded wait of every reply, without ``Connection.poll``
        #: building and closing a selector each time.
        self._pollers = []
        self._closed = False
        for i, spec in enumerate(specs):
            proc, conn, poller = self._spawn(i, spec)
            self._procs.append(proc)
            self._conns.append(conn)
            self._pollers.append(poller)

    def _spawn(self, index: int, spec):
        parent, child = self._ctx.Pipe()
        poller = select.poll()
        poller.register(parent, select.POLLIN)  # hang-up always reports too
        proc = self._ctx.Process(
            target=self._worker,
            args=(child, spec),
            daemon=True,
            name=f"{self._name}-{index}",
        )
        proc.start()
        child.close()
        return proc, parent, poller

    def __len__(self) -> int:
        return len(self._procs)

    def _failure(self, shard: int, what: str) -> str:
        proc = self._procs[shard]
        if proc.is_alive():
            hint = "worker alive but unresponsive"
        else:
            hint = f"worker dead (exitcode {proc.exitcode})"
        return f"shard {shard}: {what} — {hint}"

    def send_bytes(self, shard: int, msg: bytes) -> None:
        if self._closed:
            raise ShardError("pool is closed")
        try:
            self._conns[shard].send_bytes(msg)
        except (BrokenPipeError, EOFError, OSError, ValueError) as exc:
            raise ShardError(
                self._failure(shard, f"send failed ({exc!r})"), shard=shard
            ) from exc

    def recv_bytes(self, shard: int, *, timeout: float) -> bytes:
        """One reply from ``shard``, waiting at most ``timeout`` seconds
        (the wait also wakes on pipe EOF when the worker dies)."""
        if self._closed:
            raise ShardError("pool is closed")
        try:
            if not self._pollers[shard].poll(timeout * 1000):  # milliseconds
                raise ShardTimeout(
                    self._failure(shard, f"no reply within {timeout:g}s"),
                    shard=shard,
                )
            msg = self._conns[shard].recv_bytes()
        except ShardTimeout:
            raise
        except (BrokenPipeError, EOFError, OSError) as exc:
            raise ShardError(
                self._failure(shard, f"reply pipe failed ({exc!r})"),
                shard=shard,
            ) from exc
        return _reply_or_raise(shard, msg)

    def kill_worker(self, shard: int) -> None:
        """SIGKILL one worker and reap it (fault injection / teardown)."""
        proc = self._procs[shard]
        if proc.is_alive():
            proc.kill()
        proc.join(timeout=5.0)

    def discard_worker(self, shard: int) -> None:
        """Tear a slot fully down — pipe *and* process — without
        spawning a replacement.

        For abandoning a half-respawned worker (e.g. a restart whose
        resync failed): unlike :meth:`kill_worker`, which leaves the
        pipe open so the dispatcher can observe the EOF, this releases
        every resource the slot holds; the slot stays addressable and a
        later :meth:`restart` gives it a fresh process and pipe.
        """
        try:
            self._conns[shard].close()
        except (OSError, ValueError):
            pass
        self.kill_worker(shard)

    def restart(self, shard: int, spec) -> None:
        """Replace one worker slot with a freshly spawned process.

        The old pipe is closed and the old process escalated through
        ``terminate`` → ``kill``; the new worker starts from ``spec``
        with a brand-new pipe, so no stale reply can leak into the new
        stream.
        """
        if self._closed:
            raise ShardError("pool is closed")
        old_proc = self._procs[shard]
        try:
            self._conns[shard].close()
        except OSError:
            pass
        if old_proc.is_alive():
            old_proc.terminate()
            old_proc.join(timeout=1.0)
        if old_proc.is_alive():
            old_proc.kill()
            old_proc.join(timeout=5.0)
        proc, conn, poller = self._spawn(shard, spec)
        self._procs[shard] = proc
        self._conns[shard] = conn
        self._pollers[shard] = poller

    @staticmethod
    def _send_best_effort(conn, msg: bytes) -> None:
        """A stop message must never block ``close()``: a hung worker
        with a full pipe would otherwise wedge teardown forever, so the
        fd goes non-blocking for the attempt and any failure (including
        a partial write — the pipe is being abandoned) is ignored."""
        try:
            fd = conn.fileno()
            os.set_blocking(fd, False)
        except (OSError, ValueError):
            return
        try:
            conn.send_bytes(msg)
        except (BlockingIOError, BrokenPipeError, OSError, ValueError):
            pass
        finally:
            try:
                os.set_blocking(fd, True)
            except OSError:
                pass

    def close(self, *, stop_msg: "bytes | None" = None) -> None:
        """Stop every worker without ever blocking on one.

        Best-effort non-blocking stop message, then ``join`` →
        ``terminate`` → ``kill`` escalation with bounded waits at each
        step, so no zombie worker survives a test run — not even one
        wedged with a full pipe.
        """
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                if stop_msg is not None:
                    self._send_best_effort(conn, stop_msg)
                conn.close()
            except (OSError, ValueError):
                pass
        for proc in self._procs:
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=5.0)

    @property
    def closed(self) -> bool:
        return self._closed


class _Ticket:
    """One in-flight burst: pre-filled dispatcher verdicts plus the
    per-shard reply slots still owed by workers."""

    __slots__ = ("verdicts", "pending")

    def __init__(self, size: int) -> None:
        self.verdicts: "list[Verdict | None]" = [None] * size
        #: (shard, indices, burst_seq) in send order; one reply each.
        self.pending: "list[tuple[int, list[int], int]]" = []


class InProcessCarrier:
    """The carrier of last resort: the same shards, run in the caller's
    process — ``send_bytes`` is a :meth:`ShardState.handle` call and
    ``recv_bytes`` pops the reply it produced.  No ``restart``: there is
    no process, and a failure here is a bug in the shard code.

    The states are built from the supervisor's bare specs (it resyncs
    them like any fresh worker) with ``crypto_backend=None``: a named
    backend would switch the *process-wide* one, which a worker process
    wants and the dispatcher's does not.
    """

    def __init__(self, specs: Sequence[ShardSpec]) -> None:
        self._states = [
            ShardState(dataclasses.replace(spec, crypto_backend=None))
            for spec in specs
        ]
        self._replies: "list[deque[bytes]]" = [deque() for _ in specs]
        self._closed = False

    def send_bytes(self, shard: int, msg: bytes) -> None:
        reply = self._states[shard].handle(msg)
        if reply is not None:
            self._replies[shard].append(reply)

    def recv_bytes(self, shard: int, *, timeout: float) -> bytes:
        """The shard's next queued reply; an empty queue times out at
        once — replies are produced inside ``send_bytes``."""
        if not self._replies[shard]:
            raise ShardTimeout(
                f"shard {shard}: no reply queued in-process", shard=shard
            )
        return _reply_or_raise(shard, self._replies[shard].popleft())

    def close(self, *, stop_msg: "bytes | None" = None) -> None:
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed


class ShardedDataPlane:
    """HID-range sharded border-router data plane for one AS."""

    def __init__(
        self,
        specs: Sequence[ShardSpec],
        plan: ShardPlan,
        *,
        aid: int,
        state_source: ShardStateSource,
        start_method: "str | None" = None,
        supervision: "SupervisorPolicy | None" = None,
    ) -> None:
        self.plan = plan
        self.aid = aid
        self.nshards = len(specs)
        #: What a routable frame must carry in this deployment: the base
        #: header, plus the nonce when replay protection is on — a runt
        #: is rejected here (burst untouched) rather than crashing a
        #: worker's parse and costing a restart.
        self._min_frame = (
            _MIN_FRAME_WITH_NONCE if specs[0].with_nonce else _MIN_FRAME
        )
        self._pool = ShardProcessPool(
            data_plane_worker, specs, name=f"apna-br-{aid}", start_method=start_method
        )
        self._policy = supervision or SupervisorPolicy()
        self.supervisor = ShardSupervisor(
            self._pool, plan, specs, state_source, self._policy
        )
        self._tickets: "deque[_Ticket]" = deque()
        self._in_flight_verdicts = 0
        #: Per-shard count of bursts dispatched — the sequence numbers
        #: fault plans key on and failure reports cite.
        self._burst_seq = [0] * self.nshards
        #: Set (to the triggering cause) once the plane has swapped its
        #: worker processes for an :class:`InProcessCarrier`.
        self.degraded: "str | None" = None
        #: Dropped-and-counted work owed by failed workers.
        self.dropped_bursts = 0
        self.dropped_packets = 0
        #: Replies whose echoed burst seq was already paired — duplicates
        #: discarded by the seq check, never re-delivered as verdicts.
        self.stale_replies_discarded = 0
        #: Dispatcher-side transit forwarding (no shard round-trip).
        self.forwarded_inter = 0
        # Fail at construction, not mid-burst, if the plan cannot route
        # IVs (e.g. keyed mode without kR).
        if self.nshards > 1:
            plan.validate_routing()

    # -- construction ------------------------------------------------------

    @classmethod
    def for_assembly(
        cls,
        assembly,
        nshards: "int | None" = None,
        *,
        start_method: "str | None" = None,
    ) -> "ShardedDataPlane":
        """Build a pool for an :class:`ApnaAutonomousSystem`.

        The assembly must have been constructed with a matching
        ``config.forwarding_shards`` so every issued EphID's IV is pinned
        to its owner shard — without pinning, an authentic packet could
        be routed to a shard that does not hold its host's MAC keys.
        The assembly's config also supplies the supervision policy
        (``shard_reply_timeout`` / ``shard_max_restarts`` /
        ``shard_restart_backoff``); the workers run the crypto backend
        active in the caller.

        The assembly's ``hostdb`` / ``revocations`` are snapshotted into
        the worker specs — as encoded :class:`repro.state.ShardSnapshot`
        columns, the same bytes a later ``MSG_RESYNC`` would carry;
        later changes propagate only through :meth:`register_host` /
        :meth:`revoke_ephid` / :meth:`revoke_hid` (the assembly wires
        those to its database hooks).  They are also retained as the
        *authoritative* state source: a restarted worker — and every
        in-process shard of a degraded plane — is resynced from them.
        """
        config = assembly.config
        nshards = nshards or max(1, config.forwarding_shards)
        plan = getattr(assembly, "shard_plan", None)
        if plan is None:
            if nshards > 1:
                raise ValueError(
                    "assembly was built without IV pinning "
                    "(config.forwarding_shards < 2); a multi-shard pool "
                    "would misroute its packets"
                )
            plan = ShardPlan(1)
        elif plan.nshards != nshards:
            raise ValueError(
                f"assembly pins IVs for {plan.nshards} shards, "
                f"cannot serve {nshards}"
            )
        from ..crypto import backend as crypto_backend

        secret = assembly.keys.secret
        state_source = ShardStateSource(assembly.hostdb, assembly.revocations)
        specs = [
            ShardSpec(
                shard=shard,
                nshards=nshards,
                aid=assembly.aid,
                ephid_enc_key=secret.ephid_enc,
                ephid_mac_key=secret.ephid_mac,
                crypto_backend=crypto_backend.active_backend().name,
                packet_mac_size=config.packet_mac_size,
                with_nonce=config.replay_protection,
                replay_window=(
                    config.replay_filter_window
                    if config.in_network_replay_filter
                    else None
                ),
                replay_bits=config.replay_filter_bits,
                shard_block=plan.block,
                routing_mode=plan.mode,
                routing_key=plan.key or b"",
                state_backend=config.state_backend,
                snapshot=state_source.shard_snapshot(plan, shard).encode(),
            )
            for shard in range(nshards)
        ]
        return cls(
            specs,
            plan,
            aid=assembly.aid,
            state_source=state_source,
            start_method=start_method,
            supervision=SupervisorPolicy.from_config(config),
        )

    # -- fault injection ----------------------------------------------------

    def install_faults(self, plan) -> None:
        """Arm a :class:`repro.faults.FaultPlan` by wrapping the carrier
        in a :class:`repro.faults.FaultCarrier`; ``None`` unwraps it.  A
        degraded plane has no worker process to fault and stays bare."""
        from ..faults.carrier import FaultCarrier

        carrier = self._pool
        if isinstance(carrier, FaultCarrier):
            carrier = carrier.inner
        if plan is not None and self.degraded is None:
            carrier = FaultCarrier(plan, carrier)
        self._pool = self.supervisor.carrier = carrier

    # -- the burst pipeline -------------------------------------------------

    #: Max uncollected *verdicts* across all in-flight bursts.  A verdict
    #: reply is 11 bytes, so this bounds the reply-pipe backlog to ~45KB
    #: per shard, under the smallest common pipe buffer (64KB).  Without
    #: a bound, a producer outpacing collect() would fill the reply
    #: pipe, block the worker's send, stop it reading requests, and
    #: deadlock the dispatcher's next submit.  Counting verdicts (not
    #: bursts) keeps the bound valid for any configured burst size.
    MAX_IN_FLIGHT_VERDICTS = 4096

    def submit(
        self,
        frames: Sequence[bytes],
        egress: Sequence[bool],
        now: float,
    ) -> _Ticket:
        """Dispatch one burst: route, pack, and send (one message per
        shard touched).  Pair with :meth:`collect`; bursts complete in
        submission order, so several may be in flight at once (up to
        :data:`MAX_IN_FLIGHT_VERDICTS` pending verdicts) — that
        pipelining is where the dispatcher/worker overlap comes from.
        """
        self._check_usable()
        if len(frames) != len(egress):
            raise ShardError(
                f"{len(frames)} frames but {len(egress)} direction flags — "
                "every frame needs one"
            )
        # Validate the whole burst before touching any counter or pipe,
        # so a rejected burst leaves the plane's state untouched and the
        # caller can retry a corrected one.
        for i, frame in enumerate(frames):
            if len(frame) < self._min_frame:
                raise ShardError(
                    f"frame {i} is {len(frame)} bytes — shorter than this "
                    f"deployment's {self._min_frame}-byte APNA header, "
                    "cannot route"
                )
        # Classify without side effects: transit short-circuits vs
        # shard-bound sub-bursts.  Routing is two-phase so the keyed map
        # costs one bulk PRF per burst, not one per frame: first split
        # off transit and gather the shard-bound frames' IV columns, then
        # route the whole column in a single plan call.
        ticket = _Ticket(len(frames))
        transit: "list[int]" = []
        routed: "list[int]" = []
        iv_column: "list[bytes]" = []
        aid_bytes = self.aid.to_bytes(4, "big")
        for i, (frame, out) in enumerate(zip(frames, egress)):
            if not out and frame[DST_AID_FIELD] != aid_bytes:
                # Transit: forward toward the destination AS — a routing
                # table decision, no per-host state, no shard round-trip.
                transit.append(i)
                continue
            routed.append(i)
            iv_column.append(frame[_SRC_IV])
        shards = self.plan.owners_of_iv_bytes(iv_column)
        by_shard: "dict[int, tuple[list[int], list[bytes], list[int]]]" = {}
        for i, shard in zip(routed, shards):
            slot = by_shard.get(shard)
            if slot is None:
                slot = by_shard[shard] = ([], [], [])
            slot[0].append(i)
            slot[1].append(frames[i])
            slot[2].append(wire.EGRESS if egress[i] else wire.INGRESS)
        # Admission: only shard-bound packets occupy reply-pipe budget.
        # A lone burst is exempt whatever its size — with nothing else
        # outstanding the dispatcher proceeds straight to collect(), so
        # the worker's reply always has a reader (control traffic cannot
        # interleave: it requires an empty ticket queue).  This keeps
        # arbitrarily large forwarding_batch_size configurations working
        # while still bounding the *pipelined* backlog.
        worker_bound = sum(len(slot[0]) for slot in by_shard.values())
        if (
            self._tickets
            and self._in_flight_verdicts + worker_bound > self.MAX_IN_FLIGHT_VERDICTS
        ):
            raise ShardError(
                f"{worker_bound} shard-bound packets with "
                f"{self._in_flight_verdicts} verdicts already in flight "
                f"would exceed the cap ({self.MAX_IN_FLIGHT_VERDICTS}); "
                "collect outstanding bursts first"
            )
        # Encode every sub-burst before committing any counter or
        # sending anything: an encode failure (e.g. a sub-burst
        # overflowing the u16 count field) must reject the burst with
        # no state change and nothing on the wire.
        for shard, (indices, _, _) in by_shard.items():
            if len(indices) > 0xFFFF:
                raise ShardError(
                    f"{len(indices)} packets for shard {shard} in one "
                    "burst — the burst message counts packets in a u16; "
                    "split the burst"
                )
        # Each shard appears at most once per burst, so its seq at encode
        # time is simply its next unconsumed counter value.
        messages = [
            (
                shard,
                indices,
                wire.encode_burst(
                    now, self._burst_seq[shard], shard_frames, directions
                ),
            )
            for shard, (indices, shard_frames, directions) in by_shard.items()
        ]
        for i in transit:
            self.forwarded_inter += 1
            ticket.verdicts[i] = verdict_of(INTER_HEAD + frames[i][DST_AID_FIELD])
        # A send failure costs only the sub-burst that never reached its
        # worker: it is dropped-and-counted, the worker is restarted (or
        # the plane degraded, forfeiting what this ticket already sent),
        # and the rest of the burst proceeds.
        for shard, indices, message in messages:
            seq = self._burst_seq[shard]
            self._burst_seq[shard] += 1
            try:
                self._pool.send_bytes(shard, message)
            except ShardError as exc:
                self._drop_subburst(ticket, indices)
                self._shard_failed(
                    shard,
                    f"burst dispatch failed mid-send: {exc}",
                    extra_ticket=ticket,
                )
                continue
            ticket.pending.append((shard, indices, seq))
            self._in_flight_verdicts += len(indices)
        self._tickets.append(ticket)
        return ticket

    def collect(self, ticket: _Ticket) -> "list[Verdict]":
        """Merge a burst's shard replies back into arrival order.

        A shard that cannot deliver its reply (death, hang past the
        reply timeout, error frame, undecodable bytes) forfeits every
        verdict it still owes — those packets are dropped-and-counted
        (``DropReason.SHARD_FAILURE``) across all in-flight tickets —
        and the worker is restarted with a state resync (or, past its
        restart budget, the plane degrades).
        """
        self._check_usable()
        if not self._tickets or self._tickets[0] is not ticket:
            raise ShardError("bursts must be collected in submission order")
        self._tickets.popleft()
        while ticket.pending:
            shard, indices, seq = ticket.pending[0]
            try:
                reply_seq, verdicts = self._next_reply(shard, seq)
                if len(verdicts) != len(indices):
                    raise ShardError(
                        f"shard {shard}: reply #{reply_seq} carried "
                        f"{len(verdicts)} verdicts for a "
                        f"{len(indices)}-packet sub-burst",
                        shard=shard,
                    )
            except ShardError as exc:
                self._shard_failed(
                    shard,
                    f"reply for burst #{seq} lost: {exc}",
                    extra_ticket=ticket,
                )
                continue
            except Exception as exc:
                self._shard_failed(
                    shard,
                    f"reply for burst #{seq} undecodable ({exc!r})",
                    extra_ticket=ticket,
                )
                continue
            ticket.pending.pop(0)
            for i, verdict in zip(indices, verdicts):
                ticket.verdicts[i] = verdict
            self._in_flight_verdicts -= len(indices)
        return ticket.verdicts  # type: ignore[return-value]  # all slots filled

    def _next_reply(self, shard: int, seq: int) -> "tuple[int, list[Verdict]]":
        """The verdict reply for burst ``seq`` of ``shard``.

        The reply stream is checked, not assumed: every verdict message
        echoes the burst seq it answers, so a reply duplicated in
        transit (datagram replay on a real transport) is recognised as
        stale — already paired once — and discarded with a counter
        instead of being silently married to the wrong burst.  A
        *future* seq can only mean dispatcher state corruption and fails
        the shard.
        """
        while True:
            msg = self._pool.recv_bytes(
                shard, timeout=self._policy.reply_timeout
            )
            reply_seq, verdicts = wire.decode_verdicts(msg)
            if reply_seq == seq:
                return reply_seq, verdicts
            if reply_seq < seq:
                self.stale_replies_discarded += 1
                continue
            raise ShardError(
                f"shard {shard}: reply for future burst #{reply_seq} "
                f"while waiting on #{seq}",
                shard=shard,
            )

    # -- failure handling ---------------------------------------------------

    def _drop_subburst(
        self, ticket: _Ticket, indices: "list[int]", *, in_flight: bool = False
    ) -> None:
        """One sub-burst's verdicts are unrecoverable: drop and account."""
        for i in indices:
            ticket.verdicts[i] = _SHARD_FAILURE
        self.dropped_bursts += 1
        self.dropped_packets += len(indices)
        if in_flight:
            self._in_flight_verdicts -= len(indices)

    def _drop_pending_for(self, shard: int, tickets) -> None:
        for ticket in tickets:
            kept = []
            for entry in ticket.pending:
                if entry[0] == shard:
                    self._drop_subburst(ticket, entry[1], in_flight=True)
                else:
                    kept.append(entry)
            ticket.pending[:] = kept

    def _shard_failed(
        self, shard: int, cause: str, *, extra_ticket: "_Ticket | None" = None
    ) -> None:
        """One worker's reply stream is gone.  Drop everything it still
        owes (its replies can no longer be paired with requests), then
        restart it — or, once its restart budget is spent, degrade to
        in-process forwarding."""
        if self.degraded is not None:
            # In-process shards lose no frames, so this is a bug in the
            # shard code — and there is no carrier left to fall back to.
            raise ShardError(f"degraded plane, {cause}", shard=shard)
        self.supervisor.record_failure(shard, cause)
        tickets = list(self._tickets)
        if extra_ticket is not None:
            tickets.append(extra_ticket)
        self._drop_pending_for(shard, tickets)
        if not self.supervisor.restart(shard):
            self._degrade(f"shard {shard} unrecoverable: {cause}", tickets)

    def _degrade(self, cause: str, tickets) -> None:
        """Swap the worker processes for an :class:`InProcessCarrier`,
        resynced from the authoritative AS state like restarted workers.

        Every still-pending sub-burst — healthy shards included — is
        dropped-and-counted: their replies may well be queued, but a
        plane that has decided its pool is unreliable does not gamble on
        reading them.  Traffic keeps flowing from the very next
        sub-burst; ``stats()`` reports ``degraded``.  A state that
        cannot be snapshotted leaves nothing exact to serve from: the
        plane closes and the failure propagates.
        """
        for ticket in tickets:
            for _, indices, _ in ticket.pending:
                self._drop_subburst(ticket, indices, in_flight=True)
            ticket.pending.clear()
        self.degraded = cause
        self.close()  # the worker processes
        self._pool = self.supervisor.carrier = InProcessCarrier(
            self.supervisor.bare_specs
        )
        try:
            for shard in range(self.nshards):
                self.supervisor.resync(shard)
        except Exception as exc:
            self.close()
            raise ShardError(
                f"cannot degrade ({cause}): in-process resync failed: {exc}"
            ) from exc

    def _check_usable(self) -> None:
        if self._pool.closed:
            raise ShardError("data plane is closed")

    def process(
        self,
        frames: Sequence[bytes],
        egress: Sequence[bool],
        now: float,
    ) -> "list[Verdict]":
        """One burst, synchronously: submit + collect."""
        return self.collect(self.submit(frames, egress, now))

    # -- control plane ------------------------------------------------------

    def revoke_ephid(self, ephid: bytes, exp_time: float) -> None:
        """Broadcast a revocation to every shard.

        The pipe is ordered, so each shard applies the revoke before any
        burst submitted after this call — the propagation rule the AS
        relies on ("a revoke reaches the owning shard before its next
        burst").  It is a broadcast rather than an owner-only send
        because destination-side revocation checks may run on any shard.
        """
        self._control_broadcast(wire.encode_revoke_ephid(ephid, exp_time))

    def revoke_hid(self, hid: int) -> None:
        self._control_broadcast(wire.encode_revoke_hid(hid))

    def register_host(self, record) -> None:
        """Announce a newly registered host: keys to the owning shard,
        liveness to everyone else."""
        self._check_no_inflight("host registrations")
        owner = self.plan.owner_of(record.hid)
        for shard in range(self.nshards):
            self._control_send(
                shard,
                wire.encode_register_host(
                    record.hid,
                    owned=shard == owner,
                    control=record.keys.control,
                    packet_mac=record.keys.packet_mac,
                ),
            )

    def _control_broadcast(self, msg: bytes) -> None:
        """Broadcast a control frame to every shard, recovering any
        shard whose pipe fails mid-send.

        The authoritative state (hostdb / revocation list) is always
        updated *before* its hook fires, so a worker restarted here
        receives the very update that failed to send as part of its
        resync — replicas cannot diverge through this path.  (Control
        frames are idempotent, so shards resynced by a mid-broadcast
        degrade may take the frame again.)
        """
        self._check_no_inflight("control messages")
        for shard in range(self.nshards):
            self._control_send(shard, msg)

    def _control_send(self, shard: int, msg: bytes) -> None:
        try:
            self._pool.send_bytes(shard, msg)
        except ShardError as exc:
            # The recovery already resynced the full state, this frame's
            # update included — no resend.
            self._shard_failed(shard, f"control send failed: {exc}")

    def _check_no_inflight(self, what: str) -> None:
        """Control traffic requires an empty ticket queue.

        Two reasons: the revoke-before-next-burst propagation rule is
        meaningless against bursts already on the wire, and a control
        send could block against a worker that is itself blocked
        mid-reply — the one remaining dispatcher/worker deadlock shape.
        """
        self._check_usable()
        if self._tickets:
            raise ShardError(
                f"{len(self._tickets)} bursts in flight; collect them "
                f"before sending {what}"
            )

    # -- observability -------------------------------------------------------

    def shard_stats(self) -> "list[dict[str, int]]":
        """Per-shard counter snapshots (synchronises all control traffic).

        A shard that fails to answer is restarted like any other failure
        and the call raises — its counters died with the worker, so
        there is nothing truthful to return for it.  A degraded plane
        reports its in-process shards, counting from the degrade.
        """
        self._check_usable()
        if self._tickets:
            raise ShardError("collect in-flight bursts before reading stats")
        results = []
        for shard in range(self.nshards):
            try:
                self._pool.send_bytes(shard, bytes([wire.MSG_STATS]))
                results.append(
                    wire.decode_stats(
                        self._pool.recv_bytes(
                            shard, timeout=self._policy.reply_timeout
                        )
                    )
                )
            except ShardError as exc:
                self._shard_failed(shard, f"stats reply lost: {exc}")
                raise ShardError(
                    f"shard {shard}: stats unavailable ({exc}); counters "
                    "died with the worker"
                , shard=shard) from exc
        return results

    def stats(self) -> "dict[str, int]":
        """Aggregate counters: shard sums plus dispatcher-side transit
        and the supervision ledger (``restarts`` / ``dropped_bursts`` /
        ``dropped_packets`` / ``degraded``)."""
        totals: "dict[str, int]" = {field: 0 for field in wire.STATS_FIELDS}
        for shard in self.shard_stats():
            for field, value in shard.items():
                totals[field] += value
        totals["forwarded_inter"] += self.forwarded_inter
        totals[DropReason.SHARD_FAILURE.value] += self.dropped_packets
        totals["restarts"] = self.supervisor.total_restarts
        totals["dropped_bursts"] = self.dropped_bursts
        totals["dropped_packets"] = self.dropped_packets
        totals["stale_replies"] = self.stale_replies_discarded
        totals["degraded"] = 0 if self.degraded is None else 1
        return totals

    def barrier(self) -> None:
        """Wait until every shard has drained its control queue."""
        self.shard_stats()

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        self._pool.close(stop_msg=bytes([wire.MSG_STOP]))

    @property
    def closed(self) -> bool:
        return self._pool.closed

    def __enter__(self) -> "ShardedDataPlane":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        if self.degraded is not None:
            state = "degraded"
        elif self.closed:
            state = "closed"
        else:
            state = "running"
        return (
            f"<ShardedDataPlane aid={self.aid} shards={self.nshards} {state}>"
        )
