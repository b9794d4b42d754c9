"""The sharded data plane: persistent worker shards fed burst-sized batches.

:class:`ShardProcessPool` is the process scaffolding — N long-lived
workers, one duplex pipe each, binary messages only — one *carrier* of
worker messages ("send these bytes to shard k / give me shard k's next
reply within t"); :class:`~repro.sharding.supervisor.InProcessCarrier`
is another and :class:`repro.faults.FaultCarrier` wraps one.  Over a
carrier it is handed, :class:`ShardedDataPlane` is the paper's §V-A3
share-nothing scale-out applied to the border router: a dispatcher that

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
stream through pooled workers and through in-process shards).  One
qualification:
replay detection is a Bloom filter, and each shard owns its own —
inserts are partitioned across N filters instead of hashed into one, so
Bloom *false positives* (and rotation counts) can differ from the
single-filter plane.  Every true verdict is identical; the divergence
is confined to the filter's engineered FP rate (sized by
``replay_filter_bits``), and sharding only ever lowers it.  The perf
bar — shards stacking on top of the burst loop's amortisation — is held
by the sharded ``bench/`` workloads (``egress_cold_metro``,
``mixed_imix_pipelined``, ``churn_hostile`` in ``BENCHMARK.json``).

Who owns what: the dispatcher routes, packs, sequences and merges
(:meth:`ShardedDataPlane.route` is the side-effect-free half, callable
with no carrier at all) and nothing else; the carrier, the config's
recovery policy, the in-flight tickets and every reaction to a failed
send or reply belong to its ledger,
:class:`~repro.sharding.supervisor.ShardSupervisor`.

Failure bar: the plane is *self-healing*.  Every wait on a worker — for
a reply or for room to send — is bounded, a dead or hung worker is
restarted and resynced from the authoritative AS state
(:mod:`repro.sharding.supervisor`), verdicts owed by a failed worker are
dropped-and-counted (never guessed), and a shard that cannot be revived
degrades the plane — the same shards, carried in-process — instead of
refusing traffic.  The package docstring's fault-model section states
exactly what survives; ``tests/test_sharding_faults.py`` drives every
path with deterministic :mod:`repro.faults` storms.
"""

from __future__ import annotations

import multiprocessing
import os
import select
import socket
import struct
from typing import Callable, Sequence

from ..core.config import DEFAULT_CONFIG, ApnaConfig
from ..core.verdict import INTER_HEAD, DropReason, Verdict, verdict_of
from ..core.ephid import CIPHERTEXT_SIZE, IV_SIZE
from ..core.errors import ShardError, ShardTimeout
from ..wire.apna import (
    AID_SIZE,
    DST_AID_FIELD,
    HEADER_SIZE,
    HEADER_SIZE_WITH_NONCE,
    MAC_SIZE,
)
from ..wire.errors import ParseError
from . import wire
from .plan import ShardPlan
from .supervisor import (
    InProcessCarrier,
    ShardStateSource,
    ShardSupervisor,
    Ticket,
    reply_or_raise,
)
from .worker import ShardSpec, data_plane_worker

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
    liveness hint (``exitcode``), and a bounded wait that expires — a
    :meth:`recv_bytes` with no reply, a :meth:`send_bytes` that found
    the socket buffer full for ``send_timeout`` — becomes
    :class:`ShardTimeout`.  *Reacting* to failures (restart, resync,
    degrade) is the supervisor's job.
    """

    def __init__(
        self,
        worker: Callable,
        specs: Sequence,
        *,
        name: str = "shard",
        send_timeout: "float | None" = None,
    ) -> None:
        if not specs:
            raise ValueError("a pool needs at least one worker spec")
        self._ctx = multiprocessing.get_context(_default_start_method())
        self._worker = worker
        self._name = name
        self._send_timeout = send_timeout
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
        if self._send_timeout is not None:
            # A stopped worker stops reading: once the socket buffer is
            # full a blocking send would wait on it forever.  The option
            # lives on the socket, so it costs nothing per send.
            seconds, fraction = divmod(self._send_timeout, 1)
            timeval = struct.pack("ll", int(seconds), int(fraction * 1e6))
            sock = socket.socket(fileno=parent.fileno())
            try:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO, timeval)
            finally:
                sock.detach()  # the Connection keeps owning the fd
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
        except BlockingIOError as exc:
            raise ShardTimeout(
                self._failure(
                    shard, f"send blocked for {self._send_timeout:g}s"
                ),
                shard=shard,
            ) from exc
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
        except (BrokenPipeError, EOFError, OSError) as exc:
            raise ShardError(
                self._failure(shard, f"reply pipe failed ({exc!r})"),
                shard=shard,
            ) from exc
        return reply_or_raise(shard, msg)

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

        The old slot is discarded first — it has been declared failed,
        and a stopped worker could not even see a ``terminate`` — and the
        new worker starts from ``spec`` with a brand-new pipe, so no
        stale reply can leak into the new stream.
        """
        if self._closed:
            raise ShardError("pool is closed")
        self.discard_worker(shard)
        self._procs[shard], self._conns[shard], self._pollers[shard] = (
            self._spawn(shard, spec)
        )

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


class ShardedDataPlane:
    """HID-range sharded border-router data plane for one AS: the
    dispatcher over the ``carrier`` it is handed (its shards built from
    ``specs``), which from then on lives on :attr:`supervisor` alone."""

    def __init__(
        self,
        carrier,
        specs: Sequence[ShardSpec],
        plan: ShardPlan,
        *,
        aid: int,
        state_source: ShardStateSource,
        config: ApnaConfig = DEFAULT_CONFIG,
    ) -> None:
        # Fail at construction, not mid-burst — and before anything is
        # sent — if the plan cannot route IVs (e.g. keyed mode without kR).
        self.plan = plan.validate_routing()
        self.aid = aid
        self.nshards = len(specs)
        #: What a routable frame must carry in this deployment: the base
        #: header, plus the nonce when replay protection is on — a runt
        #: is rejected here (burst untouched) rather than crashing a
        #: worker's parse and costing a restart.
        nonce = specs[0].with_nonce
        self._min_frame = HEADER_SIZE_WITH_NONCE if nonce else HEADER_SIZE
        #: The ledger: carrier, policy, tickets, charges, restart, degrade.
        self.supervisor = ShardSupervisor(
            carrier, plan, specs, state_source, config=config
        )
        #: Dispatcher-side transit forwarding (no shard round-trip).
        self.forwarded_inter = 0

    # -- construction ------------------------------------------------------

    @classmethod
    def for_assembly(cls, assembly) -> "ShardedDataPlane":
        """Build a pooled plane for an :class:`ApnaAutonomousSystem`.

        The assembly's ``config.forwarding_shards`` fixed its shard plan
        at construction, so every issued EphID's IV is pinned to its
        owner shard — without pinning, an authentic packet could be
        routed to a shard that does not hold its host's MAC keys (an
        unsharded assembly gets the one-shard plan).  The assembly's
        config is also the supervision policy (``shard_reply_timeout`` /
        ``shard_max_restarts`` / ``shard_restart_backoff``).

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
        plan = assembly.shard_plan or ShardPlan(1)
        secret = assembly.keys.secret
        state_source = ShardStateSource(assembly.hostdb, assembly.revocations)
        specs = [
            ShardSpec(
                shard=shard,
                nshards=plan.nshards,
                aid=assembly.aid,
                ephid_enc_key=secret.ephid_enc,
                ephid_mac_key=secret.ephid_mac,
                crypto_backend="openssl",
                packet_mac_size=MAC_SIZE,
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
            for shard in range(plan.nshards)
        ]
        return cls(
            ShardProcessPool(
                data_plane_worker,
                specs,
                name=f"apna-br-{assembly.aid}",
                send_timeout=config.shard_reply_timeout,
            ),
            specs,
            plan,
            aid=assembly.aid,
            state_source=state_source,
            config=config,
        )

    # -- fault injection ----------------------------------------------------

    def install_faults(self, plan) -> None:
        """Arm a :class:`repro.faults.FaultPlan` on the carrier (see
        :meth:`ShardSupervisor.install_faults`); ``None`` disarms it."""
        self.supervisor.install_faults(plan)

    # -- the burst pipeline -------------------------------------------------

    #: Max uncollected *verdicts* across all in-flight bursts.  A verdict
    #: reply is 11 bytes, so this bounds the reply-pipe backlog to ~45KB
    #: per shard, under the smallest common pipe buffer (64KB).  Without
    #: a bound, a producer outpacing collect() would fill the reply
    #: pipe, block the worker's send, stop it reading requests, and
    #: deadlock the dispatcher's next submit.  Counting verdicts (not
    #: bursts) keeps the bound valid for any configured burst size.
    MAX_IN_FLIGHT_VERDICTS = 4096

    def route(
        self, frames: Sequence[bytes], egress: Sequence[bool]
    ) -> "tuple[list[int], dict[int, tuple[list[int], list[bytes], list[int]]]]":
        """Where each frame of a burst goes: ``(transit, by_shard)`` —
        the indices the dispatcher forwards itself, and per shard the
        ``(indices, frames, directions)`` of its sub-burst.

        Pure: it validates and classifies without touching a counter, a
        sequence number or the carrier, so a rejected burst leaves the
        plane's state untouched (the caller can retry a corrected one)
        and the routing cost can be timed alone.  It refuses a burst as
        :meth:`~repro.core.border_router.BorderRouter.process_burst`
        does: ``ValueError`` when the direction flags do not match the
        frames, ``ParseError`` for a frame shorter than the header.
        """
        if len(frames) != len(egress):
            raise ValueError(
                f"{len(frames)} frames but {len(egress)} direction flags — "
                "every frame needs one"
            )
        for i, frame in enumerate(frames):
            if len(frame) < self._min_frame:
                raise ParseError(
                    f"frame {i} is {len(frame)} bytes — shorter than this "
                    f"deployment's {self._min_frame}-byte APNA header, "
                    "cannot route"
                )
        # Routing is two-phase so the keyed map costs one bulk PRF per
        # burst, not one per frame: first split off transit and gather
        # the shard-bound frames' IV columns, then route the whole column
        # in a single plan call.
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
        for shard, (indices, _, _) in by_shard.items():
            if len(indices) > 0xFFFF:
                raise ShardError(
                    f"{len(indices)} packets for shard {shard} in one "
                    "burst — the burst message counts packets in a u16; "
                    "split the burst"
                )
        return transit, by_shard

    def submit(
        self,
        frames: Sequence[bytes],
        egress: Sequence[bool],
        now: float,
    ) -> Ticket:
        """Dispatch one burst: route, pack, and send (one message per
        shard touched).  Pair with :meth:`collect`; bursts complete in
        submission order, so several may be in flight at once (up to
        :data:`MAX_IN_FLIGHT_VERDICTS` pending verdicts) — that
        pipelining is where the dispatcher/worker overlap comes from.
        """
        transit, by_shard = self.route(frames, egress)
        # Encode every sub-burst before committing any counter or
        # sending anything: an encode failure must reject the burst with
        # no state change and nothing on the wire.  Each shard appears
        # at most once per burst, so its seq at encode time is simply
        # its next unconsumed counter value.
        seqs = self.supervisor.burst_seq
        messages = [
            (
                shard,
                indices,
                wire.encode_burst(now, seqs[shard], shard_frames, directions),
            )
            for shard, (indices, shard_frames, directions) in by_shard.items()
        ]
        ticket = Ticket(len(frames))
        self.supervisor.dispatch(ticket, messages, self.MAX_IN_FLIGHT_VERDICTS)
        for i in transit:
            self.forwarded_inter += 1
            ticket.verdicts[i] = verdict_of(INTER_HEAD + frames[i][DST_AID_FIELD])
        return ticket

    def collect(self, ticket: Ticket) -> "list[Verdict]":
        """Merge a burst's shard replies back into arrival order.

        What a shard fails to answer the ledger has already charged
        (``DropReason.SHARD_FAILURE``, see :meth:`ShardSupervisor.
        replies`), so every slot is filled when the replies run out.
        """
        verdicts = ticket.verdicts
        for indices, answered in self.supervisor.replies(ticket):
            for i, verdict in zip(indices, answered):
                verdicts[i] = verdict
        return verdicts  # type: ignore[return-value]  # all slots filled

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
        self.supervisor.check_idle("sending host registrations")
        owner = self.plan.owner_of(record.hid)
        for shard in range(self.nshards):
            msg = wire.encode_register_host(
                record.hid,
                owned=shard == owner,
                control=record.keys.control,
                packet_mac=record.keys.packet_mac,
            )
            self.supervisor.send_to(shard, msg, "control send failed")

    def _control_broadcast(self, msg: bytes) -> None:
        """Broadcast a control frame to every shard; the ledger recovers
        any shard whose pipe fails mid-send.

        The authoritative state (hostdb / revocation list) is always
        updated *before* its hook fires, so a worker restarted here
        receives the very update that failed to send as part of its
        resync — no resend, and replicas cannot diverge through this
        path.  (Control frames are idempotent, so shards resynced by a
        mid-broadcast degrade may take the frame again.)
        """
        self.supervisor.check_idle("sending control messages")
        for shard in range(self.nshards):
            self.supervisor.send_to(shard, msg, "control send failed")

    # -- observability -------------------------------------------------------

    def shard_stats(self) -> "list[dict[str, int]]":
        """Per-shard counter snapshots (synchronises all control traffic).

        A shard that fails to answer is restarted like any other failure
        and the call raises — its counters died with the worker, so
        there is nothing truthful to return for it.  A degraded plane
        reports its in-process shards, counting from the degrade.
        """
        ledger = self.supervisor
        ledger.check_idle("reading stats")
        results = []
        for shard in range(self.nshards):
            charged = ledger.failure_count
            stats = None
            if ledger.send_to(shard, bytes([wire.MSG_STATS]), "stats reply lost"):
                stats = ledger.reply_from(shard, wire.decode_stats, "stats reply")
            if stats is None:
                # The first failure logged since ``charged``, or the oldest
                # the bounded log still holds.
                since = min(ledger.failure_count - charged, len(ledger.failures))
                raise ShardError(
                    f"shard {shard}: stats unavailable "
                    f"({ledger.failures[-since][1]}); counters died with "
                    "the worker",
                    shard=shard,
                )
            results.append(stats)
        return results

    def stats(self) -> "dict[str, int]":
        """Aggregate counters: shard sums plus dispatcher-side transit
        and the supervision ledger (``restarts`` / ``dropped_bursts`` /
        ``dropped_packets`` / ``stale_replies`` / ``degraded`` /
        ``replay_windows_reopened``)."""
        totals: "dict[str, int]" = {field: 0 for field in wire.STATS_FIELDS}
        for shard in self.shard_stats():
            for field, value in shard.items():
                totals[field] += value
        ledger = self.supervisor
        totals["forwarded_inter"] += self.forwarded_inter
        totals[DropReason.SHARD_FAILURE.value] += ledger.dropped_packets
        totals["restarts"] = sum(ledger.restarts)
        totals["dropped_bursts"] = ledger.dropped_bursts
        totals["dropped_packets"] = ledger.dropped_packets
        totals["stale_replies"] = ledger.stale_replies
        totals["degraded"] = 0 if ledger.degraded is None else 1
        totals["replay_windows_reopened"] = ledger.replay_windows_reopened
        return totals

    # audit: allow(production-caller) ROADMAP item 7's model drives it
    def barrier(self) -> None:
        """Wait until every shard has drained its control queue."""
        self.shard_stats()

    @property
    def degraded(self) -> "str | None":
        """The cause, once the ledger has swapped the worker processes
        for an :class:`InProcessCarrier`."""
        return self.supervisor.degraded

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        self.supervisor.close()

    @property
    def closed(self) -> bool:
        return self.supervisor.closed

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
