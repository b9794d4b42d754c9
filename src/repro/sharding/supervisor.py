"""The plane's failure ledger: worker supervision — crash/hang
detection, restart with state resync, and the degradation decision.

A desynchronised reply stream must never mispair verdicts with packets,
but a production AS cannot rebuild its data plane by hand every time one
process dies either.  :class:`ShardSupervisor` owns everything between a
worker failure and the plane giving up on its pool — the carrier, the
policy, the in-flight tickets, every charge — and the dispatcher
(:class:`repro.sharding.pool.ShardedDataPlane`) reaches workers only
through its one :meth:`~ShardSupervisor.send_to` and one
:meth:`~ShardSupervisor.reply_from`.  The policy is the plane's
:class:`~repro.core.config.ApnaConfig` itself — its three ``shard_*``
options, checked there — held as :attr:`ShardSupervisor.config`:

1. **Detection** — every wait is bounded by ``shard_reply_timeout``: a reply
   wait is a bounded poll, a send into a full socket buffer gives up
   after the same bound (``SO_SNDTIMEO``; see :class:`repro.sharding.
   pool.ShardProcessPool`), so a dead worker surfaces as an immediate
   pipe EOF and a hung one as a timeout in either direction, never as a
   dispatcher wedged forever.
2. **Recovery** — :meth:`ShardSupervisor.restart` kills the failed
   worker, spawns a fresh one from a *bare* spec (keys and deployment
   config only, no state) and replays the authoritative AS state into it
   over the existing wire protocol: one :data:`repro.sharding.wire.
   MSG_RESYNC` frame carrying the shard's owned host records, the
   replicated live-HID view and the revocation snapshot, acknowledged by
   the worker before any traffic resumes.  Attempts back off with a
   capped exponential delay.
3. **Degradation** — once a shard exhausts its restart budget
   (``shard_max_restarts``), the ledger stops gambling on
   processes: it swaps its carrier for the same shards run in the
   dispatcher's own process (:class:`InProcessCarrier`), hands each the
   same :meth:`resync <ShardSupervisor.resync>` a restarted worker gets,
   and keeps serving verdicts (flagged ``degraded`` in ``stats()``).

What survives a restart and what does not is part of the contract (see
the package docstring's fault-model section): host records and
revocations are replayed from the authoritative copies, so they survive
exactly; the shard's replay-filter history and its verdict counters die
with the process (``stats()`` counts each reopened replay window as
``replay_windows_reopened``).  Verdicts owed by the failed worker are
*dropped and counted* (``Action.DROP`` / ``DropReason.SHARD_FAILURE``), never
guessed — the reply stream restarts clean on the fresh pipe, so no
later burst can inherit an earlier burst's verdicts.
"""

from __future__ import annotations

import dataclasses
import time
from collections import deque
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from ..core.config import DEFAULT_CONFIG, ApnaConfig
from ..core.errors import ShardError, ShardTimeout
from ..core.verdict import Action, DropReason, Verdict
from . import wire
from .worker import ShardSpec, ShardState

if TYPE_CHECKING:  # pragma: no cover
    from .plan import ShardPlan

__all__ = ["ShardStateSource", "InProcessCarrier", "ShardSupervisor"]

#: Restart backoff is capped at this multiple of the base delay.
_BACKOFF_CAP_FACTOR = 50

#: Failures the log keeps, newest last.  The longest storm the fault
#: suite drives through a plane logs 12 (restart attempts included); a
#: dead carrier with a large restart budget logs one per attempt, so the
#: log is bounded and ``failure_count`` keeps the total.
FAILURE_LOG_CAPACITY = 64

#: The synthetic verdict a packet gets when its worker shard failed
#: before replying: the packet is dropped and accounted, never given a
#: guessed verdict.
_SHARD_FAILURE = Verdict(Action.DROP, reason=DropReason.SHARD_FAILURE)


class ShardStateSource:
    """Live references to the AS's authoritative state, from which any
    shard's view can be rebuilt at any moment.

    The plane's construction-time snapshot is only the *initial* worker
    state; everything since (registrations, revocations) reached the
    workers as incremental control frames.  A restarted worker needs the
    *current* state, so the supervisor reads it fresh from the same
    objects the control hooks mutate — ``hostdb`` and ``revocations``
    are the
    :class:`~repro.state.ColumnarHostDatabase` and
    :class:`~repro.state.ColumnarRevocationList` the AS itself owns.
    """

    def __init__(self, hostdb, revocations) -> None:
        self.hostdb = hostdb
        self.revocations = revocations

    def shard_snapshot(self, plan: "ShardPlan", shard: int):
        """One shard's :class:`repro.state.ShardSnapshot`, resync-ready:
        the stores' packed columns sliced for the shard, in the one
        serialisation the shard was also spawned from."""
        from ..state.snapshot import build_shard_snapshot

        return build_shard_snapshot(self.hostdb, self.revocations, plan, shard)


def reply_or_raise(shard: int, msg: bytes) -> bytes:
    """A shard-sent error frame is raised as :class:`ShardError` by the
    carrier, so no caller can mistake it for a payload."""
    if msg and msg[0] == wire.MSG_ERROR:
        raise ShardError(wire.decode_error(msg), shard=shard)
    return msg


class Ticket:
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

    The states are built from the specs they are given — the
    supervisor's bare ones when it degrades (it resyncs them like any
    fresh worker).
    """

    def __init__(self, specs: Sequence[ShardSpec]) -> None:
        self._states = [ShardState(spec) for spec in specs]
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
        return reply_or_raise(shard, self._replies[shard].popleft())

    def close(self, *, stop_msg: "bytes | None" = None) -> None:
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed


class ShardSupervisor:
    """The ledger of one sharded plane: the carrier, the in-flight
    tickets, every failure charge, and the restart / resync / degrade
    protocol."""

    def __init__(
        self,
        carrier,
        plan: "ShardPlan",
        specs: "Sequence[ShardSpec]",
        state: ShardStateSource,
        *,
        config: ApnaConfig = DEFAULT_CONFIG,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        #: Where worker messages go — the only reference to it: swapped
        #: here on a degrade, wrapped here for fault injection.
        self.carrier = carrier
        self._plan = plan
        #: Bare per-shard specs: the given specs stripped of state, so a
        #: (re)spawned shard starts empty and MSG_RESYNC is the single
        #: source of its state.
        self.bare_specs = [
            dataclasses.replace(spec, snapshot=b"") for spec in specs
        ]
        self._state = state
        #: The recovery policy: ``shard_reply_timeout``,
        #: ``shard_max_restarts`` and ``shard_restart_backoff``.
        self.config = config
        self._sleep = sleep
        #: Bursts submitted and not yet collected, in submission order.
        self.tickets: "deque[Ticket]" = deque()
        self.in_flight_verdicts = 0
        #: Per-shard count of bursts dispatched — the sequence numbers
        #: fault plans key on and failure reports cite.
        self.burst_seq = [0] * len(specs)
        #: Set (to the triggering cause) once the worker processes have
        #: been swapped for an :class:`InProcessCarrier`.
        self.degraded: "str | None" = None
        #: Dropped-and-counted work owed by failed workers.
        self.dropped_bursts = 0
        self.dropped_packets = 0
        #: Replies whose echoed burst seq was already paired — duplicates
        #: discarded by the seq check, never re-delivered as verdicts.
        self.stale_replies = 0
        #: Successful + failed restart attempts, per shard.
        self.restarts = [0] * len(specs)
        #: Replay windows a failure reopened: one per resync of a shard
        #: that filters replays — a restarted worker, or each shard a
        #: degrade rebuilds — since its filter starts empty and a nonce
        #: it saw before may pass once more.
        self.replay_windows_reopened = 0
        #: ``(shard, cause)`` of the latest failures handled, for tests
        #: and post-mortems; ``failure_count`` counts every one.
        self.failures: "deque[tuple[int, str]]" = deque(maxlen=FAILURE_LOG_CAPACITY)
        self.failure_count = 0

    def install_faults(self, plan) -> None:
        """Wrap the carrier in a :class:`repro.faults.FaultCarrier` armed
        with ``plan``; ``None`` unwraps it.  A degraded plane has no
        worker process to fault and stays bare."""
        from ..faults.carrier import FaultCarrier

        carrier = self.carrier
        if isinstance(carrier, FaultCarrier):
            carrier = carrier.inner
        if plan is not None and self.degraded is None:
            carrier = FaultCarrier(plan, carrier)
        self.carrier = carrier

    def close(self) -> None:
        self.carrier.close(stop_msg=bytes([wire.MSG_STOP]))

    @property
    def closed(self) -> bool:
        return self.carrier.closed

    def check_usable(self) -> None:
        if self.closed:
            raise ShardError("data plane is closed")

    def check_idle(self, what: str) -> None:
        """Control traffic and stats reads require an empty ticket queue.

        Two reasons: the revoke-before-next-burst propagation rule is
        meaningless against bursts already on the wire, and a control
        send could block against a worker that is itself blocked
        mid-reply — the one remaining dispatcher/worker deadlock shape.
        """
        self.check_usable()
        if self.tickets:
            raise ShardError(
                f"{len(self.tickets)} bursts in flight; collect them "
                f"before {what}"
            )

    def send_to(self, shard: int, msg: bytes, what: str) -> bool:
        """Send ``msg`` to ``shard``, or charge the shard with the
        failure (``what`` names it) and answer ``False`` — by which time
        the worker has been restarted and resynced, or the plane
        degraded."""
        try:
            self.carrier.send_bytes(shard, msg)
        except ShardError as exc:
            self._shard_failed(shard, f"{what}: {exc}")
            return False
        return True

    def reply_from(self, shard: int, decode: Callable, what: str):
        """``decode`` of ``shard``'s next message, waiting at most the
        reply timeout.  A reply that is lost (death, hang, error frame)
        or undecodable is charged to the shard and answered ``None``."""
        timeout = self.config.shard_reply_timeout
        try:
            return decode(self.carrier.recv_bytes(shard, timeout=timeout))
        except ShardError as exc:
            self._shard_failed(shard, f"{what} lost: {exc}")
        except Exception as exc:  # noqa: BLE001 — any garbage is a failure
            self._shard_failed(shard, f"{what} undecodable ({exc!r})")
        return None

    def dispatch(self, ticket: Ticket, messages, cap: int) -> None:
        """Queue ``ticket`` and send its ``(shard, indices, message)``
        sub-bursts, each encoded with its shard's current
        :attr:`burst_seq` — unless that would put more than ``cap``
        verdicts in flight.

        A send failure costs only the sub-burst that never reached its
        worker: it is dropped-and-counted, the worker is restarted (or
        the plane degraded, forfeiting what this ticket already sent),
        and the rest of the burst proceeds.
        """
        self.check_usable()
        # Admission: only shard-bound packets occupy reply-pipe budget.
        # A lone burst is exempt whatever its size — with nothing else
        # outstanding the dispatcher proceeds straight to collect(), so
        # the worker's reply always has a reader (control traffic cannot
        # interleave: it requires an empty ticket queue).  This keeps
        # arbitrarily large forwarding_batch_size configurations working
        # while still bounding the *pipelined* backlog.
        worker_bound = sum(len(indices) for _, indices, _ in messages)
        if self.tickets and self.in_flight_verdicts + worker_bound > cap:
            raise ShardError(
                f"{worker_bound} shard-bound packets with "
                f"{self.in_flight_verdicts} verdicts already in flight "
                f"would exceed the cap ({cap}); "
                "collect outstanding bursts first"
            )
        self.tickets.append(ticket)
        for shard, indices, message in messages:
            ticket.pending.append((shard, indices, self.burst_seq[shard]))
            self.burst_seq[shard] += 1
            self.in_flight_verdicts += len(indices)
            self.send_to(shard, message, "burst dispatch failed mid-send")

    def replies(self, ticket: Ticket) -> "Iterator[tuple[list[int], list[Verdict]]]":
        """The head ticket's shard replies as they arrive, as ``(indices,
        verdicts)``; once exhausted the ticket is settled.

        A shard that cannot deliver its reply (death, hang past the
        reply timeout, error frame, undecodable bytes) forfeits every
        verdict it still owes — those packets are dropped-and-counted
        (``DropReason.SHARD_FAILURE``) across all in-flight tickets —
        and the worker is restarted with a state resync (or, past its
        restart budget, the plane degrades).
        """
        self.check_usable()
        if not self.tickets or self.tickets[0] is not ticket:
            raise ShardError("bursts must be collected in submission order")
        while ticket.pending:
            shard, indices, seq = ticket.pending[0]
            what = f"reply for burst #{seq}"
            reply = self.reply_from(shard, wire.decode_verdicts, what)
            if reply is None:
                continue  # charged, and ``pending`` rewritten: look again
            # The reply stream is checked, not assumed: every verdict
            # message echoes the burst seq it answers, so a reply
            # duplicated in transit (datagram replay on a real transport)
            # is recognised as stale — already paired once — and discarded
            # with a counter instead of being silently married to the
            # wrong burst.  A *future* seq, or the wrong number of
            # verdicts, can only mean dispatcher state corruption and
            # fails the shard.
            reply_seq, verdicts = reply
            if reply_seq < seq:
                self.stale_replies += 1
            elif reply_seq > seq or len(verdicts) != len(indices):
                self._shard_failed(
                    shard,
                    f"{what} lost: shard {shard} answered #{reply_seq} with "
                    f"{len(verdicts)} verdicts for a {len(indices)}-packet "
                    "sub-burst",
                )
            else:
                ticket.pending.pop(0)
                self.in_flight_verdicts -= len(indices)
                yield indices, verdicts
        self.tickets.popleft()

    def _drop_pending(self, shard: "int | None") -> None:
        """Every sub-burst still owed by ``shard`` (``None``: by anyone)
        is unrecoverable: drop and account."""
        for ticket in self.tickets:
            kept = []
            for entry in ticket.pending:
                if shard is not None and entry[0] != shard:
                    kept.append(entry)
                    continue
                for i in entry[1]:
                    ticket.verdicts[i] = _SHARD_FAILURE
                self.dropped_bursts += 1
                self.dropped_packets += len(entry[1])
                self.in_flight_verdicts -= len(entry[1])
            ticket.pending[:] = kept

    def _shard_failed(self, shard: int, cause: str) -> None:
        """One worker's reply stream is gone.  Drop everything it still
        owes (its replies can no longer be paired with requests), then
        restart it — or, once its restart budget is spent, degrade to
        in-process forwarding."""
        if self.degraded is not None:
            # In-process shards lose no frames, so this is a bug in the
            # shard code — and there is no carrier left to fall back to.
            raise ShardError(f"degraded plane, {cause}", shard=shard)
        self._log_failure(shard, cause)
        self._drop_pending(shard)
        if not self.restart(shard):
            self._degrade(f"shard {shard} unrecoverable: {cause}")

    def _log_failure(self, shard: int, cause: str) -> None:
        self.failures.append((shard, cause))
        self.failure_count += 1

    def _degrade(self, cause: str) -> None:
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
        self._drop_pending(None)
        self.degraded = cause
        self.close()  # the worker processes
        self.carrier = InProcessCarrier(self.bare_specs)
        try:
            for shard in range(len(self.bare_specs)):
                self.resync(shard)
        except Exception as exc:
            self.close()
            raise ShardError(
                f"cannot degrade ({cause}): in-process resync failed: {exc}"
            ) from exc

    def restart(self, shard: int) -> bool:
        """Try to bring ``shard`` back: kill, respawn bare, resync, ack.

        Returns ``True`` once a fresh worker acknowledged its resync;
        ``False`` when the shard's restart budget is exhausted (the
        ledger then degrades the plane).  Each attempt —
        successful or not — consumes budget, and attempts back off with
        a capped exponential delay so a crash-looping worker cannot spin
        the dispatcher.
        """
        while self.restarts[shard] < self.config.shard_max_restarts:
            attempt = self.restarts[shard]
            self.restarts[shard] += 1
            if attempt > 0:
                # Cap the multiplier, not the product: ``restarts`` is a
                # lifetime count and 2 ** 1024 no longer fits a float.
                self._sleep(
                    self.config.shard_restart_backoff
                    * min(2 ** (attempt - 1), _BACKOFF_CAP_FACTOR)
                )
            respawned = False
            try:
                self.carrier.restart(shard, self.bare_specs[shard])
                respawned = True
                self.resync(shard)
                return True
            except Exception as exc:  # noqa: BLE001 — any failure retries
                self._log_failure(shard, f"restart attempt {attempt + 1}: {exc}")
                if respawned:
                    # The respawn succeeded but the worker never got its
                    # state: it must not linger across the backoff (or
                    # past the final give-up) holding pipes and a live
                    # process.
                    self.carrier.discard_worker(shard)
        return False

    def resync(self, shard: int) -> None:
        """Replay the authoritative state into a fresh shard and wait
        for its ack (bounded by the same reply timeout as bursts)."""
        snap = self._state.shard_snapshot(self._plan, shard)
        self.carrier.send_bytes(shard, wire.encode_resync(snap))
        acked = wire.decode_resync_ack(  # refuses any other kind of reply
            self.carrier.recv_bytes(shard, timeout=self.config.shard_reply_timeout)
        )
        if acked != (snap.owned_count, snap.revoked_count):
            raise ShardError(
                f"shard {shard}: bad resync ack: acked {acked[0]} hosts/"
                f"{acked[1]} revocations, sent "
                f"{snap.owned_count}/{snap.revoked_count}",
                shard=shard,
            )
        if self.bare_specs[shard].filters_replays:
            self.replay_windows_reopened += 1
