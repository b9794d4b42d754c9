"""Worker supervision: crash/hang detection, restart with state resync,
and the degradation decision.

A desynchronised reply stream must never mispair verdicts with packets,
but a production AS cannot rebuild its data plane by hand every time one
process dies either.  This module supplies the layers between a worker
failure and the plane giving up on its pool:

1. **Detection** — every reply wait is a bounded ``Connection.poll``
   plus a ``Process.is_alive`` liveness probe (see
   :meth:`repro.sharding.pool.ShardProcessPool.recv_bytes`), so a dead
   worker surfaces as an immediate pipe EOF and a hung one as a timeout,
   never as a dispatcher wedged forever.
2. **Recovery** — :meth:`ShardSupervisor.restart` kills the failed
   worker, spawns a fresh one from a *bare* spec (keys and deployment
   config only, no state) and replays the authoritative AS state into it
   over the existing wire protocol: one :data:`repro.sharding.wire.
   MSG_RESYNC` frame carrying the shard's owned host records, the
   replicated live-HID view and the revocation snapshot, acknowledged by
   the worker before any traffic resumes.  Attempts back off with a
   capped exponential delay.
3. **Degradation** — once a shard exhausts its restart budget
   (:attr:`SupervisorPolicy.max_restarts`), the plane stops gambling on
   processes: it swaps its carrier for the same shards run in the
   dispatcher's own process, hands each the same :meth:`resync
   <ShardSupervisor.resync>` a restarted worker gets, and keeps serving
   verdicts (flagged ``degraded`` in ``stats()``).

What survives a restart and what does not is part of the contract (see
the package docstring's fault-model section): host records and
revocations are replayed from the authoritative copies, so they survive
exactly; the shard's replay-filter history and its verdict counters die
with the process.  Verdicts owed by the failed worker are *dropped and
counted* (``Action.DROP`` / ``DropReason.SHARD_FAILURE``), never
guessed — the reply stream restarts clean on the fresh pipe, so no
later burst can inherit an earlier burst's verdicts.
"""

from __future__ import annotations

import dataclasses
import time
from typing import TYPE_CHECKING, Callable

from . import wire

if TYPE_CHECKING:  # pragma: no cover
    from .plan import ShardPlan
    from .worker import ShardSpec

__all__ = ["ShardStateSource", "SupervisorPolicy", "ShardSupervisor"]

#: Restart backoff is capped at this multiple of the base delay.
_BACKOFF_CAP_FACTOR = 50


@dataclasses.dataclass(frozen=True)
class SupervisorPolicy:
    """The recovery knobs, mirrored from :class:`repro.core.config.
    ApnaConfig`'s ``shard_*`` fields (see there for semantics)."""

    reply_timeout: float = 5.0
    max_restarts: int = 3
    restart_backoff: float = 0.05

    def __post_init__(self) -> None:
        if self.reply_timeout <= 0:
            raise ValueError(
                f"reply_timeout must be > 0, got {self.reply_timeout}"
            )
        if self.max_restarts < 0:
            raise ValueError(
                f"max_restarts must be >= 0, got {self.max_restarts}"
            )
        if self.restart_backoff < 0:
            raise ValueError(
                f"restart_backoff must be >= 0, got {self.restart_backoff}"
            )

    @classmethod
    def from_config(cls, config) -> "SupervisorPolicy":
        return cls(
            reply_timeout=config.shard_reply_timeout,
            max_restarts=config.shard_max_restarts,
            restart_backoff=config.shard_restart_backoff,
        )


class ShardStateSource:
    """Live references to the AS's authoritative state, from which any
    shard's view can be rebuilt at any moment.

    The plane's construction-time snapshot is only the *initial* worker
    state; everything since (registrations, revocations) reached the
    workers as incremental control frames.  A restarted worker needs the
    *current* state, so the supervisor reads it fresh from the same
    objects the control hooks mutate — ``hostdb`` and ``revocations``
    are the :class:`~repro.state.ColumnarHostDatabase` and
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


class ShardSupervisor:
    """Restart bookkeeping + the resync protocol for one worker pool."""

    def __init__(
        self,
        carrier,
        plan: "ShardPlan",
        specs: "list[ShardSpec]",
        state: ShardStateSource,
        policy: SupervisorPolicy,
        *,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        #: Where worker messages go; the plane swaps it when it degrades
        #: and wraps it for fault injection.
        self.carrier = carrier
        self._plan = plan
        #: Bare per-shard specs: the original specs stripped of state, so
        #: a respawned worker starts empty and MSG_RESYNC is the single
        #: source of its state.
        self.bare_specs = [
            dataclasses.replace(spec, snapshot=b"") for spec in specs
        ]
        self._state = state
        self.policy = policy
        self._sleep = sleep
        #: Successful + failed restart attempts, per shard.
        self.restarts = [0] * len(specs)
        self.total_restarts = 0
        #: ``(shard, cause)`` log of every failure handled, for tests and
        #: post-mortems.
        self.failures: "list[tuple[int, str]]" = []

    def record_failure(self, shard: int, cause: str) -> None:
        self.failures.append((shard, cause))

    def restart(self, shard: int) -> bool:
        """Try to bring ``shard`` back: kill, respawn bare, resync, ack.

        Returns ``True`` once a fresh worker acknowledged its resync;
        ``False`` when the shard's restart budget is exhausted (the
        caller then degrades the plane).  Each attempt —
        successful or not — consumes budget, and attempts back off with
        a capped exponential delay so a crash-looping worker cannot spin
        the dispatcher.
        """
        while self.restarts[shard] < self.policy.max_restarts:
            attempt = self.restarts[shard]
            self.restarts[shard] += 1
            self.total_restarts += 1
            if attempt > 0:
                # Cap the multiplier, not the product: ``restarts`` is a
                # lifetime count and 2 ** 1024 no longer fits a float.
                self._sleep(
                    self.policy.restart_backoff
                    * min(2 ** (attempt - 1), _BACKOFF_CAP_FACTOR)
                )
            try:
                self.carrier.restart(shard, self.bare_specs[shard])
            except Exception as exc:  # noqa: BLE001 — any failure retries
                self.record_failure(shard, f"restart attempt {attempt + 1}: {exc}")
                continue
            try:
                self.resync(shard)
                return True
            except Exception as exc:  # noqa: BLE001 — any failure retries
                self.record_failure(shard, f"restart attempt {attempt + 1}: {exc}")
                # The respawn succeeded but the worker never got its
                # state: it must not linger across the backoff (or past
                # the final give-up) holding pipes and a live process.
                self.carrier.discard_worker(shard)
        return False

    def resync(self, shard: int) -> None:
        """Replay the authoritative state into a fresh shard and wait
        for its ack (bounded by the same reply timeout as bursts)."""
        snap = self._state.shard_snapshot(self._plan, shard)
        self.carrier.send_bytes(shard, wire.encode_resync(snap))
        reply = self.carrier.recv_bytes(
            shard, timeout=self.policy.reply_timeout
        )
        if not reply or reply[0] != wire.MSG_RESYNC_ACK:
            kind = reply[0] if reply else None
            raise wire_ack_error(shard, kind)
        acked_owned, acked_revoked = wire.decode_resync_ack(reply)
        if acked_owned != snap.owned_count or acked_revoked != snap.revoked_count:
            raise wire_ack_error(
                shard,
                wire.MSG_RESYNC_ACK,
                detail=(
                    f"acked {acked_owned} hosts/{acked_revoked} revocations, "
                    f"sent {snap.owned_count}/{snap.revoked_count}"
                ),
            )


def wire_ack_error(shard: int, kind, *, detail: str = ""):
    from .pool import ShardError

    message = f"shard {shard}: bad resync ack (message kind {kind})"
    if detail:
        message = f"{message}: {detail}"
    return ShardError(message, shard=shard)
