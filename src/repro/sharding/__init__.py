"""Multi-process sharding of the APNA data plane and MS (paper §V-A3).

The paper's performance numbers come from share-nothing process
parallelism: four MS processes with "no coordination", and a DPDK border
router whose verdicts are computed per burst.  This package combines the
two — persistent worker processes, each owning the state for an HID
range, fed one burst-sized batch of packed wire frames per IPC message:

* :mod:`~repro.sharding.plan` — HID -> shard ownership and the keyed
  IV -> shard map that lets a dispatcher route without decrypting *and*
  without leaking: EphID IVs are pinned at issuance so that
  ``CMAC_kR(iv) % nshards`` (under the AS-internal routing key ``kR``)
  lands on the owner shard, so the clear IV bytes carry no cross-EphID
  linkage an observer could check;
* :mod:`~repro.sharding.wire` — the binary pipe protocol (bursts in,
  verdict vectors out; revocations and registrations between, batched
  per shard as ``MSG_CONTROL`` rows; full-state resync frames for
  restarted workers);
* :mod:`~repro.sharding.worker` — one shard: a real
  :class:`~repro.core.border_router.BorderRouter` over local sharded
  state, and the whole worker protocol (:meth:`ShardState.handle`);
* :mod:`~repro.sharding.pool` — :class:`ShardedDataPlane`, the
  dispatcher (route, pack, sequence, merge — and nothing else), over a
  carrier of worker messages it is handed, and the process one, the
  generic :class:`ShardProcessPool`;
* :mod:`~repro.sharding.supervisor` — :class:`ShardSupervisor`, the
  dispatcher's ledger and the one owner of the carrier, the recovery
  policy (the ``ApnaConfig`` it is handed: its three ``shard_*``
  options, checked at construction), the in-flight tickets and every
  failure charge: crash/hang detection,
  restart with state resync, the degradation decision and the
  in-process carrier it degrades to;
* :mod:`~repro.sharding.issuance` — E1's share-nothing MS measurement
  on the same scaffolding.

Enable it deployment-wide with ``ApnaConfig(forwarding_shards=N)`` (plus
a burst size, ``forwarding_batch_size``), passed as ``config=`` to
``WorldBuilder`` or ``scenarios.build``.  The plane is then the AS's
only data plane: a sharded AS builds no in-line router.

Fault model & recovery semantics
--------------------------------

The plane assumes workers can die (OOM kill, segfault, operator
``kill -9``) or hang (stuck lock, unbounded syscall, ``SIGSTOP``) at any
moment, and that a pipe can deliver an error frame or garbage instead of
a reply.  Every wait on a worker is bounded by
``ApnaConfig.shard_reply_timeout`` — the wait for a reply, and the wait
for room in the socket buffer of a worker that has stopped reading
(``SO_SNDTIMEO`` on the dispatcher's end of each pipe): a dead worker
surfaces immediately as pipe EOF, a hung one as a timeout, whichever way
the dispatcher was talking.  One place reacts: the dispatcher hands
every send and every reply wait to its ledger
(:class:`ShardSupervisor`), which charges the failure and recovers
before it answers.  What happens next, in order:

1. **Drop-and-count, never guess.**  Every verdict the failed worker
   still owes — across all in-flight bursts — is answered with
   ``Action.DROP`` / ``DropReason.SHARD_FAILURE`` and tallied in
   ``stats()`` (``shard-failure``, ``dropped_bursts``,
   ``dropped_packets``).  Verdicts for packets the failure did not touch
   are exact; no reply is ever paired with the wrong burst (each restart
   replaces the pipe, discarding any stale queued replies).

2. **Restart with resync.**  The worker is respawned from a *bare* spec
   and the authoritative AS state is replayed into it in one
   ``MSG_RESYNC`` frame before traffic resumes.  What survives exactly:
   the shard's owned host records and MAC keys, the replicated live-HID
   view, and the revocation list — all reread from the AS's own
   ``host_info`` / ``revoked_ids`` columns at restart time, so even an
   update whose control batch died in the queue, mid-send or unread on
   the wire arrives via the resync (the stores are written before the
   hook queues the row; a batch the fresh worker is sent as well
   re-applies idempotently).
   What does not survive: the shard's **replay-filter history** (packets
   first seen up to one rotation window before the crash may pass once
   more — the same bounded two-window horizon the filter itself
   guarantees, restarted; ``stats()`` counts each such reopening as
   ``replay_windows_reopened``, one per restarted shard that filters
   replays and one per such shard a degrade rebuilds) and the shard's
   **verdict counters** (the supervision ledger in ``stats()`` keeps
   its own).  Restart attempts back off exponentially
   (``shard_restart_backoff``, capped) and each shard has a lifetime
   budget of ``shard_max_restarts`` attempts.

3. **Degrade, don't refuse.**  A shard that exhausts its budget ends the
   pooled plane: the workers are stopped and the *same* N shards are
   rebuilt in the dispatcher's process
   (:class:`~repro.sharding.supervisor.InProcessCarrier`), each resynced
   by step 2's ``MSG_RESYNC`` exchange.  Routing, sequencing, control
   frames and ``shard_stats()`` (counting from the degrade) run
   unchanged and verdicts stay exact; ``stats()`` reports
   ``degraded: 1`` and ``closed`` still means closed.  The price: one
   snapshot + resync per shard when degrading, the replicas' memory
   moves into the dispatcher, and a degraded burst pays the wire codec
   like any other.  A state that cannot be snapshotted closes the plane
   with :class:`ShardError`; a later carrier error can only be a bug and
   propagates as one — there is nothing left to fall back to.  (The
   carrier is the plane's first constructor argument, so the same
   in-process shards can also be what a plane is *built* on.)

**Derived per-host state follows the keys.**  Beside the replica, a
shard's router keeps one derived thing per source host: the CMAC context
built from its kHA (a bounded LRU, see :mod:`repro.core.border_router`).
A resync rebuilds the router, so nothing derived survives one.  Between
resyncs the replica's keys can change under a warm context — a
``MSG_REGISTER_HOST`` for an owned HID the shard already holds overwrites
its key row — and until PR 20 the context survived that: the shard went
on *forwarding* frames MAC'd with the old kHA and dropped the re-keyed
host's real ones as ``BAD_MAC``.  Now the register arm (owned) and the
``MSG_REVOKE_HID`` arm both call ``BorderRouter.forget_host``: a context
never outlives the key it was built from, and a revoked host's key
material leaves the router with the revocation
(``tests/test_first_contact.py``, and ``tests/test_sharding.py`` on both
carriers).

:mod:`repro.faults` drives every one of these paths deterministically;
``tests/test_sharding_faults.py`` pins the semantics.
"""

from .issuance import run_issuance_shards, split_requests
from .plan import ShardPlan
from .pool import ShardError, ShardProcessPool, ShardTimeout, ShardedDataPlane
from .supervisor import ShardStateSource, ShardSupervisor
from .worker import ShardSpec, ShardState, data_plane_worker

__all__ = [
    "ShardError",
    "ShardPlan",
    "ShardProcessPool",
    "ShardSpec",
    "ShardState",
    "ShardStateSource",
    "ShardSupervisor",
    "ShardTimeout",
    "ShardedDataPlane",
    "data_plane_worker",
    "run_issuance_shards",
    "split_requests",
]
