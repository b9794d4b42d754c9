"""Deterministic fault schedules for the sharded data plane.

A :class:`FaultPlan` maps ``(shard, burst_seq)`` — the *n*-th burst the
dispatcher sends to a given worker shard — to one :class:`Fault`.  The
plan is consulted by the :class:`repro.faults.FaultCarrier` that
:meth:`repro.sharding.ShardedDataPlane.install_faults` wraps around the
plane's worker pool, so a fault fires at exactly the same point of the
packet stream on every run with the same plan: chaos testing without
the chaos.

Fault kinds, and the failure they model:

``kill``
    The worker process is SIGKILLed (and reaped) just before the burst
    is sent — an OOM kill, a segfault, an operator ``kill -9``.  The
    send hits a widowed pipe and fails deterministically.
``hang``
    The burst message is swallowed: the worker stays alive but never
    sees the request, so it never replies — a worker stuck in a lock or
    an unbounded syscall.  Only the bounded reply timeout can catch it.
``error``
    The burst message is truncated so the worker's decoder raises and
    it answers with an error frame — a poisoned request, a worker-side
    bug.
``garbage``
    The worker's (real) reply is replaced by undecodable bytes — frame
    corruption on the transport.
``delay``
    The dispatcher sleeps ``delay`` seconds before reading the reply —
    benign scheduling jitter.  A supervised plane must absorb delays
    shorter than its reply timeout with **no** recovery action; this is
    the false-positive check of the suite.
``drop``
    The worker's reply is lost in transit: the worker computed and sent
    it, but the dispatcher never sees it — a dropped datagram on the
    socket transports the ROADMAP points at.  The bounded wait is
    charged immediately (no real sleep), so recovery follows exactly
    the timeout path: the sub-burst is dropped-and-counted and the
    worker restarted.
``duplicate``
    The worker's reply arrives **twice**: once normally, and again
    (stale) ahead of the shard's next real reply — datagram replay on
    the transport.  Benign by construction: every reply echoes its
    burst seq, so the stale copy is discarded by the dispatcher's seq
    check (counted in ``stats()["stale_replies"]``) with no drops and
    no restarts — the duplicate analogue of ``delay``'s false-positive
    bar.

Every consulted injection is appended to :attr:`FaultPlan.injected`
(``(shard, seq, kind)``), so a test can assert that the storm it asked
for is the storm it got.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Mapping

__all__ = [
    "FAULT_KINDS",
    "Fault",
    "FaultPlan",
    "crash_storm_plan",
]

#: Recognised fault kinds, in the order :func:`crash_storm_plan` cycles
#: through them.
FAULT_KINDS = ("kill", "hang", "error", "garbage", "delay", "drop", "duplicate")


@dataclass(frozen=True)
class Fault:
    """One scheduled fault; ``delay`` only matters for kind ``delay``."""

    kind: str
    delay: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; one of {FAULT_KINDS}"
            )
        if self.delay < 0:
            raise ValueError(f"delay must be >= 0, got {self.delay}")


class FaultPlan:
    """A deterministic ``(shard, burst_seq) -> Fault`` schedule."""

    def __init__(
        self, faults: "Mapping[tuple[int, int], Fault | str] | None" = None
    ) -> None:
        self._faults: "dict[tuple[int, int], Fault]" = {}
        for key, fault in (faults or {}).items():
            self.add(key[0], key[1], fault)
        #: ``(shard, seq, kind)`` log of every fault actually injected.
        self.injected: "list[tuple[int, int, str]]" = []

    def add(self, shard: int, seq: int, fault: "Fault | str") -> "FaultPlan":
        if isinstance(fault, str):
            fault = Fault(fault)
        self._faults[(shard, seq)] = fault
        return self

    def fault_for(self, shard: int, seq: int) -> "Fault | None":
        """The fault scheduled for burst ``seq`` of ``shard``, if any."""
        return self._faults.get((shard, seq))

    def mark_injected(self, shard: int, seq: int, kind: str) -> None:
        self.injected.append((shard, seq, kind))

    def schedule(self) -> "list[tuple[int, int, Fault]]":
        """The full schedule, sorted — for reproducibility assertions."""
        return sorted(
            (shard, seq, fault) for (shard, seq), fault in self._faults.items()
        )

    def __len__(self) -> int:
        return len(self._faults)

    def __repr__(self) -> str:
        kinds: dict[str, int] = {}
        for fault in self._faults.values():
            kinds[fault.kind] = kinds.get(fault.kind, 0) + 1
        summary = ", ".join(f"{k}={n}" for k, n in sorted(kinds.items()))
        return f"<FaultPlan {len(self._faults)} faults ({summary or 'empty'})>"


def crash_storm_plan(
    nshards: int,
    bursts: int,
    *,
    seed: int = 0,
    rate: float = 0.08,
    kinds: "Iterable[str]" = FAULT_KINDS,
    delay: float = 0.01,
    spare_first: int = 2,
) -> FaultPlan:
    """A seeded storm: every burst slot of every shard draws a fault
    with probability ``rate``, cycling kinds through a shuffled deck so
    each kind appears (the ``crash-storm`` scenario's schedule).

    ``spare_first`` keeps the opening bursts clean so a run always
    establishes a healthy baseline before the weather starts;
    ``delay`` is the sleep for ``delay`` faults.  Same arguments, same
    storm — byte for byte.
    """
    if not 0 <= rate <= 1:
        raise ValueError(f"rate must be within [0, 1], got {rate}")
    kinds = tuple(kinds)
    if not kinds:
        raise ValueError("kinds must not be empty")
    rng = random.Random(seed)
    plan = FaultPlan()
    deck: "list[str]" = []
    for shard in range(nshards):
        for seq in range(spare_first, bursts):
            if rng.random() >= rate:
                continue
            if not deck:
                deck = list(kinds)
                rng.shuffle(deck)
            kind = deck.pop()
            plan.add(shard, seq, Fault(kind, delay=delay if kind == "delay" else 0.0))
    return plan
