"""Deterministic fault injection for the self-healing shard data plane.

The supervision machinery of :mod:`repro.sharding` (bounded reply
waits, worker restart with state resync, graceful degradation) is only
trustworthy if every one of its paths is driven on purpose, repeatably
— not discovered by luck when a CI box hiccups.  This package is that
driver:

* :class:`FaultPlan` — a seeded ``(shard, burst_seq) -> Fault``
  schedule;
* :class:`FaultCarrier` — the plan armed: it wraps a plane's carrier of
  worker messages (:meth:`repro.sharding.ShardedDataPlane.install_faults`);
* :class:`Fault` — one scheduled failure: worker ``kill``, silent
  ``hang``, worker-side ``error`` frame, ``garbage`` reply bytes, a
  reply lost in transit (``drop``), or — the two benign kinds — a reply
  ``delay`` or ``duplicate``;
* :func:`crash_storm_plan` — the ``crash-storm`` scenario's schedule: a
  seeded storm mixing every kind across a run of bursts.

Pair a plan with the ``crash-storm`` scenario preset
(``repro.scenarios.build("crash-storm:4", config=...)``) for a world
sized for chaos runs; ``tests/test_sharding_faults.py`` holds the
acceptance suite that pins verdict-stream integrity under storms.
"""

from .carrier import FaultCarrier
from .plan import FAULT_KINDS, Fault, FaultPlan, crash_storm_plan

__all__ = ["FAULT_KINDS", "Fault", "FaultCarrier", "FaultPlan", "crash_storm_plan"]
