"""Invariant-checked evaluation of adversarial and churn scenarios.

The robustness counterpart of :mod:`repro.experiments`: where the
experiment scripts reproduce the paper's *performance* figures, this
package proves the deployment keeps its *correctness* promises while
being attacked, revoked, migrated and crash-stormed.  One runner
(:class:`EvaluationRunner`) executes a matrix of scenario presets
against declared pass/fail invariants and emits per-scenario JSON/text
reports.

Preset matrix (each name is a :mod:`repro.scenarios` preset; ``N``
takes ``k``/``M`` suffixes and sets the bulk-registered population):

===================  =====================================================
``flash-crowd:N``    every cold source transmits at once through the
                     sharded border (§V-B verification budget); optional
                     ``TrafficProfile(stream=True)`` protocol-level arm
``revocation-wave:N``  rolling slices of sources revoked between bursts
                     that keep using them (§IV-D shutoff end state)
``migration:N``      sources deregistered at one AS and re-admitted at
                     the peer (§V-A2 registry lifecycle under churn)
``shutoff-storm:N``  a transit AS floods Fig. 5 on-path shutoff
                     complaints via :mod:`repro.pathval.shutoff_ext`
``churn:N``          flash-crowd traffic with a
                     :func:`repro.faults.crash_storm_plan` armed on the
                     data plane — the fault-composition layer
===================  =====================================================

Invariants (see :mod:`repro.evaluation.invariants`):

* **no-false-drops** — every delivered verdict equals the
  single-process oracle router's; nominal runs lose nothing at all;
* **exact-accounting** — delivered + failed == offered, with the
  plane's ledger charging exactly the failed packets to
  ``DropReason.SHARD_FAILURE``;
* **bounded-latency** — p99 per-burst wall latency under the scenario
  budget (:class:`repro.metrics.LatencyHistogram`);
* **convergence** — after a storm ends, a probe round is failure-free
  and oracle-exact again;
* plus per-scenario exactness checks (revocation/migration/shutoff
  arithmetic derived from first principles).

Adding a preset
---------------

1. Register the topology shape in :mod:`repro.scenarios` with
   ``@scenarios.register("name", description=...)``.
2. Register the driver here with ``@cases.case("name")`` — build the
   world via ``scenarios.build(f"name:{ctx.scale}", ...)``, drive the
   plane, return a :class:`ScenarioReport` whose ``invariants`` list is
   filled (reuse ``_core_invariants`` for the shared families).
3. Reference the preset name in a test — the ``scenario-coverage``
   analysis rule fails any registered preset no test exercises — and
   add it to the preset matrix in ``tests/test_evaluation.py``.

CLI: ``python -m repro.evaluation --scale 10k flash-crowd churn``.
"""

from .cases import CaseContext, ScenarioCase, case, cases, run_case
from .report import EvaluationReport, InvariantResult, ScenarioReport
from .runner import EvaluationRunner

__all__ = [
    "CaseContext",
    "EvaluationReport",
    "EvaluationRunner",
    "InvariantResult",
    "ScenarioCase",
    "ScenarioReport",
    "case",
    "cases",
    "run_case",
]
