"""Report objects for the scenario-matrix evaluation runner.

Three layers, smallest first:

* :class:`InvariantResult` — one pass/fail check with a human-readable
  detail line (what was measured, against what bound);
* :class:`ScenarioReport` — one preset run: traffic tallies, the
  per-``DropReason`` ledger, the latency snapshot and every invariant
  verdict;
* :class:`EvaluationReport` — the whole matrix, renderable as JSON (for
  machines/snapshots) or a plain-text table (for humans).

Reports never decide anything — :mod:`repro.evaluation.invariants`
produces the verdicts; these classes only carry and render them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ..metrics import format_table

__all__ = ["EvaluationReport", "InvariantResult", "ScenarioReport"]


@dataclass(frozen=True)
class InvariantResult:
    """One declared invariant's verdict for one scenario run."""

    name: str
    passed: bool
    detail: str = ""

    def render(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        line = f"[{mark}] {self.name}"
        return f"{line}: {self.detail}" if self.detail else line


@dataclass
class ScenarioReport:
    """Everything one preset run produced, verdicts included."""

    preset: str
    population: int
    sources: int
    seed: int
    nshards: int
    chaos: bool
    packets: int = 0
    delivered: int = 0
    dropped: int = 0
    #: ``DropReason.value`` -> count, exact accounting for every drop.
    drop_reasons: dict[str, int] = field(default_factory=dict)
    #: :meth:`repro.metrics.LatencyHistogram.snapshot` of burst latency.
    latency: dict[str, float] = field(default_factory=dict)
    invariants: list[InvariantResult] = field(default_factory=list)
    #: Free-form scenario facts (revoked counts, accepted shutoffs, ...).
    notes: dict[str, object] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        """True iff every declared invariant held."""
        return all(result.passed for result in self.invariants)

    def failures(self) -> list[InvariantResult]:
        return [result for result in self.invariants if not result.passed]

    def to_dict(self) -> dict:
        return {
            "preset": self.preset,
            "population": self.population,
            "sources": self.sources,
            "seed": self.seed,
            "nshards": self.nshards,
            "chaos": self.chaos,
            "packets": self.packets,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "drop_reasons": dict(sorted(self.drop_reasons.items())),
            "latency": self.latency,
            "passed": self.passed,
            "invariants": [
                {"name": r.name, "passed": r.passed, "detail": r.detail}
                for r in self.invariants
            ],
            "notes": {key: self.notes[key] for key in sorted(self.notes)},
        }

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    def render_text(self) -> str:
        lines = [
            f"scenario {self.preset}  "
            f"(population={self.population}, sources={self.sources}, "
            f"shards={self.nshards}, seed={self.seed}"
            f"{', chaos' if self.chaos else ''})",
            f"  packets={self.packets} delivered={self.delivered} "
            f"dropped={self.dropped}",
        ]
        if self.drop_reasons:
            ledger = ", ".join(
                f"{reason}={count}"
                for reason, count in sorted(self.drop_reasons.items())
            )
            lines.append(f"  drops: {ledger}")
        if self.latency:
            lines.append(
                "  latency: p50={p50_ms:.3f}ms p99={p99_ms:.3f}ms "
                "max={max_ms:.3f}ms over {samples:.0f} bursts".format(
                    **self.latency
                )
            )
        for name in sorted(self.notes):
            lines.append(f"  {name}: {self.notes[name]}")
        for result in self.invariants:
            lines.append(f"  {result.render()}")
        return "\n".join(lines)


@dataclass
class EvaluationReport:
    """The full scenario matrix: one :class:`ScenarioReport` per preset."""

    reports: list[ScenarioReport] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(report.passed for report in self.reports)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "scenarios": [report.to_dict() for report in self.reports],
        }

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    def render_text(self) -> str:
        rows = []
        for report in self.reports:
            rows.append(
                (
                    report.preset,
                    report.packets,
                    report.delivered,
                    report.dropped,
                    "{p99_ms:.3f}".format(**report.latency)
                    if report.latency
                    else "-",
                    "ok" if report.passed else "FAIL",
                )
            )
        table = format_table(
            ("scenario", "packets", "delivered", "dropped", "p99 ms", "verdict"),
            rows,
        )
        sections = [table]
        for report in self.reports:
            sections.append("")
            sections.append(report.render_text())
        return "\n".join(sections)
