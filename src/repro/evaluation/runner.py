"""The scenario-matrix evaluation runner.

:class:`EvaluationRunner` fixes the deployment knobs once (population
scale, seed, shard count, chaos composition) and executes any subset of
the registered adversarial cases, returning an
:class:`~repro.evaluation.report.EvaluationReport`::

    >>> from repro.evaluation import EvaluationRunner
    >>> runner = EvaluationRunner(scale=1_000, seed=7, nshards=2)
    >>> report = runner.run_all()
    >>> report.passed
    True

Every case builds its preset's world with a sharded, columnar-state
configuration (the §V-A3 data plane the invariants are about), drives
synthetic population traffic through the world's own shard pool, and
judges the run against the declared invariants — see
:mod:`repro.evaluation.cases` and :mod:`repro.evaluation.invariants`.
"""

from __future__ import annotations

from dataclasses import replace

from ..core.config import ApnaConfig
from .cases import CaseContext
from .cases import cases as _case_names
from .cases import run_case as _run_case
from .report import EvaluationReport, ScenarioReport

__all__ = ["EvaluationRunner"]


class EvaluationRunner:
    """Run registered scenario cases under one fixed deployment."""

    def __init__(
        self,
        *,
        scale: int = 1_000,
        seed: int = 7,
        nshards: int = 2,
        chaos: bool = False,
        burst_size: int = 64,
        max_sources: int = 256,
        latency_budget: float = 0.5,
        stream_flows: int = 0,
        config: "ApnaConfig | None" = None,
    ) -> None:
        if scale < 1:
            raise ValueError("scale must be at least 1")
        if nshards < 2:
            raise ValueError(
                "the evaluation runner exercises the sharded data plane; "
                "nshards must be >= 2"
            )
        if burst_size < 1:
            raise ValueError("burst_size must be at least 1")
        base = config or ApnaConfig()
        #: Chaos-grade supervision (mirrors the fault suite's policy):
        #: quick hang detection, an effectively unlimited restart budget
        #: and minimal backoff, so storms exercise recovery rather than
        #: degradation.
        self.config = replace(
            base,
            forwarding_shards=nshards,
            shard_reply_timeout=0.4,
            shard_max_restarts=10_000,
            shard_restart_backoff=0.001,
        )
        self.context = CaseContext(
            scale=scale,
            seed=seed,
            nshards=nshards,
            chaos=chaos,
            burst_size=burst_size,
            max_sources=max_sources,
            latency_budget=latency_budget,
            stream_flows=stream_flows,
            config=self.config,
        )

    @staticmethod
    def case_names() -> "list[str]":
        """The registered case names (== their scenario preset names)."""
        return _case_names()

    def run(self, name: str) -> ScenarioReport:
        """Execute one case; ``name`` is a registered preset name."""
        return _run_case(name, self.context)

    def run_all(self, names: "list[str] | None" = None) -> EvaluationReport:
        """Execute the whole matrix (or the named subset), in order."""
        selected = names if names is not None else self.case_names()
        return EvaluationReport([self.run(name) for name in selected])
