"""Tier-1 coverage of :mod:`repro.evaluation` (the PR 10 scenario pack).

Four layers:

1. **Latency histogram** — the :mod:`repro.metrics.timing` measurement
   substrate the bounded-latency invariant stands on (conservative
   upper-edge percentiles, merge, snapshot).
2. **Runner machinery** — the case registry, constructor validation,
   report emission (text + JSON round-trip), the CLI.
3. **Nominal matrix** — every registered case runs green at small
   scale: no false drops, exact accounting, bounded latency, plus each
   scenario's own exactness arithmetic.
4. **Acceptance** — every case at ``metro``-class scale (100k-host
   population) with all invariants green, and a chaos-composed run
   where every lost packet is exactly accounted.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.evaluation import EvaluationRunner
from repro.metrics import LatencyHistogram
from repro.metrics.timing import Timer

ROOT = Path(__file__).resolve().parent.parent

#: Every evaluation case, spelled the way a runner caller would.
CASES = (
    "flash-crowd",
    "revocation-wave",
    "migration",
    "shutoff-storm",
    "churn",
)


# --------------------------------------------------------------------------
# 1. The latency histogram


def test_histogram_percentiles_are_conservative():
    hist = LatencyHistogram()
    samples = [0.001 * (i + 1) for i in range(100)]
    for sample in samples:
        hist.record(sample)
    assert hist.count == 100
    # Log-bucketed upper edges: every percentile bounds the true value
    # from above, and the order statistics stay ordered.
    assert hist.p50 >= sorted(samples)[49]
    assert hist.p99 >= sorted(samples)[98]
    assert hist.p50 <= hist.p99 <= hist.max
    assert hist.max >= samples[-1]


def test_histogram_merge_equals_combined_stream():
    left, right, both = LatencyHistogram(), LatencyHistogram(), LatencyHistogram()
    for i in range(50):
        sample = 0.0003 * (i + 1)
        (left if i % 2 else right).record(sample)
        both.record(sample)
    left.merge(right)
    assert left.count == both.count
    assert left.p50 == both.p50
    assert left.p99 == both.p99
    assert left.snapshot() == both.snapshot()


def test_histogram_snapshot_shape():
    hist = LatencyHistogram()
    assert hist.p99 == 0.0 and hist.count == 0
    hist.record(0.004)
    snap = hist.snapshot()
    assert set(snap) == {"samples", "mean_ms", "p50_ms", "p99_ms", "max_ms"}
    assert snap["samples"] == 1
    assert snap["p99_ms"] >= 4.0


def test_timer_records_elapsed():
    with Timer() as timer:
        sum(range(1000))
    assert timer.elapsed > 0.0


# --------------------------------------------------------------------------
# 2. Runner machinery


def test_case_registry_matches_scenario_registry():
    assert sorted(EvaluationRunner.case_names()) == sorted(CASES)


def test_runner_validates_its_knobs():
    with pytest.raises(ValueError, match="scale"):
        EvaluationRunner(scale=0)
    with pytest.raises(ValueError, match="nshards"):
        EvaluationRunner(nshards=1)
    with pytest.raises(ValueError, match="burst_size"):
        EvaluationRunner(burst_size=0)
    with pytest.raises(ValueError, match="unknown case"):
        EvaluationRunner(scale=8).run("no-such-case")


def _small_runner(**overrides):
    knobs = dict(scale=48, seed=7, nshards=2, burst_size=16, max_sources=48)
    knobs.update(overrides)
    return EvaluationRunner(**knobs)


def test_report_emission_round_trips():
    report = _small_runner().run_all(["flash-crowd"])
    assert report.passed
    (scenario,) = report.reports
    assert scenario.preset == "flash-crowd"
    text = report.render_text()
    assert "flash-crowd" in text and "[PASS]" in text and "[FAIL]" not in text
    payload = json.loads(report.to_json())
    assert payload["passed"] is True
    (entry,) = payload["scenarios"]
    assert entry["packets"] == entry["delivered"] + entry["dropped"]
    assert entry["latency"]["p99_ms"] > 0.0
    assert all(item["passed"] for item in entry["invariants"])


def test_cli_runs_and_writes_json(tmp_path):
    out = tmp_path / "report.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.evaluation",
            "--scale",
            "40",
            "--json",
            str(out),
            "flash-crowd",
        ],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=env,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "[PASS]" in result.stdout
    payload = json.loads(out.read_text())
    assert payload["passed"] is True


# --------------------------------------------------------------------------
# 3. The nominal matrix, small scale


@pytest.mark.parametrize("name", CASES)
def test_nominal_invariants_hold(name):
    report = _small_runner().run(name)
    failed = [inv.render() for inv in report.invariants if not inv.passed]
    assert not failed, "\n".join(failed)
    assert report.packets > 0
    assert report.delivered + report.dropped == report.packets


def test_flash_crowd_stream_arm_delivers():
    report = _small_runner(stream_flows=6).run("flash-crowd")
    assert report.passed
    assert any(inv.name == "stream-delivery" for inv in report.invariants)


def test_churn_always_composes_a_crash_storm():
    runner = _small_runner()
    report = runner.run("churn")
    assert report.passed
    names = {inv.name for inv in report.invariants}
    assert {"storm-activity", "convergence"} <= names
    assert report.notes["faults_injected"] > 0
    # ... and is judged against a storm's latency budget, though this
    # runner's own chaos flag is off: a restart-and-resync burst is part
    # of what churn always runs.
    ctx = runner.context
    assert not ctx.chaos
    assert ctx.latency_bound(True) > ctx.latency_bound(False) == ctx.latency_budget
    latency = next(
        inv for inv in report.invariants if inv.name == "bounded-latency"
    )
    assert f"budget {ctx.latency_bound(True) * 1e3:.0f}ms" in latency.detail


# --------------------------------------------------------------------------
# 4. Acceptance: metro-class populations and chaos accounting

METRO_SCALE = 100_000


@pytest.mark.parametrize("name", CASES)
def test_acceptance_metro_scale_invariants_green(name):
    """Each case at a 100k-host population, all green."""
    report = EvaluationRunner(scale=METRO_SCALE, seed=7, nshards=2).run(name)
    failed = [inv.render() for inv in report.invariants if not inv.passed]
    assert not failed, "\n".join(failed)
    assert report.population == METRO_SCALE


def test_acceptance_chaos_accounts_every_lost_packet():
    """ISSUE 10 gate: under a FaultPlan storm, losses are exact."""
    runner = EvaluationRunner(
        scale=METRO_SCALE, seed=11, nshards=2, chaos=True
    )
    report = runner.run("revocation-wave")
    failed = [inv.render() for inv in report.invariants if not inv.passed]
    assert not failed, "\n".join(failed)
    accounting = next(
        inv for inv in report.invariants if inv.name == "exact-accounting"
    )
    assert accounting.passed
    # The storm really fired and the ledger charged exactly the losses.
    failures = report.drop_reasons.get("shard-failure", 0)
    assert failures > 0
    assert report.delivered + report.dropped == report.packets
