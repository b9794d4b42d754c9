"""Command line: generate, run, check, report.

``--trace 0`` (default) measures the end-to-end metrics: every selected
workload runs at least ``MIN_REPEATS`` repeats, interleaved with the
others (A B C D, A B C D, ...), each on a world rebuilt from the seed,
every timing calibrated by the work clock (``measure.py``).  ``--trace 1`` makes
the traced run instead and reports the per-layer metrics.  Either way
every verdict is compared with the generator's ground truth, the first
64 bursts are re-judged by the scalar oracle, and the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

from repro.crypto import active_backend

from . import engine, load_contract, trace
from .measure import WorkClock, summary
from .traffic import FULL, GENERATORS, SMOKE

#: Repeats per workload before the ``--seconds`` budget is consulted.
MIN_REPEATS = 5
#: A disturbed repeat is re-run at most this often.
MAX_RERUNS = 2

_OUT_DIR = Path(__file__).resolve().parent.parent / "out"


class Runner:
    """One workload's plan and the repeats made of it so far."""

    def __init__(self, name: str, seed: int, sizes, seconds: float, repeats: int) -> None:
        self.name = name
        self.plan = GENERATORS[name](seed, sizes)
        self.clock = WorkClock(per_cpu=self.plan.sharded)
        self.seconds = seconds
        self.min_repeats = repeats
        #: Every attempt, re-runs included, in the order made.
        self.attempts: "list[dict]" = []
        #: Per repeat slot: indexes of the attempts made of it; the last
        #: one counts.
        self.slots: "list[list[int]]" = []
        self.spent_s = 0.0

    def mark_disturbed(self) -> None:
        """Flag every attempt made while the host ran unlike the rest of
        this workload's repeats (its own, because a per-CPU clock and a
        single-CPU one do not read alike)."""
        reference = statistics.median(a["unit_ms"] for a in self.attempts)
        for attempt in self.attempts:
            attempt["disturbed"] = WorkClock.disturbed(attempt["unit_ms"], reference)

    def next_slot(self) -> "int | None":
        """The repeat to make next: the minimum first, then a re-run of a
        disturbed repeat, then one more repeat — the last two only while
        another repeat fits in the ``--seconds`` budget."""
        done = len(self.slots)
        if done < self.min_repeats:
            return done
        if self.spent_s + self.spent_s / len(self.attempts) > self.seconds:
            return None
        for slot, made in enumerate(self.slots):
            if self.attempts[made[-1]]["disturbed"] and len(made) <= MAX_RERUNS:
                return slot
        return done

    def step(self, slot: int) -> None:
        started = time.perf_counter()
        repeat, _ = engine.run_repeat(self.plan, self.clock)
        self.spent_s += time.perf_counter() - started
        if slot == len(self.slots):
            self.slots.append([])
        self.slots[slot].append(len(self.attempts))
        self.attempts.append(
            {
                "slot": slot,
                "unit_ms": repeat.unit_ms,
                "disturbed": False,
                "metrics": repeat.metrics,
                "raw": repeat.raw,
                "frames": repeat.frames,
                "failed": repeat.failed,
                "forfeited": repeat.forfeited,
                "issued": repeat.issued,
                "issue_s": repeat.issue_s,
                "drops": repeat.drops,
                "problems": repeat.problems,
            }
        )
        self.mark_disturbed()

    def counted(self) -> "list[dict]":
        return [self.attempts[made[-1]] for made in self.slots]


def _measure(runners: "list[Runner]") -> None:
    """Repeats of the workloads interleaved (A B C D, A B C D, ...) until
    none wants another."""
    while True:
        wanted = [(runner, runner.next_slot()) for runner in runners]
        if all(slot is None for _, slot in wanted):
            return
        for runner, slot in wanted:
            if slot is not None:
                runner.step(slot)


def _end_to_end(runner: Runner, names: "list[str]") -> dict:
    counted = runner.counted()
    frames = sum(a["frames"] for a in counted)
    failed = sum(a["failed"] for a in counted)
    report = {
        "metrics": {
            name: summary([a["metrics"][name] for a in counted])
            for name in names
        },
        "raw": {
            name: summary([a["raw"][name] for a in counted])
            for name in counted[0]["raw"]
        },
        "attempted": frames,
        "failed": failed,
        "failed_share": failed / frames,
        "forfeited_share": sum(a["forfeited"] for a in counted) / frames,
        "gen_s": runner.plan.gen_s,
        "disturbed_repeats": sum(a["disturbed"] for a in counted),
        "attempts": runner.attempts,
        "problems": sorted({p for a in counted for p in a["problems"]}),
    }
    issue_s = sum(a["issue_s"] for a in counted)
    if issue_s:
        report["issue_per_s"] = sum(a["issued"] for a in counted) / issue_s
    return report


def _print_end_to_end(name: str, report: dict, units: "dict[str, str]") -> None:
    for metric, stats in report["metrics"].items():
        print(
            f"{name:22s} {metric:16s} {stats['median']:14.4f} {units[metric]:4s}"
            f"  q1 {stats['q1']:.4f}  q3 {stats['q3']:.4f}  n={stats['n']}"
            + (
                f"  (raw {report['raw'][metric]['median']:.4f})"
                if metric in report["raw"]
                else ""
            )
        )
    extras = [
        f"failed_share {report['failed_share']:.6f}",
        f"forfeited_share {report['forfeited_share']:.6f}",
        f"gen_s {report['gen_s']:.3f}",
        f"disturbed {report['disturbed_repeats']}/{report['metrics']['setup_s']['n']}",
    ]
    if "issue_per_s" in report:
        extras.append(f"issue_per_s {report['issue_per_s']:.1f}")
    print(f"{name:22s} " + "  ".join(extras))


def _print_per_layer(name: str, traced: dict, units: "dict[str, str]") -> None:
    for metric, value in traced["metrics"].items():
        print(
            f"{name:22s} {metric:36s} {value:14.4f} {units[metric]:5s}"
            f"  n={traced['samples'][metric]}"
        )
    for check, value in traced["checks"].items():
        print(f"{name:22s} check {check} = {value}")


def _meta(seed: int, smoke: bool) -> dict:
    return {
        "seed": seed,
        "smoke": smoke,
        "nproc": os.cpu_count(),
        "crypto_backend": active_backend().name,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def main(argv: "list[str] | None" = None) -> int:
    contract = load_contract()
    workloads = [workload["name"] for workload in contract["workloads"]]
    parser = argparse.ArgumentParser(
        prog="bench/run.py", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument(
        "--workload", action="append", choices=workloads,
        help="run only this workload (repeatable); default: all four, interleaved",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=float(contract["run_seconds"]),
        help=f"budget per workload: after the first {MIN_REPEATS} repeats, "
        "disturbed ones are re-run and more are added while they fit",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: the traced run and per-layer metrics instead of the end-to-end run",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny populations, 8 bursts, one repeat: a run-check, not a measurement",
    )
    parser.add_argument(
        "--out-dir", type=Path, default=_OUT_DIR,
        help="where the results JSON and trace files go (default bench/out/)",
    )
    args = parser.parse_args(argv)
    started = time.perf_counter()
    names = args.workload or workloads
    table = contract["per_layer" if args.trace else "end_to_end"]
    units = {spec["name"]: spec["unit"] for spec in table}
    sizes = SMOKE if args.smoke else FULL
    repeats = 1 if args.smoke else MIN_REPEATS
    seconds = 0.0 if args.smoke else args.seconds

    results = {"meta": _meta(args.seed, args.smoke), "workloads": {}}
    print(f"# {json.dumps(results['meta'])}")
    runners = [Runner(name, args.seed, sizes, seconds, repeats) for name in names]
    correct = True
    if args.trace:
        for runner in runners:
            traced = trace.run_traced(runner.plan, list(units), args.out_dir)
            disputed = engine.oracle_check(runner.plan)
            if disputed:
                traced["problems"].append(f"scalar oracle disputes {disputed} labels")
            _print_per_layer(runner.name, traced, units)
            results["workloads"][runner.name] = {"per_layer": traced}
    else:
        _measure(runners)
        for runner in runners:
            report = _end_to_end(runner, list(units))
            disputed = engine.oracle_check(runner.plan)
            if disputed:
                report["problems"].append(f"scalar oracle disputes {disputed} labels")
            _print_end_to_end(runner.name, report, units)
            results["workloads"][runner.name] = {"end_to_end": report}

    attempted = failed = 0
    metrics = {}
    kind = "per_layer" if args.trace else "end_to_end"
    for name, entry in results["workloads"].items():
        report = entry[kind]
        attempted += report["attempted"]
        failed += report["failed"]
        for problem in report["problems"]:
            correct = False
            print(f"{name}: PROBLEM {problem}", file=sys.stderr)
        prefix = "" if len(names) == 1 else f"{name}."
        for metric, unit in units.items():
            value = report["metrics"][metric]
            if not args.trace:
                value = value["median"]
            metrics[prefix + metric] = {"value": value, "unit": unit}
    correct = correct and failed == 0

    stem = "smoke" if args.smoke else "results"
    out = args.out_dir / f"{stem}_{kind}.json"
    args.out_dir.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as handle:
        json.dump(results, handle, indent=1)
    print(f"# wrote {out} after {time.perf_counter() - started:.1f}s")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1
