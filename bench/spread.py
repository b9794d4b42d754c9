#!/usr/bin/env python3
"""The benchmark's own acceptance check: is it steady enough for its bounds?

    python3 bench/spread.py [--seeds 1,2,...] [--seconds S] [--workload W]

Runs ``bench/run.py`` once per seed on each workload, as the driver does,
and prints for every end-to-end metric the median of the runs and their
spread — the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median — for
the calibrated value each run reports and, beside it, for the raw
wall-clock value the same run measured.  A spread above the metric's
bound in ``BENCHMARK.json`` is flagged; ``setup_s`` is listed but not
held to its bound.  Exits 1 when any other spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from apnabench import load_contract

_BENCH = Path(__file__).resolve().parent


def _spread(values: "list[float]") -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--seconds", default=str(contract["run_seconds"]))
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()
    seeds = [int(seed) for seed in args.seeds.split(",")]
    names = args.workload or [w["name"] for w in contract["workloads"]]
    wide = False
    for name in names:
        calibrated: "dict[str, list[float]]" = {}
        raw: "dict[str, list[float]]" = {}
        took = []
        for seed in seeds:
            with tempfile.TemporaryDirectory() as out:
                started = time.perf_counter()
                run = subprocess.run(
                    [
                        sys.executable, str(_BENCH / "run.py"),
                        "--workload", name, "--seed", str(seed),
                        "--seconds", args.seconds, "--trace", "0",
                        "--out-dir", out,
                    ],
                    capture_output=True, text=True,
                )
                took.append(time.perf_counter() - started)
                if run.returncode:
                    print(run.stderr, file=sys.stderr)
                    return 2
                with open(Path(out) / "results_end_to_end.json") as handle:
                    report = json.load(handle)["workloads"][name]["end_to_end"]
            for metric, stats in report["metrics"].items():
                calibrated.setdefault(metric, []).append(stats["median"])
            for metric, stats in report["raw"].items():
                raw.setdefault(metric, []).append(stats["median"])
        print(
            f"{name}: {len(seeds)} runs, seeds {args.seeds}, --seconds {args.seconds}, "
            f"{statistics.median(took):.1f} s per run (longest {max(took):.1f} s)"
        )
        for spec in contract["end_to_end"]:
            metric = spec["name"]
            spread = _spread(calibrated[metric])
            line = (
                f"  {metric:16s} median {statistics.median(calibrated[metric]):12.4f} "
                f"{spec['unit']:4s} spread {spread:6.2%}  bound {spec['bound']:4.0%}"
            )
            if metric in raw:
                line += (
                    f"   raw median {statistics.median(raw[metric]):12.4f} "
                    f"spread {_spread(raw[metric]):6.2%}"
                )
            if spread > spec["bound"] and metric != "setup_s":
                line += "   WIDER THAN BOUND"
                wide = True
            print(line, flush=True)
    return 1 if wide else 0


if __name__ == "__main__":
    sys.exit(main())
