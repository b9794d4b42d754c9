#!/usr/bin/env python3
"""Compare two result files of ``bench/run.py``.

    python3 bench/compare.py parent.json change.json

For two end-to-end files (``--trace 0``), one row per (workload,
end-to-end metric): both medians with their quartiles, the ratio
``change / parent`` (base: the parent's median), and a verdict from the
metric's bound in ``BENCHMARK.json``:

``ok``          the change's median is no worse than the parent's by
                more than the bound;
``worse``       it is, and the spread between repeats is within the bound;
``unresolved``  the spread between repeats (the wider interquartile range
                of the two files, as a share of its median) exceeds the
                bound, so the files cannot tell — unless every repeat of
                the change reads better than every repeat of the parent,
                which is ``ok``.

For two per-layer files (``--trace 1``), one row per (workload, per-layer
metric) with both values and their ratio.  Per-layer metrics have no
bound; the counts among them (unit ``share``, ``ratio``, ``bytes`` or
``count``, CPU shares excepted) are properties of the seeded traffic and
are marked ``same`` or ``DIFFERS``.

Exits 1 when any row is ``worse`` or ``DIFFERS``.
"""

from __future__ import annotations

import json
import sys

from apnabench import load_contract

_COUNT_UNITS = ("share", "ratio", "bytes", "count")


def _cell(stats: dict) -> str:
    return f"{stats['median']:.3f} ({stats['q1']:.3f}..{stats['q3']:.3f})"


def _spread(stats: dict) -> float:
    return (stats["q3"] - stats["q1"]) / stats["median"] if stats["median"] else 0.0


def verdict(parent: dict, change: dict, better: str, bound: float) -> "tuple[str, float]":
    """``(verdict, share by which the change's median is worse)``."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (change["median"] - parent["median"]) / parent["median"]
    if max(_spread(parent), _spread(change)) > bound:
        if better == "lower":
            clean = max(change["values"]) < min(parent["values"])
        else:
            clean = min(change["values"]) > max(parent["values"])
        return ("ok" if clean else "unresolved"), worse_by
    return ("worse" if worse_by > bound else "ok"), worse_by


def _pairs(parent: dict, change: dict, kind: str):
    for workload, entry in parent["workloads"].items():
        other = change["workloads"].get(workload, {})
        if kind in entry and kind in other:
            yield workload, entry[kind], other[kind]


def compare_end_to_end(parent: dict, change: dict, contract: dict) -> bool:
    print(
        f"{'workload':22s} {'metric':15s} {'parent median (q1..q3)':>36s} "
        f"{'change median (q1..q3)':>36s} {'change/parent':>14s} {'bound':>6s}  verdict"
    )
    bad = False
    for workload, a, b in _pairs(parent, change, "end_to_end"):
        for spec in contract["end_to_end"]:
            mine, theirs = a["metrics"][spec["name"]], b["metrics"][spec["name"]]
            label, _ = verdict(mine, theirs, spec["better"], spec["bound"])
            bad = bad or label == "worse"
            print(
                f"{workload:22s} {spec['name']:15s} {_cell(mine):>36s} "
                f"{_cell(theirs):>36s} {theirs['median'] / mine['median']:14.4f} "
                f"{spec['bound']:6.2f}  {label}"
            )
        # Seed-determined counts: must not move at all.
        for share in ("failed_share", "forfeited_share"):
            same = a[share] == b[share]
            bad = bad or not same
            print(
                f"{workload:22s} {share:15s} {a[share]:36.6f} {b[share]:36.6f} "
                f"{'':14s} {0:6.2f}  " + ("same" if same else "DIFFERS")
            )
    return bad


def compare_per_layer(parent: dict, change: dict, contract: dict) -> bool:
    print(
        f"{'workload':22s} {'metric':38s} {'parent':>14s} {'change':>14s} "
        f"{'change/parent':>14s}  counts"
    )
    bad = False
    for workload, a, b in _pairs(parent, change, "per_layer"):
        for spec in contract["per_layer"]:
            mine, theirs = a["metrics"][spec["name"]], b["metrics"][spec["name"]]
            ratio = f"{theirs / mine:14.4f}" if mine else f"{'-':>14s}"
            label = ""
            if spec["unit"] in _COUNT_UNITS and "cpu" not in spec["name"]:
                label = "same" if mine == theirs else "DIFFERS"
                bad = bad or mine != theirs
            print(
                f"{workload:22s} {spec['name']:38s} {mine:14.4f} {theirs:14.4f} "
                f"{ratio}  {label}"
            )
    return bad


def main(argv: "list[str]") -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as handle:
        parent = json.load(handle)
    with open(argv[1]) as handle:
        change = json.load(handle)
    contract = load_contract()
    for kind, compare in (
        ("end_to_end", compare_end_to_end),
        ("per_layer", compare_per_layer),
    ):
        if any(_pairs(parent, change, kind)):
            return 1 if compare(parent, change, contract) else 0
    print("no workload is in both files with the same kind of run", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
