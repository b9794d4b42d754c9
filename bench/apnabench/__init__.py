"""The repo's wire-to-verdict benchmark (see ``bench/README.md``).

``BENCHMARK.json`` at the repo root is the naming contract — the
workloads, the end-to-end metrics with their regression bounds and the
per-layer metrics, each with its unit and direction.  Nothing in this
package repeats a name, a unit or a bound: the command line loads the
file once and hands the tables on.
"""

from __future__ import annotations

import json
from pathlib import Path

#: Frames per burst, everywhere.
BURST = 64


def load_contract() -> dict:
    """``BENCHMARK.json`` of the checkout this package sits in."""
    with open(Path(__file__).resolve().parents[2] / "BENCHMARK.json") as handle:
        return json.load(handle)
