#!/usr/bin/env python3
"""The repo's wire-to-verdict benchmark; see bench/README.md.

    python3 bench/run.py --workload egress_cold_metro --seed 3 --seconds 15 --trace 0
"""

import sys
from pathlib import Path

_BENCH = Path(__file__).resolve().parent
_SRC = _BENCH.parent / "src"

if __name__ == "__main__":
    # The system under test is the checkout this file sits in — never an
    # installed copy of the package.
    if not (_SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"bench/run.py: no src/repro beside {_BENCH}; run it from a full checkout")
    sys.path[:0] = [str(_SRC), str(_BENCH)]
    from apnabench.cli import main

    sys.exit(main())
