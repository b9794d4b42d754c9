"""Shared fixtures for the benchmark suite.

Each ``bench_*`` module regenerates one paper artifact (see the
experiment index in :mod:`repro.experiments`).  Wall-clock numbers are machine-dependent; the
paper-shape verdicts are attached as ``extra_info`` on each benchmark.

Every benchmark also records the active crypto backend (``pure`` or
``openssl``, see :mod:`repro.crypto.backend`) in ``extra_info``, and the
crypto/forwarding/EphID benches carry an explicit backend-comparison
axis reproducing the paper's software-vs-AES-NI gap.

Smoke mode
----------

``pytest benchmarks -q --smoke`` (or ``REPRO_BENCH_SMOKE=1``) runs every
benchmark body exactly once with no timing calibration — an import- and
run-check fast enough for CI tier-1, without the long measurement loops.

Trajectory persistence
----------------------

``pytest benchmarks --bench-json PATH`` dumps one JSON document with a
record per benchmark: nodeid, the active crypto backend, the full
``extra_info`` (including the paper-shape verdicts) and — outside smoke
mode — the timing statistics.  Appending these files over time gives the
repo a performance trajectory across PRs.
"""

import json
import os
import platform
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.crypto import active_backend  # noqa: E402
from repro.experiments.common import build_bench_world  # noqa: E402


_BENCH_DIR = Path(__file__).resolve().parent
_BENCH_RECORDS: list[dict] = []


def pytest_collect_file(file_path, parent):
    """Collect ``bench_*.py`` modules — but only when the benchmarks
    directory (or a file in it) was named on the command line, so a plain
    ``pytest`` from the repo root never drags the timing suite into the
    unit-test pass."""
    if file_path.suffix != ".py" or not file_path.name.startswith("bench_"):
        return None
    args = [
        Path(arg.split("::")[0]).resolve()
        for arg in parent.config.invocation_params.args
        if not str(arg).startswith("-")
    ]
    targeted = any(arg == _BENCH_DIR or _BENCH_DIR in arg.parents for arg in args)
    explicit = file_path in args
    if targeted and not explicit:
        return pytest.Module.from_parent(parent, path=file_path)
    return None


def pytest_addoption(parser):
    parser.addoption(
        "--smoke",
        action="store_true",
        default=False,
        help="run each benchmark once, untimed (fast import/run check)",
    )
    parser.addoption(
        "--bench-json",
        action="store",
        default=None,
        metavar="PATH",
        help="dump per-benchmark timings, crypto backend and paper-shape "
        "verdicts to PATH as JSON",
    )


def pytest_configure(config):
    env_smoke = os.environ.get("REPRO_BENCH_SMOKE", "0").lower()
    if config.getoption("--smoke") or env_smoke not in ("", "0", "false", "no", "off"):
        # pytest-benchmark's own configure hook (plugins run after
        # conftest hooks) picks this up and runs each benchmarked
        # callable exactly once without calibration.
        config.option.benchmark_disable = True


@pytest.fixture(autouse=True)
def _bench_backend_record(request):
    """Stamp the active crypto backend on every benchmark and collect the
    per-benchmark record for ``--bench-json``."""
    bench = (
        request.getfixturevalue("benchmark")
        if "benchmark" in request.fixturenames
        else None
    )
    yield
    if bench is None:
        return
    bench.extra_info.setdefault("crypto_backend", active_backend().name)
    record = {
        "name": request.node.nodeid,
        "crypto_backend": bench.extra_info["crypto_backend"],
        "extra_info": dict(bench.extra_info),
    }
    stats_meta = getattr(bench, "stats", None)
    stats = getattr(stats_meta, "stats", None)
    if stats is not None:
        record["timing"] = {
            "mean_s": stats.mean,
            "min_s": stats.min,
            "stddev_s": stats.stddev,
            "rounds": stats.rounds,
            "ops_per_sec": (1.0 / stats.mean) if stats.mean else None,
        }
    _BENCH_RECORDS.append(record)


def pytest_sessionfinish(session, exitstatus):
    path = session.config.getoption("--bench-json", default=None)
    if not path:
        return
    payload = {
        "created_unix": time.time(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "smoke": bool(session.config.option.benchmark_disable),
        "default_crypto_backend": active_backend().name,
        "benchmarks": _BENCH_RECORDS,
    }
    Path(path).write_text(json.dumps(payload, indent=2, default=str) + "\n")


@pytest.fixture(scope="module")
def bench_world():
    return build_bench_world(seed=1234, hosts_per_as=2)


@pytest.fixture(scope="module")
def bench_host(bench_world):
    return bench_world.hosts_a[0]
