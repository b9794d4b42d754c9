"""Guards on the repository itself (not the code it holds).

Build artifacts must never be committed: PR 3 accidentally committed 29
``__pycache__/*.pyc`` files; they were removed and the patterns added to
``.gitignore``.  And ``bench/`` + ``BENCHMARK.json`` stay the one timing
harness.  Every structural pin on the code is a ``repro.analysis`` rule
(``tests/test_static_analysis.py``); what is left here needs git.
"""

import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _tracked(patterns: list[str]) -> list[str]:
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        pytest.skip("not a git checkout")
    result = subprocess.run(
        ["git", "ls-files", "--", *patterns],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    if result.returncode != 0:
        pytest.skip(f"git ls-files failed: {result.stderr.strip()}")
    return [line for line in result.stdout.splitlines() if line.strip()]


def test_no_tracked_bytecode():
    tracked = _tracked(["*.pyc", "*.pyo", "**/__pycache__/**"])
    assert not tracked, (
        "compiled Python artifacts are tracked (add them to .gitignore and "
        "`git rm --cached` them):\n  " + "\n  ".join(tracked)
    )


def test_one_timing_harness():
    """``bench/`` + ``BENCHMARK.json`` judge every speed claim; a second
    suite or a snapshot of its output must not grow back beside them."""
    tracked = _tracked(["benchmarks", "*BENCH_*.json"])
    assert not tracked, "\n  ".join(tracked)


def test_gitignore_covers_bytecode():
    gitignore = (ROOT / ".gitignore").read_text()
    for pattern in ("__pycache__/", "*.pyc", "*.egg-info/", ".pytest_cache/"):
        assert pattern in gitignore, f".gitignore is missing {pattern!r}"
