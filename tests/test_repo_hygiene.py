"""Guards on the repository itself (not the code it holds).

* Build artifacts must never be committed: PR 3 accidentally committed
  29 ``__pycache__/*.pyc`` files; they were removed and the patterns
  added to ``.gitignore``.
* The static-analysis findings baseline may only ever *shrink*: the
  grandfathered-debt list (``src/repro/analysis/baseline.txt``) exists
  so old violations burn down while new ones fail tier-1 — quietly
  adding entries would turn it into an amnesty machine.
"""

import ast
import dataclasses
import inspect
import shutil
import subprocess
from pathlib import Path

import pytest

from repro.core.border_router import BorderRouter
from repro.core.config import ApnaConfig
from repro.sharding import ShardPlan, SupervisorPolicy
from repro.sharding.worker import ShardSpec, ShardState
from repro.state import ColumnarShardView

from tests.test_state_store import _shard_spec

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


_BASELINE_REL = "src/repro/analysis/baseline.txt"


def _baseline_entries(text: str) -> set[str]:
    return {
        line.strip()
        for line in text.splitlines()
        if line.strip() and not line.strip().startswith("#")
    }


def test_analysis_baseline_only_shrinks():
    """No new grandfathered findings may sneak in via baseline edits.

    Compares the working-tree baseline against the committed (HEAD)
    version: entries may be removed (debt burned down) but never added
    — a new violation must be fixed or carry an inline
    ``# audit: allow(...)`` justification instead.
    """
    path = ROOT / _BASELINE_REL
    assert path.is_file(), f"{_BASELINE_REL} missing — the analyzer needs it"
    current = _baseline_entries(path.read_text())
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        pytest.skip("not a git checkout")
    result = subprocess.run(
        ["git", "show", f"HEAD:{_BASELINE_REL}"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    if result.returncode != 0:
        return  # baseline not committed yet: nothing to compare against
    committed = _baseline_entries(result.stdout)
    added = sorted(current - committed)
    assert not added, (
        "findings baseline grew — fix the new violations or annotate them "
        "with `# audit: allow(<rule>)` instead of grandfathering:\n  "
        + "\n  ".join(added)
    )


#: The option surface, pinned shrink-only: a new ``ApnaConfig`` field is
#: a visible edit to this list (and a reviewer asking which two callers
#: need different values); removing a knob just deletes its name here.
_CONFIG_FIELDS = {
    "control_ephid_lifetime",
    "data_ephid_lifetime",
    "lifetime_classes",
    "max_ephid_lifetime",
    "replay_protection",
    "in_network_replay_filter",
    "replay_filter_window",
    "replay_filter_bits",
    "forwarding_batch_size",
    "forwarding_batch_window",
    "forwarding_shards",
    "shard_block",
    "shard_reply_timeout",
    "shard_max_restarts",
    "shard_restart_backoff",
    "state_backend",  # one-valued; goes when ROADMAP item 0(a) lands
    "aead_scheme",
    "packet_mac_size",
    "revocation_threshold",
    "icmp_on_drop",
}


#: What crosses to a worker, and the supervision policy: pinned the same
#: way, so a cache capacity (say) cannot quietly become a knob.
_SHARD_SPEC_FIELDS = {
    "shard",
    "nshards",
    "aid",
    "ephid_enc_key",
    "ephid_mac_key",
    "crypto_backend",
    "packet_mac_size",
    "with_nonce",
    "replay_window",
    "replay_bits",
    "shard_block",
    "routing_mode",
    "routing_key",
    "state_backend",  # one-valued; goes when ROADMAP item 0(a) lands
    "snapshot",
}
_SUPERVISOR_POLICY_FIELDS = {"reply_timeout", "max_restarts", "restart_backoff"}


def test_option_surface_only_shrinks():
    for options, pinned in (
        (ApnaConfig, _CONFIG_FIELDS),
        (ShardSpec, _SHARD_SPEC_FIELDS),
        (SupervisorPolicy, _SUPERVISOR_POLICY_FIELDS),
    ):
        fields = {field.name for field in dataclasses.fields(options)}
        assert fields <= pinned, (options.__name__, sorted(fields - pinned))


def test_one_state_family():
    """The columnar stores are the system; the per-record stores are the
    spec and the tests' oracle.  No factory, no worker-side object
    replica and no second value for ``state_backend`` may grow back — the
    name itself survives only because ``bench/`` still passes it."""
    src = ROOT / "src/repro"
    for rel in (
        "core/config.py",
        "core/autonomous_system.py",
        "sharding/worker.py",
        "sharding/pool.py",
        "state/__init__.py",
        "state/snapshot.py",
    ):
        assert '"object"' not in (src / rel).read_text(), rel
    mentions = {}
    for path in sorted(src.rglob("*.py")):
        text = path.read_text()
        for gone in ("ShardHostView", "make_host_database", "make_revocation_list"):
            assert gone not in text, (path, gone)
        if "state_backend" in text:
            mentions[str(path.relative_to(src))] = sum(
                "state_backend" in line for line in text.splitlines()
            )
    # Per field: its definition, its value check and the check's message;
    # between them, ``for_assembly``'s pass-through.
    assert mentions == {
        "core/config.py": 3,
        "sharding/pool.py": 1,
        "sharding/worker.py": 3,
    }
    with pytest.raises(ValueError, match="only state family"):
        ApnaConfig(state_backend="object")
    spec = _shard_spec(ShardPlan(1), 0)
    ShardState(spec)
    with pytest.raises(ValueError, match="only state family"):
        ShardState(dataclasses.replace(spec, state_backend="object"))


def test_shard_view_keeps_nothing_per_hid_looked_up():
    """``ColumnarShardView.get`` used to memoise a record per HID it was
    asked for — a second unbounded per-host cache under the router's.
    The router fetches keys with ``packet_mac_key``; the view holds
    columns and the out-of-plan rows, nothing keyed by lookups."""
    view = ColumnarShardView(shard=0, nshards=1)
    assert not hasattr(view, "_cache")
    assert "_cache" not in (ROOT / "src/repro/state/view.py").read_text()
    assert "hostdb.get" not in inspect.getsource(BorderRouter)


def _imported_names(rel: str) -> set[str]:
    tree = ast.parse((ROOT / rel).read_text())
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def test_dispatcher_holds_no_verdict_path():
    """Verdicts come from the node's in-line router or from a
    ``ShardState``; the dispatcher only carries frames to one.  A
    ``BorderRouter`` or an ``ApnaPacket`` parse in ``sharding/pool.py``
    would be a third verdict path with its own accounting."""
    imported = _imported_names("src/repro/sharding/pool.py")
    assert not imported & {"BorderRouter", "ApnaPacket"}


def test_one_owner_for_the_carrier_and_the_failure_ledger(world):
    """``ShardedDataPlane`` dispatches over a carrier it is handed and
    keeps neither it nor the policy — both live on ``plane.supervisor``,
    the one place a worker failure is charged — and the construction
    knobs no caller passed stay deleted with their plumbing."""
    from repro.sharding import pool as pool_module
    from repro.sharding import ShardedDataPlane

    assert list(inspect.signature(ShardedDataPlane.for_assembly).parameters) == [
        "assembly"
    ]
    tree = ast.parse(inspect.getsource(pool_module))
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            names = {arg.arg for arg in node.args.args + node.args.kwonlyargs}
            assert not names & {"start_method", "in_flight"}, node.name
    handlers = [
        node
        for node in ast.walk(ast.parse(inspect.getsource(ShardedDataPlane)))
        if isinstance(node, ast.ExceptHandler)
        and isinstance(node.type, ast.Name)
        and node.type.id == "ShardError"
    ]
    assert len(handlers) <= 1
    with ShardedDataPlane.for_assembly(world.as_a) as plane:
        ledger = plane.supervisor
        held = list(vars(plane).values())
        assert not any(value is ledger.carrier for value in held)
        assert not any(isinstance(value, SupervisorPolicy) for value in held)


def test_one_burst_path_frames_in_records_out():
    """The worker hands raw frames to ``BorderRouter.process_burst`` and
    frames the records it returns: a packet parse or a ``Verdict`` in
    ``sharding/worker.py``, or an object-batch method back on the router,
    would be the second burst implementation this tree deleted."""
    assert not _imported_names("src/repro/sharding/worker.py") & {
        "ApnaPacket",
        "Verdict",
    }
    assert hasattr(BorderRouter, "process_burst")
    assert not {"process_batch", "process_incoming_batch"} & set(vars(BorderRouter))
