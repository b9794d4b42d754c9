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
import re
import shutil
import subprocess
import typing
from pathlib import Path

import pytest

from repro.core.border_router import BorderRouter
from repro.core.config import ApnaConfig
from repro.sharding import ShardPlan
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
    "replay_protection",
    "in_network_replay_filter",
    "replay_filter_window",
    "replay_filter_bits",
    "forwarding_batch_size",
    "forwarding_batch_window",
    "forwarding_shards",
    "shard_reply_timeout",
    "shard_max_restarts",
    "shard_restart_backoff",
    "state_backend",  # one-valued; goes when ROADMAP item 0(a) lands
    "revocation_threshold",
}


#: What crosses to a worker: pinned the same way, so a cache capacity
#: (say) cannot quietly become a knob.
_SHARD_SPEC_FIELDS = {
    "shard",
    "nshards",
    "aid",
    "ephid_enc_key",
    "ephid_mac_key",
    "crypto_backend",  # one-valued; goes when ROADMAP item 0(a) lands
    "packet_mac_size",  # one-valued (wire.apna.MAC_SIZE); kept for bench/
    "with_nonce",
    "replay_window",
    "replay_bits",
    "shard_block",  # one-valued (ShardPlan.block); kept for bench/
    "routing_mode",
    "routing_key",
    "state_backend",  # one-valued; goes when ROADMAP item 0(a) lands
    "snapshot",
}


def test_option_surface_only_shrinks():
    for options, pinned in (
        (ApnaConfig, _CONFIG_FIELDS),
        (ShardSpec, _SHARD_SPEC_FIELDS),
    ):
        fields = {field.name for field in dataclasses.fields(options)}
        assert fields <= pinned, (options.__name__, sorted(fields - pinned))


#: Where the benchmark, the examples and the tests live beside ``src/``:
#: an option has to be set by a caller in one of them.
_CALLER_TREES = ("src", "tests", "bench", "examples")


def _config_keywords_set() -> set[str]:
    """Every keyword passed to an ``ApnaConfig(...)`` or a
    ``(dataclasses.)replace(...)`` call anywhere in the caller trees —
    bar this file, whose pins and refusal checks are not callers."""
    seen = set()
    for tree in _CALLER_TREES:
        for path in sorted((ROOT / tree).rglob("*.py")):
            if path == Path(__file__).resolve():
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(
                    func, "id", None
                )
                if name in ("ApnaConfig", "replace"):
                    seen.update(kw.arg for kw in node.keywords if kw.arg)
    return seen


def test_every_option_has_a_caller_that_sets_it():
    """An ``ApnaConfig`` field no caller sets to a value is a constant
    wearing an option's clothes: it multiplies the test matrix for a
    second value nobody needs.  Make it a ``ClassVar`` (or delete it)."""
    # Exempt until ROADMAP item 0(a): bench/ passes it, always "columnar".
    exempt = {"state_backend"}
    options = {field.name for field in dataclasses.fields(ApnaConfig)}
    unset = sorted(options - exempt - _config_keywords_set())
    assert not unset, f"ApnaConfig fields no caller sets: {unset}"


def test_one_packet_mac():
    """The Fig. 7 MAC has one width and one definition.  The lifetimes
    and the MAC width are the paper's constants, readable off a config
    but not settable; ``aead_scheme``, ``icmp_on_drop`` and
    ``shard_block`` are gone; the two survivors of the width's plumbing
    (kept because ``bench/`` passes them) refuse any other value; and
    every packet is signed by ``ApnaHeader.signed``."""
    from repro.core.autonomous_system import ServiceIdentity
    from repro.core.ephid import EphIdCodec
    from repro.core.hostdb import HostDatabase
    from repro.core.revocation import RevocationList
    from repro.wire.apna import MAC_SIZE, ApnaHeader

    config = ApnaConfig()
    constants = {
        "control_ephid_lifetime": 86_400.0,
        "data_ephid_lifetime": 900.0,
        "lifetime_classes": (60.0, 900.0, 3600.0),
        "max_ephid_lifetime": 86_400.0,
        "packet_mac_size": MAC_SIZE,
    }
    deleted = ("aead_scheme", "icmp_on_drop", "shard_block")
    for name, value in constants.items():
        assert getattr(config, name) == value, name
    for name in deleted:
        assert not hasattr(config, name), name
    for name in (*constants, *deleted):
        with pytest.raises(TypeError):
            ApnaConfig(**{name: constants.get(name)})
    assert len(dataclasses.fields(ApnaConfig)) == len(_CONFIG_FIELDS) == 12

    codec = EphIdCodec(b"\x01" * 16, b"\x02" * 16)
    with pytest.raises(ValueError, match="Fig. 7 MAC"):
        BorderRouter(
            100, codec, HostDatabase(), RevocationList(), float, packet_mac_size=4
        )
    spec = _shard_spec(ShardPlan(1), 0)
    with pytest.raises(ValueError, match="Fig. 7 MAC"):
        ShardState(dataclasses.replace(spec, packet_mac_size=4))
    assert "mac_size" not in inspect.signature(ServiceIdentity.make_packet).parameters

    src = ROOT / "src/repro"
    field = re.compile(r"\bpacket_mac_size\b")
    mentions, remacs = {}, {}
    for path in sorted(src.rglob("*.py")):
        rel = str(path.relative_to(src))
        lines = path.read_text().splitlines()
        for counts, pattern in (
            (mentions, field),
            (remacs, re.compile(r"\.with_mac\(")),
        ):
            count = sum(bool(pattern.search(line)) for line in lines)
            if count:
                counts[rel] = count
    # The ApnaConfig constant; the router's keyword, check and message;
    # the spec field, ShardState's check and message; for_assembly's
    # literal.
    assert mentions == {
        "core/border_router.py": 3,
        "core/config.py": 1,
        "sharding/pool.py": 1,
        "sharding/worker.py": 3,
    }
    # The sign helper, and E10's deliberately doctored packet.
    assert remacs == {"experiments/e10_security.py": 1, "wire/apna.py": 1}
    assert ".with_mac(" in inspect.getsource(ApnaHeader.signed)


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


def test_one_crypto_provider():
    """OpenSSL is the system; the from-scratch primitives are the spec
    and the tests' oracle.  No registry, no process-wide switch and no
    ``backend=`` kwarg may grow back, and no production primitive may
    call into the spec — ``ShardSpec.crypto_backend`` survives only
    because ``bench/`` still passes it."""
    import repro.crypto as crypto
    from repro.core.ephid import EphIdCodec
    from repro.crypto import ed25519, kdf, x25519
    from repro.crypto.aead import EtmScheme, GcmScheme, new_aead
    from repro.sharding.plan import RoutingKey

    for facade in (
        crypto.AES,
        crypto.Cmac,
        crypto.AesGcm,
        GcmScheme,
        EtmScheme,
        new_aead,
        EphIdCodec,
        RoutingKey,
    ):
        assert "backend" not in inspect.signature(facade).parameters, facade
    # The deleted names are spelled in pieces, so that a grep of the tree
    # for them finds none.
    gone = [f"{verb}_backend" for verb in ("set", "use", "resolve", "get", "register")]
    gone += ["available_" + "backends", "Backend" + "Unavailable"]
    for name in gone:
        assert not hasattr(crypto, name), name
    assert not (ROOT / "src/repro/crypto/backend.py").exists()
    assert crypto.active_backend().name == "openssl"
    env_var = "REPRO_CRYPTO_" + "BACKEND"
    field = re.compile(r"\bcrypto_backend\b")
    src = ROOT / "src/repro"
    mentions = {}
    for path in sorted(src.rglob("*.py")):
        text = path.read_text()
        assert env_var not in text, path
        if field.search(text):
            mentions[str(path.relative_to(src))] = sum(
                bool(field.search(line)) for line in text.splitlines()
            )
    # The field, its value check and the check's message; for_assembly's
    # literal.
    assert mentions == {"sharding/pool.py": 1, "sharding/worker.py": 3}
    for production in (
        crypto.AES,
        crypto.Cmac,
        crypto.AesGcm,
        ed25519.public_key,
        ed25519.sign,
        ed25519.verify,
        x25519.public_key,
        x25519.shared_secret,
        kdf.hmac_sha256,
    ):
        source = inspect.getsource(production)
        assert not re.search(r"\b(Pure[A-Z]|pure_)", source), production
    spec = _shard_spec(ShardPlan(1), 0)
    ShardState(spec)
    with pytest.raises(ValueError, match="only crypto provider"):
        ShardState(dataclasses.replace(spec, crypto_backend="pure"))


def test_shard_view_keeps_nothing_per_hid_looked_up():
    """``ColumnarShardView.get`` used to memoise a record per HID it was
    asked for — a second unbounded per-host cache under the router's.
    The router fetches keys with ``packet_mac_key``; the view holds
    columns and the out-of-plan rows, nothing keyed by lookups."""
    view = ColumnarShardView(ShardPlan(1), 0)
    assert not hasattr(view, "_cache")
    assert "_cache" not in (ROOT / "src/repro/state/view.py").read_text()
    assert "hostdb.get" not in inspect.getsource(BorderRouter)


def test_one_shard_layout():
    """Which host rows a shard owns, and where each lands in its row
    space, is ``ShardPlan``'s alone: numpy is declared, so the state
    package has no fallback arm to keep in step, and the worker's view
    is built from a plan rather than from the numbers to re-derive one."""
    setup = ast.parse((ROOT / "setup.py").read_text())
    requires = next(
        keyword.value
        for node in ast.walk(setup)
        if isinstance(node, ast.Call)
        for keyword in node.keywords
        if keyword.arg == "install_requires"
    )
    assert any(
        re.match(r"numpy\b", ast.literal_eval(item)) for item in requires.elts
    )
    for path in sorted((ROOT / "src/repro/state").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught = {
                    sub.id for sub in ast.walk(node.type) if isinstance(sub, ast.Name)
                }
                assert "ImportError" not in caught, path
    # Spelled in pieces, so that a grep of the tree for it finds none.
    gone = "HAVE_" + "NUMPY"
    for tree in ("src", "tests"):
        for path in sorted((ROOT / tree).rglob("*.py")):
            assert gone not in path.read_text(), path
    assert list(inspect.signature(ColumnarShardView).parameters) == ["plan", "shard"]
    plan = ShardPlan(2)
    spec = _shard_spec(plan, 1)
    assert ShardState(spec).hosts._plan == plan
    with pytest.raises(ValueError, match="only HID -> shard ownership"):
        ShardState(dataclasses.replace(spec, shard_block=4))


def test_one_host_state_writer():
    """The stores are the only writers of host state: a record is
    frozen and a row proxy writes nothing, so ``revoke_hid`` — which
    fires the hook a sharded plane listens on — is the only way to revoke
    a host.  The per-host EphID counters nothing read are gone, as are
    the supervision policy that mirrored three ``ApnaConfig`` options and
    the ownership-block knob."""
    from repro.core.hostdb import HostDatabase, HostRecord
    from repro.core.keys import HostAsKeys
    from repro.sharding import supervisor
    from repro.state import ColumnarHostDatabase
    import repro.sharding as sharding

    assert HostRecord.__dataclass_params__.frozen
    keys = HostAsKeys(control=bytes(16), packet_mac=bytes(16))
    for db in (HostDatabase(), ColumnarHostDatabase()):
        for hid in (3, db.allocate_hid()):  # a service row, a host row
            db.register(HostRecord(hid=hid, keys=keys))
            with pytest.raises(AttributeError):
                db.get(hid).revoked = True
            assert db.is_valid(hid), (type(db).__name__, hid)
    # Spelled in pieces, so that a grep of the tree for them finds none.
    counters = "ephids" + "_"
    for path in sorted((ROOT / "src").rglob("*.py")):
        assert counters not in path.read_text(), path
    policy = "Supervisor" + "Policy"
    assert not hasattr(sharding, policy) and policy not in sharding.__all__
    assert not hasattr(supervisor, policy)
    block = typing.get_type_hints(ShardPlan)["block"]
    assert typing.get_origin(block) is typing.ClassVar
    assert "block" not in {field.name for field in dataclasses.fields(ShardPlan)}


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
        assert not any(value is ledger.config for value in held)


def test_one_data_plane_per_as():
    """A sharded AS judges with its shards alone: no idle in-line router
    or replay filter beside the pool, no start/stop transition to warn
    about, and no silent fallback once the pool is gone."""
    from repro.core.autonomous_system import ApnaAutonomousSystem
    from repro.core.errors import ApnaError
    from repro.core.replay_filter import RotatingReplayFilter
    from repro.topology import WorldBuilder
    from repro.wire.apna import Endpoint

    for method in (
        ApnaAutonomousSystem.start_shard_pool,
        ApnaAutonomousSystem.stop_shard_pool,
    ):
        assert list(inspect.signature(method).parameters) == ["self"], method
    imported = set()
    for node in ast.walk(
        ast.parse((ROOT / "src/repro/core/autonomous_system.py").read_text())
    ):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
    assert "warnings" not in imported

    world = (
        WorldBuilder(
            seed=5,
            config=ApnaConfig(
                replay_protection=True,
                in_network_replay_filter=True,
                forwarding_shards=2,
            ),
        )
        .asys("a", aid=100)
        .asys("b", aid=200)
        .link("a", "b")
        .host("alice", at="a")
        .host("bob", at="b")
        .build()
    )
    try:
        for asys in world.ases:
            assert asys.br is None
            for owner in (asys, asys.node):
                hanging = [
                    value
                    for attr in vars(owner).values()
                    for value in (attr, *getattr(attr, "__dict__", {}).values())
                ]
                assert not any(isinstance(v, RotatingReplayFilter) for v in hanging)
        alice, as_a = world.host("alice"), world.asys("a")
        peer = world.host("bob").acquire_ephid_direct().cert
        packet = alice.stack.make_packet(
            alice.acquire_ephid_direct().ephid,
            Endpoint(peer.aid, peer.ephid),
            b"one data plane",
            nonce=1,
        )
        as_a.node.handle_frame(packet.to_wire(), from_node="alice")
        assert as_a.shard_pool.stats()["forwarded_inter"] == 1
    finally:
        world.close()
    with pytest.raises(ApnaError, match="no shard pool"):
        as_a.node.handle_frame(packet.to_wire(), from_node="alice")


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


#: One sample argument per registered preset (``None``: taken bare).  The
#: population-taking presets share one count, so a second name for an
#: existing shape builds an equal spec and fails below.
_PRESET_SAMPLES = {
    "chain": "4",
    "crash-storm": "4",
    "fig1": None,
    "metro": "4",
    "shutoff-storm": "4",
    "star": "4",
    "transit-stub": "2x2",
}


def test_one_trace_draw_one_name_per_topology():
    """The trace is drawn one way and replayed one way, and each topology
    has one preset name: no draw scheme kept only so an old seeded world
    stays bit-identical, no ``stream`` knob choosing between two replay
    loops, and no alias preset that builds another preset's spec."""
    from repro import scenarios
    from repro.workload import TraceGenerator, TrafficProfile

    unsampled = sorted(set(scenarios.names()) - set(_PRESET_SAMPLES))
    assert not unsampled, f"add a sample argument for presets {unsampled}"
    specs = {
        name: scenarios.spec(name if arg is None else f"{name}:{arg}")
        for name, arg in _PRESET_SAMPLES.items()
    }
    same = [
        (left, right)
        for i, left in enumerate(specs)
        for right in list(specs)[i + 1 :]
        if specs[left] == specs[right]
    ]
    assert not same, f"presets naming one topology: {same}"

    # Spelled in pieces, so that a grep of the tree for it finds none.
    knobs = {"stream", "stream" + "_chunk"}
    fields = {field.name for field in dataclasses.fields(TrafficProfile)}
    assert len(fields) == 12 and not fields & knobs
    for gone in ("generate", "arrival_times", "durations", "hosts_for"):
        assert not hasattr(TraceGenerator, gone), gone
