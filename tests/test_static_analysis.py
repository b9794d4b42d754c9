"""Tier-1 driver + self-tests for :mod:`repro.analysis`.

Four layers:

1. **The tree is clean** — every registered rule over all of
   ``src/repro`` (with ``tests/``, ``bench/``, ``examples/`` and
   ``setup.py`` as context) yields zero findings: one in-process report
   per session, and the real CLI (``python -m repro.analysis --format
   json``), which is what CI gates on, must print that same report.
2. **Every rule provably detects** — per-rule known-bad/known-good
   fixture pairs, the self-testing-detector pattern the original
   audits established: a rule that silently stops firing is itself a
   regression.
3. **Inline ``# audit: allow(...)``** is the one suppression, and it is
   rule-specific.
4. **The pins** — each "one way to do it" PR's pin, now a table row of
   a rule, fails on the mutation that PR recorded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import DEFAULT_ROOT, RULES, Module, Project, run_analysis

ROOT = Path(__file__).resolve().parent.parent

EXPECTED_RULES = {
    "ct-compare",
    "shard-routing-mod",
    "secret-hygiene",
    "determinism",
    "bounded-wait",
    "pickle-free-wire",
    "wire-protocol-completeness",
    "silent-except",
    "scenario-coverage",
    "doc-references",
    "bounded-cache",
    "production-caller",
    "gone-names",
    "identifier-homes",
    "third-party-imports",
    "option-surface",
    "one-nonce-source",
}


def findings_of(rule_name: str, source: str, rel: str):
    """Raw findings of one rule over an in-memory snippet."""
    rule = RULES[rule_name]
    assert rule.applies_to(rel), f"{rel} must be in {rule_name}'s scope"
    return list(rule.check_module(Module(rel, source)))


def fires(rule_name: str, sources: dict, context: "dict | None" = None):
    """Findings of one project-wide rule over an in-memory tree (and the
    ``tests/`` / ``bench/`` / ``examples/`` / ``setup.py`` context)."""
    project = Project(sources=sources, context=context or {})
    return list(RULES[rule_name].check_project(project))


@pytest.fixture(scope="session")
def report():
    """The whole tree, analysed once for every real-tree test."""
    return run_analysis()


# --------------------------------------------------------------------------
# 1. The tree is clean (tier-1 gate)


def test_all_rules_registered():
    assert EXPECTED_RULES <= set(RULES), sorted(RULES)
    assert len(RULES) >= 10
    # Scope pins: every per-module rule's scope still matches files (an
    # audited module that moved would silently drop out of its rule).
    for rule in RULES.values():
        for pattern in () if rule.project_wide else rule.scope:
            assert list(DEFAULT_ROOT.glob(pattern)), (rule.name, pattern)


def test_source_tree_has_no_new_findings(report):
    assert not report.findings, "static-invariant violations:\n" + "\n".join(
        f.render() for f in report.findings
    )
    assert set(report.rules) == set(RULES) and report.checked_files > 100


def _cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return env


def test_cli_json_run_is_clean(report):
    """The CI entry point: the real CLI, JSON out, exit status 0, and
    the very findings and suppressions the in-process run reports."""
    result = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "--format", "json"],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=_cli_env(),
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert json.loads(result.stdout) == report.to_json()


def test_console_entry_point_declared():
    setup = (ROOT / "setup.py").read_text()
    assert "repro-analyze" in setup and "repro.analysis.cli:main" in setup


def test_cli_rejects_unknown_rule():
    result = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "--rule", "no-such-rule"],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=_cli_env(),
    )
    assert result.returncode == 2
    assert "unknown rule" in result.stderr


# --------------------------------------------------------------------------
# 2. Per-rule known-bad / known-good fixtures


def test_ct_compare_detects_and_passes():
    bad = "def check(tag, presented):\n    return tag == presented\n"
    assert findings_of("ct-compare", bad, "crypto/fixture.py")
    good = (
        "from .util import ct_eq\n"
        "def check(tag, presented):\n"
        "    if len(tag) != 4:\n"  # length compares are fine
        "        return False\n"
        "    return ct_eq(tag, presented)\n"
    )
    assert not findings_of("ct-compare", good, "crypto/fixture.py")
    # The `presented != expected` idiom (PassportVerifier, PR 3): neither
    # local is named after the tag itself.
    renamed = (
        "def verify(presented, data, key):\n"
        "    expected = cmac(key, data)\n"
        "    return not (presented != expected)\n"
    )
    assert findings_of("ct-compare", renamed, "crypto/fixture.py")
    sizes_and_keys = "def check():\n    return tag_length == 4 and enc_key == mac_key\n"
    assert not findings_of("ct-compare", sizes_and_keys, "crypto/fixture.py")
    # Columnar code compares slices and indexed columns, not bare names:
    # the operand is named by the base under the subscript, or by the
    # slice constant it reads.
    for columnar in (
        "tags[k] == frame[40:48]",
        "frame[40:48] != self.tags[k][:8]",
        "frames[k][_MAC] == computed",
    ):
        bad = f"def check(tags, frame, frames, k, computed):\n    return {columnar}\n"
        assert findings_of("ct-compare", bad, "core/border_router.py"), columnar
    good = (
        "def check(tags, frame, k, aid, tag_sizes):\n"
        "    if frame[_SRC_AID] != aid or tag_sizes[k] != 8:\n"
        "        return False\n"
        "    return ct_eq(tags[k], frame[_MAC])\n"
    )
    assert not findings_of("ct-compare", good, "core/border_router.py")
    assert RULES["ct-compare"].applies_to("core/border_router.py")
    # PR 24: the NAT AP's client-frame check as it stood — in a module
    # the rule's listed scope left out, like the shutoff agent's kHA
    # check and the host's own.  The scope is the whole tree now.
    lc_open = (
        "def _lc_open(mac, frame_bytes):\n"
        "    head, tag = frame_bytes[:-8], frame_bytes[-8:]\n"
        "    if mac.tag(head, 8) != tag:\n"
        "        raise MacError('local control frame failed authentication')\n"
        "    return head[0], head[1:]\n"
    )
    assert findings_of("ct-compare", lc_open, "gateway/ap.py")
    for rel in ("core/accountability.py", "core/host.py", "sharding/wire.py"):
        assert RULES["ct-compare"].applies_to(rel)


def test_shard_routing_mod_detects_and_passes():
    bad = "def shard_of(iv, nshards):\n    return iv % nshards\n"
    assert findings_of("shard-routing-mod", bad, "sharding/fixture.py")
    good = (
        "def shard_of(plan, iv):\n"
        "    wrapped = iv % 2**32\n"  # constant modulus is not routing
        "    return plan.owners_of_iv_bytes([wrapped.to_bytes(4, 'big')])\n"
    )
    assert not findings_of("shard-routing-mod", good, "sharding/fixture.py")
    # plan.py itself is the one sanctioned home of shard arithmetic.
    assert not RULES["shard-routing-mod"].applies_to("sharding/plan.py")
    # HID-block ownership re-derived beside the plan — the copies the
    # state package once held — fires like routing does: two copies of
    # the partition can disagree.
    stripe = (
        "def _orow(self, hid):\n"
        "    blk, off = divmod(hid - FIRST_HOST_HID, self._block)\n"
        "    if blk % self._nshards != self._shard:\n"
        "        return -1\n"
        "    return (blk // self._nshards) * self._block + off\n"
    )
    for rel in ("state/view.py", "state/columns.py", "core/hostdb.py"):
        assert findings_of("shard-routing-mod", stripe, rel), rel


def test_secret_hygiene_detects_and_passes():
    fstring = 'def show(master):\n    return f"as secret: {master}"\n'
    assert findings_of("secret-hygiene", fstring, "core/fixture.py")
    repr_leak = (
        "class AsSecret:\n"
        "    def __repr__(self):\n"
        "        return '<AsSecret %s>' % self.routing_key.hex()\n"
    )
    assert findings_of("secret-hygiene", repr_leak, "core/fixture.py")
    raised = (
        "def check(kha):\n"
        "    raise ValueError(kha)\n"
    )
    assert findings_of("secret-hygiene", raised, "core/fixture.py")
    logged = "def note(log, master_key):\n    log.warning(master_key)\n"
    assert findings_of("secret-hygiene", logged, "core/fixture.py")
    good = (
        "def show(master, key):\n"
        '    return f"key is {len(key)} bytes, master id {master_id(master)}"\n'
        "def master_id(master):\n"
        "    return 7\n"
    )
    assert not findings_of("secret-hygiene", good, "core/fixture.py")
    # The four audited __repr__ hosts stay clean (PR 9 satellite).
    rule = RULES["secret-hygiene"]
    for rel in (
        "faults/plan.py",
        "sharding/pool.py",
        "state/columns.py",
        "topology.py",
    ):
        path = DEFAULT_ROOT / rel
        assert path.is_file(), f"audited module moved or deleted: {rel}"
        module = Module(rel, path.read_text())
        assert not list(rule.check_module(module)), rel


def test_determinism_detects_and_passes():
    cases = [
        "import time\ndef now():\n    return time.time()\n",
        "from time import time\ndef now():\n    return time()\n",
        "import os\ndef draw():\n    return os.urandom(8)\n",
        "import secrets\ndef draw():\n    return secrets.token_bytes(8)\n",
        "import random\ndef draw():\n    return random.randint(0, 5)\n",
        "from random import Random\ndef rng():\n    return Random()\n",
    ]
    for bad in cases:
        assert findings_of("determinism", bad, "workload/fixture.py"), bad
    good = (
        "import random\n"
        "import time\n"
        "def rng(seed):\n"
        "    return random.Random(seed)\n"
        "def stopwatch():\n"
        "    return time.perf_counter()\n"  # measurement, not sim state
    )
    assert not findings_of("determinism", good, "workload/fixture.py")
    # The sanctioned seams really are carved out of scope.
    rule = RULES["determinism"]
    assert not rule.applies_to("crypto/rng.py")
    assert not rule.applies_to("metrics/timing.py")
    assert rule.applies_to("sharding/pool.py")


def test_bounded_wait_detects_and_passes():
    bad = "def pull(conn):\n    return conn.recv_bytes()\n"
    assert findings_of("bounded-wait", bad, "sharding/fixture.py")
    none_timeout = "def pull(pool):\n    return pool.recv_bytes(0, timeout=None)\n"
    assert findings_of("bounded-wait", none_timeout, "sharding/fixture.py")
    polled = (
        "def pull(conn, timeout):\n"
        "    if not conn.poll(timeout):\n"
        "        raise TimeoutError\n"
        "    return conn.recv_bytes()\n"
    )
    assert not findings_of("bounded-wait", polled, "sharding/fixture.py")
    passed_through = (
        "def pull(pool, shard):\n"
        "    return pool.recv_bytes(shard, timeout=5.0)\n"
    )
    assert not findings_of("bounded-wait", passed_through, "sharding/fixture.py")
    # The fault carrier reads the same pipes: same rule.
    assert findings_of("bounded-wait", bad, "faults/fixture.py")
    assert not findings_of("bounded-wait", passed_through, "faults/fixture.py")
    # Out of scope outside the sharding and faults packages.
    assert not RULES["bounded-wait"].applies_to("core/hostdb.py")


def test_pickle_free_wire_detects_and_passes():
    bad = "def ship(conn, obj):\n    conn.send(obj)\n    return conn.recv()\n"
    assert len(findings_of("pickle-free-wire", bad, "sharding/fixture.py")) == 2
    assert len(findings_of("pickle-free-wire", bad, "faults/fixture.py")) == 2
    good = (
        "def ship(conn, frame):\n"
        "    conn.send_bytes(frame)\n"
        "    return conn.recv_bytes()\n"
    )
    assert not findings_of("pickle-free-wire", good, "sharding/fixture.py")


def _wire_project(wire_extra="", pool_extra="", worker_extra=""):
    """A minimal synthetic dispatcher/worker pair over a toy protocol."""
    wire = (
        "MSG_PING = 1\n"
        "MSG_PONG = 2\n"
        f"{wire_extra}"
        "def encode_ping(n):\n"
        "    return bytes([MSG_PING]) + bytes(n)\n"
        "def decode_ping(msg):\n"
        "    return len(msg) - 1\n"
        "def encode_pong(n):\n"
        "    return bytes([MSG_PONG]) + bytes(n)\n"
        "def decode_pong(msg):\n"
        "    return len(msg) - 1\n"
    )
    pool = (
        "from . import wire\n"
        "def ask(conn):\n"
        "    conn.send_bytes(wire.encode_ping(3))\n"
        "    msg = conn.recv_bytes(timeout=1.0)\n"
        "    return wire.decode_pong(msg)\n"
        f"{pool_extra}"
    )
    worker = (
        "from . import wire\n"
        "def serve(conn, msg):\n"
        "    if msg[0] == wire.MSG_PING:\n"
        "        conn.send_bytes(wire.encode_pong(wire.decode_ping(msg)))\n"
        f"{worker_extra}"
    )
    return Project(
        sources={
            "sharding/wire.py": wire,
            "sharding/pool.py": pool,
            "sharding/supervisor.py": "",
            "sharding/worker.py": worker,
            "sharding/issuance.py": "",
        }
    )


def _wire_findings(project):
    return list(RULES["wire-protocol-completeness"].check_project(project))


def test_wire_protocol_complete_fixture_passes():
    assert not _wire_findings(_wire_project())


def test_wire_protocol_detects_unsent_kind():
    found = _wire_findings(_wire_project(wire_extra="MSG_LOST = 9\n"))
    assert any("MSG_LOST" in f.message and "never encoded" in f.message for f in found)


def test_wire_protocol_detects_missing_worker_arm():
    # The dispatcher starts sending a kind no worker arm handles.
    found = _wire_findings(
        _wire_project(
            wire_extra="MSG_FLUSH = 9\n",
            pool_extra=(
                "def flush(conn):\n"
                "    conn.send_bytes(bytes([wire.MSG_FLUSH]))\n"
            ),
        )
    )
    assert any(
        "MSG_FLUSH" in f.message and "no worker dispatch arm" in f.message
        for f in found
    )


def test_wire_protocol_detects_undecoded_reply():
    # The worker starts answering with a kind the dispatcher never reads.
    unread = dict(
        wire_extra=(
            "MSG_NOTE = 9\n"
            "def encode_note(n):\n"
            "    return bytes([MSG_NOTE]) + bytes(n)\n"
            "def decode_note(msg):\n"
            "    return len(msg) - 1\n"
        ),
        worker_extra=(
            "def note(conn):\n"
            "    conn.send_bytes(wire.encode_note(1))\n"
        ),
    )
    found = _wire_findings(_wire_project(**unread))
    assert any(
        "MSG_NOTE" in f.message and "dispatcher never decodes" in f.message
        for f in found
    )
    # Handing the decoder to the call that reads the reply is reading it:
    # the dispatcher gives the ledger's one reply method its decoder.
    by_reference = (
        "def note(ledger):\n"
        "    return ledger.reply_from(0, wire.decode_note, 'note')\n"
    )
    assert not _wire_findings(_wire_project(**unread, pool_extra=by_reference))


def test_wire_protocol_detects_encoder_without_decoder():
    found = _wire_findings(
        _wire_project(
            wire_extra=(
                "MSG_ODD = 9\n"
                "def encode_odd(n):\n"
                "    return bytes([MSG_ODD]) + bytes(n)\n"
            ),
            pool_extra=(
                "def odd(conn):\n"
                "    conn.send_bytes(wire.encode_odd(1))\n"
            ),
            worker_extra=(
                "def serve_odd(conn, msg):\n"
                "    return msg[0] == wire.MSG_ODD\n"
            ),
        )
    )
    assert any("encode_odd has no matching decode_odd" in f.message for f in found)


_FIXTURE_SCENARIOS = (
    "def register(name, description=None):\n"
    "    def deco(fn):\n"
    "        return fn\n"
    "    return deco\n"
    "@register('fig1', description='two ASes')\n"
    "def _fig1(arg):\n"
    "    return None\n"
    "@register('metro', description='metro:N')\n"
    "def _metro(arg):\n"
    "    return None\n"
)


def _scenario_project(tmp_path, test_source):
    """An on-disk src/repro + tests tree, the shape the rule resolves."""
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "scenarios.py").write_text(_FIXTURE_SCENARIOS)
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_fixture.py").write_text(test_source)
    return Project(root=pkg)


def _coverage_findings(project):
    return list(RULES["scenario-coverage"].check_project(project))


def test_scenario_coverage_detects_unreferenced_preset(tmp_path):
    # Only fig1 is exercised; metro (arg-taking or not) is never named.
    found = _coverage_findings(
        _scenario_project(tmp_path, "def test_world():\n    build('fig1')\n")
    )
    assert len(found) == 1
    assert "metro" in found[0].message and "no test" in found[0].message


def test_scenario_coverage_passes_when_all_presets_referenced(tmp_path):
    # Both the bare form and the arg-taking "name:..." form count.
    covered = (
        "def test_world():\n"
        "    build('fig1')\n"
        "    build('metro:100k')\n"
    )
    assert not _coverage_findings(_scenario_project(tmp_path, covered))


def test_scenario_coverage_silent_without_tests_dir():
    # Synthetic in-memory projects have no tests tree — stay silent
    # rather than flagging every preset.
    project = Project(sources={"scenarios.py": _FIXTURE_SCENARIOS})
    assert not _coverage_findings(project)


def _doc_project(tmp_path, docstring):
    """An on-disk repo around src/repro, the shape the rule resolves."""
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "fixture.py").write_text(f'"""{docstring}"""\n')
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_real.py").write_text("")
    (tmp_path / "NOTES.md").write_text("")
    return Project(root=pkg)


def test_doc_references_detects_and_passes(tmp_path):
    rule = RULES["doc-references"]
    bad = _doc_project(
        tmp_path / "bad",
        "Design in DESIGN.md;\npinned by ``tests/test_gone.py``.",
    )
    found = list(rule.check_project(bad))
    assert [(f.line, f.message.split("'")[1]) for f in found] == [
        (1, "DESIGN.md"),
        (2, "tests/test_gone.py"),
    ]
    good = _doc_project(
        tmp_path / "good",
        "Notes in NOTES.md; pinned by ``tests/test_real.py``; a.md5 is no doc.",
    )
    assert not list(rule.check_project(good))
    # In-memory projects have no repo to resolve against: stay silent.
    assert not list(rule.check_project(Project(sources={"x.py": '"""DESIGN.md"""'})))


def test_silent_except_detects_and_passes():
    bad = "def run(job):\n    try:\n        job()\n    except Exception:\n        pass\n"
    assert findings_of("silent-except", bad, "core/fixture.py")
    bare = "def run(job):\n    try:\n        job()\n    except:\n        pass\n"
    assert findings_of("silent-except", bare, "core/fixture.py")
    narrowed = (
        "def run(job):\n"
        "    try:\n"
        "        job()\n"
        "    except KeyError:\n"
        "        pass\n"
    )
    assert not findings_of("silent-except", narrowed, "core/fixture.py")
    bound = (
        "def run(job, log):\n"
        "    try:\n"
        "        job()\n"
        "    except Exception as exc:\n"
        "        log.append(exc)\n"
    )
    assert not findings_of("silent-except", bound, "core/fixture.py")
    reraised = (
        "def run(job):\n"
        "    try:\n"
        "        job()\n"
        "    except Exception:\n"
        "        raise RuntimeError('job failed')\n"
    )
    assert not findings_of("silent-except", reraised, "core/fixture.py")


def test_bounded_cache_detects_and_passes():
    # The three shapes PR 20 removed.  The router's: filled on a miss,
    # never evicted.
    mac_cache = (
        "class BorderRouter:\n"
        "    def __init__(self):\n"
        "        self._mac_cache: dict[int, object] = {}\n"
        "    def _mac_for(self, hid):\n"
        "        mac = self._mac_cache.get(hid)\n"
        "        if mac is None:\n"
        "            mac = self._mac_cache[hid] = build(hid)\n"
        "        return mac\n"
    )
    (finding,) = findings_of("bounded-cache", mac_cache, "core/border_router.py")
    assert finding.line == 3 and "_mac_cache" in finding.message
    # The MS's: the same through a constructor call.
    scheme_cache = mac_cache.replace(
        "_mac_cache: dict[int, object] = {}", "_scheme_cache = dict()"
    ).replace("_mac_cache", "_scheme_cache")
    assert findings_of("bounded-cache", scheme_cache, "core/management.py")
    # The shard view's: a pop exists, but on the *write* path of another
    # store — invalidation, not a bound on what ``get`` inserts.
    view_cache = (
        "class ColumnarShardView:\n"
        "    def __init__(self):\n"
        "        self._cache = {}\n"
        "    def add_owned(self, hid, keys):\n"
        "        self._keys[hid] = keys\n"
        "        self._cache.pop(hid, None)\n"
        "    def get(self, hid):\n"
        "        record = self._cache.get(hid)\n"
        "        if record is None:\n"
        "            record = self._cache[hid] = self._build(hid)\n"
        "        return record\n"
        "    def load_snapshot(self, snap):\n"
        "        self._cache = {}\n"
    )
    (finding,) = findings_of("bounded-cache", view_cache, "state/view.py")
    assert finding.line == 3
    ordered = (
        "from collections import OrderedDict\n"
        "class Worker:\n"
        "    def __init__(self):\n"
        "        self.reply_cache = OrderedDict()\n"
        "    def remember(self, seq, reply):\n"
        "        self.reply_cache[seq] = reply\n"
    )
    assert findings_of("bounded-cache", ordered, "sharding/worker.py")
    seen = "class W:\n    def __init__(self):\n        self.seen_cache = set()\n"
    assert findings_of("bounded-cache", seen, "sharding/worker.py")

    # Known-good: evicted on the insert path (through a local alias)...
    evicting = (
        "from collections import OrderedDict\n"
        "class BorderRouter:\n"
        "    def __init__(self):\n"
        "        self._mac_cache = OrderedDict()\n"
        "    def _mac_for(self, hid):\n"
        "        cache = self._mac_cache\n"
        "        mac = cache.get(hid)\n"
        "        if mac is None:\n"
        "            mac = cache[hid] = build(hid)\n"
        "            if len(cache) > 8192:\n"  # a literal is not the bound...
        "                cache.popitem(last=False)\n"  # ...the eviction is
        "        return mac\n"
    )
    assert not findings_of("bounded-cache", evicting, "core/border_router.py")
    # ...length-checked against a module-level constant...
    capped = (
        "TABLE_CAP = 4096\n"
        "class Interner:\n"
        "    def __init__(self):\n"
        "        self._cache = {}\n"
        "    def of(self, record):\n"
        "        value = self._cache.get(record)\n"
        "        if value is None:\n"
        "            value = build(record)\n"
        "            if len(self._cache) < TABLE_CAP:\n"
        "                self._cache[record] = value\n"
        "        return value\n"
    )
    assert not findings_of("bounded-cache", capped, "state/view.py")
    # ...but not against a literal or a local.
    uncapped = capped.replace("TABLE_CAP = 4096\n", "").replace(
        "TABLE_CAP", "4096"
    )
    assert findings_of("bounded-cache", uncapped, "state/view.py")
    # ...or built bounded: the shared LRU (what the tree does), and
    # attributes that are not caches at all.
    lru = (
        "from .lru import LruCache\n"
        "MAC_CACHE_CAPACITY = 8192\n"
        "class BorderRouter:\n"
        "    def __init__(self):\n"
        "        self._mac_cache = LruCache(MAC_CACHE_CAPACITY)\n"
        "        self.drops = {}\n"
    )
    assert not findings_of("bounded-cache", lru, "core/border_router.py")
    # Scoped to the packet/request-path modules only.
    assert not RULES["bounded-cache"].applies_to("pathval/keys.py")


def test_bounded_cache_covers_module_level_tables():
    # Known-bad: sharding/plan.py's per-burst-size unpackers as they stood
    # before PR 23 — one compiled Struct per distinct sub-burst size, kept
    # forever in a module-level dict no class-scoped check looked at.
    tag_words = (
        "import struct\n"
        '_TAG_WORDS_CACHE: "dict[int, struct.Struct]" = {}\n'
        "def _tag_words(count):\n"
        "    cached = _TAG_WORDS_CACHE.get(count)\n"
        "    if cached is None:\n"
        '        cached = _TAG_WORDS_CACHE[count] = struct.Struct(">" + "Q8x" * count)\n'
        "    return cached\n"
    )
    (finding,) = findings_of("bounded-cache", tag_words, "sharding/plan.py")
    assert finding.line == 6
    assert "_tag_words()" in finding.message and "_TAG_WORDS_CACHE" in finding.message
    # The same through ``dict()``, ``setdefault`` and a local alias.
    aliased = (
        "_ROUTE_TABLE = dict()\n"
        "def route(key):\n"
        "    table = _ROUTE_TABLE\n"
        "    return table.setdefault(key, build(key))\n"
    )
    assert findings_of("bounded-cache", aliased, "sharding/wire.py")
    # Known-good: core/verdict.py's intern table, capped where it stores.
    verdict_table = (
        "VERDICT_TABLE_CAP = 4096\n"
        '_VERDICT_TABLE: "dict[bytes, Verdict]" = {}\n'
        "def verdict_of(record):\n"
        "    verdict = _VERDICT_TABLE.get(record)\n"
        "    if verdict is None:\n"
        "        verdict = build(record)\n"
        "        if len(_VERDICT_TABLE) < VERDICT_TABLE_CAP:\n"
        "            _VERDICT_TABLE[record] = verdict\n"
        "    return verdict\n"
    )
    assert not findings_of("bounded-cache", verdict_table, "core/verdict.py")
    # A cap checked in some *other* function bounds nothing here...
    elsewhere = verdict_table.replace(
        "        if len(_VERDICT_TABLE) < VERDICT_TABLE_CAP:\n    ", ""
    ) + (
        "def full():\n"
        "    return len(_VERDICT_TABLE) >= VERDICT_TABLE_CAP\n"
    )
    assert findings_of("bounded-cache", elsewhere, "core/verdict.py")
    # ...while evicting where it inserts does, and so does never storing:
    # a table filled once at import (DROP_RECORDS-style) is not a cache.
    evicting = (
        "_SEEN_TABLE = {}\n"
        "def remember(key, value):\n"
        "    _SEEN_TABLE[key] = value\n"
        "    if len(_SEEN_TABLE) > 64:\n"
        "        _SEEN_TABLE.pop(next(iter(_SEEN_TABLE)))\n"
    )
    assert not findings_of("bounded-cache", evicting, "core/ephid.py")
    read_only = '_KIND_TABLE = {1: "burst"}\ndef kind(k):\n    return _KIND_TABLE[k]\n'
    assert not findings_of("bounded-cache", read_only, "sharding/wire.py")
    # Names outside the pattern are not this rule's business.
    other = tag_words.replace("_TAG_WORDS_CACHE", "_unpackers")
    assert not findings_of("bounded-cache", other, "sharding/plan.py")
    # The real parent file shape is in scope under its real path.
    for rel in ("sharding/plan.py", "sharding/wire.py", "core/verdict.py", "core/ephid.py"):
        assert RULES["bounded-cache"].applies_to(rel)


# --------------------------------------------------------------------------
# 3. Inline suppressions


def test_inline_suppression_same_line_and_line_above():
    same_line = (
        "def shard_of(iv, nshards):\n"
        "    return iv % nshards  # audit: allow(shard-routing-mod) fixture\n"
    )
    line_above = (
        "def shard_of(iv, nshards):\n"
        "    # audit: allow(shard-routing-mod) — fixture justification\n"
        "    return iv % nshards\n"
    )
    for source in (same_line, line_above):
        report = run_analysis(
            project=Project(sources={"sharding/fixture.py": source}),
            rules=["shard-routing-mod"],
        )
        assert not report.findings and len(report.suppressed) == 1


def test_suppression_is_rule_specific_and_string_safe():
    wrong_rule = (
        "def shard_of(iv, nshards):\n"
        "    return iv % nshards  # audit: allow(ct-compare)\n"
    )
    report = run_analysis(
        project=Project(sources={"sharding/fixture.py": wrong_rule}),
        rules=["shard-routing-mod"],
    )
    assert len(report.findings) == 1 and not report.suppressed
    # A '#' inside a string literal cannot fake a suppression.
    in_string = (
        "COMMENT = '# audit: allow(shard-routing-mod)'\n"
        "def shard_of(iv, nshards):\n"
        "    return iv % nshards\n"
    )
    report = run_analysis(
        project=Project(sources={"sharding/fixture.py": in_string}),
        rules=["shard-routing-mod"],
    )
    assert len(report.findings) == 1 and not report.suppressed


def test_bounded_cache_covers_append_only_lists():
    # Known-bad: the supervisor's failure log as it stood, appended on
    # every failure and restart attempt for the plane's whole life.
    ledger = (
        "class ShardSupervisor:\n"
        "    def __init__(self):\n"
        '        self.failures: "list[tuple[int, str]]" = []\n'
        "    def _shard_failed(self, shard, cause):\n"
        "        self.failures.append((shard, cause))\n"
    )
    (finding,) = findings_of("bounded-cache", ledger, "sharding/supervisor.py")
    assert finding.line == 3 and "self.failures" in finding.message
    # Known-good: a ticket's pending list, appended by the supervisor and
    # popped and rewritten as replies pair up.
    pending = (
        "class Ticket:\n"
        "    def __init__(self):\n"
        "        self.pending = []\n"
        "class ShardSupervisor:\n"
        "    def submit(self, ticket, entry):\n"
        "        ticket.pending.append(entry)\n"
        "    def collect(self, ticket, kept):\n"
        "        ticket.pending.pop(0)\n"
        "        ticket.pending[:] = kept\n"
    )
    assert not findings_of("bounded-cache", pending, "sharding/supervisor.py")
    bounded = ledger.replace('"list[tuple[int, str]]" = []', "deque(maxlen=64)")
    assert not findings_of("bounded-cache", bounded, "sharding/supervisor.py")


# --------------------------------------------------------------------------
# 4. The pins and the production-caller graph


def test_src_definitions_have_a_production_caller():
    """PR 32 matched callers by name, so a test-only ``pack`` or
    ``ota_listen`` passed on another class's caller; the graph resolves
    ``A().m``, ``self.m`` and ``self.x.m`` and tells them apart."""
    host = "class ApnaHostNode:\n    def __init__(self):\n        self.stack = Stack()\n"
    tree = {
        "wire/a.py": "class A:\n    def pack(self): ...\n    def size(self): ...\n",
        "wire/b.py": "class B:\n    def pack(self): ...\n",
        "core/host.py": host + "    def handle_frame(self, f):\n        self.stack.accept(f)\n"
        "    def ota_listen(self, port): ...\nclass Stack:\n    def accept(self, f): ...\n",
        "gateway/ap.py": "class Ap:\n    def ota_listen(self, port): ...\n"
        "    def handle_frame(self, f):\n        self.ota_listen(1)\n",
        "__main__.py": "from .wire.a import A\nfrom .wire.b import B\n"
        "from .core.host import ApnaHostNode\nfrom .gateway.ap import Ap\n"
        "A().size()\nB().pack()\nApnaHostNode().handle_frame(b'')\n"
        "Ap().handle_frame(b'')\n",
    }

    def unreached(sources):
        return {f.message.split()[0] for f in fires("production-caller", sources)}

    assert unreached(tree) == {"A.pack", "ApnaHostNode.ota_listen"}
    # A receiver of unknown type falls back to the name, as PR 32 did...
    main = tree["__main__.py"] + "def go(x):\n    x.pack()\n    x.ota_listen(1)\ngo(None)\n"
    assert not unreached({**tree, "__main__.py": main})
    # ...and an inline allow keeps a definition, and what it calls.
    kept = "class A:\n    # audit: allow(production-caller) fixture\n    def pack(self): ...\n"
    assert unreached({**tree, "wire/a.py": kept}) == {"ApnaHostNode.ota_listen"}


def _gone(sources: dict, context: "dict | None" = None) -> "set[str]":
    """The identifiers ``gone-names`` reports over an in-memory tree."""
    return {f.message.split("'")[1] for f in fires("gone-names", sources, context)}


def _homes(sources: dict, context: "dict | None" = None) -> "set[tuple[str, int]]":
    return {(f.file, f.line) for f in fires("identifier-homes", sources, context)}


def _config(extra: str = "", fields=None) -> dict:
    from repro.analysis.rules_pins import SURFACES

    fields = fields or SURFACES["core/config.py:ApnaConfig"][1]
    body = "".join(f"    {n}: int = 0\n" for n in fields)
    return {"core/config.py": "class ApnaConfig:\n" + body + extra}


def _setting(*names) -> dict:
    return {"tests/test_x.py": "ApnaConfig(" + ", ".join(f"{n}=1" for n in names) + ")\n"}


def test_option_surface_only_shrinks():
    """PR 20: a new ``ApnaConfig`` / ``ShardSpec`` field is a visible edit
    to the pin, not a quiet knob; a paper constant is a ``ClassVar``."""
    from repro.analysis.rules_pins import SURFACES

    setters = _setting(*SURFACES["core/config.py:ApnaConfig"][1])
    assert not fires("option-surface", _config(), setters)
    assert fires("option-surface", _config("    mac_cache_capacity: int = 8192\n"), setters)
    assert not fires("option-surface", _config("    lifetime: ClassVar[float] = 900.0\n"), setters)


def test_every_option_has_a_caller_that_sets_it():
    """PR 28: a field no caller sets is a constant in an option's clothes."""
    from repro.analysis.rules_pins import SURFACES

    fields = SURFACES["core/config.py:ApnaConfig"][1]
    unset = _setting(*(n for n in fields if n != "forwarding_shards"))
    (finding,) = fires("option-surface", _config(), unset)
    assert "forwarding_shards" in finding.message
    unset["examples/x.py"] = "replace(c, forwarding_shards=2)\n"
    assert not fires("option-surface", _config(), unset)


def test_one_packet_mac():
    """PR 28: one Fig. 7 MAC width and one signer; the deleted knobs stay
    deleted."""
    reader = {"core/host.py": "def send(c):\n    return c.packet_mac_size\n"}
    assert _homes(reader) == {("core/host.py", 2)}
    signer = "class ApnaHeader:\n    def signed(self, cmac):\n        return self.with_mac(cmac)\n"
    assert not _homes({"wire/apna.py": signer})
    assert _homes({"wire/apna.py": signer, "core/host.py": "def f(h):\n    h.with_mac(b'')\n"})
    assert _gone({
        "core/config.py": "class ApnaConfig:\n    aead_scheme: str = 'etm'\n",
        "core/autonomous_system.py": "class ServiceIdentity:\n"
        "    def make_packet(self, dst, mac_size=8): ...\n",
    }) == {"aead_scheme", "mac_size"}


def test_one_verdict_path():
    """PR 31: ``judge`` is the one reader of ``asys.br``; the scalar
    pipelines are the spec; E2 keeps no verdict that holds by construction."""
    judge = (
        "class ApnaAutonomousSystem:\n    def __init__(self):\n        self.br = None\n"
        "    def judge(self, frames):\n        return self.br.process_burst(frames)\n"
    )
    assert not _homes({"core/autonomous_system.py": judge})
    reader = "def forward(asys, frames):\n    return asys.br.process_burst(frames)\n"
    assert _homes({"core/autonomous_system.py": judge, "experiments/e2.py": reader})
    scalar = "def run(router, packet):\n    return router.process_outgoing(packet)\n"
    assert _homes({}, {"examples/tool.py": scalar}) == {("examples/tool.py", 2)}
    assert not _homes({"evaluation/cases.py": scalar})
    e2 = {"experiments/e2_figure8.py": "class E2Result:\n    no_penalty: bool\n"}
    assert _gone(e2) == {"no_penalty"}


def test_one_state_family():
    """PR 21: no object arm, factory or replica, and ``state_backend``
    only where ``bench/`` needs it."""
    arm = (
        "class ApnaConfig:\n    def __post_init__(self):\n"
        "        if self.state_backend == 'object': ...\n"
    )
    assert _gone({"core/config.py": arm}) == {'"object"'}
    assert not _gone({"core/config.py": arm.replace("object", "columnar")})
    assert _gone({"state/__init__.py": "def make_host_database(): ...\n"})
    assert _homes({"core/autonomous_system.py": "def f(c):\n    return c.state_backend\n"})


def test_one_crypto_provider():
    """PR 26: OpenSSL is the system, the from-scratch code the spec; no
    backend switch, and ``crypto/`` the one importer of cryptography."""
    imports = "from cryptography.hazmat.primitives import cmac\n"
    setup = {"setup.py": "setup(install_requires=['cryptography>=40', 'numpy'])\n"}
    assert not fires("third-party-imports", {"crypto/cmac.py": imports}, setup)
    (finding,) = fires("third-party-imports", {"core/border_router.py": imports}, setup)
    assert "outside its home" in finding.message
    assert _gone({
        "crypto/aes.py": "class AES:\n    def __init__(self, key, backend=None): ...\n",
        "crypto/backend.py": "NAME = 'REPRO_CRYPTO_BACKEND'\n",
    }) == {"backend", '"REPRO_CRYPTO_BACKEND"'}
    facade = "class AES:\n    def encrypt(self, b):\n        return PureAES(self.key).encrypt(b)\n"
    assert _homes({"crypto/aes.py": facade}) == {("crypto/aes.py", 3)}
    spec = "class PureCmac:\n    def tag(self):\n        return PureAES(b'')\n"
    assert not _homes({"crypto/cmac.py": spec})


def test_one_aead():
    """PR 33: one AEAD (EtM), forward-only AES; GCM, CBC, decryption and
    the knobs that reached them do not grow back."""
    gcm = {"crypto/aead.py": "class AesGcm:\n    def decrypt(self): ...\n"}
    assert _gone(gcm) == {"AesGcm", "decrypt"}
    assert _gone({"core/session.py": "def seal(modes):\n    return modes.CBC(b'')\n"}) == {"CBC"}
    session = "class Session:\n    def __init__(self, key, scheme=None): ...\n"
    assert _gone({"core/session.py": session}) == {"scheme"}
    assert not _gone({"crypto/aead.py": "class EtmScheme:\n    def seal(self, nonce): ...\n"})


def test_shard_view_keeps_nothing_per_hid_looked_up():
    """PR 20: the view memoised a record per HID asked for; the router
    fetches keys with ``packet_mac_key``, never ``hostdb.get``."""
    view = "class ColumnarShardView:\n    def __init__(self):\n        self._cache = {}\n"
    assert _gone({"state/view.py": view}) == {"_cache"}
    fetch = (
        "class BorderRouter:\n    def key(self, hid):\n"
        "        return self._hostdb.get(hid).keys\n"
    )
    assert _gone({"core/border_router.py": fetch}) == {"_hostdb.get"}
    column = fetch.replace(".get(hid).keys", ".packet_mac_key(hid)")
    assert not _gone({"core/border_router.py": column})


def test_one_shard_layout():
    """PR 27: numpy is declared, so the state package has no fallback arm,
    and a view is built from a plan."""
    fallback = "try:\n    import numpy\nexcept ImportError:\n    HAVE_NUMPY = False\n"
    expected = {"ImportError", "except ImportError", "HAVE_NUMPY"}
    assert _gone({"state/columns.py": fallback}) == expected
    assert _gone({}, {"tests/test_x.py": "from repro.state import HAVE_NUMPY\n"}) == {"HAVE_NUMPY"}
    setup = {"setup.py": "setup(install_requires=['cryptography'])\n"}
    (finding,) = fires("third-party-imports", {"state/columns.py": "import numpy\n"}, setup)
    assert "not declared" in finding.message
    view = "class ColumnarShardView:\n    def __init__(self, plan, shard, block=1): ...\n"
    assert fires("option-surface", {"state/view.py": view})


def test_one_host_state_writer():
    """PR 30: rows carry no EphID counters, there is no supervision policy
    object, and the ownership block is a class constant."""
    assert _gone({
        "core/hostdb.py": "class HostRecord:\n    ephids_issued: int = 0\n",
        "sharding/supervisor.py": "class SupervisorPolicy: ...\n",
    }) == {"ephids_issued", "SupervisorPolicy"}
    plan = "class ShardPlan:\n    nshards: int\n    key: bytes = b''\n    block: int = 1\n"
    assert fires("option-surface", {"sharding/plan.py": plan})
    constant = plan.replace("int = 1", "ClassVar[int] = 1")
    assert not fires("option-surface", {"sharding/plan.py": constant})


def test_one_nonce_source():
    """PR 47: the node-wide counter its pin was written for, and the
    per-EphID sequence that replaced it."""
    node_wide = (
        "class ApnaHostNode:\n    def _send(self, frame):\n"
        "        self._nonce += 1\n        return make(frame, nonce=self._nonce)\n"
    )
    found = fires("one-nonce-source", {"core/host.py": node_wide})
    assert {f.message.split()[1] for f in found} == {"+=", "nonce="}
    per_ephid = (
        "import itertools\nclass OwnedEphId:\n    nonces = itertools.count(1)\n"
        "def header_nonce(owned):\n    return next(owned.nonces)\n"
        "def send(owned, frame, nonce):\n    make(frame, nonce=header_nonce(owned))\n"
        "    return make(frame, nonce=nonce)\n"
    )
    assert not fires("one-nonce-source", {"core/session.py": per_ephid})
    assert not fires("one-nonce-source", {"attacks/spoof.py": node_wide})


def test_dispatcher_holds_no_verdict_path():
    """PR 15: a router or packet parse in the dispatcher would be a third
    verdict path."""
    pool = "from ..core.border_router import BorderRouter\n"
    assert _gone({"sharding/pool.py": pool}) == {"BorderRouter"}


def test_one_owner_for_the_carrier_and_the_failure_ledger():
    """PR 24: the plane is built from the assembly alone, keeps no
    start-method knob, and charges no failure itself."""
    plane = (
        "class ShardedDataPlane:\n    @classmethod\n"
        "    def for_assembly(cls, assembly, start_method=1): ...\n"
    )
    assert fires("option-surface", {"sharding/pool.py": plane})
    catch = "def collect(ticket):\n    try: ...\n    except ShardError: ...\n"
    assert _gone({"sharding/pool.py": plane + catch}) == {"start_method", "except ShardError"}


def test_one_data_plane_per_as():
    """PR 25: the pool starts and stops with no arguments and nothing to
    warn about."""
    asys = (
        "import warnings\nclass ApnaAutonomousSystem:\n"
        "    def start_shard_pool(self, nshards=2): ...\n"
    )
    assert _gone({"core/autonomous_system.py": asys}) == {"warnings"}
    assert fires("option-surface", {"core/autonomous_system.py": asys})


def test_one_burst_path_frames_in_records_out():
    """PR 17: no object-batch method back on the router, and no packet
    parse or ``Verdict`` in the worker."""
    assert _gone({
        "core/border_router.py": "class BorderRouter:\n"
        "    def process_batch(self, packets): ...\n",
        "sharding/worker.py": "from ..wire.apna import ApnaPacket\n",
    }) == {"process_batch", "ApnaPacket"}


def test_one_trace_draw_one_name_per_topology():
    """PR 29: no ``stream`` knob choosing between two replay loops, and no
    draw scheme kept for old seeds."""
    assert _gone({
        "workload/profile.py": "class TrafficProfile:\n    stream: bool = False\n",
        "workload/flows.py": "class TraceGenerator:\n    def generate(self): ...\n"
        "    def stream(self):\n        durations = 1\n",
    }) == {"stream", "generate"}
