"""Tier-1 driver + self-tests for :mod:`repro.analysis`.

Three layers:

1. **The tree is clean** — every registered rule over all of
   ``src/repro`` yields zero non-baselined findings, both in-process
   and through the real CLI (``python -m repro.analysis --format
   json``), which is what CI gates on.
2. **Every rule provably detects** — per-rule known-bad/known-good
   fixture pairs, the self-testing-detector pattern the original
   audits established: a rule that silently stops firing is itself a
   regression.
3. **The machinery round-trips** — inline ``# audit: allow(...)``
   suppressions and the findings baseline (write, reload, burn-down,
   stale-entry detection).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import (
    DEFAULT_ROOT,
    RULES,
    Module,
    Project,
    load_baseline,
    run_analysis,
    write_baseline,
)

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
}


def findings_of(rule_name: str, source: str, rel: str):
    """Raw findings of one rule over an in-memory snippet."""
    rule = RULES[rule_name]
    assert rule.applies_to(rel), f"{rel} must be in {rule_name}'s scope"
    return list(rule.check_module(Module.from_source(source, rel)))


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


def test_source_tree_has_no_new_findings():
    report = run_analysis()
    assert not report.new, "new static-invariant violations:\n" + "\n".join(
        f.render() for f in report.new
    )
    # The baseline must not rot: every grandfathered entry still fires.
    assert not report.stale_baseline, (
        "baseline entries no longer fire — delete them:\n"
        + "\n".join(report.stale_baseline)
    )


def _cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return env


def test_cli_json_run_is_clean():
    """The CI entry point: the real CLI, JSON out, exit status 0."""
    result = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "--format", "json"],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=_cli_env(),
    )
    assert result.returncode == 0, result.stdout + result.stderr
    payload = json.loads(result.stdout)
    assert payload["new"] == 0
    assert set(payload["rules"]) >= EXPECTED_RULES
    assert payload["checked_files"] > 100
    assert all(item["baselined"] for item in payload["findings"])


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
# 3. Suppressions and the baseline round-trip

_BAD_ROUTING = "def shard_of(iv, nshards):\n    return iv % nshards\n"


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
            baseline=set(),
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
        baseline=set(),
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
        baseline=set(),
    )
    assert len(report.findings) == 1 and not report.suppressed


def test_baseline_round_trip(tmp_path):
    project = Project(sources={"sharding/fixture.py": _BAD_ROUTING})
    baseline_path = tmp_path / "baseline.txt"

    # Fresh finding fails the run...
    report = run_analysis(
        project=project, rules=["shard-routing-mod"], baseline=baseline_path
    )
    assert len(report.new) == 1

    # ...until grandfathered; then the same finding is baselined.
    write_baseline(report.findings, baseline_path)
    assert load_baseline(baseline_path) == {f.key for f in report.findings}
    report = run_analysis(
        project=project, rules=["shard-routing-mod"], baseline=baseline_path
    )
    assert not report.new and len(report.baselined) == 1

    # A *different* new violation still fails despite the baseline.
    worse = _BAD_ROUTING + "def again(iv, num_shards):\n    return iv % num_shards\n"
    report = run_analysis(
        project=Project(sources={"sharding/fixture.py": worse}),
        rules=["shard-routing-mod"],
        baseline=baseline_path,
    )
    assert len(report.new) == 1 and len(report.baselined) == 1

    # Fixing the code leaves the baseline entry stale — flagged for removal.
    report = run_analysis(
        project=Project(sources={"sharding/fixture.py": "def ok():\n    pass\n"}),
        rules=["shard-routing-mod"],
        baseline=baseline_path,
    )
    assert not report.findings and len(report.stale_baseline) == 1


def test_checked_in_baseline_parses():
    entries = load_baseline()
    for entry in entries:
        rule, _, location = entry.partition(":")
        assert rule in RULES, f"baseline names unknown rule: {entry}"
        assert location.count(":") == 1, f"malformed baseline entry: {entry}"
