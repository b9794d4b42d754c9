"""Pins: what the simplicity PRs deleted or gave one home, as AST facts.

Each "one way to do it" PR left a pin so the second way cannot grow
back.  They were substring counts in a test file (``mentions ==
{"core/config.py": 3, ...}``) that broke on a docstring edit and did
not say why; here they are table rows over the shared model, each
citing its PR.  A scope is a glob under ``src/repro``, or under
``tests/`` / ``examples/`` for the context.

``gone-names``
    Identifiers that must not come back — a name, attribute (also as
    ``base.attr``), definition, parameter, keyword, import, ``except
    NAME`` or identifier-like string (``"NAME"``), or a module's file
    stem.  A scope ending ``::Qual`` looks only at that class's members
    and constructor parameters (that function's parameters).
``identifier-homes``
    Identifiers that appear only in the definitions listed for them
    (``rel:Qual`` globs; ``<module>`` is module level), and in each.
``third-party-imports``
    A third-party package is declared in ``setup.py`` and imported only
    from its home.
``option-surface``
    The option objects' fields and the narrowed constructors' parameters
    are exactly the pinned ones, and every ``ApnaConfig`` field has a
    caller in the tree or its context that sets it.
``one-nonce-source``
    Outside ``wire/`` (the header codec) and ``attacks/`` (the spoofer
    forges nonces on purpose), code makes, stores or steps a header
    nonce only at the listed sites.
"""

from __future__ import annotations

import ast
import functools
import re
import sys
from fnmatch import fnmatch

from .engine import Finding, Rule, register
from .model import Module, Project, scope_match

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_MODULE = "<module>"
_ALL = "**/*.py"


def _qual(qual: str, node) -> str:
    return node.name if qual == _MODULE else f"{qual}.{node.name}"


@functools.lru_cache(maxsize=1024)
def _mentions(module: Module) -> "list[tuple[str, int, str]]":
    """``(identifier, line, enclosing qualname)`` of every identifier in
    a module; a definition's own name belongs to the enclosing scope."""
    found: list[tuple[str, int, str]] = []

    def visit(node, qual: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner, names = qual, []
            if isinstance(child, _DEFS):
                names, inner = [child.name], _qual(qual, child)
            elif isinstance(child, ast.Name):
                names = [child.id]
            elif isinstance(child, ast.Attribute):
                base = getattr(child.value, "id", None) or getattr(child.value, "attr", None)
                names = [child.attr] + ([f"{base}.{child.attr}"] if base else [])
            elif isinstance(child, (ast.arg, ast.keyword)):
                names = [child.arg] if child.arg else []
            elif isinstance(child, ast.alias):
                names = (child.asname or child.name).split(".")
            elif isinstance(child, ast.ImportFrom) and child.module:
                names = child.module.split(".")
            elif isinstance(child, ast.ExceptHandler) and child.type is not None:
                names = [f"except {n.id}" for n in ast.walk(child.type) if isinstance(n, ast.Name)]
            elif isinstance(child, ast.Constant) and str(child.value).isidentifier():
                names = [f'"{child.value}"'] if isinstance(child.value, str) else []
            line = getattr(child, "lineno", None) or getattr(node, "lineno", 0)
            found.extend((name, line, qual) for name in names)
            visit(child, inner)

    visit(module.tree, _MODULE)
    return found


def _spelled(pattern: str) -> "re.Pattern[str]":
    """A text search that finds every source spelling an identifier
    matching ``pattern`` — so a module without one is never parsed."""
    flags = re.I if pattern.startswith("(?i)") else 0
    text = pattern.removeprefix("(?i)").replace("except ", "").replace('\\"', "")
    return re.compile(r"\b(?:%s)\b" % text.replace('"', ""), flags)


def _definition(tree: ast.Module, qual: str):
    """The class or function node at dotted ``qual``, or ``None``."""
    node = tree
    for part in qual.split("."):
        body = getattr(node, "body", ())
        node = next((c for c in body if isinstance(c, _DEFS) and c.name == part), None)
    return node


def _params(func) -> "list[tuple[str, int]]":
    args = func.args
    star = [a for a in (args.vararg, args.kwarg) if a]
    return [(a.arg, a.lineno) for a in args.posonlyargs + args.args + args.kwonlyargs + star]


def _fields(cls: ast.ClassDef) -> "list[tuple[str, int]]":
    """A dataclass's fields: annotated class-body names, bar ``ClassVar``s."""
    return [
        (node.target.id, node.lineno)
        for node in cls.body
        if isinstance(node, ast.AnnAssign)
        and isinstance(node.target, ast.Name)
        and "ClassVar" not in ast.unparse(node.annotation)
    ]


def _members(node) -> "list[tuple[str, int]]":
    """What a ``::Qual`` scope names: a class's definitions, class-body
    assignments, ``self.<x>`` stores and constructor parameters; a
    function's parameters."""
    if not isinstance(node, ast.ClassDef):
        return _params(node)
    found = []
    for child in node.body:
        if isinstance(child, _DEFS):
            found.append((child.name, child.lineno))
            found += _params(child)[1:] if child.name == "__init__" else []
        for target in getattr(child, "targets", [getattr(child, "target", None)]):
            if isinstance(target, ast.Name) and isinstance(child, (ast.Assign, ast.AnnAssign)):
                found.append((target.id, child.lineno))
    return found + [
        (sub.attr, sub.lineno)
        for sub in ast.walk(node)
        if isinstance(sub, ast.Attribute)
        and isinstance(sub.ctx, ast.Store)
        and getattr(sub.value, "id", None) == "self"
    ]


def _modules(project: Project, scopes) -> "dict[str, Module]":
    """The modules the scope globs cover: ``src/repro`` ones, or context
    ones for a glob under ``tests/`` / ``bench/`` / ``examples/``."""
    found = {}
    for scope in (scopes,) if isinstance(scopes, str) else scopes:
        if scope.split("/", 1)[0] in ("tests", "bench", "examples"):
            rels = [rel for rel in project.context_rels() if fnmatch(rel, scope)]
            found.update((rel, project.context_module(rel)) for rel in rels)
        else:
            rels = [rel for rel in project.rels() if scope_match(rel, (scope,))]
            found.update((rel, project.module(rel)) for rel in rels)
    return found


# --------------------------------------------------------------------------
# gone-names

#: ``(PR, scopes, pattern)``: identifiers matching ``pattern`` (a regex,
#: matched whole) must not appear in ``scopes``.
GONE = (
    (15, "sharding/pool.py", r"BorderRouter|ApnaPacket"),
    (17, "sharding/worker.py", r"ApnaPacket|Verdict"),
    (17, "core/border_router.py::BorderRouter", r"process_batch|process_incoming_batch"),
    (20, "state/view.py", r"_cache"),
    (20, "core/border_router.py", r"\w*hostdb\.get"),
    (21, _ALL, r"ShardHostView|make_host_database|make_revocation_list"),
    (21, ("core/config.py", "core/autonomous_system.py", "sharding/*.py", "state/*.py"),
     r'"object"'),
    (24, _ALL, r"SupervisorPolicy"),
    (24, "sharding/pool.py", r"start_method|in_flight|except ShardError"),
    (25, "core/autonomous_system.py", r"warnings"),
    (26, _ALL, r"backend|(set|use|resolve|get|register)_backend|available_backends"),
    (26, _ALL, r"BackendUnavailable|REPRO_CRYPTO_BACKEND|\"REPRO_CRYPTO_BACKEND\""),
    (27, (_ALL, "tests/*.py"), r"HAVE_NUMPY"),
    (27, "state/*.py", r"ImportError|except ImportError"),
    (28, "core/config.py::ApnaConfig", r"aead_scheme|icmp_on_drop|shard_block"),
    (28, "core/autonomous_system.py::ServiceIdentity.make_packet", r"mac_size"),
    (29, "workload/profile.py::TrafficProfile", r"stream|stream_chunk"),
    (29, "workload/flows.py::TraceGenerator", r"generate|arrival_times|durations|hosts_for"),
    (30, _ALL, r"ephids_\w*"),
    (31, "experiments/e2_figure8.py::E2Result", r"no_penalty|virtual_capacity_bps"),
    (33, "crypto/*.py", r"(?i)\w*(gcm|cbc|decrypt)\w*"),
    (33, _ALL, r"\w*(GCM|CBC)\w*"),
    (33, ("core/session.py::Session", "crypto/aead.py::EtmScheme"), r"scheme|tag_size"),
    (51, "core/replay_filter.py", r"AES|INDEX_KEY|_index_column|_INDEX_CIPHER|encrypt_blocks"),
)


@register
class GoneNamesRule(Rule):
    name = "gone-names"
    title = "deleted names, options and imports do not grow back"
    motivation = (
        "PRs 15-51 each deleted a second way (a backend switch, a state "
        "family, GCM, an object batch path, a policy object, a replay "
        "index cipher); one stray name is the start of it coming back"
    )
    project_wide = True

    def check_project(self, project: Project):
        for pr, scopes, pattern in GONE:
            regex, spelled = re.compile(pattern), _spelled(pattern)
            for scope in (scopes,) if isinstance(scopes, str) else scopes:
                where, _, qual = scope.partition("::")
                for rel, module in _modules(project, where).items():
                    named = [(rel.rsplit("/", 1)[-1][:-3], 1)]
                    if spelled.search(module.source) and qual:
                        node = _definition(module.tree, qual)
                        named += _members(node) if node is not None else []
                    elif spelled.search(module.source):
                        named += [(name, line) for name, line, _ in _mentions(module)]
                    yield from (
                        Finding(self.name, rel, line, f"{name!r} grew back in {scope} "
                                f"(deleted in PR {pr}; pattern {pattern!r})")
                        for name, line in named
                        if regex.fullmatch(name)
                    )


# --------------------------------------------------------------------------
# identifier-homes

_SRC_AND_EXAMPLES = (_ALL, "examples/*.py")
#: Where the one-valued names ``bench/`` still passes are carried.
_BENCH_PASSES = (
    "sharding/pool.py:ShardedDataPlane.for_assembly",
    "sharding/worker.py:ShardSpec",
    "sharding/worker.py:ShardState.__init__",
)

#: ``(PR, identifiers, scopes, homes)``: in ``scopes``, the identifiers
#: (a regex) appear only inside the ``homes`` (``rel:Qual`` globs), and
#: in each home at least once.
HOMES = (
    (21, r"state_backend", _ALL, (
        "core/config.py:ApnaConfig", "core/config.py:ApnaConfig.__post_init__", *_BENCH_PASSES,
    )),
    (26, r"crypto_backend", _ALL, _BENCH_PASSES),
    (26, r"Pure\w+|pure_\w+", _ALL, ("crypto/*.py:<module>", "crypto/*.py:Pure*")),
    (28, r"packet_mac_size", _ALL, (
        "core/config.py:ApnaConfig", "core/border_router.py:BorderRouter.__init__", *_BENCH_PASSES,
    )),
    (28, r"with_mac", _SRC_AND_EXAMPLES, (
        "wire/apna.py:ApnaHeader", "wire/apna.py:ApnaHeader.signed",
        "experiments/e10_security.py:run",
    )),
    (31, r"process_outgoing|process_incoming", _SRC_AND_EXAMPLES, (
        "core/border_router.py:*", "evaluation/*.py:*",
    )),
    (31, r"br", _ALL, (
        "core/autonomous_system.py:ApnaAutonomousSystem.__init__",
        "core/autonomous_system.py:ApnaAutonomousSystem.judge",
    )),
    # A state write is a queued row: the dispatcher sends control
    # frames only as the flush's batch, and asks for stats only there.
    (50, r"send_to", "sharding/pool.py", (
        "sharding/pool.py:ShardedDataPlane._flush",
        "sharding/pool.py:ShardedDataPlane.shard_stats",
    )),
    (50, r"MSG_STATS", "sharding/pool.py", ("sharding/pool.py:ShardedDataPlane.shard_stats",)),
)


@register
class IdentifierHomesRule(Rule):
    name = "identifier-homes"
    title = "single-home identifiers appear only in their listed definitions"
    motivation = (
        "PR 21/26/28: one-valued names kept only because bench/ passes "
        "them; PR 26: production primitives never call the spec; PR 28: "
        "one packet signer; PR 31: one verdict path; one sender of "
        "control batches and of stats requests"
    )
    project_wide = True

    def check_project(self, project: Project):
        for pr, pattern, scopes, homes in HOMES:
            regex, spelled = re.compile(pattern), _spelled(pattern)
            used = set()
            for rel, module in sorted(_modules(project, scopes).items()):
                for name, line, qual in _mentions(module) if spelled.search(module.source) else ():
                    if not regex.fullmatch(name):
                        continue
                    home = next((h for h in homes if fnmatch(f"{rel}:{qual}", h)), None)
                    if home is not None:
                        used.add(home)
                        continue
                    yield Finding(
                        self.name, rel, line,
                        f"{name!r} in {qual}, outside its homes (PR {pr}): " + ", ".join(homes),
                    )
            for home in homes if project.root is not None else ():  # a fixture holds a few
                if home not in used:
                    yield Finding(
                        self.name, "analysis/rules_pins.py", 1,
                        f"home {home!r} of {pattern!r} mentions it no more — delete it",
                    )


# --------------------------------------------------------------------------
# third-party-imports

#: Third-party packages and where they may be imported from.
PACKAGE_HOMES = {"numpy": (_ALL,), "networkx": ("netsim/*.py",), "cryptography": ("crypto/*.py",)}


def _requirements(project: Project) -> "set[str] | None":
    """Package names in ``setup.py``'s ``install_requires`` (``None``
    when there is no setup script)."""
    if not project.context_rels("setup.py"):
        return None
    return {
        re.match(r"[\w.-]+", item.value).group(0)
        for node in project.context_module("setup.py").nodes
        if isinstance(node, ast.keyword) and node.arg == "install_requires"
        for item in getattr(node.value, "elts", ())
        if isinstance(item, ast.Constant)
    }


@register
class ThirdPartyImportsRule(Rule):
    name = "third-party-imports"
    title = "third-party packages are declared and imported only from home"
    motivation = (
        "PR 27: numpy is declared, so the state package keeps no fallback "
        "arm; PR 26: crypto/ is the one importer of cryptography"
    )
    project_wide = True

    def check_project(self, project: Project):
        declared = _requirements(project)
        local = project.root.name if project.root is not None else "repro"
        stdlib = getattr(sys, "stdlib_module_names", None)
        for rel in project.rels() if stdlib else ():
            for node in project.module(rel).nodes:
                if isinstance(node, ast.Import):
                    heads = [alias.name.split(".")[0] for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    heads = [(node.module or "").split(".")[0]]
                else:
                    continue
                for head in set(heads) - set(stdlib) - {local}:
                    homes = PACKAGE_HOMES.get(head)
                    if homes is None or (declared is not None and head not in declared):
                        problem = "is not declared in setup.py's install_requires"
                    elif not scope_match(rel, homes):
                        problem = f"is imported outside its home ({', '.join(homes)})"
                    else:
                        continue
                    yield Finding(self.name, rel, node.lineno, f"{head!r} {problem}")


# --------------------------------------------------------------------------
# option-surface

#: ``"rel:Qual"`` -> ``(PR, names)``: a class's fields, or a function's
#: parameters, exactly.
SURFACES = {
    "core/config.py:ApnaConfig": (28, (
        "replay_protection", "in_network_replay_filter", "replay_filter_window",
        "replay_filter_bits", "forwarding_batch_size", "forwarding_shards",
        "shard_reply_timeout", "shard_max_restarts", "shard_restart_backoff",
        "state_backend", "revocation_threshold",
    )),
    "sharding/worker.py:ShardSpec": (20, (
        "shard", "nshards", "aid", "ephid_enc_key", "ephid_mac_key", "crypto_backend",
        "packet_mac_size", "with_nonce", "replay_window", "replay_bits", "shard_block",
        "routing_mode", "routing_key", "state_backend", "snapshot",
    )),
    "sharding/plan.py:ShardPlan": (27, ("nshards", "key")),
    "workload/profile.py:TrafficProfile": (29, (
        "trace", "clients", "servers", "client_at", "server_at", "max_flows",
        "window", "burst", "payload", "respond", "port", "host_prefix",
    )),
    "state/view.py:ColumnarShardView.__init__": (27, ("self", "plan", "shard")),
    "sharding/pool.py:ShardedDataPlane.for_assembly": (24, ("cls", "assembly")),
    "core/autonomous_system.py:ApnaAutonomousSystem.start_shard_pool": (25, ("self",)),
    "core/autonomous_system.py:ApnaAutonomousSystem.stop_shard_pool": (25, ("self",)),
}

#: Options some caller must set, the calls that set them, and the
#: one-valued names ``bench/`` still passes.
SETTERS = {"core/config.py:ApnaConfig": (("ApnaConfig", "replace"), ("state_backend",))}


def _set_somewhere(project: Project, calls, names) -> "set[str]":
    """Which of ``names`` a call to one of ``calls`` passes as a keyword,
    anywhere in the tree or its context."""
    modules = [project.module(rel) for rel in project.rels()]
    modules += [project.context_module(rel) for rel in project.context_rels()]
    seen = set()
    for module in modules:
        if any(f"{c}(" in module.source for c in calls) and any(
            f"{n}=" in module.source for n in set(names) - seen
        ):
            seen.update(
                kw.arg
                for node in module.nodes
                if isinstance(node, ast.Call)
                and (getattr(node.func, "attr", None) or getattr(node.func, "id", None)) in calls
                for kw in node.keywords
            )
    return seen


@register
class OptionSurfaceRule(Rule):
    name = "option-surface"
    title = "option fields and narrowed signatures are exactly the pinned ones"
    motivation = (
        "PR 20: a cache capacity must not quietly become a ShardSpec knob; "
        "PRs 24/25/27/29 deleted constructor knobs no caller passed; PR 28: "
        "an ApnaConfig field no caller sets is a constant, not an option"
    )
    project_wide = True

    def check_project(self, project: Project):
        for target, (pr, pinned) in SURFACES.items():
            rel, _, qual = target.partition(":")
            module = project.module(rel)
            node = _definition(module.tree, qual) if module is not None else None
            if node is None:
                continue
            have = _fields(node) if isinstance(node, ast.ClassDef) else _params(node)
            names = [name for name, _ in have]
            if names != list(pinned):
                yield Finding(
                    self.name, rel, node.lineno,
                    f"{qual} takes {names}, pinned to {list(pinned)} (PR {pr}): a new "
                    "option is a reviewer's question, a deleted one an edit to the pin",
                )
            if target in SETTERS and project.context_rels():
                calls, exempt = SETTERS[target]
                set_somewhere = _set_somewhere(project, calls, names)
                for name, line in have:
                    if name not in set_somewhere and name not in exempt:
                        yield Finding(
                            self.name, rel, line,
                            f"no caller sets {qual}.{name} — make it a ClassVar "
                            "constant or delete it (PR 28)",
                        )


# --------------------------------------------------------------------------
# one-nonce-source

#: ``(file, kind, enclosing definition)`` of every sanctioned nonce site.
NONCE_SITES = {
    ("core/session.py", "next", "header_nonce"),
    ("core/session.py", "count", "OwnedEphId"),
    ("core/host.py", "count", "HostStack.__init__"),
    ("core/host.py", "store", "HostStack.__init__"),
    ("core/host.py", "count", "HostStack.accept_bootstrap_reply"),
    ("core/host.py", "store", "HostStack.accept_bootstrap_reply"),
}


def _named_nonce(node: ast.AST) -> bool:
    return any(
        "nonce" in (getattr(leaf, "id", None) or getattr(leaf, "attr", ""))
        for leaf in ast.walk(node)
    )


def _handed_on(owner, name: str) -> bool:
    """Is ``name`` a parameter or loop variable of function ``owner`` — a
    nonce its caller chose, handed on?"""
    loops = [n.target for n in ast.walk(owner) if isinstance(n, (ast.For, ast.comprehension))]
    return name in {a.arg for a in ast.walk(owner.args) if isinstance(a, ast.arg)} | {
        n.id for target in loops for n in ast.walk(target) if isinstance(n, ast.Name)
    }


def _nonce_sites(tree: ast.Module):
    """``(kind, enclosing qualname, line)`` where code makes (``count``),
    stores (``store``), steps (``next``, ``+=``) or hands a made-up
    value to (``nonce=``) a header nonce."""
    sites = []

    def visit(node, qual: str, owner) -> None:
        for child in ast.iter_child_nodes(node):
            inner, inner_owner = qual, owner
            if isinstance(child, _DEFS):
                inner = _qual(qual, child)
                inner_owner = owner if isinstance(child, ast.ClassDef) else child
            elif isinstance(child, ast.Call):
                func = child.func
                name = getattr(func, "attr", None) or getattr(func, "id", "")
                if name == "next" and any(_named_nonce(arg) for arg in child.args):
                    sites.append(("next", qual, child.lineno))
                if name == "count" and (
                    isinstance(func, ast.Name) or getattr(func.value, "id", None) == "itertools"
                ):
                    sites.append(("count", qual, child.lineno))
                for keyword in child.keywords:
                    value = keyword.value
                    called = getattr(getattr(value, "func", None), "id", "")
                    if keyword.arg != "nonce" or called == "header_nonce":
                        continue
                    if isinstance(value, ast.Name) and owner and _handed_on(owner, value.id):
                        continue
                    sites.append(("nonce=", qual, child.lineno))
            elif isinstance(child, ast.AugAssign) and _named_nonce(child.target):
                sites.append(("+=", qual, child.lineno))
            elif isinstance(child, (ast.Assign, ast.AnnAssign)) and any(
                isinstance(leaf, ast.Attribute) and "nonce" in leaf.attr
                for target in getattr(child, "targets", [getattr(child, "target", None)])
                for leaf in ast.walk(target)
            ):
                sites.append(("store", qual, child.lineno))
            visit(child, inner, inner_owner)

    visit(tree, _MODULE, None)
    return sites


@register
class OneNonceSourceRule(Rule):
    name = "one-nonce-source"
    title = "header nonces are made and stepped only by the listed sites"
    motivation = (
        "PR 47: one nonce sequence per EphID through session.header_nonce; "
        "a node-wide counter links a host's EphIDs (Section II-B)"
    )
    project_wide = True
    exclude = ("wire/*.py", "attacks/*.py")

    def check_project(self, project: Project):
        seen = set()
        for rel in project.rels():
            module = project.module(rel)
            if not self.applies_to(rel) or not re.search("nonce|count", module.source):
                continue
            for kind, qual, line in _nonce_sites(module.tree):
                seen.add((rel, kind, qual))
                if (rel, kind, qual) not in NONCE_SITES:
                    yield Finding(
                        self.name, rel, line,
                        f"a {kind} nonce site in {qual}: only session.header_nonce "
                        "steps a header nonce, from the sending EphID's own sequence (PR 47)",
                    )
        for rel, kind, qual in sorted(NONCE_SITES - seen) if project.root is not None else ():
            yield Finding(self.name, rel, 1, f"the {kind} site in {qual} is gone: delete its row")
