"""Memory-bound rule: a per-key cache has a bound.

The border router's ``_mac_cache`` (one CMAC context per source HID),
the Management Service's ``_scheme_cache`` (one scheme per requesting
HID) and ``ColumnarShardView._cache`` (one record per HID looked up)
were all plain dicts filled on first contact and never evicted — and
all keyed by something the *requester* picks, so a flash crowd or an
attacker cycling identities grew the process without limit.  PR 19
tried to bound the first by guesswork and regressed ``churn_hostile``;
PR 20 sized one LRU (:class:`repro.core.lru.LruCache`) from the
benchmark's working sets, moved the router and the MS onto it and
deleted the view's cache.

``bounded-cache`` keeps that closed in the modules that sit on the
packet and request paths: an instance attribute named ``*cache`` that
is initialised to a bare ``dict`` / ``OrderedDict`` / ``set`` must, in
the same class, either have its ``len()`` compared against a
module-level constant or be evicted (``popitem`` / ``pop``) in a method
that also inserts into it.  A ``pop`` somewhere else is invalidation,
not a bound.  Building the attribute from ``LruCache(CAPACITY)``
satisfies the rule by construction.

The same rule covers the shape that one missed: a *module-level* table.
``sharding/plan.py`` kept one compiled ``struct.Struct`` per distinct
sub-burst size in a module-level dict, forever — keyed by the
shape of the traffic, outside every class the check above looks at
(PR 23 deleted it).  So in the shard modules, ``core/verdict.py`` and
``core/ephid.py`` a module-scope name matching ``_*_CACHE`` / ``_*_TABLE``
bound to a bare ``dict`` is held to this: every function that stores
into it compares its ``len()`` against a module-level constant, or
evicts from it — in that same function.

Lists are held to it too: ``ShardSupervisor.failures`` was a plain list
appended on every failure and restart attempt for the plane's whole
life.  A list built in ``__init__``, appended outside it and shrunk
nowhere in the module (no pop, clear, remove, ``del``, slice store or
rebinding) is a finding; ``Ticket.pending``, popped and rewritten as
replies pair up, is the accepted shape, and so is a bounded ``deque``.
"""

from __future__ import annotations

import ast
from fnmatch import fnmatch

from .engine import Finding, Rule, register
from .model import Module

_BARE_CONTAINERS = {"dict", "set", "OrderedDict", "collections.OrderedDict"}
_APPENDS = {"append", "extend", "insert"}
_SHRINKS = {"pop", "clear", "remove"}
_EVICTIONS = {"popitem", "pop"}
_INSERTIONS = {"setdefault", "add", "update"}
_MODULE_TABLE_NAMES = ("_*_CACHE", "_*_TABLE")


def _self_attr(node: ast.expr) -> "str | None":
    """``X`` for a ``self.X`` expression."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _name(node: ast.expr) -> "str | None":
    """``X`` for a bare-name expression ``X``."""
    return node.id if isinstance(node, ast.Name) else None


def _is_bare(module: Module, value: "ast.expr | None") -> bool:
    """``{}`` / ``set literal`` / ``dict()`` / ``OrderedDict()`` / ``set()``."""
    return isinstance(value, (ast.Dict, ast.Set)) or (
        isinstance(value, ast.Call)
        and module.qualname(value.func) in _BARE_CONTAINERS
    )


def _assignment(node: ast.AST) -> "tuple[ast.expr | None, ast.expr | None]":
    """``(target, value)`` of a single-target assignment statement,
    ``(None, None)`` of anything else."""
    if isinstance(node, ast.Assign) and len(node.targets) == 1:
        return node.targets[0], node.value
    if isinstance(node, ast.AnnAssign):
        return node.target, node.value
    return None, None


def _uses(func: ast.AST, caches: "set[str]", denotes, constants: "set[str]"):
    """How one function touches ``caches``: ``(inserted, evicted,
    length_checked)`` — the first maps a cache to the line of its first
    store, the last is against a name in ``constants``.  ``denotes`` maps
    an expression to the cache it names (``self.X`` or a global ``X``);
    a local bound to one (``cache = self._x_cache``) stands for it."""
    alias = {}
    for node in ast.walk(func):
        target, value = _assignment(node)
        if _name(target) is not None and denotes(value) in caches:
            alias[_name(target)] = denotes(value)

    def cache_of(node: ast.expr) -> "str | None":
        cache = alias.get(_name(node)) or denotes(node)
        return cache if cache in caches else None

    inserted: "dict[str | None, int]" = {}
    evicted: "set[str | None]" = set()
    checked: "set[str | None]" = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Subscript):
            if isinstance(node.ctx, ast.Store):
                inserted.setdefault(cache_of(node.value), node.lineno)
        elif isinstance(node, ast.Call):
            method = node.func
            if not isinstance(method, ast.Attribute):
                continue
            if method.attr in _EVICTIONS:
                evicted.add(cache_of(method.value))
            elif method.attr in _INSERTIONS:
                inserted.setdefault(cache_of(method.value), node.lineno)
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(_name(o) in constants for o in operands):
                checked.update(
                    cache_of(o.args[0])
                    for o in operands
                    if isinstance(o, ast.Call)
                    and _name(o.func) == "len"
                    and len(o.args) == 1
                )
    inserted.pop(None, None)
    return inserted, evicted, checked


def _module_names(tree: ast.Module) -> "set[str]":
    """Names bound at module level: assigned constants and imports."""
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
            continue
        else:
            continue
        names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


@register
class BoundedCacheRule(Rule):
    name = "bounded-cache"
    title = "per-key caches on the packet and request paths are bounded"
    motivation = (
        "PR 19/20: BorderRouter._mac_cache, ManagementService._scheme_cache "
        "and ColumnarShardView._cache grew one entry per requester-chosen "
        "HID forever — memory a flash crowd inflates without limit; PR 23: "
        "sharding/plan.py's module-level table of compiled unpackers grew "
        "one entry per distinct sub-burst size; the supervisor's failure "
        "log grew one entry per failure for the plane's whole life"
    )
    scope = (
        "core/border_router.py",
        "core/management.py",
        "state/view.py",
        "sharding/*.py",
        "core/verdict.py",
        "core/ephid.py",
    )

    def check_module(self, module: Module):
        constants = _module_names(module.tree)
        for cls in module.nodes:
            if not isinstance(cls, ast.ClassDef):
                continue
            caches: dict[str, int] = {}
            for attr, line in self._bare_caches(module, cls):
                caches.setdefault(attr, line)  # report where it is first built
            if not caches:
                continue
            bounded = self._bounded(cls, set(caches), constants)
            for attr, line in caches.items():
                if attr not in bounded:
                    yield Finding(
                        self.name,
                        module.rel,
                        line,
                        f"self.{attr} is a bare container that grows per key "
                        "— use repro.core.lru.LruCache, or check len() against "
                        "a module-level constant / evict on the insert path",
                    )
        yield from self._check_module_tables(module, constants)
        yield from self._check_logs(module)

    def _check_logs(self, module: Module):
        """A list built in ``__init__`` (``self.<x> = []``), appended to
        outside it through any receiver, and shrunk nowhere in the module
        (no pop / clear / remove, ``del``, slice store or rebinding)."""
        built: dict[str, int] = {}
        for node in module.nodes:
            if isinstance(node, ast.FunctionDef) and node.name == "__init__":
                for sub in ast.walk(node):
                    target, value = _assignment(sub)
                    attr = _self_attr(target)
                    if attr and (
                        isinstance(value, ast.List) and not value.elts
                        or isinstance(value, ast.Call) and module.qualname(value.func) == "list"
                    ):
                        built.setdefault(attr, sub.lineno)
        if not built:
            return
        grown, shrunk = set(), set()
        for func in module.nodes:
            if not isinstance(func, ast.FunctionDef) or func.name == "__init__":
                continue
            for node in ast.walk(func):
                target, _ = _assignment(node)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    held = getattr(node.func.value, "attr", None)
                    if node.func.attr in _APPENDS:
                        grown.add(held)
                    elif node.func.attr in _SHRINKS:
                        shrunk.add(held)
                elif isinstance(node, ast.AugAssign):
                    grown.add(getattr(node.target, "attr", None))
                elif isinstance(node, ast.Delete):
                    held = [t.value for t in node.targets if isinstance(t, ast.Subscript)]
                    shrunk.update(getattr(value, "attr", None) for value in held)
                elif isinstance(target, ast.Subscript):
                    shrunk.add(getattr(target.value, "attr", None))
                elif isinstance(target, ast.Attribute):
                    shrunk.add(target.attr)
        for attr, line in built.items():
            if attr in grown and attr not in shrunk:
                yield Finding(
                    self.name,
                    module.rel,
                    line,
                    f"self.{attr} is a list appended outside __init__ and never "
                    "shrunk — bound it (a deque(maxlen=...) sized from a measured "
                    "working set, plus a total count)",
                )

    @staticmethod
    def _bare_caches(module: Module, cls: ast.ClassDef):
        """``(attr, line)`` of every ``self.<x>cache = {} / dict() /
        OrderedDict() / set()`` in the class."""
        for node in ast.walk(cls):
            target, value = _assignment(node)
            attr = _self_attr(target)
            if attr is None or not attr.lower().endswith("cache"):
                continue
            if _is_bare(module, value):
                yield attr, node.lineno

    @staticmethod
    def _bounded(cls: ast.ClassDef, caches: "set[str]", constants: "set[str]"):
        """The caches the class length-checks against a module constant
        or evicts from in a method that inserts into them."""
        bounded: "set[str]" = set()
        for func in ast.walk(cls):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            inserted, evicted, checked = _uses(func, caches, _self_attr, constants)
            bounded |= checked | (set(inserted) & evicted)
        return bounded

    def _check_module_tables(self, module: Module, constants: "set[str]"):
        """Module-scope ``_*_CACHE`` / ``_*_TABLE`` dicts: every function
        that stores into one bounds it there."""
        tables = set()
        for node in module.tree.body:
            target, value = _assignment(node)
            name = _name(target)
            if (
                name is not None
                and any(fnmatch(name, pattern) for pattern in _MODULE_TABLE_NAMES)
                and _is_bare(module, value)
            ):
                tables.add(name)
        if not tables:
            return
        for func in module.nodes:
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            inserted, evicted, checked = _uses(func, tables, _name, constants)
            for table, line in inserted.items():
                if table not in evicted and table not in checked:
                    yield Finding(
                        self.name,
                        module.rel,
                        line,
                        f"{func.name}() stores into module-level {table} without "
                        "bounding it — check len() against a module-level "
                        "constant or evict, in the function that inserts",
                    )
