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
"""

from __future__ import annotations

import ast

from .engine import Finding, Rule, register
from .model import Module

_BARE_CONTAINERS = {"dict", "set", "OrderedDict", "collections.OrderedDict"}
_EVICTIONS = {"popitem", "pop"}
_INSERTIONS = {"setdefault", "add", "update"}


def _self_attr(node: ast.expr) -> "str | None":
    """``X`` for a ``self.X`` expression."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


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
        "HID forever — memory a flash crowd inflates without limit"
    )
    scope = (
        "core/border_router.py",
        "core/management.py",
        "state/view.py",
        "sharding/worker.py",
    )

    def check_module(self, module: Module):
        constants = _module_names(module.tree)
        for cls in ast.walk(module.tree):
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

    @staticmethod
    def _bare_caches(module: Module, cls: ast.ClassDef):
        """``(attr, line)`` of every ``self.<x>cache = {} / dict() /
        OrderedDict() / set()`` in the class."""
        for node in ast.walk(cls):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                target, value = node.target, node.value
            else:
                continue
            attr = _self_attr(target)
            if attr is None or not attr.lower().endswith("cache"):
                continue
            bare = isinstance(value, (ast.Dict, ast.Set)) or (
                isinstance(value, ast.Call)
                and module.qualname(value.func) in _BARE_CONTAINERS
            )
            if bare:
                yield attr, node.lineno

    @staticmethod
    def _bounded(cls: ast.ClassDef, caches: "set[str]", constants: "set[str]"):
        """The caches the class length-checks against a module constant
        or evicts from in a method that inserts into them."""
        bounded: "set[str | None]" = set()
        for func in ast.walk(cls):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            # ``cache = self._x_cache`` makes ``cache`` stand for it.
            alias = {
                node.targets[0].id: _self_attr(node.value)
                for node in ast.walk(func)
                if isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and _self_attr(node.value) in caches
            }

            def cache_of(node: ast.expr) -> "str | None":
                if isinstance(node, ast.Name):
                    return alias.get(node.id)
                attr = _self_attr(node)
                return attr if attr in caches else None

            inserted: "set[str | None]" = set()
            evicted: "set[str | None]" = set()
            for node in ast.walk(func):
                if isinstance(node, ast.Subscript):
                    if isinstance(node.ctx, ast.Store):
                        inserted.add(cache_of(node.value))
                elif isinstance(node, ast.Call):
                    method = node.func
                    if not isinstance(method, ast.Attribute):
                        continue
                    if method.attr in _EVICTIONS:
                        evicted.add(cache_of(method.value))
                    elif method.attr in _INSERTIONS:
                        inserted.add(cache_of(method.value))
                elif isinstance(node, ast.Compare):
                    operands = [node.left, *node.comparators]
                    if any(
                        isinstance(o, ast.Name) and o.id in constants
                        for o in operands
                    ):
                        bounded.update(
                            cache_of(o.args[0])
                            for o in operands
                            if isinstance(o, ast.Call)
                            and isinstance(o.func, ast.Name)
                            and o.func.id == "len"
                            and len(o.args) == 1
                        )
            bounded |= inserted & evicted
        return bounded - {None}
