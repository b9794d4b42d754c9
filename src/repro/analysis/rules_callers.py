"""Reachability rule: every definition is reached from production code.

``production-caller`` is the check PR 32 started as a name match: a
``src/repro`` function, class or method that only tests call tells a
reader the system runs something it does not.  By name, 355
definitions sharing one (``pack`` 26, ``parse`` 26, ``run`` 17) could
not be judged: ``AipNic.handle_shutoff`` passed on the agent's
``handle_shutoff``, ``IvAllocator.issued`` on bench's ``round_.issued``.

* **Roots**: module-level code of every ``src/repro``, ``bench/`` and
  ``examples/`` module (``__main__`` blocks and bench's entry points
  with it), each ``ALL_RUNNERS`` module's ``run``, ``@case`` /
  ``@register`` definitions, the dunders of every reached class, and
  each definition with ``# audit: allow(production-caller)`` (kept on
  purpose, with all it defines and calls).
* **Edges** go from a reached body to what its names and attributes
  denote: names through scopes and imports, ``x.m`` through the type of
  ``x`` — ``self`` / ``cls``, a constructor, an annotation or annotated
  return, an annotated container's element, ``self.x`` through the
  class's stores — on to overrides in subclasses and, for an annotated
  receiver, the same method on classes that duck-type it.  An unknown
  receiver, or one typed as a class production never builds, falls
  back to every definition of that name: the rule never reports less
  than the name match did.

Only the outermost unreached definition is reported.
"""

from __future__ import annotations

import ast
from collections import defaultdict

from .engine import Finding, Rule, register
from .model import Module, Project

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_REGISTRIES = {"register", "case"}
_SEQUENCES = {"list", "List", "Sequence", "Iterable", "Iterator", "set", "deque", "tuple"}
_MAPPINGS = {"dict", "Dict", "Mapping", "OrderedDict", "defaultdict"}
_UNWRAP = {"Optional", "ClassVar", "Final", "Union"}
_CALLABLE = ("cls", "fn")
_TYPED = ("cls", "obj", "decl")


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _one(values):
    """The value every candidate agrees on, or ``None``."""
    values = set(values)
    return values.pop() if len(values) == 1 else None


def _known(values):
    return _one(set(values) - {None})


class _Def:
    """One function, class or method of the graph."""

    def __init__(self, mod: "_Mod", node, parent: "_Def | None") -> None:
        self.mod, self.node, self.parent, self.name = mod, node, parent, node.name
        self.qual = f"{parent.qual}.{node.name}" if parent else node.name
        self.is_class = isinstance(node, ast.ClassDef)
        self.members: dict[str, _Def] = {}  # a class's methods and classes
        decorators = node.decorator_list
        self.line = decorators[0].lineno if decorators else node.lineno
        self.decorators = {
            getattr(d.func if isinstance(d, ast.Call) else d, "id", None)
            or getattr(d, "attr", None)
            for d in decorators
        }


class _Mod:
    def __init__(self, rel: str, dotted: str, module: Module, production: bool) -> None:
        self.rel, self.dotted, self.module, self.production = rel, dotted, module, production
        self.is_pkg = rel.endswith("__init__.py")
        self.top: dict[str, _Def] = {}


def _unit(body):
    """The nodes one scope runs: ``body`` without the bodies of the
    definitions in it (their decorators, defaults and bases run here)."""
    stack = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, ast.ClassDef):
            stack.extend(node.decorator_list + node.bases + node.keywords)
        elif isinstance(node, _DEFS):
            args = node.args
            stack.extend(node.decorator_list + args.defaults + [d for d in args.kw_defaults if d])
        else:
            stack.extend(ast.iter_child_nodes(node))


def _bindings(nodes, args=None) -> "dict[str, list]":
    """Name -> what binds it in one scope: ``("arg", annotation, index)``,
    ``("value", expr)``, ``("item", expr, index)`` (tuple unpacking),
    ``("ann", annotation)``, ``("each", iterable)``, ``("import", dotted,
    level)``, ``("def", node)`` or ``("other",)``."""
    bound: dict[str, list] = defaultdict(list)
    if args is not None:
        positional = args.posonlyargs + args.args
        for arg in positional + args.kwonlyargs:
            index = positional.index(arg) if arg in positional else -1
            bound[arg.arg].append(("arg", arg.annotation, index))
        for arg in filter(None, (args.vararg, args.kwarg)):
            bound[arg.arg].append(("other",))
    named = set()  # Name targets bound by one of the statements below

    def bind(target, binding) -> None:
        if isinstance(target, ast.Name):
            named.add(id(target))
            bound[target.id].append(binding)
        elif isinstance(target, ast.Tuple) and binding[0] == "value":
            for index, item in enumerate(target.elts):
                bind(item, ("item", binding[1], index))

    for node in nodes:
        if isinstance(node, _DEFS):
            bound[node.name].append(("def", node))
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                bind(target, ("value", node.value))
        elif isinstance(node, ast.AnnAssign):
            bind(node.target, ("ann", node.annotation))
        elif isinstance(node, (ast.For, ast.comprehension)):
            bind(node.target, ("each", node.iter))
        elif isinstance(node, ast.withitem):
            bind(node.optional_vars, ("value", node.context_expr))
        elif isinstance(node, ast.NamedExpr):
            bind(node.target, ("value", node.value))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if isinstance(node, ast.ImportFrom):
                    dotted = f"{node.module}.{alias.name}" if node.module else alias.name
                    binding = ("import", dotted, node.level)
                else:
                    head = alias.name.split(".")[0]
                    binding = ("import", alias.name if alias.asname else head, 0)
                bound[alias.asname or binding[1].rpartition(".")[2]].append(binding)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            if id(node) not in named:
                bound[node.id].append(("other",))
        elif isinstance(node, ast.arg):
            bound[node.arg].append(("other",))  # a lambda's parameter
    return bound


class _Graph:
    """Definitions, scopes and types of the production trees.

    A value is ``("mod", _Mod)``, ``("cls", _Def)``, ``("obj", _Def)``
    (built here), ``("decl", _Def)`` (annotated so), ``("fn", _Def)``,
    ``("super", _Def)``, ``("seq" | "map", value)``, ``("tuple",
    values)``, ``("ext", dotted)`` (another package's) or ``None``."""

    def __init__(self, mods: "list[_Mod]") -> None:
        self.mods = {mod.dotted: mod for mod in mods}
        self.roots = {dotted.split(".")[0] for dotted in self.mods}
        self.defs: list[_Def] = []
        self.by_name: dict[str, list[_Def]] = defaultdict(list)
        self.of_node: dict[int, _Def] = {}
        self.memo: dict[tuple, object] = {}
        #: ``(class, attribute)`` of every edge resolved through a type.
        self.typed: list[tuple[_Def, str]] = []
        for mod in mods:
            self._collect(mod, mod, None)
        self.subclasses: dict[_Def, list[_Def]] = defaultdict(list)
        self.storers: dict[str, list[_Def]] = defaultdict(list)
        for cls in filter(lambda d: d.is_class, self.defs):
            for base in self.bases(cls):
                self.subclasses[base].append(cls)
            for name in self._stores(cls):
                self.storers[name].append(cls)

    def _collect(self, mod: _Mod, owner, parent: "_Def | None") -> None:
        for node in self.unit(owner):
            if isinstance(node, _DEFS) and id(node) not in self.of_node:
                found = self.of_node[id(node)] = _Def(mod, node, parent)
                self.defs.append(found)
                self.by_name[found.name].append(found)
                if parent is None:
                    mod.top[found.name] = found
                elif parent.is_class:
                    parent.members[found.name] = found
                self._collect(mod, found, found)

    def once(self, key: tuple, compute):
        """``compute()`` memoised under ``key``; ``None`` while in progress."""
        if key not in self.memo:
            self.memo[key] = None
            self.memo[key] = compute()
        return self.memo[key]

    # -- names -------------------------------------------------------------

    def unit(self, owner) -> list:
        """The nodes a module (a ``_Mod``) or a definition runs."""
        body = owner.module.tree.body if isinstance(owner, _Mod) else owner.node.body
        return self.once(("unit", id(owner)), lambda: list(_unit(body)))

    def scope(self, owner) -> "dict[str, list]":
        args = None if isinstance(owner, _Mod) or owner.is_class else owner.node.args
        return self.once(("scope", id(owner)), lambda: _bindings(self.unit(owner), args))

    def lookup(self, dotted: str):
        """The value an absolute dotted name denotes, or ``None``."""
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            if ".".join(parts[:cut]) in self.mods:
                value = ("mod", self.mods[".".join(parts[:cut])])
                for part in parts[cut:]:
                    value = self.member(value, part)
                return value
        return None

    def member(self, value, name: str):
        """The value of attribute ``name`` on ``value``."""
        kind, target = value or (None, None)
        if kind == "mod":
            sub = self.mods.get(f"{target.dotted}.{name}")
            return ("mod", sub) if sub else self.name_value(target, None, name)
        if kind in _TYPED:
            key = ("attr", id(target), name, kind == "cls")
            return self.once(key, lambda: self._attr(target, name, kind))
        return ("ext", f"{target}.{name}") if kind == "ext" else None

    def name_value(self, mod: _Mod, owner: "_Def | None", name: str):
        """The value a bare ``name`` has in ``owner``'s scope (a function
        or class of ``mod``; ``None`` for module level)."""
        while owner is not None and name not in self.scope(owner):
            owner = owner.parent
            while owner is not None and owner.is_class:
                owner = owner.parent  # methods do not see the class scope
        bound = self.scope(owner or mod).get(name)

        def compute():
            # An annotation decides; ``x = x.step()`` keeps the others' type.
            declared = [b for b in bound if b[0] in ("arg", "ann") and b[1] is not None]
            fresh = [
                b for b in bound
                if b[0] != "value" or name not in {getattr(n, "id", None) for n in ast.walk(b[1])}
            ]
            return _one(self._binding(mod, owner, b) for b in declared or fresh or bound)

        return self.once(("name", id(owner or mod), name), compute) if bound else None

    def _binding(self, mod, owner, binding):
        kind = binding[0]
        if kind == "def":
            found = self.of_node[id(binding[1])]
            return ("cls" if found.is_class else "fn", found)
        if kind == "import":
            dotted, level = binding[1], binding[2]
            if level:
                parts = mod.dotted.split(".")[: None if mod.is_pkg else -1]
                dotted = ".".join(parts[: len(parts) - level + 1] + [dotted])
            found = self.lookup(dotted)
            if found is None and not level and dotted.split(".")[0] not in self.roots:
                return ("ext", dotted)  # another package: defines nothing here
            return found
        if kind in ("ann", "arg") and binding[1] is not None:
            return self.annotation(mod, owner, binding[1])
        if kind == "arg":  # ``self`` / ``cls``
            if binding[2] != 0 or owner.parent is None or not owner.parent.is_class:
                return None
            if "staticmethod" in owner.decorators:
                return None
            return ("cls" if "classmethod" in owner.decorators else "obj", owner.parent)
        value = self.value(mod, owner, binding[1]) if len(binding) > 1 else None
        if kind == "each":
            return self.element(value, iterate=True)
        if kind == "item":
            items = value[1] if value and value[0] == "tuple" else ()
            return items[binding[2]] if binding[2] < len(items) else None
        return value if kind == "value" else None

    # -- values --------------------------------------------------------------

    def value(self, mod: _Mod, owner: "_Def | None", node):
        """What an expression evaluates to (see the class docstring)."""
        if isinstance(node, ast.Name):
            return self.name_value(mod, owner, node.id)
        if isinstance(node, ast.Attribute):
            base = self.value(mod, owner, node.value)
            return self.shared_attr(node.attr) if base is None else self.member(base, node.attr)
        if isinstance(node, ast.Call):
            func = node.func
            if getattr(func, "id", None) == "super" and owner and owner.parent:
                return ("super", owner.parent) if owner.parent.is_class else None
            if getattr(func, "attr", None) in ("get", "pop", "setdefault"):
                holder = self.value(mod, owner, func.value)
                if holder and holder[0] == "map":
                    return holder[1]
            kind, target = self.value(mod, owner, func) or (None, None)
            if kind == "cls":
                return ("obj", target)
            if kind == "ext" and target.rpartition(".")[2][:1].isupper():
                return (kind, target)  # another package's class builds its objects
            if kind == "fn" and target.node.returns is not None:
                return self.annotation(target.mod, target.parent, target.node.returns)
            return None
        if isinstance(node, ast.Subscript):
            return self.element(self.value(mod, owner, node.value), iterate=False)
        if isinstance(node, (ast.BoolOp, ast.IfExp)):
            options = node.values if isinstance(node, ast.BoolOp) else (node.body, node.orelse)
            return _known(self.value(mod, owner, v) for v in options)
        if isinstance(node, ast.NamedExpr):
            return self.value(mod, owner, node.value)
        return None

    @staticmethod
    def element(value, *, iterate: bool):
        """An element of a container value (a mapping iterates its keys)."""
        if value and value[0] in ("seq", "map") and not (iterate and value[0] == "map"):
            return value[1]
        return None

    def annotation(self, mod: _Mod, owner, node):
        """The value an annotation describes (an instance, a container)."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                node = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            return _known(self.annotation(mod, owner, side) for side in (node.left, node.right))
        if isinstance(node, ast.Subscript):
            head = getattr(node.value, "id", None) or getattr(node.value, "attr", None)
            args = node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]
            inner = [self.annotation(mod, owner, arg) for arg in args]
            if head in _UNWRAP:
                return _known(inner)
            if head == "tuple" and getattr(args[-1], "value", None) is not ...:
                return ("tuple", tuple(inner))
            if head in _SEQUENCES and inner[0]:
                return ("seq", inner[0])
            if head in _MAPPINGS and len(inner) == 2 and inner[1]:
                return ("map", inner[1])
            return None
        kind, target = self.value(mod, owner, node) or (None, None)
        return ("decl", target) if kind == "cls" else None

    # -- classes -------------------------------------------------------------

    def bases(self, cls: _Def) -> "list[_Def]":
        def compute():
            values = [self.value(cls.mod, cls.parent, base) for base in cls.node.bases]
            return [v[1] for v in values if v and v[0] == "cls"]

        return self.once(("bases", id(cls)), compute) or []

    def ancestry(self, cls: _Def) -> "list[_Def]":
        """``cls`` and its project ancestors, nearest first."""
        return self._closure(cls, self.bases, "up", [cls])

    def descendants(self, cls: _Def) -> "list[_Def]":
        return self._closure(cls, lambda c: self.subclasses[c], "down", [])

    def _closure(self, cls: _Def, step, key: str, start: list) -> "list[_Def]":
        def compute():
            order, stack = [], start + step(cls)
            while stack:
                current = stack.pop(0)
                if current not in order:
                    order.append(current)
                    stack.extend(step(current))
            return order

        return self.once((key, id(cls)), compute)

    def methods(self, cls: _Def, name: str, *, below=True, ducks=False) -> "set[_Def]":
        """What ``name`` on a ``cls`` instance may run: the nearest
        definition up the ancestry, every override below it, and — for
        an instance only declared ``cls`` — the same name on each class
        that duck-types it."""
        found = {next((c.members[name] for c in self.ancestry(cls) if name in c.members), None)}
        if below:
            for other in self.descendants(cls) + (self.ducks(cls) if ducks else []):
                found.add(other.members.get(name))
        return found - {None}

    def ducks(self, cls: _Def) -> "list[_Def]":
        """Unrelated classes with every public method of ``cls`` (two at
        least): a columnar store passed where its spec is annotated."""
        def public(c):
            members = [(n, m) for a in self.ancestry(c) for n, m in a.members.items()]
            return {n for n, m in members if not (m.is_class or n[0] == "_")}

        def compute():
            related = set(self.ancestry(cls) + self.descendants(cls))
            mine = public(cls)
            return [
                d for d in self.defs
                if d.is_class and len(mine) > 1 and d not in related and mine <= public(d)
            ]

        return self.once(("ducks", id(cls)), compute)

    def _attr(self, cls: _Def, name: str, kind: str):
        """The value of attribute ``name`` of ``cls`` (``kind`` "cls": on
        the class itself): a method, a nested class, a property's annotated
        return, or a data attribute's type."""
        for owner in self.ancestry(cls):
            member = owner.members.get(name)
            if member is None:
                value = self._data_value(owner, name)
                if value is not None:
                    return value
            elif member.is_class:
                return ("cls", member)
            elif member.decorators & {"property", "cached_property"} and kind != "cls":
                returns = member.node.returns
                return self.annotation(member.mod, member.parent, returns) if returns else None
            else:
                return ("fn", member)
        return None

    def _stores(self, cls: _Def) -> "dict[str, list]":
        """Attribute name -> ``(scope, annotation, value)`` of each store
        the class makes: class-body assignments and ``self.<name>`` ones."""
        def compute():
            stores: dict[str, list] = defaultdict(list)
            nodes = [(cls, node) for node in cls.node.body] + [
                (m, node)
                for m in cls.members.values()
                if not m.is_class
                for node in ast.walk(m.node)
            ]
            for scope, node in nodes:
                for target in getattr(node, "targets", [getattr(node, "target", None)]):
                    if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                        continue
                    if scope is cls and isinstance(target, ast.Name):
                        name = target.id
                    elif isinstance(target, ast.Attribute) and (
                        getattr(target.value, "id", None) == "self"
                    ):
                        name = target.attr
                    else:
                        continue
                    stores[name].append((scope, getattr(node, "annotation", None), node.value))
            return stores

        return self.once(("stores", id(cls)), compute)

    def _data_value(self, cls: _Def, name: str):
        """The type of attribute ``name`` from the class's stores to it,
        an annotation deciding over the values stored."""
        stores = self._stores(cls).get(name, ())
        declared = [(scope, note) for scope, note, _ in stores if note is not None]
        if declared:
            return _one(self.annotation(cls.mod, scope, note) for scope, note in declared)
        return _one(self.value(cls.mod, scope, value) for scope, _, value in stores)

    def shared_attr(self, name: str):
        """An attribute on a receiver of unknown type: the one type every
        class that stores ``name`` gives it, if they agree."""
        return self.once(
            ("shared", name), lambda: _one(self._data_value(c, name) for c in self.storers[name])
        )

    # -- edges -------------------------------------------------------------

    def targets(self, mod: _Mod, owner: "_Def | None", node) -> "set[_Def]":
        """The definitions one ``Name`` / ``Attribute`` load may denote."""
        if isinstance(node, ast.Name):
            kind, target = self.name_value(mod, owner, node.id) or (None, None)
            if kind is not None or self._bound(mod, owner, node.id):
                return {target} if kind in _CALLABLE else set()
            return set(self.by_name[node.id])
        base = self.value(mod, owner, node.value)
        kind, target = base or (None, None)
        if kind is None:
            return set(self.by_name[node.attr])
        if kind == "mod":
            kind, target = self.member(base, node.attr) or (None, None)
            return {target} if kind in _CALLABLE else set()
        if kind == "super":
            bases = self.bases(target)
            return set().union(*(self.methods(b, node.attr, below=False) for b in bases))
        if kind not in _TYPED:
            return set()
        self.typed.append((target, node.attr))
        found = self.methods(target, node.attr, ducks=kind == "decl")
        if not found and any("__getattr__" in c.members for c in self.ancestry(target)):
            return set(self.by_name[node.attr])
        return found

    def _bound(self, mod, owner, name) -> bool:
        """Is ``name`` a variable somewhere in ``owner``'s scopes?"""
        while owner is not None:
            if name in self.scope(owner):
                return True
            owner = owner.parent
        return name in self.scope(mod)


def _graph_modules(project: Project) -> "list[_Mod]":
    package = project.root.name if project.root is not None else "repro"
    mods = [
        _Mod(rel, ".".join([package, *rel[:-3].split("/")]).removesuffix(".__init__"),
             project.module(rel), True)
        for rel in project.rels()
    ]
    for rel in project.context_rels("bench", "examples"):
        name = rel.rsplit("/", 1)[-1]
        if not name.startswith("test_") and name != "conftest.py":
            dotted = ".".join(rel[:-3].split("/")[1:]).removesuffix(".__init__")
            mods.append(_Mod(rel, dotted, project.context_module(rel), False))
    return mods


def _runner_roots(graph: _Graph) -> "list[_Def]":
    """``run`` of each module ``experiments.ALL_RUNNERS`` names."""
    package = graph.mods.get("repro.experiments")
    runners = [
        item.value
        for node in (package.module.tree.body if package else ())
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "ALL_RUNNERS"
        for item in node.value.elts
    ]
    mods = [graph.mods.get(f"repro.experiments.{name}") for name in runners]
    return [mod.top["run"] for mod in mods if mod and "run" in mod.top]


@register
class ProductionCallerRule(Rule):
    name = "production-caller"
    title = "every src definition is reached from production code"
    motivation = (
        "PR 32 pinned 'only tests call it' by name, which 355 shared names "
        "defeat: AipNic.handle_shutoff and IvAllocator.issued passed on "
        "other definitions' callers"
    )
    project_wide = True

    def check_project(self, project: Project):
        graph = _Graph(_graph_modules(project))
        reached: set[_Def] = set()
        queue: list[_Def] = []

        def reach(found: _Def) -> None:
            if found not in reached:
                reached.add(found)
                queue.append(found)

        kept: set[_Def] = set()  # allowed, with everything defined in them
        for found in graph.defs:
            if found.parent in kept or (
                found.mod.production and found.mod.module.allowed(self.name, found.line)
            ):
                kept.add(found)
            if found.decorators & _REGISTRIES or found in kept:
                reach(found)
        for found in _runner_roots(graph):
            reach(found)
        units = [(mod, None, mod) for mod in graph.mods.values()]
        while units or queue:
            while queue:
                found = queue.pop()
                units.append((found.mod, found, found))
                for name, member in found.members.items():
                    if _is_dunder(name):
                        reach(member)
            while units:
                mod, owner, unit = units.pop()
                for node in graph.unit(unit):
                    named = isinstance(node, (ast.Name, ast.Attribute))
                    if named and isinstance(node.ctx, ast.Load):
                        for target in graph.targets(mod, owner, node):
                            reach(target)
            if not queue:
                # A receiver typed as a class production never builds
                # holds something else: those edges fall back to the name.
                for cls, attr in graph.typed:
                    if cls not in reached or cls in kept:
                        for target in graph.by_name[attr]:
                            reach(target)
        for found in graph.defs:
            if found in reached or not found.mod.production or _is_dunder(found.name):
                continue
            if found.parent is None or found.parent in reached:
                yield Finding(
                    self.name,
                    found.mod.rel,
                    found.line,
                    f"{found.qual} is reached from no production root — only "
                    "tests (or nothing) call it: delete it and rewrite its test "
                    "on the production API, or allow it inline with the reason it stays",
                )
