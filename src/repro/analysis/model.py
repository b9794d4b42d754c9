"""The shared AST model: one parse per file, for every rule.

Each analysed file becomes a :class:`Module` — parsed exactly once,
with the two pieces of derived structure every rule ends up wanting:

* a **qualified-name table** built from the module's imports, so a rule
  can ask "what does this call resolve to?" and get ``"time.time"``
  whether the source said ``time.time()``, ``from time import time``
  or ``import time as t; t.time()``;
* the **inline suppressions**: ``# audit: allow(<rule>[, <rule>...])``
  comments, collected with :mod:`tokenize` (so a ``#`` inside a string
  literal can never fake one), keyed by line.  A suppression on the
  flagged line or the line directly above it silences that rule there
  — and only there, which is what keeps every ``allow`` reviewable
  next to the code it excuses.

A :class:`Project` is the set of modules under one root (normally
``src/repro``).  Rules that check a single file at a time get handed
modules one by one; cross-module rules (the wire-protocol check) get
the whole project.  Beside the root, a project carries its **context**:
the repo's ``tests/``, ``bench/``, ``examples/`` and ``setup.py``,
parsed once and read-only, for the rules that need the callers and
setters there (a few pin rows also reach into it).  Tests build
synthetic projects from in-memory sources (and context), which is how
every rule ships with known-bad/known-good fixture self-tests.
"""

from __future__ import annotations

import ast
import functools
import io
import re
import tokenize
from fnmatch import fnmatch
from pathlib import Path

#: ``# audit: allow(rule-a, rule-b)`` — the one suppression syntax.
_ALLOW_RE = re.compile(r"#\s*audit:\s*allow\(\s*([a-z0-9_\-\s,]+?)\s*\)", re.I)


def _suppressions(source: str) -> "dict[int, frozenset[str]]":
    """Map line number -> rule names allowed on that line."""
    allowed: dict[int, frozenset[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _ALLOW_RE.search(tok.string)
            if match is None:
                continue
            names = frozenset(
                name.strip().lower()
                for name in match.group(1).split(",")
                if name.strip()
            )
            line = tok.start[0]
            allowed[line] = allowed.get(line, frozenset()) | names
    except tokenize.TokenizeError:  # pragma: no cover - ast.parse catches first
        pass
    return allowed


def _import_table(nodes: "list[ast.AST]") -> "dict[str, str]":
    """Local name -> dotted origin, from every import in the module."""
    table: dict[str, str] = {}
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                # ``import os.path`` binds ``os``; ``import numpy as np``
                # binds ``np`` to the full dotted name.
                table[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom):
            # Relative imports keep their dots: rules match absolute
            # stdlib names, so package-internal imports can never
            # collide with e.g. ``random.Random``.
            prefix = "." * node.level + (node.module or "")
            for alias in node.names:
                local = alias.asname or alias.name
                table[local] = f"{prefix}.{alias.name}" if prefix else alias.name
    return table


class Module:
    """One parsed source file plus its derived lookup structure."""

    def __init__(self, rel: str, source: str) -> None:
        self.rel = rel
        self.source = source

    @functools.cached_property
    def tree(self) -> ast.Module:
        return ast.parse(self.source, filename=self.rel)

    @functools.cached_property
    def nodes(self) -> "list[ast.AST]":
        """Every node of the tree, walked once for all the rules."""
        return list(ast.walk(self.tree))

    @functools.cached_property
    def imports(self) -> "dict[str, str]":
        return _import_table(self.nodes)

    @functools.cached_property
    def suppressions(self) -> "dict[int, frozenset[str]]":
        return _suppressions(self.source) if "audit:" in self.source else {}

    def allowed(self, rule: str, line: int) -> bool:
        """Is ``rule`` suppressed at ``line`` (same line or line above)?"""
        for candidate in (line, line - 1):
            names = self.suppressions.get(candidate)
            if names and rule in names:
                return True
        return False

    def qualname(self, node: ast.expr) -> "str | None":
        """The dotted origin of a Name/Attribute chain, or ``None``.

        ``self.x.y`` resolves through the unresolvable head to
        ``"self.x.y"`` — useful for attribute-shape matching even when
        the receiver is dynamic.
        """
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        head = self.imports.get(node.id, node.id)
        return ".".join([head, *reversed(parts)])


#: The repo trees (and files) beside ``src/`` that make up the context.
CONTEXT = ("tests", "bench", "examples", "setup.py")


class Project:
    """All modules under one root, parsed lazily and exactly once, plus
    the read-only context around it (repo-relative paths)."""

    def __init__(
        self,
        root: "Path | None" = None,
        sources: "dict[str, str] | None" = None,
        context: "dict[str, str] | None" = None,
    ) -> None:
        if (root is None) == (sources is None):
            raise ValueError("pass exactly one of root= or sources=")
        self.root = root
        self._modules: dict[str, Module] = {}
        self._context: dict[str, Module] = {}
        if sources is not None:
            for rel, source in sources.items():
                self._modules[rel] = Module(rel, source)
            for rel, source in (context or {}).items():
                self._context[rel] = Module(rel, source)
            self._rels = sorted(self._modules)
            self._context_rels = sorted(self._context)
        else:
            assert root is not None
            self._rels = sorted(
                path.relative_to(root).as_posix()
                for path in root.rglob("*.py")
            )
            repo = root.parent.parent
            self._context_rels = sorted(
                path.relative_to(repo).as_posix()
                for tree in CONTEXT
                for path in (
                    [repo / tree] if tree.endswith(".py") else (repo / tree).rglob("*.py")
                )
                if path.is_file()
            )

    def rels(self) -> "list[str]":
        """Every analysable path, repo-stable sorted order."""
        return list(self._rels)

    def module(self, rel: str) -> "Module | None":
        if rel not in self._modules:
            if self.root is None or rel not in self._rels:
                return None
            path = self.root / rel
            self._modules[rel] = Module(rel, path.read_text())
        return self._modules.get(rel)

    def context_rels(self, *trees: str) -> "list[str]":
        """Context paths (repo-relative), optionally under ``trees`` only."""
        return [
            rel for rel in self._context_rels
            if not trees or rel.split("/", 1)[0] in trees
        ]

    def context_module(self, rel: str) -> Module:
        if rel not in self._context:
            assert self.root is not None
            repo = self.root.parent.parent
            self._context[rel] = Module(rel, (repo / rel).read_text())
        return self._context[rel]


def scope_match(rel: str, patterns: "tuple[str, ...]") -> bool:
    """Does ``rel`` fall under any of the scope glob ``patterns``?"""
    for pattern in patterns:
        if pattern == "**/*.py" or rel == pattern or fnmatch(rel, pattern):
            return True
    return False
