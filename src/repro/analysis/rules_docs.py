"""Documentation rules: docstrings may only cite files that exist.

``doc-references`` closes the class PR 14 cleaned up by hand: module
docstrings citing a design document that was never written, and audit
wrapper tests that had been deleted.  A docstring under ``src/repro``
that names a ``*.md`` file or a ``*.py`` path under ``tests/`` or
``bench/`` is a pointer the next reader will follow; the rule checks
the pointer resolves.  It is project-wide because the evidence lives
outside the analysis root (``src/repro`` → repo root); synthetic
in-memory projects have no repo around them, so the rule stays silent
there.
"""

from __future__ import annotations

import ast
import re

from .engine import Finding, Rule, register
from .model import Project

#: ``NAME.md`` anywhere, or a ``*.py`` path under the repo's test or
#: benchmark tree.  Paths resolve against the repo root.
_REFERENCE = re.compile(
    r"(?<![\w./-])((?:[\w.-]+/)*[\w.-]+\.md|(?:tests|bench)/[\w./-]+\.py)\b"
)
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


@register
class DocReferencesRule(Rule):
    name = "doc-references"
    title = "docstrings cite only files that exist in the repo"
    motivation = (
        "PR 14: experiments/__init__ cited a DESIGN.md/EXPERIMENTS.md "
        "that never existed, and two modules cited audit wrapper tests "
        "after their deletion"
    )
    project_wide = True

    def check_project(self, project: Project):
        if project.root is None:
            return
        repo = project.root.parent.parent
        for rel in project.rels():
            for node in ast.walk(project.module(rel).tree):
                if not isinstance(node, _DOCUMENTED):
                    continue
                doc = ast.get_docstring(node, clean=False)
                if not doc:
                    continue
                # Body[0] is the docstring expression itself.
                lineno = node.body[0].lineno
                for match in _REFERENCE.finditer(doc):
                    path = match.group(1)
                    if (repo / path).exists():
                        continue
                    yield Finding(
                        self.name,
                        rel,
                        lineno + doc.count("\n", 0, match.start()),
                        f"docstring cites {path!r}, which does not exist "
                        "in the repo — fix the reference or delete it",
                    )
