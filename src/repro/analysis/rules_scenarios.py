"""Scenario-registry coverage: every preset is exercised by a test.

``scenario-coverage`` closes the gap the evaluation pack (PR 10) made
visible: a preset registered in :mod:`repro.scenarios` but referenced
by no test is a scenario the suite silently stopped defending — its
topology factory, arg parsing and population wiring can rot without a
single red test.  Evaluation cases, experiments and one-liners build
their worlds from preset strings, so registration and test coverage
must move together.

The rule parses ``scenarios.py`` for ``@register("name", ...)``
decorators and greps the sibling ``tests/`` tree for the quoted preset
name (bare ``"name"`` or arg-taking ``"name:``).  It is project-wide
because the evidence lives outside the analysis root: the tests
directory is resolved relative to the project root (``src/repro`` →
repo root → ``tests/``); when no tests directory exists — synthetic
in-memory projects — the rule stays silent rather than flagging every
preset.
"""

from __future__ import annotations

import ast
import re

from .engine import Finding, Rule, register
from .model import Project

_SCENARIOS = "scenarios.py"


def _registered_presets(tree: ast.AST) -> "list[tuple[str, int]]":
    """``(preset_name, lineno)`` for every ``@register("...")`` decorator."""
    presets: list[tuple[str, int]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        for decorator in node.decorator_list:
            if not (
                isinstance(decorator, ast.Call)
                and isinstance(decorator.func, ast.Name)
                and decorator.func.id == "register"
                and decorator.args
            ):
                continue
            name = decorator.args[0]
            if isinstance(name, ast.Constant) and isinstance(name.value, str):
                presets.append((name.value, decorator.lineno))
    return presets


@register
class ScenarioCoverageRule(Rule):
    name = "scenario-coverage"
    title = "every registered scenario preset is exercised by a test"
    motivation = (
        "evaluation cases build their worlds from preset strings "
        "(metro:N, shutoff-storm:N), so a preset no test references is "
        "a topology with zero regression protection"
    )
    scope = (_SCENARIOS,)
    project_wide = True

    def check_project(self, project: Project):
        module = project.module(_SCENARIOS)
        if module is None or project.root is None:
            return
        tests_dir = project.root.parent.parent / "tests"
        if not tests_dir.is_dir():
            return
        corpus = "\n".join(
            path.read_text(errors="replace")
            for path in sorted(tests_dir.glob("*.py"))
        )
        for preset, lineno in _registered_presets(module.tree):
            # The name as tests would spell it: a quoted "name" (or the
            # arg-taking "name:..." form).
            pattern = r"""["']""" + re.escape(preset) + r"""[:"']"""
            if re.search(pattern, corpus):
                continue
            yield Finding(
                self.name,
                _SCENARIOS,
                lineno,
                f"preset {preset!r} is registered but no test under "
                "tests/ references it — add one (or retire the preset)",
            )
