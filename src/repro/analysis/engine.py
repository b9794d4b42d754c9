"""The rule engine: registry, driver, inline suppressions.

A :class:`Rule` declares a **file scope** (glob patterns under the
analysis root) and checks either one module at a time
(:meth:`Rule.check_module`) or the whole project at once
(:meth:`Rule.check_project`, for cross-module invariants).  Rules
register themselves into :data:`RULES` at import; the driver runs every
registered rule (or a ``--rule`` subset).  A finding whose line (or the
line above) carries ``# audit: allow(<rule>)`` is recorded as
suppressed, not reported: that is the one way to silence a finding, for
sites where the flagged pattern is the point (a worker's intentionally
unbounded request wait, say), with the justification in the same
comment.  Every other finding fails the run.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Iterable, Iterator

from .model import Module, Project, scope_match

#: The tree the analyzer covers by default: the ``repro`` package.
DEFAULT_ROOT = Path(__file__).resolve().parent.parent


@dataclasses.dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    file: str  # path relative to the analysis root, posix separators
    line: int
    message: str

    def render(self) -> str:
        return f"{self.file}:{self.line}: [{self.rule}] {self.message}"


class Rule:
    """Base class: subclass, set the class attributes, ``@register``."""

    #: Registry key and the name ``# audit: allow(...)`` must use.
    name: str = ""
    #: One-line summary shown by ``--list-rules``.
    title: str = ""
    #: The bug/PR that motivated the rule (part of the contract: a rule
    #: with no incident or dependency behind it doesn't belong here).
    motivation: str = ""
    #: Glob patterns (relative to the root) the rule applies to.
    scope: "tuple[str, ...]" = ("**/*.py",)
    #: Patterns carved back out of ``scope``.
    exclude: "tuple[str, ...]" = ()
    #: Project-wide rules see every module at once (cross-module
    #: invariants); per-module rules are handed one file at a time.
    project_wide: bool = False

    def applies_to(self, rel: str) -> bool:
        if scope_match(rel, self.exclude):
            return False
        return scope_match(rel, self.scope)

    def check_module(self, module: Module) -> "Iterable[Finding]":
        return ()

    def check_project(self, project: Project) -> "Iterable[Finding]":
        return ()


#: Every registered rule, in registration order.
RULES: "dict[str, Rule]" = {}


def register(cls: "type[Rule]") -> "type[Rule]":
    """Class decorator: instantiate and add to :data:`RULES`."""
    rule = cls()
    if not rule.name:
        raise ValueError(f"rule {cls.__name__} has no name")
    if rule.name in RULES:
        raise ValueError(f"duplicate rule name {rule.name!r}")
    RULES[rule.name] = rule
    return cls


@dataclasses.dataclass
class Report:
    """Everything one analysis run produced."""

    findings: "list[Finding]"  # unsuppressed: each one fails the run
    suppressed: "list[Finding]"
    checked_files: int
    rules: "list[str]"

    def to_json(self) -> dict:
        def rows(findings):
            return [dataclasses.asdict(f) for f in findings]

        return {
            "findings": rows(self.findings),
            "suppressed": rows(self.suppressed),
            "checked_files": self.checked_files,
            "rules": self.rules,
        }


def iter_rules(names: "Iterable[str] | None" = None) -> "Iterator[Rule]":
    if names is None:
        yield from RULES.values()
        return
    for name in names:
        if name not in RULES:
            known = ", ".join(sorted(RULES))
            raise KeyError(f"unknown rule {name!r} (known: {known})")
        yield RULES[name]


def run_analysis(
    root: "Path | str | None" = None,
    *,
    rules: "Iterable[str] | None" = None,
    project: "Project | None" = None,
) -> Report:
    """Run the selected rules and return the full :class:`Report`.

    ``project`` overrides ``root`` (tests pass synthetic projects).
    """
    if project is None:
        project = Project(root=Path(root) if root is not None else DEFAULT_ROOT)
    selected = list(iter_rules(rules))
    findings: list[Finding] = []
    suppressed: list[Finding] = []
    checked: set[str] = set()
    for rule in selected:
        raw: list[Finding] = []
        if rule.project_wide:
            raw.extend(rule.check_project(project))
            checked.update(rel for rel in project.rels() if rule.applies_to(rel))
        else:
            for rel in project.rels():
                if not rule.applies_to(rel):
                    continue
                module = project.module(rel)
                if module is None:
                    continue
                checked.add(rel)
                raw.extend(rule.check_module(module))
        for finding in raw:
            module = project.module(finding.file)
            if module is not None and module.allowed(rule.name, finding.line):
                suppressed.append(finding)
            else:
                findings.append(finding)
    findings.sort(key=lambda f: (f.file, f.line, f.rule))
    suppressed.sort(key=lambda f: (f.file, f.line, f.rule))
    return Report(
        findings=findings,
        suppressed=suppressed,
        checked_files=len(checked),
        rules=[rule.name for rule in selected],
    )
