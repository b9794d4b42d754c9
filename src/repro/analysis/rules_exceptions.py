"""Exception-hygiene rule: no silent broad catches.

Every hard-to-diagnose distributed failure in this repo's history
started life as a swallowed exception: a supervisor retrying on a
mis-typed error, a teardown path eating the stats read that would have
named the dead shard.  ``except Exception:`` (or a bare ``except:``)
that neither binds the exception, uses it, nor re-raises leaves no
trace that anything happened — the failure is converted to silence at
the exact moment the information was cheapest to keep.

The rule flags broad handlers that

* do not bind the exception (``except Exception as exc`` signals the
  author kept the object — the supervisor's retry loops do this), and
* contain no ``raise`` (re-raising, even of a translated error, keeps
  the failure loud).

Sites where swallowing is the designed behaviour — a worker shipping
the traceback home as a ``MSG_ERROR`` frame instead of crashing its
pipe — carry ``# audit: allow(silent-except)`` with the justification
inline, which is exactly the reviewable artefact a silent ``except``
lacks.
"""

from __future__ import annotations

import ast

from .engine import Finding, Rule, register
from .model import Module

_BROAD = ("Exception", "BaseException")


def _is_broad(handler: ast.ExceptHandler) -> bool:
    node = handler.type
    if node is None:  # bare except:
        return True
    if isinstance(node, ast.Tuple):
        return any(_is_broad_type(el) for el in node.elts)
    return _is_broad_type(node)


def _is_broad_type(node: ast.expr) -> bool:
    if isinstance(node, ast.Name):
        return node.id in _BROAD
    if isinstance(node, ast.Attribute):
        return node.attr in _BROAD
    return False


@register
class SilentExceptRule(Rule):
    name = "silent-except"
    title = "broad except handlers must keep the failure visible"
    motivation = (
        "recovery/teardown paths that caught Exception and moved on hid "
        "the one line naming the real failure (worker death causes, "
        "stats reads) — narrow the type, bind and use the exception, "
        "re-raise, or annotate why silence is correct"
    )
    scope = ("**/*.py",)

    def check_module(self, module: Module):
        for node in module.nodes:
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not _is_broad(node):
                continue
            if node.name is not None:
                continue  # bound: the author kept the exception object
            if any(isinstance(sub, ast.Raise) for sub in ast.walk(node)):
                continue  # re-raised (possibly translated): stays loud
            yield Finding(
                self.name,
                module.rel,
                node.lineno,
                "broad except swallows the failure silently — narrow the "
                "exception type, bind/use it, re-raise, or "
                "# audit: allow(silent-except) with a justification",
            )
