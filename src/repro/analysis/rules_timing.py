"""Timing-channel rules.

``ct-compare`` is the direct descendant of the PR 3 audit: a naive
``==`` on a MAC/tag short-circuits at the first differing byte and
leaks the mismatch position through timing — the classic remote
timing-oracle forgery, found live in ``PassportVerifier.verify`` during
PR 3.  Every tag comparison on a secret-dependent path must go through
:func:`repro.crypto.util.ct_eq` (which delegates to
:func:`hmac.compare_digest`).
"""

from __future__ import annotations

import ast

from .engine import Finding, Rule, register
from .model import Module

#: Identifier substrings that mark a value as an authentication tag.
#: "expected"/"presented" catch the ``expected = cmac(...);
#: presented != expected`` idiom where neither local is named after the
#: tag itself.
TAG_TOKENS = ("tag", "mac", "digest", "expected", "presented")


def _is_tag_operand(node: ast.expr) -> bool:
    if isinstance(node, ast.Subscript):
        # Columnar code indexes and slices its tags: ``tags[k]`` is named
        # by its base, ``frame[_MAC]`` by the slice constant it reads.
        return _is_tag_operand(node.value) or _is_tag_operand(node.slice)
    if isinstance(node, ast.Name):
        name = node.id.lower()
    elif isinstance(node, ast.Attribute):
        name = node.attr.lower()
    else:
        return False
    # Length checks and key-identity guards (e.g. ``enc_key == mac_key``)
    # compare non-secret-position values, not tags.
    if "length" in name or "size" in name or "key" in name:
        return False
    return any(token in name for token in TAG_TOKENS)


@register
class CtCompareRule(Rule):
    name = "ct-compare"
    title = "authentication tags must be compared in constant time"
    motivation = (
        "PR 3: non-constant-time passport MAC compare (timing-oracle "
        "forgery); guarded since by the tag-comparison audit"
    )
    #: The whole tree: a listed-modules scope missed the shutoff agent's
    #: kHA check, the NAT AP's client-frame check and the host's own
    #: (PR 24) — a tag compare is a bug wherever it is written.
    scope = ("**/*.py",)

    def check_module(self, module: Module):
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            operands = [node.left, *node.comparators]
            if any(_is_tag_operand(operand) for operand in operands):
                yield Finding(
                    self.name,
                    module.rel,
                    node.lineno,
                    "authentication tag compared with ==/!= — use "
                    "repro.crypto.util.ct_eq (hmac.compare_digest)",
                )
