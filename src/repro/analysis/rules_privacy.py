"""Privacy rules: linkage channels and secret-material leaks.

``shard-routing-mod`` is the PR 8 audit.  The dispatcher used to route
by the publicly computable ``iv % nshards`` residue, handing any on-path
observer log2(nshards) bits of exactly the cross-EphID linkage the
paper's domain-brokered privacy model (Sections IV, V-A1) forbids.  Routing arithmetic is allowed only inside
``sharding/plan.py``; everyone else goes through
``ShardPlan.owner_of_iv*`` / ``owners_of_iv_bytes``.

``secret-hygiene`` keeps key material out of every human-readable
surface: ``__repr__`` bodies, f-string interpolations, logging calls
and exception messages.  A secret that reaches a repr or an exception
string ends up in logs, tracebacks and crash reports — an
accountability system that leaks ``master``/``kHA``/``kR`` bytes
through its own diagnostics has no privacy story left to defend.
"""

from __future__ import annotations

import ast

from .engine import Finding, Rule, register
from .model import Module

# --------------------------------------------------------------------------
# shard-routing-mod

#: Identifier substrings that mark a modulus as a shard count.
SHARD_TOKENS = ("nshards", "num_shards", "shard_count", "n_shards")


def _names_shard_count(node: ast.expr) -> bool:
    if isinstance(node, ast.Name):
        name = node.id.lower()
    elif isinstance(node, ast.Attribute):
        name = node.attr.lower()
    else:
        # Constants (``% 2**32`` wraparound) and calls are fine: the
        # leak class is specifically reduction modulo the shard count.
        return False
    return any(token in name for token in SHARD_TOKENS)


@register
class ShardRoutingModRule(Rule):
    name = "shard-routing-mod"
    title = "shard routing is computed only by ShardPlan"
    motivation = (
        "PR 8: iv %% nshards dispatch leaked log2(nshards) cross-EphID "
        "linkage bits to on-path observers; routing is now PRF-keyed "
        "and owned by sharding/plan.py alone"
    )
    #: Everything that sees clear IV bytes and a shard count.  plan.py
    #: is the one module allowed to turn one into the other.
    #: Deliberately *not* audited: state/view.py and state/columns.py
    #: use ``blk % nshards`` for HID-block ownership (which rows a
    #: shard stores) — keyed on the secret HID, not on clear packet
    #: bytes, and not a routing decision an observer can replay.
    scope = (
        "sharding/*.py",
        "core/ephid.py",
        "core/border_router.py",
        "core/autonomous_system.py",
    )
    exclude = ("sharding/plan.py",)

    def check_module(self, module: Module):
        for node in ast.walk(module.tree):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
                if _names_shard_count(node.right):
                    yield Finding(
                        self.name,
                        module.rel,
                        node.lineno,
                        "shard-count modulo outside ShardPlan — route via "
                        "plan.owner_of_iv*/owners_of_iv_bytes instead",
                    )


# --------------------------------------------------------------------------
# secret-hygiene

#: Substrings/suffixes that mark an identifier as key material.
_SECRET_SUBSTRINGS = ("master", "secret", "kha", "k_ha", "key_material")
_SECRET_EXACT = ("kr", "key", "keys", "subkey", "kha")
_SECRET_SUFFIXES = ("_key", "_keys", "_secret", "_secrets")
#: Identifiers that merely describe secrets (sizes, names, ids) are not
#: themselves secret.
_INNOCENT = ("size", "len", "count", "name", "index", "id_", "error", "type")

_LOG_METHODS = (
    "debug",
    "info",
    "warning",
    "warn",
    "error",
    "exception",
    "critical",
    "log",
)


def _is_secret_name(name: str) -> bool:
    lowered = name.lower()
    if any(token in lowered for token in _INNOCENT):
        return False
    if lowered in _SECRET_EXACT:
        return True
    if any(lowered.endswith(suffix) for suffix in _SECRET_SUFFIXES):
        return True
    return any(token in lowered for token in _SECRET_SUBSTRINGS)


def _terminal_secret(node: ast.expr) -> "str | None":
    """The identifier, if ``node`` is a bare secret Name/Attribute.

    Only terminal names count: ``{len(key)}`` interpolates a length,
    not the key, so the operand there is the ``len`` call.
    """
    if isinstance(node, ast.Name) and _is_secret_name(node.id):
        return node.id
    if isinstance(node, ast.Attribute) and _is_secret_name(node.attr):
        return node.attr
    return None


def _is_logging_call(module: Module, call: ast.Call) -> bool:
    qual = module.qualname(call.func)
    if qual is None:
        return False
    if qual == "warnings.warn" or qual.startswith("logging."):
        return True
    if isinstance(call.func, ast.Attribute) and call.func.attr in _LOG_METHODS:
        head = qual.split(".", 1)[0].lower()
        return "log" in head or "log" in qual.rsplit(".", 2)[-2].lower()
    return False


@register
class SecretHygieneRule(Rule):
    name = "secret-hygiene"
    title = "key material stays out of reprs, f-strings, logs, exceptions"
    motivation = (
        "domain-brokered privacy (paper IV/V-A1): master/kHA/kR bytes in "
        "a repr, log line or exception message end up in tracebacks and "
        "crash reports — an unauditable secondary channel"
    )
    scope = ("**/*.py",)

    def check_module(self, module: Module):
        seen: set[tuple[int, str]] = set()

        def emit(node: ast.expr, name: str, context: str):
            key = (node.lineno, name)
            if key in seen:
                return None
            seen.add(key)
            return Finding(
                self.name,
                module.rel,
                node.lineno,
                f"secret-looking identifier {name!r} flows into {context} — "
                "redact (hex prefix, length, or omit) before formatting",
            )

        for node in ast.walk(module.tree):
            # f-string interpolation of a secret, anywhere.
            if isinstance(node, ast.JoinedStr):
                for value in node.values:
                    if isinstance(value, ast.FormattedValue):
                        name = _terminal_secret(value.value)
                        if name:
                            finding = emit(value.value, name, "an f-string")
                            if finding:
                                yield finding
            # Secrets handed straight to a logging call.
            elif isinstance(node, ast.Call) and _is_logging_call(module, node):
                for arg in node.args:
                    name = _terminal_secret(arg)
                    if name:
                        finding = emit(arg, name, "a logging call")
                        if finding:
                            yield finding
            # Secrets interpolated into a raised exception's arguments.
            elif isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                for arg in node.exc.args:
                    name = _terminal_secret(arg)
                    if name:
                        finding = emit(arg, name, "an exception message")
                        if finding:
                            yield finding
            # Any secret identifier used inside a __repr__ body (except
            # as a len() argument — lengths are fine to print).
            elif (
                isinstance(node, ast.FunctionDef) and node.name == "__repr__"
            ):
                length_args: set[int] = set()
                for sub in ast.walk(node):
                    if (
                        isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Name)
                        and sub.func.id == "len"
                    ):
                        for arg in sub.args:
                            length_args.update(
                                id(inner) for inner in ast.walk(arg)
                            )
                for sub in ast.walk(node):
                    if id(sub) in length_args or not isinstance(
                        sub, (ast.Name, ast.Attribute)
                    ):
                        continue
                    name = _terminal_secret(sub)
                    if name:
                        finding = emit(sub, name, "__repr__")
                        if finding:
                            yield finding
