"""IPC rules for the sharded data plane: waits, wire format, protocol.

``bounded-wait`` is the PR 6 / PR 8 hang class as a rule: an unbounded
``Connection.recv_bytes`` wedges the dispatcher forever the first time
a worker dies mid-reply (PR 6) or an MS issuance worker hangs (PR 8).
Every receive in ``sharding/`` — and in ``faults/``, whose carrier
sits on the same path — must either pass a ``timeout=`` or sit behind a
``poll(timeout)`` guard in the same function.  Worker-side
request loops that *intend* to block forever (EOF from the parent wakes
them) carry an ``# audit: allow(bounded-wait)`` with the justification.

``pickle-free-wire`` keeps the PR 5 contract: shard pipes carry packed
frames only, never pickled objects.  ``Connection.send``/``recv``
pickle silently — one stray call and the wire format, the cross-version
story and the "one burst = one message" accounting all quietly rot.

``wire-protocol-completeness`` is the cross-module invariant no
single-file AST audit can express: every ``MSG_*`` kind declared in
``sharding/wire.py`` must be encodable, decodable and dispatched.  A
constant with an encoder but no worker arm is a protocol extension that
silently desynchronises the reply stream the first time it is sent.
"""

from __future__ import annotations

import ast

from .engine import Finding, Rule, register
from .model import Module, Project

# --------------------------------------------------------------------------
# bounded-wait


def _timeout_kwarg(call: ast.Call) -> "ast.expr | None":
    for keyword in call.keywords:
        if keyword.arg == "timeout":
            return keyword.value
    return None


@register
class BoundedWaitRule(Rule):
    name = "bounded-wait"
    title = "every shard-pipe receive is bounded"
    motivation = (
        "PR 6: dispatcher wedged forever on a dead worker's reply; "
        "PR 8: MS issuance hung on a wedged worker — both were an "
        "unbounded Connection.recv_bytes"
    )
    scope = ("sharding/*.py", "faults/*.py")

    def check_module(self, module: Module):
        for func in ast.walk(module.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            poll_lines = [
                node.lineno
                for node in ast.walk(func)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "poll"
                and (node.args or node.keywords)
            ]
            for node in ast.walk(func):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "recv_bytes"
                ):
                    continue
                timeout = _timeout_kwarg(node)
                if timeout is not None and not (
                    isinstance(timeout, ast.Constant) and timeout.value is None
                ):
                    continue  # caller passes a live timeout through
                if any(line <= node.lineno for line in poll_lines):
                    continue  # poll(timeout) guard in the same function
                yield Finding(
                    self.name,
                    module.rel,
                    node.lineno,
                    "unbounded recv_bytes — pass timeout= or guard with "
                    "poll(timeout) (the PR 6/PR 8 hang class)",
                )


# --------------------------------------------------------------------------
# pickle-free-wire


@register
class PickleFreeWireRule(Rule):
    name = "pickle-free-wire"
    title = "shard pipes carry packed frames, never pickles"
    motivation = (
        "PR 5 contract: one burst = one packed message; "
        "Connection.send/recv pickle objects silently and break the "
        "wire format, accounting and resync story"
    )
    scope = ("sharding/*.py", "faults/*.py")

    def check_module(self, module: Module):
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("send", "recv")
            ):
                yield Finding(
                    self.name,
                    module.rel,
                    node.lineno,
                    f".{node.func.attr}() pickles its payload — use "
                    "send_bytes/recv_bytes with packed wire frames",
                )


# --------------------------------------------------------------------------
# wire-protocol-completeness

_WIRE = "sharding/wire.py"
#: Modules that run inside worker processes (produce replies).
_WORKER_SIDE = ("sharding/worker.py", "sharding/issuance.py")
#: Modules that run in the dispatcher/supervisor (produce requests).
_DISPATCHER_SIDE = ("sharding/pool.py", "sharding/supervisor.py")


def _msg_names(tree: ast.AST) -> "set[str]":
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id.startswith("MSG_"):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr.startswith("MSG_"):
            found.add(node.attr)
    return found


def _callee(node: ast.expr) -> "str | None":
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


class _WireModel:
    """What ``wire.py`` declares: kinds, encoders, decoders."""

    def __init__(self, module: Module) -> None:
        self.constants: dict[str, int] = {}
        self.encoders: dict[str, set[str]] = {}
        self.decoders: list[str] = []
        for node in module.tree.body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id.startswith(
                        "MSG_"
                    ):
                        self.constants[target.id] = node.lineno
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            if node.name.startswith("encode_"):
                self.encoders[node.name] = _msg_names(node) & set(
                    self.constants
                )
            elif node.name.startswith("decode_"):
                self.decoders.append(node.name)

    def kinds_of_encoder(self, name: str) -> "set[str]":
        return self.encoders.get(name, set())

    def kinds_of_decoder(self, name: str) -> "set[str]":
        # decode_x yields whatever its encode_x twin packs.
        return self.kinds_of_encoder("encode_" + name[len("decode_") :])


def _module_usage(module: Module, wire: _WireModel):
    """(produced, consumed) MSG kinds for one non-wire module.

    Produced: kinds packed raw (``bytes([MSG_X])`` / ``*.pack(MSG_X,
    ...)``) or via a ``wire.encode_*`` call.  Consumed: kinds compared
    against (``msg[0] == MSG_X`` dispatch) or reached via a
    ``wire.decode_*`` call — or one handed to a call by reference, the
    way the dispatcher gives the ledger's reply method its decoder.
    """
    produced: set[str] = set()
    consumed: set[str] = set()
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Compare):
            consumed |= _msg_names(node)
        elif isinstance(node, ast.Call):
            callee = _callee(node.func)
            if callee in ("bytes", "bytearray"):
                for arg in node.args:
                    produced |= _msg_names(arg)
            elif callee == "pack":
                for arg in node.args:
                    produced |= _msg_names(arg)
            elif callee and callee.startswith("encode_"):
                produced |= wire.kinds_of_encoder(callee)
            elif callee and callee.startswith("decode_"):
                consumed |= wire.kinds_of_decoder(callee)
            for arg in node.args:
                decoder = _callee(arg)
                if decoder and decoder.startswith("decode_"):
                    consumed |= wire.kinds_of_decoder(decoder)
    return produced, consumed


@register
class WireProtocolRule(Rule):
    name = "wire-protocol-completeness"
    title = "every MSG_* kind has an encoder, a decoder and a dispatch arm"
    motivation = (
        "the reply-stream alignment invariant (PR 5/6): a kind that is "
        "sent but not dispatched, or produced but never decoded, "
        "desynchronises verdict pairing the first time it crosses a pipe"
    )
    scope = ("sharding/*.py",)
    project_wide = True

    def check_project(self, project: Project):
        wire_module = project.module(_WIRE)
        if wire_module is None:
            return
        wire = _WireModel(wire_module)

        def usage(rels: "tuple[str, ...]"):
            produced: set[str] = set()
            consumed: set[str] = set()
            for rel in rels:
                module = project.module(rel)
                if module is not None:
                    p, c = _module_usage(module, wire)
                    produced |= p
                    consumed |= c
            return produced, consumed

        dispatcher_sends, dispatcher_consumes = usage(_DISPATCHER_SIDE)
        worker_sends, worker_consumes = usage(_WORKER_SIDE)
        produced_anywhere = dispatcher_sends | worker_sends
        consumed_anywhere = dispatcher_consumes | worker_consumes

        # Encoder/decoder name symmetry inside wire.py.
        decoder_names = set(wire.decoders)
        for encoder in wire.encoders:
            twin = "decode_" + encoder[len("encode_") :]
            if twin not in decoder_names:
                yield Finding(
                    self.name,
                    _WIRE,
                    wire_module.tree.body[0].lineno,
                    f"{encoder} has no matching {twin}",
                )
        for decoder in decoder_names:
            twin = "encode_" + decoder[len("decode_") :]
            if twin not in wire.encoders:
                yield Finding(
                    self.name,
                    _WIRE,
                    wire_module.tree.body[0].lineno,
                    f"{decoder} has no matching {twin}",
                )

        for kind, lineno in sorted(wire.constants.items()):
            if kind not in produced_anywhere:
                yield Finding(
                    self.name,
                    _WIRE,
                    lineno,
                    f"{kind} is never encoded or sent by any sharding "
                    "module (dead or unfinished protocol kind)",
                )
                continue
            specific = False
            if kind in dispatcher_sends and kind not in worker_consumes:
                specific = True
                yield Finding(
                    self.name,
                    _WIRE,
                    lineno,
                    f"{kind} is sent to workers but no worker dispatch "
                    "arm handles it",
                )
            if kind in worker_sends and kind not in dispatcher_consumes:
                specific = True
                yield Finding(
                    self.name,
                    _WIRE,
                    lineno,
                    f"{kind} is sent by workers but the dispatcher never "
                    "decodes it",
                )
            if kind not in consumed_anywhere and not specific:
                yield Finding(
                    self.name,
                    _WIRE,
                    lineno,
                    f"{kind} is never dispatched or decoded by any "
                    "sharding module",
                )
