"""Determinism rule: same seed, same world — everywhere.

Every world-level differential suite in this repo (sharding
equivalence, state stores, fault storms) works by building two worlds
from one seed and asserting bit-identical behaviour.  That only holds
if nothing in the simulation path reads ambient entropy or the wall
clock.  The sanctioned seams are:

* :class:`repro.crypto.rng.SystemRng` — the one place allowed to touch
  ``os.urandom`` (real deployments opt in by constructing it);
* :mod:`repro.metrics.timing` — wall-clock measurement for the
  experiment harness (``perf_counter`` timing, never simulation state);
* ``bench/`` — outside the analysed tree entirely.

Everything else must draw randomness from an explicitly seeded
generator (``DeterministicRng``, ``random.Random(seed)``) and time from
the simulated clock.
"""

from __future__ import annotations

import ast

from .engine import Finding, Rule, register
from .model import Module

#: Fully-qualified calls that read ambient entropy or wall-clock time.
_BANNED_CALLS = {
    "time.time": "wall-clock read (use the simulated clock)",
    "time.time_ns": "wall-clock read (use the simulated clock)",
    "os.urandom": "ambient entropy (use crypto.rng: SystemRng is the seam)",
    "os.getrandom": "ambient entropy (use crypto.rng: SystemRng is the seam)",
    "uuid.uuid4": "ambient entropy (derive ids from the seeded rng)",
}

#: ``random``'s module-level functions share one unseeded global RNG.
_MODULE_RNG = {
    "random.random",
    "random.randint",
    "random.randrange",
    "random.uniform",
    "random.choice",
    "random.choices",
    "random.shuffle",
    "random.sample",
    "random.getrandbits",
    "random.gauss",
    "random.seed",
    "random.randbytes",
}


@register
class DeterminismRule(Rule):
    name = "determinism"
    title = "no ambient entropy or wall-clock reads outside sanctioned seams"
    motivation = (
        "same-seed world equivalence is load-bearing for every "
        "world-level differential suite (sharding, state stores, chaos "
        "storms); one stray time.time()/os.urandom breaks them all"
    )
    scope = ("**/*.py",)
    exclude = ("crypto/rng.py", "metrics/timing.py")

    def check_module(self, module: Module):
        for node in module.nodes:
            if not isinstance(node, ast.Call):
                continue
            qual = module.qualname(node.func)
            if qual is None:
                continue
            if qual in _BANNED_CALLS:
                yield Finding(
                    self.name,
                    module.rel,
                    node.lineno,
                    f"{qual}(): {_BANNED_CALLS[qual]}",
                )
            elif qual.startswith("secrets."):
                yield Finding(
                    self.name,
                    module.rel,
                    node.lineno,
                    f"{qual}(): ambient entropy (use crypto.rng seams)",
                )
            elif qual in _MODULE_RNG:
                yield Finding(
                    self.name,
                    module.rel,
                    node.lineno,
                    f"{qual}(): module-level RNG is unseeded global state "
                    "(use random.Random(seed) or DeterministicRng)",
                )
            elif qual == "random.Random" and not node.args and not node.keywords:
                yield Finding(
                    self.name,
                    module.rel,
                    node.lineno,
                    "random.Random() without a seed draws from ambient "
                    "entropy — pass an explicit seed",
                )
