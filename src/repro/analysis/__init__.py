"""Static invariants — the rule-based AST analyzer for this codebase.

The hardest bugs this repo has shipped were *invariant* bugs invisible
to green tests: the ``==`` timing-oracle tag compare (PR 3), the
``iv % nshards`` linkage leak (PR 8), two separate unbounded-``recv``
hangs (PRs 6 and 8).  Each got a one-off AST audit after the fact; this
package turns those audits into a real analysis pass that runs in
tier-1, so the invariant classes stay closed *by construction* as the
codebase grows (sockets, async dispatch, the scenario pack).

Run it::

    python -m repro.analysis [--format text|json] [--rule NAME] [ROOT]
    repro-analyze            # console entry point (setup.py)

Exit 0 means every finding is suppressed inline; any other finding
exits 1 (and fails ``tests/test_static_analysis.py``, which is tier-1).
``--list-rules`` names every rule.  Besides ``src/repro`` the run reads
the repo's ``tests/``, ``bench/``, ``examples/`` and ``setup.py`` (once,
read-only) for the rules that need callers or setters there.

Static invariants
=================

Every rule encodes an invariant this repo has already paid for or
depends on — the motivating bug/PR is part of the rule's definition:

``ct-compare`` (PR 3)
    Authentication tags are never compared with ``==``/``!=``, anywhere
    in the tree; :func:`repro.crypto.util.ct_eq` only.  The PR 3 audit
    found a live non-constant-time passport MAC compare, PR 24 three
    more in modules a listed scope had left out.
``shard-routing-mod`` (PR 8)
    Shard arithmetic (``% nshards``) exists nowhere in the tree but
    ``sharding/plan.py``; the keyed PRF map is the single router and
    the plan the single HID-row layout.  The
    residue shortcut it forbids leaked log2(nshards) cross-EphID
    linkage bits — exactly what the paper's domain-brokered privacy
    model (Sections IV, V-A1) rules out.
``secret-hygiene`` (paper IV/V-A1)
    ``master``/``kHA``/``kR``/key-material identifiers never flow into
    ``__repr__`` bodies, f-strings, logging calls or exception
    messages.  Secrets in diagnostics end up in tracebacks and logs —
    an unauditable secondary channel.
``determinism`` (every differential suite)
    No ``time.time()``, unseeded ``random.Random()``, module-level
    ``random.*``, ``os.urandom`` or ``secrets.*`` outside the
    sanctioned seams (``crypto/rng.py``'s ``SystemRng``,
    ``metrics/timing``, and ``bench/`` which sits outside the
    tree).  Same-seed world equivalence is load-bearing for the
    sharding, state-store and chaos suites.
``bounded-wait`` (PRs 6 and 8)
    No ``Connection.recv_bytes`` in ``sharding/`` or ``faults/`` without
    a ``timeout=`` or a ``poll(timeout)`` guard in the same function —
    the dispatcher-wedged-forever hang class.  Intentionally-blocking
    worker request loops are annotated inline.
``pickle-free-wire`` (PR 5)
    Shard pipes carry packed wire frames only; ``Connection.send`` /
    ``recv`` (which pickle) are forbidden in ``sharding/``, ``faults/``.
``wire-protocol-completeness`` (PRs 5/6)
    Every ``MSG_*`` kind in ``sharding/wire.py`` has an encoder, a
    decoder, and a dispatch arm on the side that receives it — the
    cross-module consistency a single-file audit cannot express.  A
    sent-but-undispatched kind desynchronises the reply stream.
``silent-except`` (recovery/teardown debugging)
    Broad ``except Exception:`` handlers must narrow the type, bind and
    use the exception, re-raise, or carry an inline justification.
``scenario-coverage`` (PR 10)
    Every ``@register("name")`` preset in ``scenarios.py`` is
    referenced by at least one test under ``tests/``.  Evaluation
    cases build their worlds from preset strings, so an unreferenced
    preset is a topology with zero regression protection.
``doc-references`` (PR 14)
    A ``*.md`` file or ``tests/``/``bench/`` ``*.py`` path named in a
    docstring exists in the repo.  Docstrings kept citing a design
    document that was never written and audit tests that had been
    deleted.

``bounded-cache`` (PRs 19/20, 23)
    In the modules on the packet and request paths
    (``core/border_router.py``, ``core/management.py``,
    ``state/view.py``, ``sharding/*.py``, ``core/verdict.py``,
    ``core/ephid.py``) an instance attribute
    named ``*cache`` initialised to a bare ``dict`` / ``OrderedDict`` /
    ``set`` must be length-checked against a module-level constant, or
    evicted (``popitem`` / ``pop``) in a method that inserts into it;
    and a module-scope ``_*_CACHE`` / ``_*_TABLE`` bound to a bare
    ``dict`` must be bounded the same way inside every function that
    stores into it (``sharding/plan.py`` kept one compiled ``Struct``
    per distinct sub-burst size forever; ``core/verdict.py``'s
    ``_VERDICT_TABLE`` / ``VERDICT_TABLE_CAP`` is the accepted shape).
    The router's per-HID CMAC contexts, the MS's per-HID schemes and the
    shard view's per-HID records were all unbounded maps keyed by a
    requester-chosen HID; PR 19's guessed bound regressed
    ``churn_hostile``, PR 20 put them on one
    :class:`repro.core.lru.LruCache` sized from the benchmark's working
    sets (or deleted them).  A list attribute appended outside
    ``__init__`` and never shrunk is held to the same bound (the
    supervisor's failure log grew for the plane's whole life).
``production-caller`` (PR 32)
    Every ``src/repro`` function, class and method is reached from
    production code — module level, ``__main__`` blocks, ``examples/``,
    bench's entry points, ``ALL_RUNNERS``, ``@case`` / ``@register`` —
    over a call graph that resolves ``self.x.m`` through ``__init__``
    assignments and annotations, falling back to the name where the type
    is unknown.  PR 32's name match let ``AipNic.handle_shutoff`` and
    ``IvAllocator.issued`` through on other definitions' callers.
``gone-names`` (PRs 15, 17, 20, 21, 24–31, 33)
    The names, options, imports and fields the simplicity PRs deleted
    (a crypto backend switch, the object state family, GCM / CBC, an
    object batch path, ``SupervisorPolicy``, ``HAVE_NUMPY``, ...) do not
    grow back.
``identifier-homes`` (PRs 21, 26, 28, 31)
    ``packet_mac_size`` / ``state_backend`` / ``crypto_backend`` (kept
    only because ``bench/`` passes them), the spec primitives, the one
    packet signer (``.with_mac``), the scalar pipelines and ``asys.br``
    appear only in the definitions listed for them, and the dispatcher
    reaches ``send_to`` only from its control-batch flush and its stats
    read (``MSG_STATS`` only from the latter).
``third-party-imports`` (PRs 26, 27)
    numpy, networkx and ``cryptography`` are declared in ``setup.py`` and
    imported only from their homes (``crypto/`` alone for OpenSSL).
``option-surface`` (PRs 20, 24, 25, 27–29)
    ``ApnaConfig``, ``ShardSpec``, ``ShardPlan`` and ``TrafficProfile``
    fields and the narrowed constructors' parameters are exactly the
    pinned ones, and every ``ApnaConfig`` field has a caller that sets
    it.
``one-nonce-source`` (PR 47)
    Header nonces are made, stored and stepped only at the listed sites
    (``session.header_nonce`` and the per-EphID sequences).

Suppressions
============

A finding is silenced in exactly one reviewable way: ``# audit:
allow(<rule>)`` on the flagged line or the line directly above, with the
justification in the same comment — e.g. a worker's request loop that
*should* block forever carries ``# audit: allow(bounded-wait)`` and says
why, and a spec kept for the tests carries ``# audit:
allow(production-caller)`` and names what checks against it.  There is
no findings baseline.

Adding a rule: subclass :class:`Rule` in a ``rules_*`` module, set
``name``/``title``/``motivation``/``scope``, decorate with
``@register``, import the module below, and give it a known-bad +
known-good fixture self-test in ``tests/test_static_analysis.py`` (the
detector must provably detect).
"""

from .engine import DEFAULT_ROOT, RULES, Finding, Report, Rule, register, run_analysis
from .model import Module, Project

# Importing the rule modules is what populates the registry.
from . import rules_timing  # noqa: E402,F401  (ct-compare)
from . import rules_privacy  # noqa: E402,F401  (shard-routing-mod, secret-hygiene)
from . import rules_determinism  # noqa: E402,F401  (determinism)
from . import rules_ipc  # noqa: E402,F401  (bounded-wait, pickle-free-wire, wire-protocol-completeness)
from . import rules_exceptions  # noqa: E402,F401  (silent-except)
from . import rules_scenarios  # noqa: E402,F401  (scenario-coverage)
from . import rules_docs  # noqa: E402,F401  (doc-references)
from . import rules_bounds  # noqa: E402,F401  (bounded-cache)
from . import rules_callers  # noqa: E402,F401  (production-caller)
from . import rules_pins  # noqa: E402,F401  (gone-names, identifier-homes, third-party-imports, option-surface, one-nonce-source)

__all__ = [
    "DEFAULT_ROOT",
    "RULES",
    "Finding",
    "Module",
    "Project",
    "Report",
    "Rule",
    "register",
    "run_analysis",
]
