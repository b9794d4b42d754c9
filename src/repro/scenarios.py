"""Named scenario presets, resolvable by string.

One registry maps preset names to :class:`~repro.topology.TopologySpec`
factories, so experiments, benchmarks and one-liners can summon any of
the paper's evaluation shapes without touching builder code::

    >>> from repro import scenarios
    >>> world = scenarios.build("fig1", seed=7)          # the Fig. 1 pair
    >>> chain = scenarios.build("chain:4", seed=1)       # VIII-C path-val
    >>> aaas = scenarios.build("transit-stub:3x2")       # VIII-E hierarchy

Parameterised presets take their arguments after a colon: ``"chain:N"``,
``"star:N"``, ``"transit-stub:TxS"``.  Custom scenarios register with
:func:`register`::

    >>> @scenarios.register("dumbbell", description="two hubs, N leaves each")
    ... def _dumbbell(arg):
    ...     n = int(arg or 2)
    ...     ...
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from .core.config import ApnaConfig
from .topology import TopologyError, TopologySpec, World

__all__ = ["Scenario", "build", "describe", "names", "register", "spec"]


@dataclass(frozen=True)
class Scenario:
    """One registered preset: a name, a blurb and a spec factory.

    The factory receives the raw argument string after the colon (or
    ``None`` when the preset is invoked bare) and returns a
    :class:`TopologySpec`.
    """

    name: str
    description: str
    factory: Callable[[str | None], TopologySpec]


_REGISTRY: dict[str, Scenario] = {}


def register(
    name: str, *, description: str = ""
) -> Callable[[Callable[[str | None], TopologySpec]], Callable]:
    """Decorator: register ``factory(arg) -> TopologySpec`` under ``name``."""

    def _register(factory: Callable[[str | None], TopologySpec]) -> Callable:
        if name in _REGISTRY:
            raise TopologyError(f"scenario {name!r} is already registered")
        _REGISTRY[name] = Scenario(name, description, factory)
        return factory

    return _register


def names() -> list[str]:
    """All registered preset names, sorted."""
    return sorted(_REGISTRY)


def describe() -> list[tuple[str, str]]:
    """``(name, description)`` pairs for every registered preset."""
    return [(s.name, s.description) for _, s in sorted(_REGISTRY.items())]


def spec(preset: str) -> TopologySpec:
    """Resolve a preset string (``"fig1"``, ``"chain:5"``, ...) to a spec."""
    name, _, arg = preset.partition(":")
    name = name.strip()
    try:
        scenario = _REGISTRY[name]
    except KeyError:
        raise TopologyError(
            f"unknown scenario {name!r}; registered scenarios: "
            f"{', '.join(names())}"
        ) from None
    return scenario.factory(arg.strip() or None)


def build(
    preset: str, *, seed: int | str = 0, config: ApnaConfig | None = None
) -> World:
    """Build the :class:`World` for a preset string in one call."""
    return World.from_spec(spec(preset), seed=seed, config=config)


# --------------------------------------------------------------------------
# Built-in presets


def _int_arg(arg: str | None, usage: str) -> int:
    if arg is None:
        raise TopologyError(f"this scenario needs a parameter: {usage}")
    try:
        return int(arg)
    except ValueError:
        raise TopologyError(f"bad scenario parameter {arg!r}; usage: {usage}") from None


@register("fig1", description="the paper's Fig. 1: two peered ASes (AIDs 100, 200)")
def _fig1(arg: str | None) -> TopologySpec:
    if arg is not None:
        raise TopologyError('"fig1" takes no parameter')
    return TopologySpec.fig1()


@register("two-as", description='alias of "fig1"')
def _two_as(arg: str | None) -> TopologySpec:
    return _fig1(arg)


@register("chain", description="linear chain of N ASes, as chain:N (Section VIII-C)")
def _chain(arg: str | None) -> TopologySpec:
    return TopologySpec.chain(_int_arg(arg, "chain:N"))


@register(
    "crash-storm",
    description=(
        "fig1 pair with N hosts per AS, sized for sharded chaos runs "
        "(crash-storm:N, default 4); pair with a forwarding_shards config "
        "and a repro.faults plan"
    ),
)
def _crash_storm(arg: str | None) -> TopologySpec:
    """The chaos-testing shape: the fig1 pair, densely hosted.

    The storm itself is orthogonal to topology — build this world with a
    sharded config, then arm a :func:`repro.faults.crash_storm_plan` on
    each AS's pool::

        config = replace(ApnaConfig(), forwarding_shards=2,
                         forwarding_batch_size=8)
        world = scenarios.build("crash-storm:4", seed=7, config=config)
        world.asys("a").shard_pool.install_faults(
            crash_storm_plan(2, bursts=100, seed=7))

    Enough hosts per AS that every shard owns several HIDs, so kills and
    hangs always have verdicts at stake.
    """
    hosts_per_as = 4 if arg is None else _int_arg(arg, "crash-storm:N")
    if hosts_per_as < 1:
        raise TopologyError(
            f"crash-storm needs at least one host per AS, got {hosts_per_as}"
        )
    from .topology import HostSpec

    spec = TopologySpec.fig1()
    return spec.with_hosts(
        *(
            HostSpec(f"{asys}{i}", at=asys)
            for asys in ("a", "b")
            for i in range(hosts_per_as)
        )
    )


def _scale_int(arg: str, usage: str) -> int:
    """Parse a host count with optional ``k``/``M`` suffix (``250k``, ``1M``)."""
    text = arg.strip()
    multiplier = 1
    if text and text[-1] in ("k", "K"):
        multiplier, text = 1_000, text[:-1]
    elif text and text[-1] in ("m", "M"):
        multiplier, text = 1_000_000, text[:-1]
    try:
        value = int(text)
    except ValueError:
        raise TopologyError(
            f"bad scenario parameter {arg!r}; usage: {usage}"
        ) from None
    return value * multiplier


@register(
    "metro",
    description=(
        "fig1 pair with a bulk population of N registered HIDs per AS "
        "(metro:N, k/M suffixes allowed, default 1M); registry state "
        "only, held as packed columns"
    ),
)
def _metro(arg: str | None) -> TopologySpec:
    """The scale shape: the Fig. 1 pair carrying a metro-sized registry.

    ``metro:1M`` registers 10^6 hosts per AS as packed columns (no
    per-host objects, see :mod:`repro.state`), plus the named
    ``alice``/``bob`` pair so protocol-level traffic still works.  The
    population is pure ``host_info`` state — the paper's §V-A2 registry
    at the AS sizes its tables are dimensioned for.
    """
    usage = "metro:N (e.g. metro:250k, metro:1M)"
    hosts_per_as = 1_000_000 if arg is None else _scale_int(arg, usage)
    if hosts_per_as < 1:
        raise TopologyError(
            f"metro needs at least one host per AS, got {hosts_per_as}"
        )
    from .topology import HostSpec, PopulationSpec

    spec = TopologySpec.fig1()
    return replace(
        spec.with_hosts(HostSpec("alice", at="a"), HostSpec("bob", at="b")),
        populations=(
            PopulationSpec("a", hosts_per_as),
            PopulationSpec("b", hosts_per_as),
        ),
    )


def _population_pair(hosts_per_as: int, *, preset: str) -> TopologySpec:
    """The metro shape shared by the adversarial/churn presets.

    Fig. 1 pair, ``alice``/``bob`` attached for protocol-level traffic,
    plus a bulk population of ``hosts_per_as`` registered HIDs per AS.
    The presets below differ in the *traffic and fault pattern* their
    :mod:`repro.evaluation` case drives through this shape, not in the
    wiring itself.
    """
    if hosts_per_as < 1:
        raise TopologyError(
            f"{preset} needs at least one population host per AS, "
            f"got {hosts_per_as}"
        )
    from .topology import HostSpec, PopulationSpec

    spec = TopologySpec.fig1()
    return replace(
        spec.with_hosts(HostSpec("alice", at="a"), HostSpec("bob", at="b")),
        populations=(
            PopulationSpec("a", hosts_per_as),
            PopulationSpec("b", hosts_per_as),
        ),
    )


@register(
    "flash-crowd",
    description=(
        "fig1 pair with an N-host population per AS for sudden many-source "
        "surges (flash-crowd:N, k/M suffixes, default 10k); the evaluation "
        "case floods cold sources at the border in one burst wave"
    ),
)
def _flash_crowd(arg: str | None) -> TopologySpec:
    """The surge shape: a metro population that all speaks at once.

    Every source is cold — no verdict cache, no warmed EphID — so a
    flash crowd stresses exactly the paper's §V-B per-packet verification
    budget.  The matching :mod:`repro.evaluation` case sweeps the whole
    population through the border in interleaved bursts and holds the
    zero-false-drop and bounded-p99 invariants.
    """
    usage = "flash-crowd:N (e.g. flash-crowd:10k)"
    n = 10_000 if arg is None else _scale_int(arg, usage)
    return _population_pair(n, preset="flash-crowd")


@register(
    "revocation-wave",
    description=(
        "fig1 pair with an N-host population per AS where a rolling slice "
        "of sources is revoked mid-traffic (revocation-wave:N, k/M "
        "suffixes, default 10k)"
    ),
)
def _revocation_wave(arg: str | None) -> TopologySpec:
    """The revocation shape: live traffic racing a wave of revocations.

    The evaluation case revokes successive slices of the population's
    EphIDs *between* bursts that keep using them, asserting the exact
    flip from ``FORWARD`` to ``DROP(SRC_REVOKED)`` with no collateral
    drops of unrevoked neighbours (§IV-D's shutoff end state).
    """
    usage = "revocation-wave:N (e.g. revocation-wave:10k)"
    n = 10_000 if arg is None else _scale_int(arg, usage)
    return _population_pair(n, preset="revocation-wave")


@register(
    "migration",
    description=(
        "fig1 pair with an N-host population per AS where sources are "
        "deregistered at one AS and re-admitted at the peer "
        "(migration:N, k/M suffixes, default 10k)"
    ),
)
def _migration(arg: str | None) -> TopologySpec:
    """The mobility shape: hosts leaving one AS and joining the peer.

    The evaluation case tears a slice of ``a``'s population out of the
    host database (their stale EphIDs must drop as ``SRC_HID_INVALID``)
    and registers replacements at ``b`` whose fresh EphIDs must forward
    immediately — the churn half of the §V-A2 registry lifecycle.
    """
    usage = "migration:N (e.g. migration:10k)"
    n = 10_000 if arg is None else _scale_int(arg, usage)
    return _population_pair(n, preset="migration")


@register(
    "churn",
    description=(
        "fig1 pair with an N-host population per AS run under a "
        "repro.faults crash-storm while traffic flows (churn:N, k/M "
        "suffixes, default 10k); the composition layer over flash-crowd"
    ),
)
def _churn(arg: str | None) -> TopologySpec:
    """The composition shape: flash-crowd traffic under a fault storm.

    Topology-wise identical to ``flash-crowd:N``; the evaluation case
    arms a :func:`repro.faults.crash_storm_plan` on the sharded data
    plane and holds the exact-accounting invariant — every packet either
    matches the single-process oracle's verdict or is charged to
    ``SHARD_FAILURE``, with the two tallies reconciling to the burst.
    """
    usage = "churn:N (e.g. churn:10k)"
    n = 10_000 if arg is None else _scale_int(arg, usage)
    return _population_pair(n, preset="churn")


@register(
    "shutoff-storm",
    description=(
        "3-AS chain with an N-host population at the source AS for "
        "on-path shutoff complaint storms via pathval.shutoff_ext "
        "(shutoff-storm:N, k/M suffixes, default 1k)"
    ),
)
def _shutoff_storm(arg: str | None) -> TopologySpec:
    """The on-path complaint shape: a transit AS flooding Fig. 5 shutoffs.

    A ``src — transit — dst`` chain with named endpoints and a bulk
    population at the source AS.  The evaluation case upgrades the
    source's accountability agent with
    :func:`repro.pathval.upgrade_to_onpath`, then fires a storm of
    passport-stamped on-path shutoff requests from the transit —
    interleaving valid, forged-signature and wrong-stamp complaints —
    and asserts the accept/reject ledger and the resulting
    ``SRC_REVOKED`` drops, while unaccused sources keep forwarding.
    """
    usage = "shutoff-storm:N (e.g. shutoff-storm:1k)"
    n = 1_000 if arg is None else _scale_int(arg, usage)
    if n < 1:
        raise TopologyError(
            f"shutoff-storm needs at least one population host, got {n}"
        )
    from .topology import HostSpec, PopulationSpec

    spec = TopologySpec.chain(3)
    return replace(
        spec.with_hosts(HostSpec("src", at="as1"), HostSpec("dst", at="as3")),
        populations=(PopulationSpec("as1", n),),
    )


@register("star", description="one transit hub with N stub leaves")
def _star(arg: str | None) -> TopologySpec:
    return TopologySpec.star(_int_arg(arg, "star:N"))


@register(
    "transit-stub",
    description="T-transit full-mesh core with S stubs per transit (VIII-E)",
)
def _transit_stub(arg: str | None) -> TopologySpec:
    usage = "transit-stub:TxS (e.g. transit-stub:3x2)"
    if arg is None:
        raise TopologyError(f"this scenario needs a parameter: {usage}")
    t, sep, s = arg.partition("x")
    if not sep:
        raise TopologyError(f"bad scenario parameter {arg!r}; usage: {usage}")
    try:
        n_transits, stubs = int(t), int(s)
    except ValueError:
        raise TopologyError(
            f"bad scenario parameter {arg!r}; usage: {usage}"
        ) from None
    return TopologySpec.transit_stub(n_transits, stubs)
