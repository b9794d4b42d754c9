"""Declarative topologies and the unified :class:`World`.

The paper's evaluation spans many deployment shapes — the two-AS world of
Fig. 1, transit chains for the Section VIII-C path-validation experiments,
stars, and transit-stub hierarchies for APNA-as-a-Service (VIII-E).  Rather
than one bespoke builder per shape, this module provides three layers:

* :class:`TopologySpec` — a declarative description of an internet: ASes,
  links, host placements and granularity policies.  Pure data; it can be
  inspected, composed, serialised and diffed before anything is built.
* :class:`WorldBuilder` — a fluent front-end that accumulates a spec::

      world = (
          WorldBuilder(seed=7)
          .transit("T1")
          .stub("S1", parent="T1")
          .host("alice", at="S1")
          .build()
      )

* :class:`World` — the single runtime class every topology builds into:
  uniform ``attach_host(name, at=<as-name>)`` addressing, host lookup and
  lifecycle (``run``, ``run_until``) regardless of shape.

Named presets ("fig1", "chain:4", ...) live in :mod:`repro.scenarios`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .core.autonomous_system import ApnaAutonomousSystem, ApnaHostNode
from .core.config import ApnaConfig
from .core.errors import ApnaError
from .core.granularity import POLICIES, GranularityPolicy
from .core.rpki import RpkiDirectory, TrustAnchor
from .crypto.rng import DeterministicRng, Rng
from .netsim import Network

__all__ = [
    "AsSpec",
    "DuplicateHostError",
    "HostSpec",
    "LinkSpec",
    "PopulationSpec",
    "TopologyError",
    "TopologySpec",
    "UnknownAsError",
    "World",
    "WorldBuilder",
]


class TopologyError(ApnaError, ValueError):
    """A topology spec or builder call is invalid.

    Also a :class:`ValueError`, so callers validating user input can
    catch it as one.
    """


class UnknownAsError(TopologyError, KeyError):
    """An AS reference (``at=...``) did not resolve.

    Also a :class:`KeyError`: :meth:`World.asys` is a lookup.
    """

    def __init__(self, ref: object, known: list[str]) -> None:
        self.ref = ref
        self.known = known
        listing = ", ".join(known) if known else "(none)"
        super().__init__(f"unknown AS {ref!r}; known ASes: {listing}")

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0]


class DuplicateHostError(ApnaError):
    """A host name is already attached to this world."""


def _resolve_policy(
    policy: "str | type[GranularityPolicy] | None",
) -> "type[GranularityPolicy] | None":
    """Map a granularity policy name to its class (pass classes through)."""
    if not isinstance(policy, str):
        return policy
    try:
        return POLICIES[policy]
    except KeyError:
        raise TopologyError(
            f"unknown granularity policy {policy!r}; "
            f"choose from {', '.join(sorted(POLICIES))}"
        ) from None


# --------------------------------------------------------------------------
# Declarative specs


@dataclass(frozen=True)
class AsSpec:
    """One autonomous system: a name for addressing, an AID for the wire."""

    name: str
    aid: int
    role: str = "as"  # "as" | "transit" | "stub" — informational


@dataclass(frozen=True)
class LinkSpec:
    """A bidirectional inter-AS link between two named ASes."""

    a: str
    b: str
    latency: float = 0.010
    bandwidth: float = 1e10
    weight: float | None = None


@dataclass(frozen=True)
class HostSpec:
    """A host placement: which AS it homes on and its access link."""

    name: str
    at: str
    latency: float = 0.001
    bandwidth: float = 1e8
    policy: str | None = None  # a repro.core.granularity policy name


@dataclass(frozen=True)
class PopulationSpec:
    """A bulk host population: ``hosts`` registered HIDs on one AS.

    Unlike :class:`HostSpec`, a population creates no simulated host
    nodes, no access links and no protocol bootstrap — only registry
    state (HIDs and kHA subkeys in the AS's ``host_info``), which is
    what million-host scale experiments need.  Registered via
    :meth:`repro.core.autonomous_system.ApnaAutonomousSystem.
    register_population`, so the whole population lives in the
    :mod:`repro.state` columns with no per-host objects.
    """

    at: str
    hosts: int


@dataclass(frozen=True)
class TopologySpec:
    """A declarative internet: ASes, links and host placements.

    Build it directly, through :class:`WorldBuilder`, or from a preset
    (:meth:`fig1`, :meth:`chain`, :meth:`star`, :meth:`transit_stub` — the
    same shapes :mod:`repro.scenarios` resolves from strings).
    """

    ases: tuple[AsSpec, ...] = ()
    links: tuple[LinkSpec, ...] = ()
    hosts: tuple[HostSpec, ...] = ()
    populations: tuple[PopulationSpec, ...] = ()

    # -- validation --------------------------------------------------------

    def validate(self) -> "TopologySpec":
        """Check internal consistency; returns self so calls chain."""
        if not self.ases:
            raise TopologyError("a topology needs at least one AS")
        names = [a.name for a in self.ases]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise TopologyError(f"duplicate AS name(s): {', '.join(dupes)}")
        aids = [a.aid for a in self.ases]
        if len(set(aids)) != len(aids):
            dupes = sorted({a for a in aids if aids.count(a) > 1})
            raise TopologyError(
                f"duplicate AID(s): {', '.join(map(str, dupes))}"
            )
        known = set(names)
        seen_edges: set[frozenset[str]] = set()
        for link in self.links:
            for end in (link.a, link.b):
                if end not in known:
                    raise UnknownAsError(end, sorted(known))
            if link.a == link.b:
                raise TopologyError(f"link {link.a!r} -> itself")
            edge = frozenset((link.a, link.b))
            if edge in seen_edges:
                raise TopologyError(
                    f"duplicate link {link.a!r} <-> {link.b!r}"
                )
            seen_edges.add(edge)
        host_names = [h.name for h in self.hosts]
        if len(set(host_names)) != len(host_names):
            dupes = sorted({n for n in host_names if host_names.count(n) > 1})
            raise TopologyError(f"duplicate host name(s): {', '.join(dupes)}")
        for host in self.hosts:
            if host.at not in known:
                raise UnknownAsError(host.at, sorted(known))
            _resolve_policy(host.policy)
        for population in self.populations:
            if population.at not in known:
                raise UnknownAsError(population.at, sorted(known))
            if population.hosts < 1:
                raise TopologyError(
                    f"population at {population.at!r} needs at least one "
                    f"host, got {population.hosts}"
                )
        return self

    # -- composition -------------------------------------------------------

    def with_hosts(self, *hosts: HostSpec) -> "TopologySpec":
        return replace(self, hosts=self.hosts + tuple(hosts))

    # -- presets (the paper's evaluation shapes) ----------------------------

    @classmethod
    def fig1(
        cls,
        *,
        aid_a: int = 100,
        aid_b: int = 200,
        latency: float = 0.020,
        bandwidth: float = 1e10,
    ) -> "TopologySpec":
        """The canonical two-AS world of the paper's Fig. 1."""
        return cls(
            ases=(AsSpec("a", aid_a), AsSpec("b", aid_b)),
            links=(LinkSpec("a", "b", latency=latency, bandwidth=bandwidth),),
        )

    @classmethod
    def chain(
        cls,
        n_ases: int,
        *,
        first_aid: int = 100,
        aid_step: int = 100,
        latency: float = 0.010,
        bandwidth: float = 1e10,
    ) -> "TopologySpec":
        """A linear chain ``as1 — as2 — ... — asN`` (Section VIII-C).

        A single-AS "chain" is allowed: one AS, no links — the intra-domain
        world of the Section VI-B analysis.
        """
        if n_ases < 1:
            raise TopologyError("a chain needs at least one AS")
        ases = tuple(
            AsSpec(f"as{i + 1}", first_aid + i * aid_step) for i in range(n_ases)
        )
        links = tuple(
            LinkSpec(left.name, right.name, latency=latency, bandwidth=bandwidth)
            for left, right in zip(ases, ases[1:])
        )
        return cls(ases=ases, links=links)

    @classmethod
    def star(
        cls,
        n_leaves: int,
        *,
        hub_aid: int = 1,
        first_leaf_aid: int = 100,
        latency: float = 0.010,
        bandwidth: float = 1e10,
    ) -> "TopologySpec":
        """One transit hub (``"hub"``) with ``n_leaves`` stub leaves."""
        if n_leaves < 1:
            raise TopologyError("a star needs at least one leaf")
        hub = AsSpec("hub", hub_aid, role="transit")
        leaves = tuple(
            AsSpec(f"leaf{i + 1}", first_leaf_aid + i * 100, role="stub")
            for i in range(n_leaves)
        )
        links = tuple(
            LinkSpec("hub", leaf.name, latency=latency, bandwidth=bandwidth)
            for leaf in leaves
        )
        return cls(ases=(hub,) + leaves, links=links)

    @classmethod
    def transit_stub(
        cls,
        n_transits: int,
        stubs_per_transit: int,
        *,
        core_latency: float = 0.005,
        edge_latency: float = 0.015,
        bandwidth: float = 1e10,
    ) -> "TopologySpec":
        """A two-tier internet: full-mesh transit core with stub ASes.

        Transits are ``t1..tN`` (AIDs 1..N); stubs are ``t<i>s<k>`` with
        AIDs ``100 * i + k`` — the AID plan of the VIII-E AAaS model.
        """
        if n_transits < 1:
            raise TopologyError("need at least one transit AS")
        if stubs_per_transit < 0:
            raise TopologyError("stubs_per_transit must be non-negative")
        transits = tuple(
            AsSpec(f"t{i + 1}", i + 1, role="transit") for i in range(n_transits)
        )
        core = tuple(
            LinkSpec(a.name, b.name, latency=core_latency, bandwidth=bandwidth)
            for i, a in enumerate(transits)
            for b in transits[i + 1 :]
        )
        stubs: list[AsSpec] = []
        edges: list[LinkSpec] = []
        for tier, transit in enumerate(transits, start=1):
            for k in range(stubs_per_transit):
                stub = AsSpec(f"t{tier}s{k}", 100 * tier + k, role="stub")
                stubs.append(stub)
                edges.append(
                    LinkSpec(
                        transit.name,
                        stub.name,
                        latency=edge_latency,
                        bandwidth=bandwidth,
                    )
                )
        return cls(ases=transits + tuple(stubs), links=core + tuple(edges))


# --------------------------------------------------------------------------
# The unified runtime world


class World:
    """A built simulated internet, whatever its shape.

    Every topology exposes the same addressing (`asys`), host
    management (`attach_host(name, at=...)`, `host`) and lifecycle
    (`run`, `run_until`) surface.
    """

    def __init__(
        self,
        *,
        network: Network,
        rng: Rng,
        anchor: TrustAnchor,
        rpki: RpkiDirectory,
        config: ApnaConfig,
        ases: list[ApnaAutonomousSystem],
        names: dict[str, ApnaAutonomousSystem] | None = None,
        spec: TopologySpec | None = None,
    ) -> None:
        self.network = network
        self.rng = rng
        self.anchor = anchor
        self.rpki = rpki
        self.config = config
        self.ases = list(ases)
        self.spec = spec
        self.hosts: dict[str, ApnaHostNode] = {}
        self._by_name: dict[str, ApnaAutonomousSystem] = dict(names or {})
        self._by_aid: dict[int, ApnaAutonomousSystem] = {
            asys.aid: asys for asys in self.ases
        }
        #: AS name -> bulk-registered HID range (populated by from_spec).
        self._populations: dict[str, range] = {}

    # -- construction -------------------------------------------------------

    @classmethod
    def from_spec(
        cls,
        spec: TopologySpec,
        *,
        seed: int | str = 0,
        config: ApnaConfig | None = None,
    ) -> "World":
        """Instantiate a validated spec into a running world.

        Entities are created in spec order (ASes, then links, then hosts,
        each host bootstrapped on attach) so equal seeds give bit-identical
        worlds — keys, EphIDs and traffic included.
        """
        spec.validate()
        rng = DeterministicRng(seed)
        network = Network()
        config = config or ApnaConfig()
        anchor = TrustAnchor(rng)
        rpki = RpkiDirectory(anchor.public_key, network.scheduler.clock())
        by_name: dict[str, ApnaAutonomousSystem] = {}
        ases: list[ApnaAutonomousSystem] = []
        for as_spec in spec.ases:
            asys = ApnaAutonomousSystem(
                as_spec.aid, network, rpki, anchor, config=config, rng=rng
            )
            by_name[as_spec.name] = asys
            ases.append(asys)
        for link in spec.links:
            network.connect(
                by_name[link.a].node,
                by_name[link.b].node,
                latency=link.latency,
                bandwidth=link.bandwidth,
                weight=link.weight,
            )
        world = cls(
            network=network,
            rng=rng,
            anchor=anchor,
            rpki=rpki,
            config=config,
            ases=ases,
            names=by_name,
            spec=spec,
        )
        for host in spec.hosts:
            world._attach(
                host.name,
                by_name[host.at],
                latency=host.latency,
                bandwidth=host.bandwidth,
                policy=host.policy,
            )
        # Bulk populations register before any shard pool spawns, so
        # they ship with the workers' spawn snapshots instead of as
        # per-host control frames.
        for population in spec.populations:
            world._populations[population.at] = by_name[
                population.at
            ].register_population(population.hosts)
        network.compute_routes()
        if config.forwarding_shards >= 2:
            # Spawn each AS's persistent worker shards now that every
            # build-time host is registered (the database hooks keep the
            # shards in sync for hosts attached later).  Call
            # ``world.close()`` (or use the world as a context manager)
            # when done with a sharded world.
            for asys in ases:
                asys.start_shard_pool()
        return world

    # -- AS addressing ------------------------------------------------------

    def asys(
        self, at: "str | int | ApnaAutonomousSystem"
    ) -> ApnaAutonomousSystem:
        """Resolve an AS reference: a spec name, an AID, or the AS itself."""
        if isinstance(at, ApnaAutonomousSystem):
            if at not in self.ases:
                raise UnknownAsError(at, self._known_refs())
            return at
        if isinstance(at, bool):  # bool is an int; reject it explicitly
            raise UnknownAsError(at, self._known_refs())
        if isinstance(at, int):
            try:
                return self._by_aid[at]
            except KeyError:
                raise UnknownAsError(at, self._known_refs()) from None
        try:
            return self._by_name[at]
        except KeyError:
            raise UnknownAsError(at, self._known_refs()) from None

    def population(self, at: "str | int | ApnaAutonomousSystem") -> range:
        """The bulk-registered HID range of an AS (empty when it has none).

        Scenario drivers use this to synthesize traffic for population
        hosts, which are database rows rather than attached host nodes.
        """
        asys = self.asys(at)
        for name, candidate in self._by_name.items():
            if candidate is asys:
                return self._populations.get(name, range(0))
        return range(0)

    def _known_refs(self) -> list[str]:
        refs = list(self._by_name)
        named_aids = {asys.aid for asys in self._by_name.values()}
        refs += [
            f"AID {asys.aid}" for asys in self.ases if asys.aid not in named_aids
        ]
        return refs

    @property
    def as_a(self) -> ApnaAutonomousSystem:
        """First AS — defined for two-AS worlds (Fig. 1 style)."""
        self._require_two_ases("as_a")
        return self.ases[0]

    @property
    def as_b(self) -> ApnaAutonomousSystem:
        """Second AS — defined for two-AS worlds (Fig. 1 style)."""
        self._require_two_ases("as_b")
        return self.ases[1]

    def _require_two_ases(self, attr: str) -> None:
        if len(self.ases) != 2:
            raise TopologyError(
                f"World.{attr} is only defined for two-AS worlds; this world "
                f"has {len(self.ases)} ASes — address them with "
                f"asys(<name-or-AID>) instead"
            )

    # -- hosts ---------------------------------------------------------------

    def attach_host(
        self,
        name: str,
        *,
        at: "str | int | ApnaAutonomousSystem | None" = None,
        latency: float = 0.001,
        bandwidth: float = 1e8,
        policy: "str | type[GranularityPolicy] | None" = None,
        recompute_routes: bool = True,
        **node_kwargs,
    ) -> ApnaHostNode:
        """Attach and bootstrap a host on the AS addressed by ``at``.

        ``at`` accepts a spec name (``"T1"``), an AID (``200``) or an
        :class:`ApnaAutonomousSystem`; single-AS worlds may omit it.  The
        host is bootstrapped (Fig. 2) and routes are recomputed so it can
        immediately acquire EphIDs and open sessions.  When attaching
        many hosts, pass ``recompute_routes=False`` and call
        ``world.network.compute_routes()`` once at the end — the
        recomputation is all-pairs over the whole topology.
        """
        if at is None:
            if len(self.ases) != 1:
                raise TopologyError(
                    f"this world has {len(self.ases)} ASes; pass "
                    f"at=<one of: {', '.join(self._known_refs())}>"
                )
            assembly = self.ases[0]
        else:
            assembly = self.asys(at)
        host = self._attach(
            name,
            assembly,
            latency=latency,
            bandwidth=bandwidth,
            policy=policy,
            **node_kwargs,
        )
        if recompute_routes:
            self.network.compute_routes()
        return host

    def _attach(
        self,
        name: str,
        assembly: ApnaAutonomousSystem,
        *,
        latency: float,
        bandwidth: float,
        policy: "str | type[GranularityPolicy] | None",
        **node_kwargs,
    ) -> ApnaHostNode:
        if name in self.hosts:
            raise DuplicateHostError(
                f"host {name!r} is already attached to this world "
                f"(on AS {self.hosts[name].assembly.aid})"
            )
        policy = _resolve_policy(policy)
        if policy is not None:
            node_kwargs["policy"] = policy
        host = assembly.attach_host(
            name, latency=latency, bandwidth=bandwidth, **node_kwargs
        )
        host.bootstrap()
        self.hosts[name] = host
        return host

    def host(self, name: str) -> ApnaHostNode:
        """Look up an attached host by name."""
        try:
            return self.hosts[name]
        except KeyError:
            known = ", ".join(self.hosts) or "(none attached)"
            raise ApnaError(
                f"no host named {name!r}; attached hosts: {known}"
            ) from None

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Release out-of-process resources (the per-AS shard pools).

        Idempotent and a no-op for unsharded worlds; sharded worlds
        should be closed (or used as context managers) so their worker
        processes do not linger until interpreter exit.
        """
        for asys in self.ases:
            asys.stop_shard_pool()

    def __enter__(self) -> "World":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def run(self, **kwargs) -> int:
        """Drain the event queue; returns the number of events processed."""
        return self.network.run(**kwargs)

    def run_until(self, deadline: float, **kwargs) -> int:
        return self.network.run_until(deadline, **kwargs)

    @property
    def now(self) -> float:
        return self.network.now

    # -- routing introspection -------------------------------------------------

    def as_path(
        self,
        src: "str | int | ApnaAutonomousSystem",
        dst: "str | int | ApnaAutonomousSystem",
    ) -> list[int]:
        """The AID sequence packets take from ``src`` to ``dst``."""
        src_node = self.asys(src).node.name
        dst_node = self.asys(dst).node.name
        return [int(name[2:]) for name in self.network.path(src_node, dst_node)]

    # -- traffic ----------------------------------------------------------------

    def drive(self, profile) -> "object":
        """Run a :class:`repro.workload.TrafficProfile` against this world."""
        return profile.drive(self)

    def __repr__(self) -> str:
        return (
            f"<World ases={len(self.ases)} hosts={len(self.hosts)} "
            f"t={self.network.now:.3f}>"
        )


# --------------------------------------------------------------------------
# Fluent builder


class WorldBuilder:
    """Fluent accumulation of a :class:`TopologySpec`, then one `build()`.

    >>> world = (
    ...     WorldBuilder(seed=7)
    ...     .transit("T1")
    ...     .stub("S1", parent="T1")
    ...     .host("alice", at="S1")
    ...     .build()
    ... )

    AIDs may be given explicitly or auto-assigned: transits count up from
    1, everything else from 100 in steps of 100.
    """

    def __init__(
        self, *, seed: int | str = 0, config: ApnaConfig | None = None
    ) -> None:
        self._seed = seed
        self._config = config
        self._ases: list[AsSpec] = []
        self._links: list[LinkSpec] = []
        self._hosts: list[HostSpec] = []
        self._populations: list[PopulationSpec] = []

    # -- ASes ----------------------------------------------------------------

    def autonomous_system(
        self, name: str, *, aid: int | None = None, role: str = "as"
    ) -> "WorldBuilder":
        """Declare an AS; ``aid`` is auto-assigned when omitted."""
        if any(a.name == name for a in self._ases):
            raise TopologyError(f"AS {name!r} already declared")
        if aid is None:
            aid = self._next_aid(role)
        if any(a.aid == aid for a in self._ases):
            raise TopologyError(f"AID {aid} already taken")
        self._ases.append(AsSpec(name, aid, role=role))
        return self

    #: Short alias — ``builder.asys("a")``.
    asys = autonomous_system

    def transit(self, name: str, *, aid: int | None = None) -> "WorldBuilder":
        """A transit AS (small auto-AID, mesh-core convention)."""
        return self.autonomous_system(name, aid=aid, role="transit")

    def stub(
        self,
        name: str,
        *,
        parent: str | None = None,
        aid: int | None = None,
        latency: float = 0.015,
        bandwidth: float = 1e10,
    ) -> "WorldBuilder":
        """A stub AS, optionally linked to its ``parent`` provider."""
        self.autonomous_system(name, aid=aid, role="stub")
        if parent is not None:
            self.link(parent, name, latency=latency, bandwidth=bandwidth)
        return self

    def _next_aid(self, role: str) -> int:
        taken = {a.aid for a in self._ases}
        if role == "transit":
            aid = 1
            while aid in taken:
                aid += 1
        else:
            aid = 100
            while aid in taken:
                aid += 100
        return aid

    # -- links and hosts --------------------------------------------------------

    def link(
        self,
        a: str,
        b: str,
        *,
        latency: float = 0.010,
        bandwidth: float = 1e10,
        weight: float | None = None,
    ) -> "WorldBuilder":
        """Peer two declared ASes."""
        known = {spec.name for spec in self._ases}
        for end in (a, b):
            if end not in known:
                raise UnknownAsError(end, sorted(known))
        if a == b:
            raise TopologyError(f"link {a!r} -> itself")
        if any({a, b} == {link.a, link.b} for link in self._links):
            raise TopologyError(f"duplicate link {a!r} <-> {b!r}")
        self._links.append(
            LinkSpec(a, b, latency=latency, bandwidth=bandwidth, weight=weight)
        )
        return self

    def host(
        self,
        name: str,
        *,
        at: str,
        latency: float = 0.001,
        bandwidth: float = 1e8,
        policy: str | None = None,
    ) -> "WorldBuilder":
        """Place a host on a declared AS (attached+bootstrapped at build)."""
        if any(h.name == name for h in self._hosts):
            raise TopologyError(f"host {name!r} already declared")
        known = {spec.name for spec in self._ases}
        if at not in known:
            raise UnknownAsError(at, sorted(known))
        self._hosts.append(
            HostSpec(name, at, latency=latency, bandwidth=bandwidth, policy=policy)
        )
        return self

    def population(self, hosts: int, *, at: str) -> "WorldBuilder":
        """Register ``hosts`` bulk HIDs on a declared AS at build time.

        Registry state only (no host nodes, no links, no bootstrap) —
        the scale substrate for ``metro:N``-style worlds.
        """
        known = {spec.name for spec in self._ases}
        if at not in known:
            raise UnknownAsError(at, sorted(known))
        if hosts < 1:
            raise TopologyError(
                f"population at {at!r} needs at least one host, got {hosts}"
            )
        self._populations.append(PopulationSpec(at, hosts))
        return self

    # -- output -------------------------------------------------------------------

    def spec(self) -> TopologySpec:
        """The accumulated (validated) declarative spec."""
        return TopologySpec(
            ases=tuple(self._ases),
            links=tuple(self._links),
            hosts=tuple(self._hosts),
            populations=tuple(self._populations),
        ).validate()

    def build(self) -> World:
        """Instantiate the accumulated spec into a :class:`World`."""
        return World.from_spec(self.spec(), seed=self._seed, config=self._config)
