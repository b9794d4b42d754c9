"""APNA — *Source Accountability with Domain-brokered Privacy* (CoNEXT 2016).

A from-scratch Python reproduction of the Accountable and Private Network
Architecture (APNA) by Lee, Pappas, Barrera, Szalachowski and Perrig
(ETH Zurich, arXiv:1610.00461).

APNA enlists ISPs (autonomous systems) as *accountability agents* and
*privacy brokers*.  Hosts address each other with 16-byte **Ephemeral
Identifiers (EphIDs)** — CCA-secure encrypted tokens only the issuing AS can
link back to a host — instead of long-lived addresses.  Every packet carries
a MAC keyed with a host<->AS shared key (source accountability), EphIDs hide
host identity from everyone but the issuing AS (host privacy), and EphIDs
are bound to short-lived certified key pairs used for end-to-end key
agreement with perfect forward secrecy (data privacy).

Package map
-----------

=================== ========================================================
``repro.crypto``    From-scratch crypto substrate: AES, CTR/CBC-MAC/CMAC/
                    GCM, HKDF, X25519, Ed25519, AEAD schemes, RNGs.
``repro.wire``      Wire formats: the 48 B APNA header (Fig. 7), replay-
                    nonce extension, IPv4/GRE encapsulation (Fig. 9),
                    transport, ICMP.
``repro.core``      The paper's contribution: EphID codec (Fig. 6),
                    certificates, registry (Fig. 2), management service
                    (Fig. 3), border router (Fig. 4), accountability agent /
                    shutoff (Fig. 5), host stack, sessions, granularity
                    policies, revocation, and the AS assembly.
``repro.netsim``    Discrete-event network simulator (clock, links,
                    routing).
``repro.topology``  Declarative topologies: ``TopologySpec``, the fluent
                    ``WorldBuilder`` and the unified ``World`` every
                    scenario builds into.
``repro.scenarios`` Named presets ("fig1", "chain:N", "star:N",
                    "transit-stub:TxS") resolvable by string, plus a
                    registry for custom scenarios.
``repro.dns``       DNS substrate with signed records and receive-only
                    EphIDs (Section VII-A).
``repro.gateway``   Deployment bridges: IPv4<->APNA gateway (VII-D),
                    bridge/NAT access points (VII-B), APNA-as-a-Service
                    (VIII-E).
``repro.pathval``   Path validation + on-path shutoff authorization
                    (Section VIII-C, built).
``repro.tls``       Authentication-only TLS over APNA, channel-bound to the
                    session key (Section VIII-F, built).
``repro.baselines`` Comparators: plain IP, APIP, AIP, Persona (Section IX).
``repro.sharding``  Share-nothing multi-process scale-out (Section V-A3):
                    HID-range worker shards behind a burst dispatcher
                    (``ShardedDataPlane``), enabled via
                    ``ApnaConfig(forwarding_shards=N)``; also E1's
                    sharded MS issuance runner.
``repro.workload``  Synthetic 24 h flow traces, packet pools (Section V)
                    and ``TrafficProfile`` — replay a trace against any
                    built ``World`` in one call.
``repro.attacks``   Adversary harness for the security analysis (Section
                    VI).
``repro.experiments`` Runnable paper-artifact reproductions (E1-E15).
``repro.metrics``   Small timing/table helpers shared by the experiments.
=================== ========================================================

Quickstart
----------

>>> from repro import scenarios
>>> world = scenarios.build("fig1", seed=7)          # the paper's Fig. 1
>>> alice = world.attach_host("alice", at="a")
>>> bob = world.attach_host("bob", at="b")
>>> bob_ephid = bob.acquire_ephid_direct()
>>> session = alice.connect(bob_ephid.cert, early_data=b"hello, private internet")
>>> world.run()

Arbitrary shapes come from the fluent builder:

>>> from repro import WorldBuilder
>>> world = (
...     WorldBuilder(seed=7)
...     .transit("T1").transit("T2").link("T1", "T2")
...     .stub("S1", parent="T1").stub("S2", parent="T2")
...     .host("alice", at="S1").host("bob", at="S2")
...     .build()
... )
>>> world.as_path("S1", "S2")
[100, 1, 2, 200]

and heavy multi-flow traffic from a profile:

>>> from repro.workload import TrafficProfile
>>> report = TrafficProfile(clients=8, servers=2, max_flows=500).drive(world)

See ``examples/quickstart.py`` for the full narrated version.
"""

from . import scenarios
from .core import (
    AccountabilityAgent,
    ApnaAutonomousSystem,
    ApnaConfig,
    ApnaError,
    ApnaHostNode,
    AsCertificate,
    BorderRouter,
    EphIdCertificate,
    EphIdCodec,
    EphIdInfo,
    HostStack,
    ManagementService,
    RegistryService,
    RevocationList,
    RpkiDirectory,
    Session,
    TrustAnchor,
    make_policy,
)
from .netsim import Network
from .topology import (
    AsSpec,
    DuplicateHostError,
    HostSpec,
    LinkSpec,
    TopologyError,
    TopologySpec,
    UnknownAsError,
    World,
    WorldBuilder,
)
from .version import __version__

__all__ = [
    "AccountabilityAgent",
    "ApnaAutonomousSystem",
    "ApnaConfig",
    "ApnaError",
    "ApnaHostNode",
    "AsCertificate",
    "AsSpec",
    "BorderRouter",
    "DuplicateHostError",
    "EphIdCertificate",
    "EphIdCodec",
    "EphIdInfo",
    "HostSpec",
    "HostStack",
    "LinkSpec",
    "ManagementService",
    "Network",
    "RegistryService",
    "RevocationList",
    "RpkiDirectory",
    "Session",
    "TopologyError",
    "TopologySpec",
    "TrafficProfile",
    "TrafficReport",
    "TrustAnchor",
    "UnknownAsError",
    "World",
    "WorldBuilder",
    "make_policy",
    "scenarios",
    "__version__",
]

#: Lazily re-exported so ``import repro`` doesn't pay for the workload
#: stack (numpy) unless traffic profiles are actually used.
_LAZY_WORKLOAD = ("TrafficProfile", "TrafficReport")


def __getattr__(name: str):
    if name in _LAZY_WORKLOAD:
        from . import workload

        return getattr(workload, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
