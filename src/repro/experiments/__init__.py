"""Runnable reproductions of every paper artifact.

Each ``eN_*`` module regenerates one table/figure/claim of the paper
(indexed below).  Run one with ``python -m repro.experiments.eN_name``
or all of them with ``python -m repro.experiments``.

==== ==================================================================
E1   §V-A3 EphID Management Server performance
E2/3 Fig. 8(a)/(b) border-router forwarding throughput
E4   §VII-C connection-establishment latency
E5   §VIII-A EphID granularity ablation
E6   §VIII-G2 revocation-list management
E7   §IX baseline comparison (APIP, AIP, Persona, plain IP)
E8   Fig. 7 / §VII-D header & encapsulation overhead
E9   crypto micro-costs (no runner: the ``crypto.cmac.tag_us``,
     ``core.ephid.open_us``, ``core.ephid.seal_us``,
     ``crypto.ed25519.sign_us`` and ``crypto.aead.etm_us`` per-layer
     rows of ``BENCHMARK.json``, from ``bench/run.py --trace 1``)
E10  §VI security analysis, executed
E11  §VIII-C path validation & the strengthened shutoff
E12  §VIII-D in-network replay detection (future work, built)
E13  §VIII-E APNA-as-a-Service
E14  §VIII-G1 EphID expiration-time policy
E15  §VII-A receive-only EphIDs vs shutoff-DoS
==== ==================================================================
"""

#: Module names in run order, consumed by ``python -m repro.experiments``.
ALL_RUNNERS = [
    "e1_ms_performance",
    "e2_figure8",
    "e4_latency",
    "e5_granularity",
    "e6_revocation",
    "e7_baselines",
    "e8_overhead",
    "e10_security",
    "e11_pathval",
    "e12_replay",
    "e13_aaas",
    "e14_lifetimes",
    "e15_receive_only",
]
