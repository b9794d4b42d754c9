"""Deployment-wide APNA configuration knobs.

Defaults follow the paper's parameter discussion (Section VIII-G): data
EphIDs live 15 minutes (98% of Internet flows are shorter, per the
Brownlee/Claffy measurement the paper cites), control EphIDs live a
DHCP-lease-like day, and a host that gets too many EphIDs revoked has its
HID revoked.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ApnaConfig:
    """Knobs shared by all entities of a deployment."""

    #: Lifetime of control EphIDs ("e.g., DHCP lease time", Section IV-B).
    control_ephid_lifetime: float = 86_400.0

    #: Default lifetime of data-plane EphIDs (15 min, Section VIII-G1).
    data_ephid_lifetime: float = 900.0

    #: Three lifetime classes hosts may request (Section VIII-G1 suggests
    #: short/medium/long-term categories).
    lifetime_classes: tuple[float, float, float] = (60.0, 900.0, 3600.0)

    #: Hard cap on any requested EphID lifetime.
    max_ephid_lifetime: float = 86_400.0

    #: Whether packets carry the per-packet replay nonce (Section VIII-D).
    #: Off by default: the base header of Fig. 7 has no nonce.
    replay_protection: bool = False

    #: Whether border routers run in-network replay detection (the
    #: Section VIII-D future-work mechanism; see
    #: :mod:`repro.core.replay_filter`).  Requires ``replay_protection``.
    in_network_replay_filter: bool = False

    #: Rotation window of the in-network replay filter, in seconds.
    #: Should be at least the data EphID lifetime so that a nonce cannot
    #: outlive its filter generations while the EphID is still valid.
    replay_filter_window: float = 900.0

    #: Bits per Bloom-filter generation (power of two).  The default
    #: 2^20 bits = 128 KiB/generation keeps the false-positive rate
    #: under 1% up to ~90k packets per window with 4 hashes.
    replay_filter_bits: int = 1 << 20

    #: Max packets a border router accumulates before running the burst
    #: verdict pipeline (:meth:`repro.core.border_router.BorderRouter.
    #: process_burst`).  1 = every packet is a burst of one; larger
    #: values amortise clock reads, revocation prunes and crypto across
    #: the burst, as the paper's DPDK prototype does (§V-B).
    forwarding_batch_size: int = 1

    #: Max virtual seconds a partially-filled burst may wait before it is
    #: flushed anyway.  Only meaningful with ``forwarding_batch_size > 1``;
    #: this is the latency cost of batching.
    forwarding_batch_window: float = 0.0002

    #: Number of persistent worker processes the border-router data plane
    #: is sharded over (the paper's §V-A3 share-nothing scale-out; see
    #: :mod:`repro.sharding`).  ``0``/``1`` keeps the single-process
    #: in-line pipeline.  Values >= 2 make EphID issuance pin each IV to
    #: its HID's owning shard so the dispatcher can route packed frames
    #: without decrypting, and make world builds spawn a
    #: :class:`repro.sharding.ShardedDataPlane` per AS.
    forwarding_shards: int = 0

    #: Consecutive host HIDs per contiguous shard-ownership block
    #: (``repro.sharding.ShardPlan.block``).  1 = round-robin over
    #: registration order.
    shard_block: int = 1

    #: Wall-clock seconds the shard dispatcher waits for any single
    #: worker reply before declaring the worker hung and restarting it
    #: (bounded ``Connection.poll``; see
    #: :mod:`repro.sharding.supervisor`).
    shard_reply_timeout: float = 5.0

    #: Worker restarts allowed per shard before the plane degrades: the
    #: same shards, resynced from the authoritative AS state, run in the
    #: dispatcher's process (traffic keeps flowing, ``stats()`` reports
    #: ``degraded``).  ``0`` degrades on the first failure.
    shard_max_restarts: int = 3

    #: Base of the capped exponential backoff between restart attempts
    #: of one shard (delay ``min(base * 2**attempt, 50 * base)``).
    shard_restart_backoff: float = 0.05

    #: Kept for ``bench/`` until ROADMAP item 0(a); not an option.  The
    #: per-AS state (``host_info``, ``revoked_ids`` and the shard
    #: workers' replicas) lives in the :mod:`repro.state` columns and
    #: any other value is refused.
    state_backend: str = "columnar"

    #: Data-plane AEAD ("etm" or "gcm"); any CCA-secure scheme is allowed.
    aead_scheme: str = "etm"

    #: Truncated per-packet MAC length in the APNA header (Fig. 7: 8 B).
    packet_mac_size: int = 8

    #: Preemptive revocations per host before the AS revokes the HID
    #: itself (Section VIII-G2's "maximum number of EphIDs that can be
    #: preemptively revoked for each host").
    revocation_threshold: int = 32

    #: Whether border routers emit ICMP errors for dropped inbound packets.
    icmp_on_drop: bool = True

    def __post_init__(self) -> None:
        if self.state_backend != "columnar":
            raise ValueError(
                f"state_backend {self.state_backend!r}: the columnar "
                "stores are the only state family"
            )

    def clamp_lifetime(self, requested: float | None) -> float:
        """Resolve a requested lifetime to a granted one."""
        if requested is None:
            return self.data_ephid_lifetime
        if requested <= 0:
            raise ValueError(f"lifetime must be positive, got {requested}")
        return min(requested, self.max_ephid_lifetime)


DEFAULT_CONFIG = ApnaConfig()
