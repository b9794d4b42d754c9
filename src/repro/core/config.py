"""Deployment-wide APNA configuration.

Defaults follow the paper's parameter discussion (Section VIII-G): data
EphIDs live 15 minutes (98% of Internet flows are shorter, per the
Brownlee/Claffy measurement the paper cites), control EphIDs live a
DHCP-lease-like day, and a host that gets too many EphIDs revoked has its
HID revoked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from ..wire.apna import MAC_SIZE
from .replay_filter import MAX_BITS


@dataclass(frozen=True)
class ApnaConfig:
    """What a deployment chooses, and what the paper fixes.

    The fields are the options: some caller (a scenario, the benchmark,
    an experiment or a test) sets each to a second value.  The class
    constants are the paper's design parameters and the simulator's
    burst flush window, readable off any instance
    (``config.data_ephid_lifetime``) but not settable.
    """

    # -- the paper's fixed parameters --

    #: Lifetime of control EphIDs ("e.g., DHCP lease time", Section IV-B).
    control_ephid_lifetime: ClassVar[float] = 86_400.0

    #: Default lifetime of data-plane EphIDs (15 min, Section VIII-G1).
    data_ephid_lifetime: ClassVar[float] = 900.0

    #: Three lifetime classes hosts may request (Section VIII-G1 suggests
    #: short/medium/long-term categories).
    lifetime_classes: ClassVar[tuple[float, float, float]] = (60.0, 900.0, 3600.0)

    #: Hard cap on any requested EphID lifetime.
    max_ephid_lifetime: ClassVar[float] = 86_400.0

    #: Truncated per-packet MAC length in the APNA header (Fig. 7: 8 B).
    packet_mac_size: ClassVar[int] = MAC_SIZE

    # -- fixed by the simulator --

    #: Max virtual seconds a partially-filled burst waits at a border
    #: router node before it is flushed anyway: the latency cost of
    #: batching (``forwarding_batch_size > 1``).
    forwarding_batch_window: ClassVar[float] = 0.0002

    # -- options --

    #: Whether packets carry the per-packet replay nonce (Section VIII-D).
    #: Off by default: the base header of Fig. 7 has no nonce.
    replay_protection: bool = False

    #: Whether border routers run in-network replay detection (the
    #: Section VIII-D future-work mechanism; see
    #: :mod:`repro.core.replay_filter`).  Requires ``replay_protection``:
    #: setting it alone is a ``ValueError``.
    in_network_replay_filter: bool = False

    #: Rotation window of the in-network replay filter, in seconds.
    #: Should be at least the data EphID lifetime so that a packet cannot
    #: outlive its filter generations while the EphID is still valid.
    replay_filter_window: float = 900.0

    #: Bits per Bloom-filter generation: a power of two from 64 (one
    #: word) to 2^34 (what the MAC's 64 index bits address; see
    #: :mod:`repro.core.replay_filter`).  The default 2^20 bits = 128
    #: KiB/generation keeps the modelled false-positive rate under 1 % up
    #: to ~88k packets per window (0.86 % at 84k): ~100 pkt/s sustained.
    replay_filter_bits: int = 1 << 20

    #: Max packets a border router accumulates before running the burst
    #: verdict pipeline (:meth:`repro.core.border_router.BorderRouter.
    #: process_burst`).  1 = every packet is a burst of one; larger
    #: values amortise clock reads, revocation prunes and crypto across
    #: the burst, as the paper's DPDK prototype does (§V-B).
    forwarding_batch_size: int = 1

    #: Number of persistent worker processes the border-router data plane
    #: is sharded over (the paper's §V-A3 share-nothing scale-out; see
    #: :mod:`repro.sharding`).  ``0``/``1`` keeps the single-process
    #: in-line pipeline.  Values >= 2 make EphID issuance pin each IV to
    #: its HID's owning shard so the dispatcher can route packed frames
    #: without decrypting, and make world builds spawn a
    #: :class:`repro.sharding.ShardedDataPlane` per AS as its only data
    #: plane: a sharded AS builds no in-line router, and its ``judge``
    #: refuses every burst while its pool is not running.
    forwarding_shards: int = 0

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

    #: Preemptive revocations per host before the AS revokes the HID
    #: itself (Section VIII-G2's "maximum number of EphIDs that can be
    #: preemptively revoked for each host").
    revocation_threshold: int = 32

    def __post_init__(self) -> None:
        if self.in_network_replay_filter and not self.replay_protection:
            raise ValueError(
                "in_network_replay_filter needs replay_protection: the "
                "filter keys on each packet's MAC, which only the Section "
                "VIII-D nonce makes distinct"
            )
        # The sizes the filter refuses, refused here too: a world must
        # not build around a data plane that cannot be built.
        bits = self.replay_filter_bits
        if bits < 64 or bits & (bits - 1) or bits > MAX_BITS:
            raise ValueError(
                f"replay_filter_bits must be a power of two from 64 (one "
                f"64-bit word) to 2**34 (what the 64-bit index addresses), "
                f"got {bits}"
            )
        if self.replay_filter_window <= 0:
            raise ValueError(
                f"replay_filter_window must be > 0, got {self.replay_filter_window}"
            )
        if self.shard_reply_timeout <= 0:
            raise ValueError(
                f"shard_reply_timeout must be > 0, got {self.shard_reply_timeout}"
            )
        if self.shard_max_restarts < 0:
            raise ValueError(
                f"shard_max_restarts must be >= 0, got {self.shard_max_restarts}"
            )
        if self.shard_restart_backoff < 0:
            raise ValueError(
                f"shard_restart_backoff must be >= 0, got "
                f"{self.shard_restart_backoff}"
            )
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
