"""Workload substrate: synthetic traces (Section V-A3's proprietary trace
substitute), packet pools for the Fig. 8 forwarding experiments, and
traffic profiles that replay traces against a built
:class:`~repro.topology.World`."""

from .analyzer import TraceStats, analyze
from .flows import (
    PAPER_HOSTS,
    PAPER_PEAK_RATE,
    FlowRecord,
    TraceConfig,
    TraceGenerator,
)
from .packets import PAPER_PACKET_SIZES, PacketPool, build_apna_pool, build_ipv4_pool
from .profile import TrafficProfile, TrafficReport

__all__ = [
    "PAPER_HOSTS",
    "PAPER_PACKET_SIZES",
    "PAPER_PEAK_RATE",
    "FlowRecord",
    "PacketPool",
    "TraceConfig",
    "TraceGenerator",
    "TraceStats",
    "TrafficProfile",
    "TrafficReport",
    "analyze",
    "build_apna_pool",
    "build_ipv4_pool",
]
