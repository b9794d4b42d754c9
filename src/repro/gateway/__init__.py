"""Deployment adapters: gateways, connection-sharing devices and
APNA-as-a-Service (paper Sections VII-B, VII-D and VIII-E)."""

from .aas import DownstreamAs
from .ap import ApClientNode, NatAccessPoint
from .gateway import ApnaGateway, LegacyHostNode

__all__ = [
    "ApClientNode",
    "ApnaGateway",
    "DownstreamAs",
    "LegacyHostNode",
    "NatAccessPoint",
]
