"""Baseline systems the paper compares against (Section IX).

* :mod:`repro.baselines.plain_ip` — classic IPv4 forwarding (the
  "theoretical maximum" comparator for Fig. 8).
* :mod:`repro.baselines.apip` — APIP's accountability delegate, briefs
  and verifiers, including the whitelisting hole.
* :mod:`repro.baselines.aip` — AIP's self-certifying addresses.
* :mod:`repro.baselines.persona` — Persona-style ISP address rewriting
  and its flow-demultiplexing failure.
"""

from .aip import AipHost, AipPacket, eid_of
from .apip import ApipDelegate, ApipPacket, ApipSender, ApipVerifier
from .persona import FlowDemuxer, PersonaNat, PersonaPacket
from .plain_ip import PlainIpRouter, RoutingTable

__all__ = [
    "AipHost",
    "AipPacket",
    "ApipDelegate",
    "ApipPacket",
    "ApipSender",
    "ApipVerifier",
    "FlowDemuxer",
    "PersonaNat",
    "PersonaPacket",
    "PlainIpRouter",
    "RoutingTable",
    "eid_of",
]
