"""EphID granularity policies (paper Section VIII-A).

APNA deliberately does not impose how hosts spread traffic across
EphIDs.  The four granularities the paper discusses are implemented as
interchangeable policies a host stack is configured with:

* **per-flow** (the typical case): a fresh EphID per flow — flows are
  unlinkable and a shutoff kills exactly one flow;
* **per-host**: one EphID for everything — cheapest, but all flows are
  linkable and fate-share under shutoff;
* **per-application**: one EphID per application label — lets host and
  AS cooperate to pinpoint a malicious app;
* **per-packet**: a fresh EphID for every packet — strongest privacy,
  at the cost of per-packet issuance and of a receive-side
  demultiplexing protocol (the paper's reference [23]), which E5 does
  not cost and this reproduction does not build.

E5 quantifies the trade-offs (MS request load, linkability, shutoff
blast radius).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable

from .session import OwnedEphId

#: ``request(flags, lifetime)`` -> a freshly issued EphID.
Requester = Callable[[int, float | None], OwnedEphId]


@dataclass(frozen=True)
class FlowKey:
    """What identifies a flow for EphID assignment purposes."""

    peer_aid: int
    peer_ephid: bytes
    src_port: int
    dst_port: int


class GranularityPolicy:
    """Base class: maps (flow, app) to the EphID to use as source."""

    name = "abstract"

    def __init__(self, requester: Requester, clock: Callable[[], float]) -> None:
        self._request = requester
        self._clock = clock
        self.requests_made = 0

    def _fresh(self, flags: int = 0, lifetime: float | None = None) -> OwnedEphId:
        self.requests_made += 1
        return self._request(flags, lifetime)

    def ephid_for(
        self, flow: FlowKey | None = None, app: str | None = None
    ) -> OwnedEphId:
        raise NotImplementedError


class _CachingPolicy(GranularityPolicy):
    """Shared machinery: cache EphIDs under a policy-specific key."""

    def __init__(self, requester: Requester, clock: Callable[[], float]) -> None:
        super().__init__(requester, clock)
        self._cache: dict[Hashable, OwnedEphId] = {}

    def _key(self, flow: FlowKey | None, app: str | None) -> Hashable:
        raise NotImplementedError

    def ephid_for(
        self, flow: FlowKey | None = None, app: str | None = None
    ) -> OwnedEphId:
        key = self._key(flow, app)
        owned = self._cache.get(key)
        if owned is None or owned.expired(self._clock()):
            owned = self._fresh()
            self._cache[key] = owned
        return owned


class PerHostPolicy(_CachingPolicy):
    """One EphID for all traffic."""

    name = "per-host"

    def _key(self, flow: FlowKey | None, app: str | None) -> Hashable:
        return "host"


class PerFlowPolicy(_CachingPolicy):
    """A distinct EphID per flow (the paper's typical use case)."""

    name = "per-flow"

    def _key(self, flow: FlowKey | None, app: str | None) -> Hashable:
        if flow is None:
            raise ValueError("per-flow policy needs a FlowKey")
        return flow


class PerApplicationPolicy(_CachingPolicy):
    """A distinct EphID per application label."""

    name = "per-application"

    def _key(self, flow: FlowKey | None, app: str | None) -> Hashable:
        if app is None:
            raise ValueError("per-application policy needs an app label")
        return app


class PerPacketPolicy(GranularityPolicy):
    """A fresh EphID for every single packet."""

    name = "per-packet"

    def ephid_for(
        self, flow: FlowKey | None = None, app: str | None = None
    ) -> OwnedEphId:
        return self._fresh()


POLICIES = {
    policy.name: policy
    for policy in (PerHostPolicy, PerFlowPolicy, PerApplicationPolicy, PerPacketPolicy)
}


def make_policy(
    name: str, requester: Requester, clock: Callable[[], float]
) -> GranularityPolicy:
    try:
        cls = POLICIES[name]
    except KeyError:
        raise ValueError(f"unknown granularity policy {name!r}") from None
    return cls(requester, clock)
