"""Simulation nodes: named entities wired together by links."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .events import Scheduler
from .link import Link

if TYPE_CHECKING:
    from .network import Network


class Node:
    """Base class for anything attached to the simulated network.

    Subclasses override :meth:`handle_frame`.  Frames are raw bytes — the
    full wire serialization is exercised on every hop, exactly as a real
    deployment would.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.network: "Network | None" = None
        self._links: dict[str, Link] = {}
        self._receivers: dict[str, object] = {}
        self.frames_received = 0
        self.frames_sent = 0

    # -- wiring (called by Network.connect) --

    def _attach(self, network: "Network") -> None:
        self.network = network

    def _add_link(self, peer_name: str, link: Link, receiver) -> None:
        self._links[peer_name] = link
        self._receivers[peer_name] = receiver

    @property
    def scheduler(self) -> Scheduler:
        if self.network is None:
            raise RuntimeError(f"node {self.name!r} is not attached to a network")
        return self.network.scheduler

    @property
    def now(self) -> float:
        return self.scheduler.now

    # -- data path --

    def send(self, peer_name: str, frame: bytes) -> bool:
        """Transmit a frame to a directly-connected neighbor."""
        link = self._links.get(peer_name)
        if link is None:
            raise ValueError(f"{self.name!r} has no link to {peer_name!r}")
        self.frames_sent += 1
        return link.send_from(self._receivers[peer_name], frame)

    def _receive(self, peer_name: str, frame: bytes) -> None:
        self.frames_received += 1
        self.handle_frame(frame, from_node=peer_name)

    def handle_frame(self, frame: bytes, *, from_node: str) -> None:
        """Process an arriving frame.  Subclasses override."""
