"""Point-to-point links with propagation delay and serialization delay.

A frame occupies the transmitter for ``bits / bandwidth`` seconds (FIFO
per direction), then arrives ``latency`` seconds later.  This is the
standard store-and-forward model and is what the connection-establishment
latency experiment (paper Section VII-C) measures RTTs against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .events import Scheduler

Receiver = Callable[[bytes], None]


@dataclass
class LinkStats:
    frames: int = 0
    bytes: int = 0
    dropped: int = 0


class _Direction:
    __slots__ = ("receiver", "next_free", "stats")

    def __init__(self, receiver: Receiver) -> None:
        self.receiver = receiver
        self.next_free = 0.0
        self.stats = LinkStats()


class Link:
    """A bidirectional link between two receivers."""

    def __init__(
        self,
        scheduler: Scheduler,
        receiver_a: Receiver,
        receiver_b: Receiver,
        *,
        latency: float = 0.001,
        bandwidth: float = 1e9,
        queue_limit: float = 1.0,
    ) -> None:
        """``bandwidth`` is in bits/second; ``queue_limit`` is the maximum
        transmit backlog in seconds before frames are tail-dropped."""
        if latency < 0:
            raise ValueError("latency must be non-negative")
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        self._scheduler = scheduler
        self.latency = latency
        self.bandwidth = bandwidth
        self.queue_limit = queue_limit
        self._dirs = {id(receiver_a): _Direction(receiver_b), id(receiver_b): _Direction(receiver_a)}

    def send_from(self, sender: Receiver, frame: bytes) -> bool:
        """Transmit ``frame`` from ``sender``'s side; returns False on drop."""
        direction = self._dirs.get(id(sender))
        if direction is None:
            raise ValueError("sender is not an endpoint of this link")
        now = self._scheduler.now
        start = max(now, direction.next_free)
        if start - now > self.queue_limit:
            direction.stats.dropped += 1
            return False
        tx_time = len(frame) * 8 / self.bandwidth
        direction.next_free = start + tx_time
        direction.stats.frames += 1
        direction.stats.bytes += len(frame)
        self._scheduler.schedule_at(
            start + tx_time + self.latency, direction.receiver, frame
        )
        return True
