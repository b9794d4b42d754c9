"""Discrete-event scheduler: the beating heart of the network simulator.

A single priority queue of timestamped callbacks.  Entities never sleep or
poll; they schedule future work and the scheduler advances virtual time to
the next event.  Deterministic tie-breaking (insertion order) makes runs
exactly reproducible.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass(order=True)
class _Entry:
    time: float
    seq: int
    callback: Callable[..., None] = field(compare=False)
    args: tuple[Any, ...] = field(compare=False, default=())
    cancelled: bool = field(compare=False, default=False)


class EventHandle:
    """Handle returned by ``schedule``; allows cancellation."""

    __slots__ = ("_entry",)

    def __init__(self, entry: _Entry) -> None:
        self._entry = entry

    def cancel(self) -> None:
        self._entry.cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._entry.cancelled

    @property
    def time(self) -> float:
        return self._entry.time


class Scheduler:
    """A discrete-event loop with virtual time."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = start
        self._seq = 0
        self._queue: list[_Entry] = []
        self.processed = 0

    @property
    def now(self) -> float:
        return self._now

    def clock(self) -> Callable[[], float]:
        """A zero-argument callable entities can use to read the time."""
        return lambda: self._now

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Run ``callback(*args)`` after ``delay`` seconds of virtual time."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(
        self, when: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        if when < self._now:
            raise ValueError(f"cannot schedule at {when} < now {self._now}")
        entry = _Entry(when, self._seq, callback, args)
        self._seq += 1
        heapq.heappush(self._queue, entry)
        return EventHandle(entry)

    def step(self) -> bool:
        """Process the next event; returns False if the queue is empty."""
        while self._queue:
            entry = heapq.heappop(self._queue)
            if entry.cancelled:
                continue
            self._now = entry.time
            entry.callback(*entry.args)
            self.processed += 1
            return True
        return False

    def run(self, *, max_events: int = 10_000_000) -> int:
        """Drain the queue; returns the number of events processed."""
        count = 0
        while count < max_events and self.step():
            count += 1
        if count >= max_events:
            raise RuntimeError(f"event budget exhausted ({max_events})")
        return count

    def run_until(self, deadline: float, *, max_events: int = 10_000_000) -> int:
        """Process events up to ``deadline`` (inclusive), then advance time to it."""
        count = 0
        while self._queue and count < max_events:
            head = self._queue[0]
            if head.cancelled:
                heapq.heappop(self._queue)
                continue
            if head.time > deadline:
                break
            self.step()
            count += 1
        if count >= max_events:
            raise RuntimeError(f"event budget exhausted ({max_events})")
        self._now = max(self._now, deadline)
        return count
