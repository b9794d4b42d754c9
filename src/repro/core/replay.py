"""Anti-replay detection (paper Section VIII-D).

"Replay attacks can be prevented by making every packet unique ... the
destination host performs replay detection based on the nonces in the
packets and discards all duplicates."  The standard realisation is a
sliding window over sequence numbers: values too far in the past are
rejected outright, recent values are tracked exactly.
"""

from __future__ import annotations

from .lru import LruCache


class ReplayWindow:
    """Sliding-window duplicate detector over monotonically-ish nonces."""

    def __init__(self, window: int = 1024) -> None:
        if window < 1:
            raise ValueError("window must be at least 1")
        self.window = window
        self._max_seen = -1
        self._seen: set[int] = set()
        self.accepted = 0
        self.rejected = 0

    def fresh(self, nonce: int) -> bool:
        """Whether :meth:`check` would accept ``nonce``; records nothing."""
        return (
            nonce >= 0
            and nonce > self._max_seen - self.window
            and nonce not in self._seen
        )

    def check(self, nonce: int) -> bool:
        """True (and record it) if ``nonce`` is fresh; False for replays."""
        if not self.fresh(nonce):
            self.rejected += 1
            return False
        self._seen.add(nonce)
        if nonce > self._max_seen:
            self._max_seen = nonce
            # Evict entries that fell out of the window.
            new_floor = self._max_seen - self.window
            if len(self._seen) > 2 * self.window:
                self._seen = {n for n in self._seen if n > new_floor}
        self.accepted += 1
        return True


class SourceReplayWindows(LruCache):
    """One :class:`ReplayWindow` per source EphID, the least recently
    used evicted past ``capacity``: the receive-side replay check of a
    host node and of a NAT-AP client.

    :meth:`fresh` tests a frame's nonce before dispatch and records
    nothing; :meth:`record` records it, creating the source's window,
    only once the frame's payload authenticated.  So a forged frame can
    neither move a peer's window past its real nonces nor add a window.
    """

    def fresh(self, source: bytes, nonce: "int | None") -> bool:
        """Whether a frame from ``source`` numbered ``nonce`` may be
        dispatched: it carries a nonce its source's window accepts."""
        window = self.get(source)
        return nonce is not None and (window is None or window.fresh(nonce))

    def record(self, source: bytes, nonce: int) -> None:
        """Record an authenticated frame's nonce in its source's window."""
        window = self.hit(source)
        if window is None:
            window = ReplayWindow()
            self.put(source, window)
        window.check(nonce)
