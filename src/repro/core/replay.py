"""Anti-replay detection (paper Section VIII-D).

"Replay attacks can be prevented by making every packet unique ... the
destination host performs replay detection based on the nonces in the
packets and discards all duplicates."  The standard realisation is a
sliding window over sequence numbers: values too far in the past are
rejected outright, recent values are tracked exactly.
"""

from __future__ import annotations


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

    def check(self, nonce: int) -> bool:
        """True (and record it) if ``nonce`` is fresh; False for replays."""
        if nonce < 0:
            self.rejected += 1
            return False
        floor = self._max_seen - self.window
        if nonce <= floor or nonce in self._seen:
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
