"""The one bounded per-key cache: a least-recently-used map.

Anything an AS entity derives per host and keeps — the border router's
CMAC contexts, the Management Service's control-key schemes — is keyed
by a value the *requester* chooses (a HID reached through an EphID it
presents), so a map that only grows is memory a flash crowd, or an
attacker cycling identities, inflates without limit.  Every such cache
is an :class:`LruCache` with a module-constant capacity; the
``bounded-cache`` rule of :mod:`repro.analysis` keeps it that way.
"""

from __future__ import annotations

from collections import OrderedDict


class LruCache(OrderedDict):
    """An ordered map of at most ``capacity`` entries.

    :meth:`hit` refreshes what it returns and :meth:`put` evicts the
    least recently used entry — one per insertion, so a full cache never
    pays a flush.  Invalidation is plain ``pop(key, None)``.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        super().__init__()
        self.capacity = capacity

    def hit(self, key):
        """The value cached under ``key``, now the most recently used;
        ``None`` on a miss."""
        value = self.get(key)
        if value is not None:
            self.move_to_end(key)
        return value

    def put(self, key, value) -> None:
        """Cache ``value`` as the most recently used entry."""
        self[key] = value
        self.move_to_end(key)  # an overwrite would keep its old position
        if len(self) > self.capacity:
            self.popitem(last=False)
