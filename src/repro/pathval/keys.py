"""Pairwise AS keys for path validation.

Passport's trust substrate is a symmetric key shared by every pair of
ASes, established from their long-term public keys.  APNA already
assumes exactly the required directory — RPKI registers each AS's key
material (Section IV-A) — so the pairwise key falls out of an X25519
exchange between the two ASes' registered exchange keys, with HKDF
binding it to the (order-independent) AID pair.
"""

from __future__ import annotations

import struct

from ..core.certs import AsCertificate
from ..core.keys import ExchangeKeyPair
from ..core.rpki import RpkiDirectory
from ..crypto.kdf import hkdf

PAIRWISE_KEY_SIZE = 16

_CONTEXT = b"apna-pathval-pairwise-v1:"


def pairwise_key(
    local_aid: int,
    local_exchange: ExchangeKeyPair,
    peer_cert: AsCertificate,
) -> bytes:
    """Derive the symmetric key shared by ``local_aid`` and ``peer_cert.aid``.

    Both sides derive the same key: X25519 is symmetric and the AID pair
    is sorted into the HKDF info, so the derivation is order-independent.
    """
    shared = local_exchange.shared_secret(peer_cert.exchange_public)
    low, high = sorted((local_aid, peer_cert.aid))
    info = _CONTEXT + struct.pack(">II", low, high)
    return hkdf(shared, info=info, length=PAIRWISE_KEY_SIZE)


class AsPairwiseKeys:
    """One AS's lazily-built cache of pairwise keys with every other AS."""

    def __init__(
        self,
        aid: int,
        exchange: ExchangeKeyPair,
        rpki: RpkiDirectory,
    ) -> None:
        self.aid = aid
        self._exchange = exchange
        self._rpki = rpki
        self._cache: dict[int, bytes] = {}

    def key_for(self, peer_aid: int) -> bytes:
        """The pairwise key with ``peer_aid`` (RPKI lookup on first use)."""
        if peer_aid == self.aid:
            raise ValueError("an AS has no pairwise key with itself")
        key = self._cache.get(peer_aid)
        if key is None:
            key = pairwise_key(self.aid, self._exchange, self._rpki.lookup(peer_aid))
            self._cache[peer_aid] = key
        return key

    def __len__(self) -> int:
        return len(self._cache)
