"""Baseline: AIP — Accountable Internet Protocol (Andersen et al.,
SIGCOMM 2008), as characterised in the paper's related work.

AIP makes addresses *self-certifying*: a host's EID is the hash of its
public key, so anyone can check that a signature "belongs to" an
address.  Its shutoff protocol is enforced by the host's (smart) NIC;
this model keeps the addressing E7 measures (the first-packet verify)
and leaves the shutoff point to E7's table.

The comparison points against APNA (E7):

* accountability is bound to a **long-lived** identity — every flow from
  a host carries the same EID, so there is no sender-flow unlinkability
  and no host privacy;
* shutoff is enforced at the *host NIC*, not at the ISP, so it depends
  on tamper-proof NICs (a table entry in E7; not modelled here);
* no data privacy is provided.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from ..core.keys import SigningKeyPair
from ..crypto.rng import Rng, SystemRng

EID_SIZE = 20


def eid_of(public_key: bytes) -> bytes:
    """EID = hash of the host public key (self-certification)."""
    return hashlib.sha256(public_key).digest()[:EID_SIZE]


@dataclass(frozen=True)
class AipPacket:
    src_ad: int  # accountability domain (AS analogue)
    src_eid: bytes
    dst_ad: int
    dst_eid: bytes
    payload: bytes = b""


class AipHost:
    """An AIP host: a self-certifying identity."""

    def __init__(self, ad: int, rng: Rng | None = None) -> None:
        self.ad = ad
        self._keys = SigningKeyPair.generate(rng or SystemRng())
        self.eid = eid_of(self._keys.public)
        self.sent = 0

    @property
    def public_key(self) -> bytes:
        return self._keys.public

    def send(self, dst: "AipHost", payload: bytes) -> AipPacket:
        self.sent += 1
        return AipPacket(
            src_ad=self.ad,
            src_eid=self.eid,
            dst_ad=dst.ad,
            dst_eid=dst.eid,
            payload=payload,
        )

    def verify_source(self, packet: AipPacket, claimed_public: bytes) -> bool:
        """First-packet verification: does the public key hash to the EID?"""
        return eid_of(claimed_public) == packet.src_eid
