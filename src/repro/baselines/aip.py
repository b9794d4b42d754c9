"""Baseline: AIP — Accountable Internet Protocol (Andersen et al.,
SIGCOMM 2008), as characterised in the paper's related work.

AIP makes addresses *self-certifying*: a host's EID is the hash of its
public key, so anyone can check that a signature "belongs to" an
address.  A shutoff protocol is enforced by the host's (smart) NIC.

The comparison points against APNA (E7):

* accountability is bound to a **long-lived** identity — every flow from
  a host carries the same EID, so there is no sender-flow unlinkability
  and no host privacy;
* shutoff is enforced at the *host NIC*, not at the ISP, so it depends
  on tamper-proof NICs;
* no data privacy is provided.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from ..core.keys import SigningKeyPair
from ..crypto import ed25519
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

    def fingerprint(self) -> bytes:
        h = hashlib.sha256()
        h.update(self.src_ad.to_bytes(4, "big"))
        h.update(self.src_eid)
        h.update(self.dst_ad.to_bytes(4, "big"))
        h.update(self.dst_eid)
        h.update(self.payload)
        return h.digest()


class AipNic:
    """The trusted NIC that enforces shutoffs at the source."""

    def __init__(self, host: "AipHost") -> None:
        self._host = host
        self._blocked: set[bytes] = set()  # destination EIDs we must not reach
        self.enforced_drops = 0

    def transmit(self, packet: AipPacket) -> AipPacket | None:
        if packet.dst_eid in self._blocked:
            self.enforced_drops += 1
            return None
        return packet

    def handle_shutoff(
        self, offending: AipPacket, victim_public: bytes, signature: bytes
    ) -> bool:
        """Verify and honor a shutoff: the victim proves it owns the
        packet's destination EID and signs the offending packet."""
        if eid_of(victim_public) != offending.dst_eid:
            return False
        if offending.src_eid != self._host.eid:
            return False
        if not ed25519.verify(victim_public, offending.fingerprint(), signature):
            return False
        self._blocked.add(offending.dst_eid)
        return True


class AipHost:
    """An AIP host: self-certifying identity plus an enforcing NIC."""

    def __init__(self, ad: int, rng: Rng | None = None) -> None:
        self.ad = ad
        self._keys = SigningKeyPair.generate(rng or SystemRng())
        self.eid = eid_of(self._keys.public)
        self.nic = AipNic(self)
        self.sent = 0

    @property
    def public_key(self) -> bytes:
        return self._keys.public

    def send(self, dst: "AipHost", payload: bytes) -> AipPacket | None:
        packet = AipPacket(
            src_ad=self.ad,
            src_eid=self.eid,
            dst_ad=dst.ad,
            dst_eid=dst.eid,
            payload=payload,
        )
        accepted = self.nic.transmit(packet)
        if accepted is not None:
            self.sent += 1
        return accepted

    def verify_source(self, packet: AipPacket, claimed_public: bytes) -> bool:
        """First-packet verification: does the public key hash to the EID?"""
        return eid_of(claimed_public) == packet.src_eid
