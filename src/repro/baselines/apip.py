"""Baseline: APIP — Accountable and Private Internet Protocol (Naylor et
al., SIGCOMM 2014), the paper's main comparison point.

In APIP the source address field carries the address of an
*accountability delegate*; the real return address is hidden at a higher
layer.  Senders **brief** their delegate with a fingerprint of every
packet; on-path verifiers sample packets and ask the delegate to vouch;
victims send shutoffs to the delegate (a table entry in E7; not modelled
here).

The properties the APNA paper criticises, reproduced faithfully:

* extra control traffic: one brief per packet (amortisable) plus one
  verification round trip per sampled flow, where APNA needs only an
  in-packet MAC;
* the *whitelisting hole*: once a flow is whitelisted, verifiers stop
  checking, so a malicious host can stop briefing those packets — they
  are then unaccounted for (no unforgeable per-packet link);
* data privacy is out of scope (delegated to upper layers).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from ..crypto.kdf import hmac_sha256


@dataclass(frozen=True)
class ApipPacket:
    delegate_addr: int  # visible "accountability address"
    dst_addr: int
    flow_id: int  # transport-layer flow identifier
    payload: bytes = b""
    #: The true return address, invisible to the network layer.
    hidden_return: int = 0

    def fingerprint(self, key: bytes = b"") -> bytes:
        h = hashlib.sha256()
        h.update(self.delegate_addr.to_bytes(4, "big"))
        h.update(self.dst_addr.to_bytes(4, "big"))
        h.update(self.flow_id.to_bytes(8, "big"))
        h.update(self.payload)
        digest = h.digest()
        return hmac_sha256(key, digest) if key else digest


class ApipDelegate:
    """An accountability delegate: stores briefs and vouches."""

    def __init__(self, addr: int) -> None:
        self.addr = addr
        self._briefs: set[bytes] = set()
        self._clients: dict[int, bytes] = {}  # client id -> briefing key
        self.briefs_received = 0
        self.verifications = 0

    def enroll(self, client_id: int, briefing_key: bytes) -> None:
        self._clients[client_id] = briefing_key

    def brief(self, client_id: int, fingerprint: bytes) -> bool:
        """Store a packet fingerprint from an enrolled client."""
        if client_id not in self._clients:
            return False
        self._briefs.add(fingerprint)
        self.briefs_received += 1
        return True

    def verify(self, packet: ApipPacket) -> bool:
        """A verifier asks: do you vouch for this packet?"""
        self.verifications += 1
        return packet.fingerprint() in self._briefs


class ApipSender:
    """A sender that (usually) briefs its delegate."""

    def __init__(self, client_id: int, delegate: ApipDelegate, return_addr: int) -> None:
        self.client_id = client_id
        self.delegate = delegate
        self.return_addr = return_addr
        self.briefs_sent = 0
        delegate.enroll(client_id, briefing_key=b"")

    def send(
        self, dst_addr: int, flow_id: int, payload: bytes, *, brief: bool = True
    ) -> ApipPacket:
        """Build a packet; ``brief=False`` models the whitelisting hole —
        a malicious sender that skips briefing once verifiers stop
        sampling its flow."""
        packet = ApipPacket(
            delegate_addr=self.delegate.addr,
            dst_addr=dst_addr,
            flow_id=flow_id,
            payload=payload,
            hidden_return=self.return_addr,
        )
        if brief:
            self.delegate.brief(self.client_id, packet.fingerprint())
            self.briefs_sent += 1
        return packet


class ApipVerifier:
    """An on-path verifier with flow whitelisting.

    The first packet of every flow is verified against the delegate;
    verified flows are whitelisted and subsequent packets pass unchecked
    (Section 5 of APIP, as summarised by the APNA paper's footnote).
    """

    def __init__(self, delegate: ApipDelegate) -> None:
        self.delegate = delegate
        self._whitelist: set[int] = set()
        self.checked = 0
        self.passed_unchecked = 0
        self.rejected = 0

    def process(self, packet: ApipPacket) -> bool:
        if packet.flow_id in self._whitelist:
            self.passed_unchecked += 1
            return True
        self.checked += 1
        if self.delegate.verify(packet):
            self._whitelist.add(packet.flow_id)
            return True
        self.rejected += 1
        return False
