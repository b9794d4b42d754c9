"""The strengthened shutoff protocol of paper Section VIII-C.

The base protocol (Fig. 5) authorizes only the packet's recipient to
request a shutoff.  "When such proposals [Passport, ICING, OPT] are
combined with our architecture, the list of authorized entities can be
extended to include on-path ASes (or their routers)."

An on-path AS presents:

1. the offending packet exactly as it forwarded it;
2. the Passport stamp addressed to it (its proof of being on the path);
3. an Ed25519 signature with its RPKI-registered AS key.

The source AS's accountability agent then checks, mirroring Fig. 5:

* the signature authenticates a real AS (RPKI lookup);
* its own customer really sent the packet (EphID decrypt + kHA MAC —
  the same no-rogue-packet check as the base protocol);
* the presented stamp equals the stamp its own border router computes
  for that (packet, requester) pair — since the pairwise key is known
  only to the two ASes, a valid stamp proves the source AS emitted this
  exact packet toward a path containing the requester.

A requester technically holds the pairwise key and could mint the stamp
itself, but it cannot mint the *packet*: the kHA MAC check means every
accepted complaint concerns genuine customer traffic, so a forged stamp
only lets an AS complain about traffic it provably could have observed —
the same power the destination already has.
"""

from __future__ import annotations

import struct

from ..core.accountability import AccountabilityAgent
from ..core.errors import CertError
from ..core.messages import ShutoffResponse
from ..crypto import ed25519
from ..crypto.util import ct_eq
from ..wire.apna import ApnaPacket, HEADER_SIZE
from .keys import AsPairwiseKeys
from .passport import PASSPORT_MAC_SIZE, PassportStamper

_SIGN_CONTEXT = b"apna-onpath-shutoff-v1:"


class OnPathShutoffRequest:
    """A shutoff request issued by an on-path AS (not the recipient)."""

    def __init__(
        self,
        packet: bytes,
        requester_aid: int,
        stamp: bytes,
        signature: bytes = b"",
    ) -> None:
        if len(stamp) != PASSPORT_MAC_SIZE:
            raise ValueError(f"stamp must be {PASSPORT_MAC_SIZE} bytes")
        self.packet = packet
        self.requester_aid = requester_aid
        self.stamp = stamp
        self.signature = signature

    def signed_bytes(self) -> bytes:
        return (
            _SIGN_CONTEXT
            + struct.pack(">I", self.requester_aid)
            + self.stamp
            + self.packet
        )

    @classmethod
    def build(
        cls,
        packet: bytes,
        requester_aid: int,
        stamp: bytes,
        signer,
    ) -> "OnPathShutoffRequest":
        """Create and sign a request with the requester AS's signing key."""
        request = cls(packet, requester_aid, stamp)
        request.signature = signer.sign(request.signed_bytes())
        return request

    def pack(self) -> bytes:
        return (
            struct.pack(">I", self.requester_aid)
            + self.stamp
            + self.signature
            + struct.pack(">H", len(self.packet))
            + self.packet
        )

    # audit: allow(production-caller) the decode half of a wire format its round-trip tests pin
    @classmethod
    def parse(cls, data: bytes) -> "OnPathShutoffRequest":
        fixed = 4 + PASSPORT_MAC_SIZE + ed25519.SIGNATURE_SIZE + 2
        if len(data) < fixed:
            raise ValueError("on-path shutoff request truncated")
        (requester_aid,) = struct.unpack_from(">I", data)
        offset = 4
        stamp = data[offset : offset + PASSPORT_MAC_SIZE]
        offset += PASSPORT_MAC_SIZE
        signature = data[offset : offset + ed25519.SIGNATURE_SIZE]
        offset += ed25519.SIGNATURE_SIZE
        (size,) = struct.unpack_from(">H", data, offset)
        offset += 2
        packet = data[offset : offset + size]
        if len(packet) != size:
            raise ValueError("on-path shutoff packet truncated")
        return cls(packet, requester_aid, stamp, signature)


class ExtendedAccountabilityAgent(AccountabilityAgent):
    """An accountability agent that also accepts on-path shutoffs.

    The base Fig. 5 recipient path is inherited unchanged; this class
    adds :meth:`handle_onpath_shutoff` backed by the AS's Passport
    stamper (the pairwise-key holder).
    """

    def __init__(self, *args, pairwise: AsPairwiseKeys, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._stamper = PassportStamper(pairwise)
        self.onpath_accepted = 0

    def handle_onpath_shutoff(
        self, request: OnPathShutoffRequest, *, with_nonce: bool = False
    ) -> ShutoffResponse:
        """Validate an on-path AS's shutoff request and revoke the EphID."""
        if len(request.packet) < HEADER_SIZE:
            return self._reject("packet-too-short")
        try:
            packet = ApnaPacket.from_wire(request.packet, with_nonce=with_nonce)
        except ValueError:
            return self._reject("packet-unparseable")
        header = packet.header
        if header.src_aid != self.aid:
            return self._reject("not-our-source")
        if request.requester_aid == self.aid:
            return self._reject("requester-is-self")

        # The requester must be a real AS: RPKI key, valid signature.
        # Only a certificate problem means "unknown AS" — anything else
        # (a bug in the RPKI store) must propagate, not become a reject.
        try:
            requester_key = self._rpki.signing_key_of(request.requester_aid)
        except CertError:
            return self._reject("requester-unknown-as")
        if not ed25519.verify(
            requester_key, request.signed_bytes(), request.signature
        ):
            return self._reject("requester-signature-invalid")

        # Our customer really sent this packet (no rogue-packet shutoffs).
        info, reason = self._customer_check(packet)
        if info is None:
            return self._reject(reason)

        # The stamp proves the packet was emitted toward the requester.
        expected = self._stamper.restamp_mac(packet, request.requester_aid)
        if not ct_eq(expected, request.stamp):
            return self._reject("stamp-invalid")

        self.onpath_accepted += 1
        return self._revoke_source(header.src_ephid, info)


def upgrade_to_onpath(assembly) -> ExtendedAccountabilityAgent:
    """Swap an AS assembly's agent for the on-path-capable variant.

    Takes an :class:`repro.core.autonomous_system.ApnaAutonomousSystem`,
    replaces its ``aa`` in place (the base Fig. 5 behaviour is inherited,
    so recipient shutoffs keep working) and returns the new agent.
    """
    pairwise = AsPairwiseKeys(assembly.aid, assembly.keys.exchange, assembly.rpki)
    agent = ExtendedAccountabilityAgent(
        assembly.aid,
        assembly.codec,
        assembly.hostdb,
        assembly.bus,
        assembly.rpki,
        assembly.clock,
        assembly.config,
        pairwise=pairwise,
    )
    assembly.aa = agent
    return agent
