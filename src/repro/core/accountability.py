"""The Accountability Agent (AA): the shutoff protocol of paper Fig. 5.

A complaining destination host sends the unwanted packet, its signature
over that packet, and its own EphID certificate.  The agent checks, in
order:

1. the certificate is genuine (signed by the requester's AS, via RPKI)
   and matches the packet's destination EphID — only the actual recipient
   may request a shutoff;
2. the signature proves ownership of that EphID;
3. the offending packet's source EphID decrypts to a live local HID and
   the packet's MAC verifies under that host's kHA — proof our customer
   really sent it (no rogue-packet shutoffs);
4. only then is the source EphID revoked and pushed to border routers
   with ``MAC_kAS``.

The agent "does not examine the intent of the source" — any provably
received packet suffices.
"""

from __future__ import annotations

from typing import Callable

from ..crypto import ed25519
from ..crypto.cmac import Cmac
from ..crypto.util import ct_eq
from ..wire.apna import ApnaPacket, HEADER_SIZE
from .certs import EphIdCertificate
from .config import ApnaConfig
from .ephid import EphIdCodec
from .errors import CertError, EphIdError
from .hostdb import HostDatabase
from .infrabus import InfraBus
from .messages import ShutoffRequest, ShutoffResponse
from .revocation import RevocationPolicy
from .rpki import RpkiDirectory


class AccountabilityAgent:
    """One AS's accountability agent."""

    def __init__(
        self,
        aid: int,
        codec: EphIdCodec,
        hostdb: HostDatabase,
        bus: InfraBus,
        rpki: RpkiDirectory,
        clock: Callable[[], float],
        config: ApnaConfig,
    ) -> None:
        self.aid = aid
        self._codec = codec
        self._hostdb = hostdb
        self._bus = bus
        self._rpki = rpki
        self._clock = clock
        self._config = config
        self.policy = RevocationPolicy(
            config.revocation_threshold, on_hid_revoked=self._revoke_hid
        )
        self.accepted = 0
        self.rejected: dict[str, int] = {}

    def _reject(self, reason: str) -> ShutoffResponse:
        self.rejected[reason] = self.rejected.get(reason, 0) + 1
        return ShutoffResponse(accepted=False, reason=reason)

    def _revoke_hid(self, hid: int) -> None:
        """Escalation of Section VIII-G2: too many revocations kill the HID."""
        self._hostdb.revoke_hid(hid)

    def handle_shutoff(self, request: ShutoffRequest, *, with_nonce: bool = False) -> ShutoffResponse:
        """Validate a shutoff request and revoke the offending EphID."""
        # Parse the presented packet.
        if len(request.packet) < HEADER_SIZE:
            return self._reject("packet-too-short")
        try:
            packet = ApnaPacket.from_wire(request.packet, with_nonce=with_nonce)
        except ValueError:
            return self._reject("packet-unparseable")
        header = packet.header
        if header.src_aid != self.aid:
            return self._reject("not-our-source")

        # 1) The requester must be the packet's recipient: the certificate
        #    must cover exactly the packet's destination EphID...
        if request.cert.ephid != header.dst_ephid:
            return self._reject("requester-not-recipient")
        if request.cert.aid != header.dst_aid:
            return self._reject("cert-aid-mismatch")
        #    ...and be signed by the destination AS (RPKI lookup).
        try:
            dst_as_key = self._rpki.signing_key_of(request.cert.aid)
            request.cert.verify(dst_as_key, now=self._clock())
        except CertError:
            return self._reject("cert-invalid")

        # 2) The signature proves ownership of the destination EphID.
        if not ed25519.verify(
            request.cert.sig_public, request.signed_bytes(), request.signature
        ):
            return self._reject("signature-invalid")

        # 3) Our customer really sent this packet.
        info, reason = self._customer_check(packet)
        if info is None:
            return self._reject(reason)

        # 4) Revoke and push to border routers (MAC_kAS authenticated).
        return self._revoke_source(header.src_ephid, info)

    def _customer_check(self, packet: ApnaPacket):
        """Fig. 5 core check: prove a local customer really sent ``packet``.

        Returns ``(EphIdInfo, None)`` on success, ``(None, reason)`` on
        failure.  Shared with the on-path extension of Section VIII-C
        (:class:`repro.pathval.shutoff_ext.ExtendedAccountabilityAgent`).
        """
        header = packet.header
        try:
            info = self._codec.open(header.src_ephid)
        except EphIdError:
            return None, "src-ephid-forged"
        if info.exp_time < self._clock():
            return None, "src-ephid-expired"
        if not self._hostdb.is_valid(info.hid):
            return None, "src-hid-invalid"
        kha = self._hostdb.get(info.hid).keys
        expected = Cmac(kha.packet_mac).tag(
            packet.mac_input(), self._config.packet_mac_size
        )
        if not ct_eq(expected, header.mac):
            return None, "packet-mac-invalid"
        return info, None

    def _revoke_source(self, src_ephid: bytes, info) -> ShutoffResponse:
        """Fig. 5 final step: revoke the EphID and push to border routers."""
        self._bus.publish_revocation(src_ephid, info.exp_time)
        record = self._hostdb.get(info.hid)
        record.ephids_revoked += 1
        self.policy.record(info.hid)
        self.accepted += 1
        return ShutoffResponse(accepted=True, reason="revoked")
