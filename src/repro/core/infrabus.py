"""The authenticated intra-AS control channel.

Fig. 2's ``m1 = E_kA(HID, kHA)`` announces a new host binding inside the
AS, and Fig. 5's ``MAC_kAS(revoke EphID_s)`` pushes revocations to the
border routers.  This bus realises both: messages are sealed/
authenticated with keys derived from kA and verified on delivery, and
revocation subscribers apply a push only once it verifies.  The AS's
entities share the one host store the registry writes, so a verified m1
has nothing left to apply.  A tampered or replayed message is rejected,
which the security tests exercise.
"""

from __future__ import annotations

from typing import Callable

from ..crypto.aead import EtmScheme
from ..crypto.cmac import Cmac
from .errors import MacError
from .keys import AsSecret
from .messages import InfraUpdate, RevocationPush
from .revocation import RevocationList


class InfraBus:
    """Distributes authenticated host-info updates and revocation pushes."""

    def __init__(self, secret: AsSecret) -> None:
        self._aead = EtmScheme(secret.infra_enc)
        self._mac = Cmac(secret.infra_mac)
        self._revocation_subscribers: list[RevocationList] = []
        self._listeners: list[Callable[[str, bytes], None]] = []
        self._seq = 0
        self.updates_sent = 0
        self.updates_rejected = 0

    # -- subscription --

    def subscribe_revocations(self, revocations: RevocationList) -> None:
        self._revocation_subscribers.append(revocations)

    def tap(self, listener: Callable[[str, bytes], None]) -> None:
        """Observe raw bus traffic (used by the eavesdropper attack tests)."""
        self._listeners.append(listener)

    # -- m1: host info distribution (Fig. 2) --

    def seal_host_update(self, update: InfraUpdate) -> bytes:
        """Produce the sealed m1 bytes."""
        nonce = self._seq.to_bytes(12, "big")
        self._seq += 1
        return nonce + self._aead.seal(nonce, update.pack(), b"m1")

    def publish_host_update(self, update: InfraUpdate) -> None:
        self.deliver_host_update(self.seal_host_update(update))

    def deliver_host_update(self, sealed: bytes) -> None:
        """Verify an m1 message; raises :class:`MacError` on tamper."""
        for listener in self._listeners:
            listener("m1", sealed)
        nonce, body = sealed[:12], sealed[12:]
        try:
            plain = self._aead.open(nonce, body, b"m1")
        except ValueError as exc:
            self.updates_rejected += 1
            raise MacError("infra host update failed authentication") from exc
        InfraUpdate.parse(plain)  # a verified m1 is well-formed, or ParseError
        self.updates_sent += 1

    # -- revocation push (Fig. 5) --

    def seal_revocation(self, ephid: bytes, exp_time: int) -> bytes:
        push = RevocationPush(ephid=ephid, exp_time=exp_time)
        mac = self._mac.tag(push.mac_input(), 8)
        return RevocationPush(ephid=ephid, exp_time=exp_time, mac=mac).pack()

    def publish_revocation(self, ephid: bytes, exp_time: int) -> None:
        self.deliver_revocation(self.seal_revocation(ephid, exp_time))

    def deliver_revocation(self, wire: bytes) -> None:
        """Verify and apply a revocation push (Fig. 5's border-router check)."""
        for listener in self._listeners:
            listener("revoke", wire)
        push = RevocationPush.parse(wire)
        if not self._mac.verify(push.mac_input(), push.mac):
            self.updates_rejected += 1
            raise MacError("revocation push failed authentication")
        for revocations in self._revocation_subscribers:
            revocations.add(push.ephid, push.exp_time)
        self.updates_sent += 1
