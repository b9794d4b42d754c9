"""OPT-style session path validation.

OPT (Kim et al., SIGCOMM 2014 — reference [22] of the paper) gives the
*endpoints* a proof of the path a packet actually traversed: each on-path
AS holds a per-session key and folds a MAC into a chained Path
Verification Field (PVF) as the packet passes.  The destination, knowing
all the per-session keys, recomputes the chain and compares.

Key setup follows OPT's DRKey idea in simulator form: every AS derives
its per-session key locally from a secret it alone holds and the session
identifier (no per-session state on routers), and the endpoints fetch the
derived keys over the APNA control channel during connection
establishment.  Here :meth:`OptSession.for_endpoints` performs that
fetch directly from the AS key materials, which stands in for the
encrypted key-delivery of DRKey without changing what is computed.
"""

from __future__ import annotations

import hashlib

from ..crypto.cmac import Cmac
from ..crypto.kdf import derive_subkey
from ..crypto.util import ct_eq
from ..wire.apna import ApnaPacket

PVF_SIZE = 16
SESSION_ID_SIZE = 16

_DIGEST_CONTEXT = b"apna-opt-digest-v1:"


class OptValidationError(Exception):
    """The PVF chain did not verify."""


def session_key(as_opt_secret: bytes, session_id: bytes) -> bytes:
    """One AS's per-session OPT key, derived statelessly (DRKey-style)."""
    if len(session_id) != SESSION_ID_SIZE:
        raise ValueError(f"session id must be {SESSION_ID_SIZE} bytes")
    return Cmac(as_opt_secret).tag(session_id, 16)


def opt_secret_of(as_master: bytes) -> bytes:
    """The AS-local secret that OPT session keys derive from."""
    return derive_subkey(as_master, "opt-drkey", 16)


def _packet_field(packet: ApnaPacket) -> bytes:
    return hashlib.sha256(_DIGEST_CONTEXT + packet.to_wire()).digest()[:PVF_SIZE]


class OptSession:
    """The endpoint view of one OPT-validated session.

    ``path_keys`` are the per-session keys of the on-path ASes in
    forwarding order (source AS first, destination AS last).
    """

    def __init__(self, session_id: bytes, path_keys: list[bytes]) -> None:
        if len(session_id) != SESSION_ID_SIZE:
            raise ValueError(f"session id must be {SESSION_ID_SIZE} bytes")
        if not path_keys:
            raise ValueError("OPT needs at least one on-path AS")
        self.session_id = session_id
        self._path_keys = list(path_keys)
        self.validated = 0
        self.failed = 0

    @classmethod
    def for_endpoints(
        cls, session_id: bytes, as_masters: list[bytes]
    ) -> "OptSession":
        """Build the endpoint view from the on-path AS master secrets.

        Stands in for DRKey's encrypted key fetch; see the module
        docstring.
        """
        keys = [session_key(opt_secret_of(m), session_id) for m in as_masters]
        return cls(session_id, keys)

    # -- data-plane operations ------------------------------------------

    def initial_pvf(self, packet: ApnaPacket) -> bytes:
        """PVF value the source writes into the packet."""
        return Cmac(self._path_keys[0]).tag(
            self.session_id + _packet_field(packet), PVF_SIZE
        )

    @staticmethod
    def update_pvf(as_session_key: bytes, pvf: bytes, packet: ApnaPacket) -> bytes:
        """The per-hop router operation: fold this AS's MAC into the PVF."""
        return Cmac(as_session_key).tag(pvf + _packet_field(packet), PVF_SIZE)

    def traverse(self, packet: ApnaPacket) -> bytes:
        """Compute the PVF a packet accumulates over the whole path."""
        pvf = self.initial_pvf(packet)
        for key in self._path_keys[1:]:
            pvf = self.update_pvf(key, pvf, packet)
        return pvf

    # audit: allow(production-caller) OPT's destination check, the half E11 does not time
    def validate(self, packet: ApnaPacket, received_pvf: bytes) -> None:
        """Destination check: recompute the chain, compare in constant time.

        Raises :class:`OptValidationError` if the packet did not traverse
        exactly the expected path (an AS skipped, reordered or injected).
        """
        expected = self.traverse(packet)
        if not ct_eq(expected, received_pvf):
            self.failed += 1
            raise OptValidationError(
                f"PVF mismatch for session {self.session_id.hex()[:8]}"
            )
        self.validated += 1
