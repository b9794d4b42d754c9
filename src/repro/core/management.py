"""The EphID Management Service (MS): issuance per paper Fig. 3.

The host sends ``E_kHA(K+EphID)`` addressed to the MS EphID.  The MS
statelessly recovers the requesting HID from the source (control) EphID,
checks expiry / revocation / decryptability, generates a fresh EphID and
returns the sealed short-lived certificate.

The request/reply sealing is what protects sender-flow unlinkability:
without it, an observer inside the AS could link the K+EphID seen in a
later connection-establishment packet back to the requesting control
EphID (Section IV-C's attack discussion).
"""

from __future__ import annotations

from typing import Callable

from ..crypto.aead import EtmScheme
from ..crypto.rng import Rng, SystemRng
from ..crypto.util import ct_eq
from .certs import EphIdCertificate
from .config import ApnaConfig
from .ephid import EphIdCodec, IvAllocator
from .errors import EphIdError, IssuanceError
from .hostdb import HostDatabase
from .keys import AsKeyMaterial
from .lru import LruCache
from .messages import EphIdReply, EphIdRequest

#: Most requesters whose control-key scheme (two key schedules, ~3 KB,
#: ~40 µs to derive) the MS keeps between requests — about 12 MB, however
#: many distinct hosts an issuance flood comes from.
SCHEME_CACHE_CAPACITY = 4096


class ManagementService:
    """One AS's EphID Management Service."""

    def __init__(
        self,
        aid: int,
        keys: AsKeyMaterial,
        codec: EphIdCodec,
        ivs: IvAllocator,
        hostdb: HostDatabase,
        clock: Callable[[], float],
        config: ApnaConfig,
        rng: Rng | None = None,
    ) -> None:
        self.aid = aid
        self._keys = keys
        self._codec = codec
        self._ivs = ivs
        self._hostdb = hostdb
        self._clock = clock
        self._config = config
        self._rng = rng or SystemRng()
        # The accountability agent's EphID, embedded in every certificate
        # so peers know where to send shutoff requests.  Set by the AS
        # assembly once the AA identity exists.
        self.aa_ephid: bytes = bytes(16)
        self.issued = 0
        self.rejected = 0
        #: hid -> (control key, its scheme); least recently used out.
        self._scheme_cache = LruCache(SCHEME_CACHE_CAPACITY)

    def _scheme_for(self, hid: int, control_key: bytes) -> EtmScheme:
        entry = self._scheme_cache.hit(hid)
        # A hit counts only under the key it was derived from, so a
        # host whose control key changed gets a fresh scheme.
        if entry is None or not ct_eq(entry[0], control_key):
            entry = (control_key, EtmScheme(control_key))
            self._scheme_cache.put(hid, entry)
        return entry[1]

    # -- Fig. 3, full sealed path --

    def handle_request(self, src_ephid: bytes, sealed_request: bytes) -> bytes:
        """Process a sealed EphID request; returns the sealed reply.

        ``sealed_request`` is ``nonce(12) || EtM(E_kHA_ctrl, EphIdRequest)``.
        Raises :class:`IssuanceError` if any Fig. 3 check fails.
        """
        # 1) (HID, T1) = D_kA(EphID_ctrl); abort on forgery.
        try:
            info = self._codec.open(src_ephid)
        except EphIdError as exc:
            self.rejected += 1
            raise IssuanceError("source EphID is not valid") from exc
        # 2) abort if expired.
        if info.exp_time < self._clock():
            self.rejected += 1
            raise IssuanceError("source EphID has expired")
        # 3) abort if the HID is unknown or revoked.
        if not self._hostdb.is_valid(info.hid):
            self.rejected += 1
            raise IssuanceError(f"HID {info.hid} is not valid")
        kha = self._hostdb.get(info.hid).keys

        # 4) abort unless the message decrypts under kHA.
        if len(sealed_request) < 12:
            self.rejected += 1
            raise IssuanceError("request too short")
        nonce, body = sealed_request[:12], sealed_request[12:]
        scheme = self._scheme_for(info.hid, kha.control)
        try:
            plain = scheme.open(nonce, body, b"ephid-request")
        except ValueError as exc:
            self.rejected += 1
            raise IssuanceError("request failed authentication") from exc
        request = EphIdRequest.parse(plain)

        cert = self.issue(info.hid, request)
        reply_nonce = self._rng.read(12)
        sealed_reply = scheme.seal(reply_nonce, EphIdReply(cert).pack(), b"ephid-reply")
        return reply_nonce + sealed_reply

    # -- issuance core (also used directly by the AS assembly) --

    def issue(self, hid: int, request: EphIdRequest) -> EphIdCertificate:
        """Generate an EphID + certificate for an already-validated host."""
        lifetime = self._config.clamp_lifetime(request.lifetime or None)
        exp_time = int(self._clock() + lifetime)
        ephid = self._codec.seal(hid=hid, exp_time=exp_time, iv=self._ivs.next_iv_for(hid))
        cert = EphIdCertificate.issue(
            self._keys.signing,
            ephid=ephid,
            exp_time=exp_time,
            dh_public=request.dh_public,
            sig_public=request.sig_public,
            aid=self.aid,
            aa_ephid=self.aa_ephid,
            flags=request.flags,
        )
        record = self._hostdb.get(hid)
        record.ephids_issued += 1
        self.issued += 1
        return cert
