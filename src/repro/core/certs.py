"""Short-lived EphID certificates (paper Section IV-C).

An AS certifies the binding between an EphID and the host-generated
public key by signing::

    C_EphID = { EphID, ExpTime, K+EphID, AID_AS, EphID_aa } signed K-AS

From the certificate a peer learns the public key bound to the EphID, the
expiration time, the issuing AS (AID) and the EphID of the AS's
accountability agent — the address shutoff requests go to.

Because the reproduction splits K+EphID into a DH key and a signing key
(see :mod:`repro.core.keys`), the certificate carries both public keys.
A flags byte marks receive-only EphIDs (Section VII-A) so that host
stacks refuse to use them as source identifiers.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from ..crypto import ed25519
from .errors import CertError
from .keys import SigningKeyPair

EPHID_SIZE = 16

FLAG_RECEIVE_ONLY = 0x01
FLAG_CONTROL = 0x02

_EPHID_CERT_CONTEXT = b"apna-ephid-cert-v1:"
_EPHID_CERT_FMT = f">{EPHID_SIZE}sI32s32sI{EPHID_SIZE}sB"
_EPHID_CERT_TBS_SIZE = struct.calcsize(_EPHID_CERT_FMT)
EPHID_CERT_SIZE = _EPHID_CERT_TBS_SIZE + ed25519.SIGNATURE_SIZE


@dataclass(frozen=True)
class EphIdCertificate:
    """A short-lived certificate for one EphID."""

    ephid: bytes = field(repr=False)
    exp_time: int
    dh_public: bytes = field(repr=False)
    sig_public: bytes = field(repr=False)
    aid: int = 0
    aa_ephid: bytes = field(default=bytes(EPHID_SIZE), repr=False)
    flags: int = 0
    signature: bytes = field(default=bytes(ed25519.SIGNATURE_SIZE), repr=False)

    def __post_init__(self) -> None:
        if len(self.ephid) != EPHID_SIZE:
            raise CertError("ephid must be 16 bytes")
        if len(self.dh_public) != 32 or len(self.sig_public) != 32:
            raise CertError("public keys must be 32 bytes")
        if len(self.aa_ephid) != EPHID_SIZE:
            raise CertError("aa_ephid must be 16 bytes")
        if not 0 <= self.exp_time <= 2**32 - 1:
            raise CertError("exp_time out of range")
        if not 0 <= self.aid <= 2**32 - 1:
            raise CertError("aid out of range")
        if not 0 <= self.flags <= 255:
            raise CertError("flags out of range")
        if len(self.signature) != ed25519.SIGNATURE_SIZE:
            raise CertError("signature must be 64 bytes")

    def tbs(self) -> bytes:
        """The to-be-signed serialization."""
        return _EPHID_CERT_CONTEXT + struct.pack(
            _EPHID_CERT_FMT,
            self.ephid,
            self.exp_time,
            self.dh_public,
            self.sig_public,
            self.aid,
            self.aa_ephid,
            self.flags,
        )

    @classmethod
    def issue(
        cls,
        signer: SigningKeyPair,
        *,
        ephid: bytes,
        exp_time: int,
        dh_public: bytes,
        sig_public: bytes,
        aid: int,
        aa_ephid: bytes,
        flags: int = 0,
    ) -> "EphIdCertificate":
        unsigned = cls(
            ephid=ephid,
            exp_time=exp_time,
            dh_public=dh_public,
            sig_public=sig_public,
            aid=aid,
            aa_ephid=aa_ephid,
            flags=flags,
        )
        signature = signer.sign(unsigned.tbs())
        return cls(
            ephid=ephid,
            exp_time=exp_time,
            dh_public=dh_public,
            sig_public=sig_public,
            aid=aid,
            aa_ephid=aa_ephid,
            flags=flags,
            signature=signature,
        )

    def verify(self, as_public: bytes, *, now: float | None = None) -> None:
        """Check signature (and optionally freshness); raises :class:`CertError`."""
        if not ed25519.verify(as_public, self.tbs(), self.signature):
            raise CertError("EphID certificate signature invalid")
        if now is not None and self.exp_time < now:
            raise CertError(f"EphID certificate expired at {self.exp_time}")

    @property
    def receive_only(self) -> bool:
        return bool(self.flags & FLAG_RECEIVE_ONLY)

    def pack(self) -> bytes:
        return self.tbs()[len(_EPHID_CERT_CONTEXT) :] + self.signature

    @classmethod
    def parse(cls, data: bytes) -> "EphIdCertificate":
        if len(data) < EPHID_CERT_SIZE:
            raise CertError(
                f"EphID certificate needs {EPHID_CERT_SIZE} bytes, got {len(data)}"
            )
        ephid, exp_time, dh_public, sig_public, aid, aa_ephid, flags = struct.unpack_from(
            _EPHID_CERT_FMT, data
        )
        signature = data[_EPHID_CERT_TBS_SIZE:EPHID_CERT_SIZE]
        return cls(
            ephid=ephid,
            exp_time=exp_time,
            dh_public=dh_public,
            sig_public=sig_public,
            aid=aid,
            aa_ephid=aa_ephid,
            flags=flags,
            signature=signature,
        )


_AS_CERT_CONTEXT = b"apna-as-cert-v1:"
_AS_CERT_FMT = ">I32s32sI"
_AS_CERT_TBS_SIZE = struct.calcsize(_AS_CERT_FMT)
AS_CERT_SIZE = _AS_CERT_TBS_SIZE + ed25519.SIGNATURE_SIZE


@dataclass(frozen=True)
class AsCertificate:
    """An RPKI-style certificate binding an AID to the AS public keys."""

    aid: int
    signing_public: bytes = field(repr=False)
    exchange_public: bytes = field(repr=False)
    exp_time: int = 2**32 - 1
    signature: bytes = field(default=bytes(ed25519.SIGNATURE_SIZE), repr=False)

    def __post_init__(self) -> None:
        if len(self.signing_public) != 32 or len(self.exchange_public) != 32:
            raise CertError("AS public keys must be 32 bytes")
        if not 0 <= self.aid <= 2**32 - 1:
            raise CertError("aid out of range")
        if not 0 <= self.exp_time <= 2**32 - 1:
            raise CertError("exp_time out of range")

    def tbs(self) -> bytes:
        return _AS_CERT_CONTEXT + struct.pack(
            _AS_CERT_FMT,
            self.aid,
            self.signing_public,
            self.exchange_public,
            self.exp_time,
        )

    @classmethod
    def issue(
        cls,
        anchor: SigningKeyPair,
        *,
        aid: int,
        signing_public: bytes,
        exchange_public: bytes,
        exp_time: int = 2**32 - 1,
    ) -> "AsCertificate":
        unsigned = cls(
            aid=aid,
            signing_public=signing_public,
            exchange_public=exchange_public,
            exp_time=exp_time,
        )
        return cls(
            aid=aid,
            signing_public=signing_public,
            exchange_public=exchange_public,
            exp_time=exp_time,
            signature=anchor.sign(unsigned.tbs()),
        )

    def verify(self, anchor_public: bytes, *, now: float | None = None) -> None:
        if not ed25519.verify(anchor_public, self.tbs(), self.signature):
            raise CertError("AS certificate signature invalid")
        if now is not None and self.exp_time < now:
            raise CertError(f"AS certificate expired at {self.exp_time}")

    def pack(self) -> bytes:
        return self.tbs()[len(_AS_CERT_CONTEXT) :] + self.signature

    # audit: allow(production-caller) the decode half of a wire format its round-trip tests pin
    @classmethod
    def parse(cls, data: bytes) -> "AsCertificate":
        if len(data) < AS_CERT_SIZE:
            raise CertError(f"AS certificate needs {AS_CERT_SIZE} bytes, got {len(data)}")
        aid, signing_public, exchange_public, exp_time = struct.unpack_from(
            _AS_CERT_FMT, data
        )
        return cls(
            aid=aid,
            signing_public=signing_public,
            exchange_public=exchange_public,
            exp_time=exp_time,
            signature=data[_AS_CERT_TBS_SIZE:AS_CERT_SIZE],
        )
