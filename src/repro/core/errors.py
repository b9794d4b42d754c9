"""Error taxonomy for the APNA core."""

from __future__ import annotations


class ApnaError(Exception):
    """Base class for all APNA protocol errors."""


class EphIdError(ApnaError):
    """An EphID failed authentication or decoding (forged or corrupted)."""


class ExpiredError(ApnaError):
    """An EphID or certificate is past its expiration time."""


class RevokedError(ApnaError):
    """An EphID or HID has been revoked."""


class UnknownHostError(ApnaError):
    """The HID is not registered in the AS host database."""


class MacError(ApnaError):
    """A per-packet MAC failed verification."""


class CertError(ApnaError):
    """A certificate failed signature verification or validation."""


class AuthError(ApnaError):
    """Host authentication to the AS failed."""


class ShutoffError(ApnaError):
    """A shutoff request was rejected (unauthorized or unverifiable)."""


class IssuanceError(ApnaError):
    """An EphID request could not be served."""


class ShardError(ApnaError):
    """A worker shard failed; the message carries the cause and, where
    known, :attr:`shard` names the failing worker."""

    def __init__(self, message: str, *, shard: "int | None" = None) -> None:
        super().__init__(message)
        self.shard = shard


class ShardTimeout(ShardError):
    """No reply — or no room to send — within the bounded wait: the
    worker is hung (or died without closing its pipe — practically
    impossible, but covered)."""
