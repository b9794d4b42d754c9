"""Small helpers shared across the crypto substrate."""

from __future__ import annotations

import hmac as _hmac


def ct_eq(a: bytes, b: bytes) -> bool:
    """Constant-time byte-string comparison.

    Delegates to :func:`hmac.compare_digest`, which accumulates a
    difference mask over the full input so the running time does not
    depend on the position of the first mismatch — and runs at C speed,
    which matters on the border router's per-packet MAC check.  Inputs
    of different lengths compare unequal (length is not secret).
    """
    return _hmac.compare_digest(a, b)


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR two equal-length byte strings."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} != {len(b)}")
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(
        len(a), "big"
    )
