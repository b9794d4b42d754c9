"""Payload framing for APNA packets.

The paper specifies the network header (Fig. 7) but not how a receiving
host distinguishes connection-establishment packets from data or control
traffic.  This reproduction prefixes every APNA payload with a one-byte
payload type; everything after the byte is type-specific (and encrypted
whenever the paper requires it).
"""

from __future__ import annotations

from .errors import ApnaError

PT_DATA = 0x00  # session-sealed transport segment
PT_CONN_REQUEST = 0x01  # ConnectionRequest (cert + sealed 0-RTT data)
PT_CONN_ACCEPT = 0x02  # ConnectionAccept (serving cert + sealed data)
PT_CONTROL_REQ = 0x03  # sealed EphID request (host -> MS)
PT_CONTROL_REP = 0x04  # sealed EphID reply (MS -> host)
PT_SHUTOFF = 0x05  # ShutoffRequest (recipient -> AA)
PT_SHUTOFF_RESP = 0x06  # ShutoffResponse (AA -> recipient)
PT_ICMP = 0x07  # IcmpMessage (plaintext, per Section VIII-B)

_NAMES = {
    PT_DATA: "data",
    PT_CONN_REQUEST: "conn-request",
    PT_CONN_ACCEPT: "conn-accept",
    PT_CONTROL_REQ: "control-request",
    PT_CONTROL_REP: "control-reply",
    PT_SHUTOFF: "shutoff",
    PT_SHUTOFF_RESP: "shutoff-response",
    PT_ICMP: "icmp",
}


def frame(payload_type: int, body: bytes) -> bytes:
    """Prefix ``body`` with its payload type."""
    if payload_type not in _NAMES:
        raise ApnaError(f"unknown payload type {payload_type}")
    return bytes([payload_type]) + body


def unframe(payload: bytes) -> tuple[int, bytes]:
    """Split a payload into (type, body)."""
    if not payload:
        raise ApnaError("empty APNA payload")
    payload_type = payload[0]
    if payload_type not in _NAMES:
        raise ApnaError(f"unknown payload type {payload_type}")
    return payload_type, payload[1:]


def type_name(payload_type: int) -> str:
    return _NAMES.get(payload_type, f"pt-{payload_type}")
