"""Adversarial-input robustness for every wire-facing parser.

Border routers, accountability agents and hosts all parse bytes an
adversary controls (Section II's adversary sees and can inject arbitrary
traffic), so every parser must fail *closed* with its module's documented
error type — never leak a raw ``struct.error``, ``IndexError`` or
``UnicodeDecodeError`` that could crash a service loop.

Each property feeds arbitrary bytes (plus mutated valid messages, which
probe deeper than random noise) and accepts exactly two outcomes: a
successful parse, or the documented exception.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import framing
from repro.core import verdict as verdict_module
from repro.core.certs import AsCertificate, CertError, EphIdCertificate
from repro.core.ephid import EphIdCodec
from repro.core.errors import ApnaError, EphIdError
from repro.core.messages import (
    BootstrapReply,
    BootstrapRequest,
    EphIdReply,
    EphIdRequest,
    IdInfo,
    InfraUpdate,
    MessageError,
    RevocationPush,
    ShutoffRequest,
    ShutoffResponse,
)
from repro.core.session import ConnectionAccept, ConnectionRequest
from repro.pathval.passport import PassportHeader
from repro.pathval.shutoff_ext import OnPathShutoffRequest
from repro.sharding import wire as shard_wire
from repro.tls.ca import DomainCertError, DomainCertificate
from repro.tls.handshake import Attestation, AuthRequest, TlsAuthError
from repro.wire.apna import ApnaHeader, ApnaPacket
from repro.wire.errors import WireError
from repro.wire.gre import GreHeader
from repro.wire.icmp import IcmpMessage
from repro.wire.ipv4 import Ipv4Header
from repro.wire.transport import TransportHeader, split_segment

junk = st.binary(min_size=0, max_size=256)

#: (parser callable, acceptable exception types)
PARSERS = [
    (ApnaHeader.parse, (WireError,)),
    (lambda data: ApnaHeader.parse(data, with_nonce=True), (WireError,)),
    (ApnaPacket.from_wire, (WireError,)),
    (IcmpMessage.parse, (WireError,)),
    (lambda data: Ipv4Header.parse(data), (WireError,)),
    (GreHeader.parse, (WireError,)),
    (TransportHeader.parse, (WireError,)),
    (split_segment, (WireError,)),
    (EphIdCertificate.parse, (CertError,)),
    (AsCertificate.parse, (CertError,)),
    (ConnectionRequest.parse, (CertError,)),
    (ConnectionAccept.parse, (CertError,)),
    (framing.unframe, (ApnaError,)),
    (BootstrapRequest.parse, (MessageError,)),
    (BootstrapReply.parse, (MessageError, CertError)),
    (IdInfo.parse, (MessageError,)),
    (InfraUpdate.parse, (MessageError,)),
    (EphIdRequest.parse, (MessageError,)),
    (EphIdReply.parse, (MessageError, CertError)),
    (ShutoffRequest.parse, (MessageError, CertError)),
    (ShutoffResponse.parse, (MessageError,)),
    (RevocationPush.parse, (MessageError,)),
    (PassportHeader.parse, (WireError, ValueError)),
    (OnPathShutoffRequest.parse, (ValueError,)),
    (DomainCertificate.parse, (DomainCertError,)),
    (AuthRequest.parse, (TlsAuthError,)),
    (Attestation.parse, (TlsAuthError,)),
]

PARSER_IDS = [
    getattr(parser, "__qualname__", repr(parser)).replace("<locals>.", "")
    for parser, _errors in PARSERS
]


@pytest.mark.parametrize(("parser", "errors"), PARSERS, ids=PARSER_IDS)
@given(data=junk)
@settings(max_examples=60, deadline=None)
def test_arbitrary_bytes_fail_closed(parser, errors, data):
    try:
        parser(data)
    except errors:
        pass  # the documented failure mode


_BURST = shard_wire.encode_burst(
    1.0, 3, [b"a" * 48, b"b" * 60], [shard_wire.EGRESS, shard_wire.INGRESS]
)
#: The head of a one-record verdict reply.
_VERDICTS_HEAD = shard_wire.encode_verdicts(3, [])[:-2] + b"\x00\x01"


@pytest.mark.parametrize(
    ("decoder", "frame"),
    [
        (shard_wire.decode_burst, _BURST[:-20]),
        (shard_wire.decode_burst, _BURST + b"junk"),
        (shard_wire.decode_verdicts, shard_wire.encode_resync_ack(3, 4)),
        (shard_wire.decode_verdicts, shard_wire.encode_stats({})),
        (shard_wire.decode_burst, shard_wire.encode_burst(1.0, 3, [b"a" * 48], [2])),
        (shard_wire.decode_verdicts, _VERDICTS_HEAD + bytes([3, 0xFF, 0]) + bytes(8)),
        (shard_wire.decode_verdicts, _VERDICTS_HEAD + bytes([2, 12, 0]) + bytes(8)),
        (shard_wire.decode_verdicts, _VERDICTS_HEAD + bytes([2, 4, 4]) + bytes(8)),
    ],
    ids=[
        "burst-truncated", "burst-trailing", "verdicts-ack", "verdicts-stats",
        "burst-direction", "verdict-action", "verdict-reason", "verdict-flags",
    ],
)
def test_shard_frame_decoders_check_kind_and_length(decoder, frame):
    """A short final frame, trailing bytes, another kind's frame read as
    a verdict reply, a direction byte that is neither egress nor
    ingress, or a verdict record no encoder writes (action, reason or
    flag bit out of range) must fail the shard, not decode to something
    plausible (a wrong-kind reply would count as a stale one) — and the
    bad record must not be interned on the way out."""
    with pytest.raises(ValueError):
        decoder(frame)
    assert frame[-11:] not in verdict_module._VERDICT_TABLE


class TestMutatedValidInputs:
    """Bit-flipped valid messages: deeper coverage than pure noise."""

    @staticmethod
    def _mutations(valid: bytes):
        for i in range(0, len(valid), max(1, len(valid) // 24)):
            yield valid[:i] + bytes([valid[i] ^ 0xFF]) + valid[i + 1 :]
        for cut in range(0, len(valid), max(1, len(valid) // 8)):
            yield valid[:cut]
        yield valid + b"\x00" * 7

    def _check(self, parser, errors, valid: bytes):
        parser(valid)  # sanity: the unmutated message parses
        for mutated in self._mutations(valid):
            try:
                parser(mutated)
            except errors:
                pass

    def test_apna_packet(self):
        packet = ApnaPacket(ApnaHeader(1, bytes(16), bytes(16), 2), b"payload")
        self._check(ApnaPacket.from_wire, (WireError,), packet.to_wire())

    def test_icmp(self):
        message = IcmpMessage(8, identifier=7, sequence=3, payload=b"ping")
        self._check(IcmpMessage.parse, (WireError,), message.pack())

    def test_transport(self):
        header = TransportHeader(80, 443, seq=9)
        self._check(TransportHeader.parse, (WireError,), header.pack())

    def test_passport(self):
        passport = PassportHeader(((100, b"\x01" * 8), (200, b"\x02" * 8)))
        self._check(
            PassportHeader.parse, (WireError, ValueError), passport.pack()
        )

    def test_domain_certificate(self, world):
        from repro.core.keys import SigningKeyPair
        from repro.tls.ca import WebCa

        ca = WebCa(world.rng)
        cert = ca.issue("shop.example", SigningKeyPair.generate(world.rng).public)
        self._check(DomainCertificate.parse, (DomainCertError,), cert.pack())

    def test_ephid_certificate(self, world):
        alice = world.hosts["alice"]
        owned = alice.acquire_ephid_direct()
        self._check(EphIdCertificate.parse, (CertError,), owned.cert.pack())

    def test_onpath_shutoff_request(self, world):
        from repro.core.keys import SigningKeyPair

        signer = SigningKeyPair.generate(world.rng)
        request = OnPathShutoffRequest.build(b"\x00" * 64, 200, b"\x01" * 8, signer)
        self._check(OnPathShutoffRequest.parse, (ValueError,), request.pack())


class TestEphIdCodecRobustness:
    @given(data=st.binary(min_size=16, max_size=16))
    @settings(max_examples=80, deadline=None)
    def test_random_tokens_rejected(self, data):
        codec = EphIdCodec(b"\x01" * 16, b"\x02" * 16)
        # 2^-32 chance of a random MAC passing; treat success as failure.
        with pytest.raises(EphIdError):
            codec.open(data)

    def test_wrong_length_rejected(self):
        codec = EphIdCodec(b"\x01" * 16, b"\x02" * 16)
        with pytest.raises(EphIdError):
            codec.open(b"short")
        with pytest.raises(EphIdError):
            codec.open(b"\x00" * 32)
