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

from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core import framing
from repro.core import verdict as verdict_module
from repro.core.certs import AsCertificate, CertError, EphIdCertificate
from repro.core.ephid import EphIdCodec
from repro.core.errors import ApnaError, EphIdError, RevokedError, UnknownHostError
from repro.core.hostdb import FIRST_HOST_HID, HostRecord
from repro.core.keys import HostAsKeys
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
from repro.sharding.plan import ShardPlan
from repro.state import (
    ColumnarHostDatabase,
    ColumnarRevocationList,
    ColumnarShardView,
    ShardSnapshot,
    build_shard_snapshot,
    columns as columns_module,
    view as view_module,
)
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


def _one_damaged_byte(data, blob: bytes) -> bytes:
    """``blob`` with one byte flipped, dropped, or one inserted before it."""
    at = data.draw(st.integers(0, len(blob) - 1))
    patch = data.draw(
        st.one_of(
            st.integers(1, 255).map(lambda mask: bytes([blob[at] ^ mask])),
            st.just(b""),  # the byte dropped
            st.just(b"\x00" + blob[at : at + 1]),  # one inserted before it
        )
    )
    return blob[:at] + patch + blob[at + 1 :]


# -- the shard wire: every decoder refuses, or reads exactly what was sent ---

_BURST_HEAD_SIZE = 15  # kind, now, burst seq, count (the count is its last two bytes)

_wire_verdicts = st.one_of(
    st.sampled_from(list(verdict_module.DropReason)).map(
        lambda reason: verdict_module.Verdict(verdict_module.Action.DROP, reason=reason)
    ),
    st.integers(0, 2**32 - 1).map(
        lambda aid: verdict_module.Verdict(
            verdict_module.Action.FORWARD_INTER, next_aid=aid
        )
    ),
    st.integers(0, 2**32 - 1).map(
        lambda hid: verdict_module.Verdict(verdict_module.Action.FORWARD_INTRA, hid=hid)
    ),
)


def _reencode_register_host(decoded) -> bytes:
    hid, owned, control, packet_mac = decoded
    return shard_wire.encode_register_host(
        hid, owned=owned, control=control, packet_mac=packet_mac
    )


@given(
    burst=st.lists(
        st.tuples(st.binary(max_size=2000), st.sampled_from((0, 1))), max_size=6
    ),
    now=st.floats(allow_nan=False),
    seq=st.integers(0, 2**32 - 1),
    verdicts=st.lists(_wire_verdicts, max_size=6),
    hid=st.integers(0, 2**32 - 1),
    owned=st.booleans(),
    counters=st.lists(
        st.integers(0, 2**64 - 1),
        min_size=len(shard_wire.STATS_FIELDS),
        max_size=len(shard_wire.STATS_FIELDS),
    ),
    data=st.data(),
)
@settings(max_examples=100, deadline=None)
def test_shard_wire_decoders_round_trip_or_refuse(
    burst, now, seq, verdicts, hid, owned, counters, data
):
    """A burst of frames of any length (empty ones included) round-trips
    byte-exact through its direction / length / blob columns; and damage
    anywhere in it — or in a verdict reply, a control frame, a stats
    reply or a resync ack — is refused with ``ValueError`` (never a raw
    ``struct.error`` or ``IndexError``), or reads as a message that
    re-encodes to the very bytes received: nothing is half-understood."""
    frames = [frame for frame, _ in burst]
    directions = [direction for _, direction in burst]
    msg = shard_wire.encode_burst(now, seq, frames, directions)
    assert shard_wire.decode_burst(msg) == (now, seq, frames, directions)
    assert len(msg) == _BURST_HEAD_SIZE + 5 * len(frames) + sum(map(len, frames))

    def refused_or_exact(decoder, reencode, damaged):
        try:
            decoded = decoder(damaged)
        except ValueError:
            return True
        assert reencode(decoded) == damaged
        return False

    def burst_again(decoded):
        return shard_wire.encode_burst(*decoded)

    refused_or_exact(shard_wire.decode_burst, burst_again, _one_damaged_byte(data, msg))
    # A count that lies about the columns behind it.
    count = data.draw(st.integers(0, 0xFFFF).filter(lambda n: n != len(frames)))
    lying = msg[:13] + count.to_bytes(2, "big") + msg[_BURST_HEAD_SIZE:]
    refused_or_exact(shard_wire.decode_burst, burst_again, lying)
    if frames:
        k = data.draw(st.integers(0, len(frames) - 1))
        # A direction no router knows, at any position.
        at = _BURST_HEAD_SIZE + k
        bad = msg[:at] + bytes([data.draw(st.integers(2, 255))]) + msg[at + 1 :]
        with pytest.raises(ValueError):
            shard_wire.decode_burst(bad)
        # A length that overruns or undershoots the blob.
        at = _BURST_HEAD_SIZE + len(frames) + 4 * k
        length = data.draw(
            st.integers(0, 2**32 - 1).filter(lambda n: n != len(frames[k]))
        )
        bad = msg[:at] + length.to_bytes(4, "big") + msg[at + 4 :]
        with pytest.raises(ValueError):
            shard_wire.decode_burst(bad)
        # The length column cut short (the blob slides into its place).
        end = _BURST_HEAD_SIZE + 5 * len(frames)
        cut = data.draw(st.integers(1, 4 * len(frames)))
        refused_or_exact(
            shard_wire.decode_burst, burst_again, msg[: end - cut] + msg[end:]
        )

    # The same one byte of damage over every other decoder of the pipe.
    key = bytes(range(16))
    for valid, decoder, reencode in (
        (
            shard_wire.encode_verdicts(seq, verdicts),
            shard_wire.decode_verdicts,
            lambda decoded: shard_wire.encode_verdicts(*decoded),
        ),
        (
            shard_wire.encode_revoke_ephid(key, now),
            shard_wire.decode_revoke_ephid,
            lambda decoded: shard_wire.encode_revoke_ephid(*decoded),
        ),
        (
            shard_wire.encode_revoke_hid(hid),
            shard_wire.decode_revoke_hid,
            shard_wire.encode_revoke_hid,
        ),
        (
            shard_wire.encode_register_host(
                hid, owned=owned, control=key, packet_mac=key[::-1]
            ),
            shard_wire.decode_register_host,
            _reencode_register_host,
        ),
        (
            shard_wire.encode_stats(dict(zip(shard_wire.STATS_FIELDS, counters))),
            shard_wire.decode_stats,
            shard_wire.encode_stats,
        ),
        (
            shard_wire.encode_resync_ack(hid, seq),
            shard_wire.decode_resync_ack,
            lambda decoded: shard_wire.encode_resync_ack(*decoded),
        ),
    ):
        assert reencode(decoder(valid)) == valid
        refused_or_exact(decoder, reencode, _one_damaged_byte(data, valid))
        # Another kind's frame, or a frame cut or padded, is never read.
        for wrong in (b"", valid[:-1], valid + b"\x00", bytes([valid[0] ^ 1]) + valid[1:]):
            assert refused_or_exact(decoder, reencode, wrong), wrong


# -- the shard snapshot: one codec, one loader on two platform arms ---------

_H = FIRST_HOST_HID
#: Service HIDs, a stripe of host rows every plan below splits into
#: in-plan and out-of-plan ones, and rows far past the end of it.
_snapshot_hids = st.one_of(
    st.integers(1, 8), st.integers(_H, _H + 24), st.integers(_H + 200, _H + 230)
)


def _keys(hid: int) -> HostAsKeys:
    return HostAsKeys(control=b"\x0c" * 16, packet_mac=hid.to_bytes(4, "big") * 4)


def _loaded(snap, shard, plan, *, numpy: bool) -> ColumnarShardView:
    """``snap`` in a fresh view, through the numpy loader as installed or
    through the stdlib loop a numpy-less host runs."""
    view = ColumnarShardView(shard=shard, nshards=plan.nshards, block=plan.block)
    with mock.patch.object(view_module, "_np", view_module._np if numpy else None):
        view.load_snapshot(snap)
    return view


def _answers(snap, shard, plan, hids, *, numpy: bool):
    """What a view loaded from ``snap`` says about ``hids`` — or that the
    loader refused it."""
    try:
        view = _loaded(snap, shard, plan, numpy=numpy)
    except ValueError as exc:
        return str(exc)
    answers = {"owned_count": view.owned_count}
    for hid in hids:
        try:
            key = view.packet_mac_key(hid)
        except (UnknownHostError, RevokedError) as exc:
            key = type(exc)
        answers[hid] = (view.is_valid(hid), key)
    return answers


def _with_neighbours(hids):
    return sorted({hid + step for hid in hids for step in (-1, 0, 1) if hid + step > 0})


@given(
    owned=st.dictionaries(_snapshot_hids, st.booleans(), max_size=12),
    live=st.sets(_snapshot_hids, max_size=12),
    nshards=st.integers(1, 3),
    block=st.sampled_from((1, 4)),
    data=st.data(),
)
@settings(max_examples=100, deadline=None)
def test_shard_snapshot_loads_alike_with_and_without_numpy(
    owned, live, nshards, block, data
):
    """``encode`` -> ``decode`` -> ``load_snapshot`` answers ``is_valid``,
    ``packet_mac_key`` and ``owned_count`` as a plain dict model does,
    whether or not numpy is there to scatter the columns; the columns a
    ``ColumnarHostDatabase`` exports are the same bytes on both arms; and
    one flipped, dropped or inserted byte is refused by ``decode``, or
    refused by both loaders, or loads to the same answers on both."""
    plan = ShardPlan(nshards, block=block)
    shard = data.draw(st.integers(0, nshards - 1))
    rows = [
        (hid, _keys(hid).control, _keys(hid).packet_mac, revoked)
        for hid, revoked in owned.items()
    ]
    revoked_ephids = [(bytes([i]) * 16, 50.0 + i) for i in range(2)]
    blob = ShardSnapshot.from_rows(rows, sorted(live), revoked_ephids).encode()
    snap = ShardSnapshot.decode(blob)
    probes = _with_neighbours(set(owned) | live)
    model = {"owned_count": len(owned)}
    for hid in probes:
        if hid not in owned:
            key = UnknownHostError
        else:
            key = RevokedError if owned[hid] else _keys(hid).packet_mac
        model[hid] = (hid in live, key)
    for numpy in (True, False):
        assert _answers(snap, shard, plan, probes, numpy=numpy) == model

    # The exporting side: the same population in the authoritative columns.
    hostdb = ColumnarHostDatabase()
    for hid, revoked in owned.items():
        hostdb.register(HostRecord(hid, _keys(hid), revoked=revoked))
    revocations = ColumnarRevocationList()
    for ephid, exp_time in revoked_ephids:
        revocations.add(ephid, exp_time)
    exported = build_shard_snapshot(hostdb, revocations, plan, shard).encode()
    with mock.patch.object(columns_module, "_np", None):
        assert build_shard_snapshot(hostdb, revocations, plan, shard).encode() == exported

    # One byte of damage.  An HID may move, but not so far that loading
    # it would allocate columns for a billion rows.
    damaged = _one_damaged_byte(data, blob)
    try:
        snap = ShardSnapshot.decode(damaged)
    except ValueError:
        return
    named = [hid for hid, *_ in snap.iter_owned()] + list(snap.iter_live())
    assume(max(named, default=0) < _H + (1 << 16))
    probes = _with_neighbours(named)
    assert _answers(snap, shard, plan, probes, numpy=True) == _answers(
        snap, shard, plan, probes, numpy=False
    )


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
