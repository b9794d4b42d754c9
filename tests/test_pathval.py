"""Tests for the Section VIII-C path-validation extensions."""

import pytest
from hypothesis import given, strategies as st

from repro.core.autonomous_system import ApnaAutonomousSystem
from repro.core.config import ApnaConfig
from repro.core.rpki import RpkiDirectory, TrustAnchor
from repro.crypto.rng import DeterministicRng
from repro.netsim import Network
from repro.pathval import (
    AsPairwiseKeys,
    ExtendedAccountabilityAgent,
    OnPathShutoffRequest,
    OptSession,
    OptValidationError,
    PASSPORT_MAC_SIZE,
    PassportHeader,
    PassportStamper,
    PassportVerifier,
    packet_digest,
    pairwise_key,
    upgrade_to_onpath,
)
from repro.pathval.opt import opt_secret_of, session_key
from repro.wire.apna import ApnaHeader, ApnaPacket, Endpoint
from repro.wire.errors import ParseError


def build_chain(n_ases=3, *, seed=11, config=None):
    """A linear chain of ASes: AID 100 — 200 — 300 — ..."""
    rng = DeterministicRng(seed)
    network = Network()
    config = config or ApnaConfig()
    anchor = TrustAnchor(rng)
    rpki = RpkiDirectory(anchor.public_key, network.scheduler.clock())
    ases = [
        ApnaAutonomousSystem(100 * (i + 1), network, rpki, anchor, config=config, rng=rng)
        for i in range(n_ases)
    ]
    for left, right in zip(ases, ases[1:]):
        left.connect_to(right, latency=0.010)
    network.compute_routes()
    return network, rpki, ases


@pytest.fixture()
def chain():
    return build_chain()


@pytest.fixture()
def chain_env(chain):
    """Chain plus a sender on the first AS, a receiver on the last."""
    network, rpki, (as_a, as_t, as_b) = chain
    alice = as_a.attach_host("alice")
    bob = as_b.attach_host("bob")
    alice.bootstrap()
    bob.bootstrap()
    network.compute_routes()
    alice_owned = alice.acquire_ephid_direct()
    bob_owned = bob.acquire_ephid_direct()
    packet = alice.stack.make_packet(
        alice_owned.ephid, Endpoint(as_b.aid, bob_owned.ephid), b"unwanted"
    )
    return {
        "rpki": rpki,
        "as_a": as_a,
        "as_t": as_t,
        "as_b": as_b,
        "alice": alice,
        "bob": bob,
        "alice_owned": alice_owned,
        "bob_owned": bob_owned,
        "packet": packet,
    }


def some_packet(payload=b"payload", src_aid=100, dst_aid=200):
    header = ApnaHeader(src_aid, bytes(16), bytes(16), dst_aid)
    return ApnaPacket(header, payload)


class TestPairwiseKeys:
    def test_symmetric_derivation(self, chain):
        _network, rpki, (as_a, as_t, _as_b) = chain
        key_at = pairwise_key(as_a.aid, as_a.keys.exchange, rpki.lookup(as_t.aid))
        key_ta = pairwise_key(as_t.aid, as_t.keys.exchange, rpki.lookup(as_a.aid))
        assert key_at == key_ta

    def test_distinct_per_pair(self, chain):
        _network, rpki, (as_a, as_t, as_b) = chain
        keys = AsPairwiseKeys(as_a.aid, as_a.keys.exchange, rpki)
        assert keys.key_for(as_t.aid) != keys.key_for(as_b.aid)

    def test_cache(self, chain):
        _network, rpki, (as_a, as_t, _as_b) = chain
        keys = AsPairwiseKeys(as_a.aid, as_a.keys.exchange, rpki)
        first = keys.key_for(as_t.aid)
        assert len(keys) == 1
        assert keys.key_for(as_t.aid) is first  # cached object

    def test_no_self_key(self, chain):
        _network, rpki, (as_a, *_rest) = chain
        keys = AsPairwiseKeys(as_a.aid, as_a.keys.exchange, rpki)
        with pytest.raises(ValueError):
            keys.key_for(as_a.aid)


class TestPassportHeader:
    def test_roundtrip(self):
        header = PassportHeader(((200, b"\x01" * 8), (300, b"\x02" * 8)))
        parsed = PassportHeader.parse(header.pack())
        assert parsed == header
        assert parsed.aids == (200, 300)
        assert parsed.wire_size == 1 + 2 * 12

    def test_mac_for(self):
        header = PassportHeader(((200, b"\x01" * 8),))
        assert header.mac_for(200) == b"\x01" * 8
        assert header.mac_for(999) is None

    def test_rejects_bad_mac_size(self):
        with pytest.raises(ValueError):
            PassportHeader(((200, b"short"),))

    def test_rejects_bad_aid(self):
        with pytest.raises(ValueError):
            PassportHeader(((2**32, b"\x01" * 8),))

    def test_parse_empty(self):
        with pytest.raises(ParseError):
            PassportHeader.parse(b"")

    def test_parse_truncated(self):
        header = PassportHeader(((200, b"\x01" * 8),))
        with pytest.raises(ParseError):
            PassportHeader.parse(header.pack()[:-1])

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**32 - 1),
                st.binary(min_size=8, max_size=8),
            ),
            max_size=20,
        )
    )
    def test_roundtrip_property(self, entries):
        header = PassportHeader(tuple(entries))
        assert PassportHeader.parse(header.pack()) == header


class TestPacketDigest:
    def test_binds_payload(self):
        assert packet_digest(some_packet(b"a")) != packet_digest(some_packet(b"b"))

    def test_binds_header(self):
        assert packet_digest(some_packet(dst_aid=200)) != packet_digest(
            some_packet(dst_aid=300)
        )

    def test_deterministic(self):
        assert packet_digest(some_packet()) == packet_digest(some_packet())


class TestPassportStamping:
    @pytest.fixture()
    def stamp_env(self, chain):
        _network, rpki, (as_a, as_t, as_b) = chain
        stamper = PassportStamper(
            AsPairwiseKeys(as_a.aid, as_a.keys.exchange, rpki)
        )
        verifier_t = PassportVerifier(
            AsPairwiseKeys(as_t.aid, as_t.keys.exchange, rpki)
        )
        verifier_b = PassportVerifier(
            AsPairwiseKeys(as_b.aid, as_b.keys.exchange, rpki)
        )
        return stamper, verifier_t, verifier_b, (as_a, as_t, as_b)

    def test_every_on_path_as_verifies(self, stamp_env):
        stamper, verifier_t, verifier_b, (as_a, as_t, as_b) = stamp_env
        packet = some_packet(src_aid=as_a.aid, dst_aid=as_b.aid)
        passport = stamper.stamp(packet, [as_t.aid, as_b.aid])
        assert verifier_t.verify(packet, passport)
        assert verifier_b.verify(packet, passport)
        assert verifier_t.verified == 1
        assert stamper.stamped_packets == 1

    def test_tampered_payload_fails(self, stamp_env):
        stamper, verifier_t, _verifier_b, (as_a, as_t, as_b) = stamp_env
        packet = some_packet(src_aid=as_a.aid, dst_aid=as_b.aid)
        passport = stamper.stamp(packet, [as_t.aid])
        tampered = ApnaPacket(packet.header, b"changed")
        assert not verifier_t.verify(tampered, passport)
        assert verifier_t.invalid == 1

    def test_missing_stamp_fails(self, stamp_env):
        stamper, _verifier_t, verifier_b, (as_a, as_t, as_b) = stamp_env
        packet = some_packet(src_aid=as_a.aid, dst_aid=as_b.aid)
        passport = stamper.stamp(packet, [as_t.aid])  # not stamped for B
        assert not verifier_b.verify(packet, passport)
        assert verifier_b.missing == 1

    def test_stamp_not_transplantable(self, stamp_env):
        # A stamp for AS T does not verify at AS B even if relabeled.
        stamper, _verifier_t, verifier_b, (as_a, as_t, as_b) = stamp_env
        packet = some_packet(src_aid=as_a.aid, dst_aid=as_b.aid)
        passport = stamper.stamp(packet, [as_t.aid])
        forged = PassportHeader(((as_b.aid, passport.entries[0][1]),))
        assert not verifier_b.verify(packet, forged)

    def test_stamps_differ_per_as(self, stamp_env):
        stamper, _vt, _vb, (as_a, as_t, as_b) = stamp_env
        packet = some_packet(src_aid=as_a.aid, dst_aid=as_b.aid)
        passport = stamper.stamp(packet, [as_t.aid, as_b.aid])
        assert passport.mac_for(as_t.aid) != passport.mac_for(as_b.aid)


class TestOpt:
    def test_endpoints_derive_same_keys(self, chain):
        _network, _rpki, ases = chain
        masters = [a.keys.secret.master for a in ases]
        sid = bytes(range(16))
        source_view = OptSession.for_endpoints(sid, masters)
        dest_view = OptSession.for_endpoints(sid, masters)
        packet = some_packet()
        assert source_view.traverse(packet) == dest_view.traverse(packet)

    def test_validate_accepts_honest_path(self, chain):
        _network, _rpki, ases = chain
        session = OptSession.for_endpoints(
            bytes(16), [a.keys.secret.master for a in ases]
        )
        packet = some_packet()
        session.validate(packet, session.traverse(packet))
        assert session.validated == 1

    def test_validate_rejects_tampered_packet(self, chain):
        _network, _rpki, ases = chain
        session = OptSession.for_endpoints(
            bytes(16), [a.keys.secret.master for a in ases]
        )
        pvf = session.traverse(some_packet(b"original"))
        with pytest.raises(OptValidationError):
            session.validate(some_packet(b"tampered"), pvf)
        assert session.failed == 1

    def test_validate_rejects_skipped_hop(self, chain):
        _network, _rpki, ases = chain
        masters = [a.keys.secret.master for a in ases]
        full = OptSession.for_endpoints(bytes(16), masters)
        skipped = OptSession.for_endpoints(bytes(16), masters[:-1])
        packet = some_packet()
        with pytest.raises(OptValidationError):
            full.validate(packet, skipped.traverse(packet))

    def test_validate_rejects_reordered_path(self, chain):
        _network, _rpki, ases = chain
        masters = [a.keys.secret.master for a in ases]
        honest = OptSession.for_endpoints(bytes(16), masters)
        reordered = OptSession.for_endpoints(bytes(16), masters[::-1])
        packet = some_packet()
        with pytest.raises(OptValidationError):
            honest.validate(packet, reordered.traverse(packet))

    def test_hop_update_matches_traverse(self, chain):
        # The router-side primitive composes into exactly what the
        # endpoint recomputes.
        _network, _rpki, ases = chain
        masters = [a.keys.secret.master for a in ases]
        sid = bytes(16)
        session = OptSession.for_endpoints(sid, masters)
        packet = some_packet()
        pvf = session.initial_pvf(packet)
        for master in masters[1:]:
            key = session_key(opt_secret_of(master), sid)
            pvf = OptSession.update_pvf(key, pvf, packet)
        session.validate(packet, pvf)

    def test_session_keys_differ_per_session(self, chain):
        _network, _rpki, (as_a, *_rest) = chain
        secret = opt_secret_of(as_a.keys.secret.master)
        assert session_key(secret, bytes(16)) != session_key(secret, b"\x01" * 16)

    def test_bad_session_id_size(self):
        with pytest.raises(ValueError):
            OptSession(b"short", [b"\x00" * 16])

    def test_needs_at_least_one_as(self):
        with pytest.raises(ValueError):
            OptSession(bytes(16), [])


class TestOnPathShutoffRequest:
    def test_pack_parse_roundtrip(self, chain_env):
        as_t, packet = chain_env["as_t"], chain_env["packet"]
        request = OnPathShutoffRequest.build(
            packet.to_wire(), as_t.aid, b"\x05" * 8, as_t.keys.signing
        )
        parsed = OnPathShutoffRequest.parse(request.pack())
        assert parsed.requester_aid == request.requester_aid
        assert parsed.stamp == request.stamp
        assert parsed.signature == request.signature
        assert parsed.packet == request.packet

    def test_rejects_bad_stamp_size(self):
        with pytest.raises(ValueError):
            OnPathShutoffRequest(b"", 200, b"short")

    def test_parse_truncated(self):
        with pytest.raises(ValueError):
            OnPathShutoffRequest.parse(b"tiny")


class TestExtendedShutoff:
    @pytest.fixture()
    def onpath_env(self, chain_env):
        as_a = chain_env["as_a"]
        as_t = chain_env["as_t"]
        agent = upgrade_to_onpath(as_a)
        # AS A's border router stamps the packet toward its path.
        stamper = PassportStamper(
            AsPairwiseKeys(as_a.aid, as_a.keys.exchange, chain_env["rpki"])
        )
        packet = chain_env["packet"]
        passport = stamper.stamp(packet, [as_t.aid, chain_env["as_b"].aid])
        chain_env.update(agent=agent, passport=passport)
        return chain_env

    def _request_from_transit(self, env, *, stamp=None, signer=None, aid=None):
        as_t = env["as_t"]
        return OnPathShutoffRequest.build(
            env["packet"].to_wire(),
            aid if aid is not None else as_t.aid,
            stamp if stamp is not None else env["passport"].mac_for(as_t.aid),
            signer if signer is not None else as_t.keys.signing,
        )

    def test_on_path_as_can_shutoff(self, onpath_env):
        response = onpath_env["agent"].handle_onpath_shutoff(
            self._request_from_transit(onpath_env)
        )
        assert response.accepted
        assert onpath_env["agent"].onpath_accepted == 1
        assert onpath_env["as_a"].revocations.contains(
            onpath_env["alice_owned"].ephid
        )

    def test_recipient_path_still_works(self, onpath_env):
        # The extended agent inherits the base Fig. 5 behaviour.
        bob = onpath_env["bob"]
        request = bob.stack.build_shutoff_request(
            onpath_env["packet"].to_wire(), onpath_env["bob_owned"]
        )
        assert onpath_env["agent"].handle_shutoff(request).accepted

    def test_wrong_stamp_rejected(self, onpath_env):
        response = onpath_env["agent"].handle_onpath_shutoff(
            self._request_from_transit(onpath_env, stamp=b"\x00" * 8)
        )
        assert not response.accepted
        assert response.reason == "stamp-invalid"

    def test_bad_signature_rejected(self, onpath_env):
        request = self._request_from_transit(onpath_env)
        request.signature = bytes(64)
        response = onpath_env["agent"].handle_onpath_shutoff(request)
        assert not response.accepted
        assert response.reason == "requester-signature-invalid"

    def test_unknown_as_rejected(self, onpath_env):
        response = onpath_env["agent"].handle_onpath_shutoff(
            self._request_from_transit(onpath_env, aid=424242)
        )
        assert not response.accepted
        assert response.reason == "requester-unknown-as"

    def test_self_request_rejected(self, onpath_env):
        as_a = onpath_env["as_a"]
        response = onpath_env["agent"].handle_onpath_shutoff(
            self._request_from_transit(
                onpath_env, aid=as_a.aid, signer=as_a.keys.signing
            )
        )
        assert not response.accepted
        assert response.reason == "requester-is-self"

    def test_foreign_packet_rejected(self, onpath_env):
        as_t, as_b = onpath_env["as_t"], onpath_env["as_b"]
        foreign = some_packet(src_aid=as_b.aid, dst_aid=as_t.aid)
        request = OnPathShutoffRequest.build(
            foreign.to_wire(), as_t.aid, b"\x00" * 8, as_t.keys.signing
        )
        response = onpath_env["agent"].handle_onpath_shutoff(request)
        assert not response.accepted
        assert response.reason == "not-our-source"

    def test_rogue_packet_rejected(self, onpath_env):
        # A transit AS cannot fabricate customer traffic: the kHA MAC
        # check runs before the stamp check.
        env = onpath_env
        rogue = some_packet(src_aid=env["as_a"].aid, dst_aid=env["as_b"].aid)
        stamper = PassportStamper(
            AsPairwiseKeys(env["as_a"].aid, env["as_a"].keys.exchange, env["rpki"])
        )
        stamp = stamper.restamp_mac(rogue, env["as_t"].aid)
        request = OnPathShutoffRequest.build(
            rogue.to_wire(), env["as_t"].aid, stamp, env["as_t"].keys.signing
        )
        response = env["agent"].handle_onpath_shutoff(request)
        assert not response.accepted
        assert response.reason == "src-ephid-forged"

    def test_short_packet_rejected(self, onpath_env):
        as_t = onpath_env["as_t"]
        request = OnPathShutoffRequest.build(
            b"tiny", as_t.aid, b"\x00" * 8, as_t.keys.signing
        )
        response = onpath_env["agent"].handle_onpath_shutoff(request)
        assert not response.accepted
        assert response.reason == "packet-too-short"

    def test_upgrade_swaps_in_place(self, chain_env):
        as_a = chain_env["as_a"]
        agent = upgrade_to_onpath(as_a)
        assert as_a.aa is agent
        assert isinstance(as_a.aa, ExtendedAccountabilityAgent)
