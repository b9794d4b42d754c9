"""Tests for per-packet EphID demultiplexing (VIII-A, reference [23])."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.onetime import (
    DEFAULT_WINDOW,
    DemuxError,
    FlowTagger,
    TagDemuxer,
    TAG_SIZE,
    derive_demux_key,
    flow_tag,
    pack_tagged,
    unpack_tagged,
)
from repro.core.session import Session


@pytest.fixture()
def session_pair(world):
    alice = world.hosts["alice"]
    bob = world.hosts["bob"]
    alice_owned = alice.acquire_ephid_direct()
    bob_owned = bob.acquire_ephid_direct()
    sender = Session(alice_owned, bob_owned.cert)
    receiver = Session(bob_owned, alice_owned.cert)
    return world, alice, bob, sender, receiver


class TestTagDerivation:
    def test_both_ends_derive_same_tags(self, session_pair):
        _w, _a, _b, sender, receiver = session_pair
        assert derive_demux_key(sender) == derive_demux_key(receiver)
        key = derive_demux_key(sender)
        assert flow_tag(key, 0) == flow_tag(key, 0)
        assert flow_tag(key, 0) != flow_tag(key, 1)

    def test_tagger_matches_flow_tag(self, session_pair):
        _w, _a, _b, sender, _receiver = session_pair
        tagger = FlowTagger(sender)
        key = derive_demux_key(sender)
        assert [tagger.next_tag() for _ in range(5)] == [
            flow_tag(key, i) for i in range(5)
        ]
        assert tagger.issued == 5

    def test_tags_unique_across_sessions(self, session_pair):
        world, alice, bob, sender, _receiver = session_pair
        other = Session(
            alice.acquire_ephid_direct(), bob.acquire_ephid_direct().cert
        )
        tags_one = {FlowTagger(sender).next_tag()}
        tags_two = {FlowTagger(other).next_tag()}
        assert tags_one.isdisjoint(tags_two)


class TestTagDemuxer:
    def test_in_order_stream(self, session_pair):
        _w, _a, _b, sender, receiver = session_pair
        demux = TagDemuxer()
        demux.register(receiver)
        tagger = FlowTagger(sender)
        for _ in range(3 * DEFAULT_WINDOW):  # far past the initial window
            assert demux.match(tagger.next_tag()) is receiver
        assert demux.matched == 3 * DEFAULT_WINDOW

    def test_reuse_rejected(self, session_pair):
        _w, _a, _b, sender, receiver = session_pair
        demux = TagDemuxer()
        demux.register(receiver)
        tag = FlowTagger(sender).next_tag()
        demux.match(tag)
        with pytest.raises(DemuxError):
            demux.match(tag)

    def test_unknown_tag_rejected(self, session_pair):
        _w, _a, _b, _sender, receiver = session_pair
        demux = TagDemuxer()
        demux.register(receiver)
        with pytest.raises(DemuxError):
            demux.match(b"\x00" * TAG_SIZE)
        assert demux.unmatched == 1

    def test_reordering_within_window(self, session_pair):
        _w, _a, _b, sender, receiver = session_pair
        demux = TagDemuxer(window=8)
        demux.register(receiver)
        tagger = FlowTagger(sender)
        tags = [tagger.next_tag() for _ in range(8)]
        for tag in reversed(tags):  # fully reversed burst
            assert demux.match(tag) is receiver

    def test_too_old_tag_rejected(self, session_pair):
        _w, _a, _b, sender, receiver = session_pair
        demux = TagDemuxer(window=4)
        demux.register(receiver)
        tagger = FlowTagger(sender)
        tags = [tagger.next_tag() for _ in range(20)]
        for index in (1, 2, 3, 7):  # advance; the floor moves past 0
            demux.match(tags[index])
        with pytest.raises(DemuxError):
            demux.match(tags[0])
        # ...but tags still inside the trailing window remain matchable.
        assert demux.match(tags[5]) is receiver

    def test_jump_beyond_horizon_rejected(self, session_pair):
        # A tag further ahead than the precomputed window is unknown —
        # the window extends on delivery, like any transport window.
        _w, _a, _b, sender, receiver = session_pair
        demux = TagDemuxer(window=4)
        demux.register(receiver)
        tagger = FlowTagger(sender)
        tags = [tagger.next_tag() for _ in range(20)]
        with pytest.raises(DemuxError):
            demux.match(tags[15])

    def test_two_sessions_demux_independently(self, session_pair):
        world, alice, bob, sender, receiver = session_pair
        other_local = bob.acquire_ephid_direct()
        other_peer = alice.acquire_ephid_direct()
        other_recv = Session(other_local, other_peer.cert)
        other_send = Session(other_peer, other_local.cert)
        demux = TagDemuxer()
        demux.register(receiver)
        demux.register(other_recv)
        assert demux.sessions == 2
        assert demux.match(FlowTagger(sender).next_tag()) is receiver
        assert demux.match(FlowTagger(other_send).next_tag()) is other_recv

    def test_register_idempotent(self, session_pair):
        _w, _a, _b, _sender, receiver = session_pair
        demux = TagDemuxer(window=16)
        demux.register(receiver)
        demux.register(receiver)
        assert demux.sessions == 1
        assert demux.live_tags() == 16

    def test_memory_bounded_by_two_windows(self, session_pair):
        _w, _a, _b, sender, receiver = session_pair
        demux = TagDemuxer(window=8)
        demux.register(receiver)
        tagger = FlowTagger(sender)
        for _ in range(100):
            demux.match(tagger.next_tag())
        assert demux.live_tags() <= 2 * 8

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            TagDemuxer(window=0)

    @given(st.permutations(list(range(12))))
    @settings(max_examples=25, deadline=None)
    def test_any_order_within_one_window_delivers_all(self, order):
        # Property: if all packets of a burst fit in one window, every
        # permutation of their arrival demultiplexes completely.
        from repro.core.keys import EphIdKeyPair
        from repro.core.certs import EphIdCertificate
        from repro.core.keys import SigningKeyPair
        from repro.crypto.rng import DeterministicRng

        rng = DeterministicRng(99)
        signer = SigningKeyPair.generate(rng)

        def owned(ephid_byte):
            keypair = EphIdKeyPair.generate(rng)
            cert = EphIdCertificate.issue(
                signer,
                ephid=bytes([ephid_byte]) * 16,
                exp_time=2**31,
                dh_public=keypair.exchange.public,
                sig_public=keypair.signing.public,
                aid=1,
                aa_ephid=bytes(16),
            )
            from repro.core.session import OwnedEphId

            return OwnedEphId(cert, keypair)

        local, peer = owned(1), owned(2)
        recv = Session(local, peer.cert)
        send = Session(peer, local.cert)
        demux = TagDemuxer(window=12)
        demux.register(recv)
        tagger = FlowTagger(send)
        tags = [tagger.next_tag() for _ in range(12)]
        for position in order:
            assert demux.match(tags[position]) is recv


class TestWireFormat:
    def test_pack_unpack_roundtrip(self):
        tag, sealed = b"\x07" * TAG_SIZE, b"ciphertext"
        assert unpack_tagged(pack_tagged(tag, sealed)) == (tag, sealed)

    def test_pack_rejects_bad_tag(self):
        with pytest.raises(DemuxError):
            pack_tagged(b"short", b"x")

    def test_unpack_rejects_short(self):
        with pytest.raises(DemuxError):
            unpack_tagged(b"tiny")


class TestEndToEnd:
    def test_per_packet_ephids_with_demux(self, world):
        # The full VIII-A story: fresh source EphID on every packet, the
        # receiver demultiplexes by flow tag, and an observer sees no two
        # packets with the same source identifier.
        alice = world.hosts["alice"]
        bob = world.hosts["bob"]

        observed_sources = []
        original = bob.handle_frame

        def observe(frame_bytes, *, from_node):
            from repro.wire.apna import ApnaPacket

            observed_sources.append(
                ApnaPacket.from_wire(frame_bytes).header.src_ephid
            )
            original(frame_bytes, from_node=from_node)

        bob.handle_frame = observe

        bob_owned = bob.acquire_ephid_direct()
        received = []
        bob.listen(80, lambda session, transport, data: received.append(data))
        session = alice.connect(bob_owned.cert, dst_port=80)
        world.network.run()
        server_session = next(iter(bob.sessions.values()))
        bob.ota_listen(server_session)

        payloads = [f"packet {i}".encode() for i in range(10)]
        for payload in payloads:
            alice.send_data_ota(session, payload, dst_port=80)
        world.network.run()

        assert received == payloads
        # Every OTA packet used a distinct, single-use source EphID.
        ota_sources = observed_sources[-10:]
        assert len(set(ota_sources)) == 10

    def test_ota_to_unregistered_session_dropped(self, world):
        alice = world.hosts["alice"]
        bob = world.hosts["bob"]
        bob_owned = bob.acquire_ephid_direct()
        received = []
        bob.listen(80, lambda session, transport, data: received.append(data))
        session = alice.connect(bob_owned.cert, dst_port=80)
        world.network.run()
        # bob never called ota_listen.
        alice.send_data_ota(session, b"lost", dst_port=80)
        world.network.run()
        assert received == []
        assert bob.demux.unmatched == 1
