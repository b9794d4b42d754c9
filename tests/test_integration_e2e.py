"""End-to-end integration: the full Fig. 1 workflow over the simulated
network, byte-for-byte through GRE/IPv4 encapsulation.

Covers: bootstrap -> EphID issuance -> connection establishment ->
encrypted communication -> shutoff -> ICMP -> replay protection.
"""

import random

import pytest

from repro.core import framing
from repro.core.autonomous_system import REPLAY_WINDOW_CAPACITY
from repro.core.config import ApnaConfig
from repro.wire.apna import ApnaHeader, ApnaPacket, Endpoint
from tests.conftest import build_world


class TestEncryptedCommunication:
    def test_fig1_full_workflow(self, world):
        """The four steps of Section III-C, end to end."""
        alice, bob = world.hosts["alice"], world.hosts["bob"]
        # Steps 1-2 (bootstrap + issuance) happened in the fixture/calls.
        alice_owned = alice.acquire_ephid_direct()
        bob_owned = bob.acquire_ephid_direct()
        # Step 3: connection establishment with 0-RTT data.
        session = alice.connect(
            bob_owned.cert, early_data=b"GET / HTTP/1.1", src_owned=alice_owned
        )
        world.network.run()
        # Bob got the early data without any extra round trip.
        assert len(bob.inbox) == 1
        _, transport, data = bob.inbox[0]
        assert data == b"GET / HTTP/1.1"
        # Step 4: encrypted communication, both directions.
        bob_session = bob.sessions[(bob_owned.ephid, alice_owned.ephid)]
        bob.send_data(bob_session, b"HTTP/1.1 200 OK")
        world.network.run()
        assert alice.inbox[-1][2] == b"HTTP/1.1 200 OK"

    def test_payload_is_encrypted_on_the_wire(self, world):
        """Host privacy + data privacy: the wire shows EphIDs and
        ciphertext, never plaintext or identity information."""
        alice, bob = world.hosts["alice"], world.hosts["bob"]
        bob_owned = bob.acquire_ephid_direct()
        captured = []

        inter_link = world.as_a.node._links["AS200"]
        original = inter_link.send_from

        def spy(sender, frame):
            captured.append(frame)
            return original(sender, frame)

        inter_link.send_from = spy
        secret = b"extremely secret plaintext"
        alice.connect(bob_owned.cert, early_data=secret)
        world.network.run()
        assert captured, "no inter-AS frames captured"
        for frame in captured:
            assert secret not in frame

    def test_sender_receives_replies_via_ephid(self, world):
        # EphIDs preserve the return address (Section III-A).
        alice, bob = world.hosts["alice"], world.hosts["bob"]
        bob_owned = bob.acquire_ephid_direct()
        replies = []
        alice_session = alice.connect(bob_owned.cert, early_data=b"ping?")
        world.network.run()
        session_b = next(iter(bob.sessions.values()))
        bob.send_data(session_b, b"pong!")
        world.network.run()
        assert alice.inbox[-1][2] == b"pong!"

    def test_listener_dispatch_by_port(self, world):
        alice, bob = world.hosts["alice"], world.hosts["bob"]
        bob_owned = bob.acquire_ephid_direct()
        received = []
        bob.listen(8080, lambda session, transport, data: received.append(data))
        session = alice.connect(bob_owned.cert)
        world.network.run()
        alice.send_data(session, b"to the listener", dst_port=8080)
        world.network.run()
        assert received == [b"to the listener"]

    def test_three_as_transit(self):
        """A -> B -> C topology: transit AS forwards without touching crypto."""
        from repro.core.autonomous_system import ApnaAutonomousSystem

        world = build_world(host_names=())
        as_c = ApnaAutonomousSystem(
            300, world.network, world.rpki, world.anchor, config=world.config, rng=world.rng
        )
        # Chain: AS100 -- AS200 -- AS300 (no direct 100-300 link).
        world.as_b.connect_to(as_c, latency=0.010)
        alice = world.as_a.attach_host("alice")
        alice.bootstrap()
        carol = as_c.attach_host("carol")
        carol.bootstrap()
        world.network.compute_routes()

        carol_owned = carol.acquire_ephid_direct()
        alice.connect(carol_owned.cert, early_data=b"across transit")
        world.network.run()
        assert carol.inbox[0][2] == b"across transit"
        # The transit AS only did AID-based forwarding.
        assert world.as_b.br.forwarded_inter >= 1
        assert world.as_b.br.forwarded_intra == 0


class TestShutoffOverNetwork:
    def test_full_shutoff_flow(self, world):
        """Bob shuts off Alice's EphID through AS-A's AA, over the wire."""
        alice, bob = world.hosts["alice"], world.hosts["bob"]
        alice_owned = alice.acquire_ephid_direct()
        bob_owned = bob.acquire_ephid_direct()
        session = alice.connect(
            bob_owned.cert, early_data=b"unwanted", src_owned=alice_owned
        )
        world.network.run()

        # Bob reconstructs the offending packet from what he received; in
        # this API the host node keeps no packet log, so we rebuild the
        # same wire bytes Alice sent (content-identical evidence).
        from repro.core import framing
        from repro.core.session import ConnectionRequest

        # Capture the offending packet by having alice resend data.
        captured = []
        bob_node_receive = bob.handle_frame

        def capture(frame_bytes, *, from_node):
            captured.append(frame_bytes)
            bob_node_receive(frame_bytes, from_node=from_node)

        bob.handle_frame = capture
        alice.send_data(session, b"more spam")
        world.network.run()
        offending = ApnaPacket.from_wire(captured[-1])

        responses = []
        bob.send_shutoff(
            offending,
            signer=bob_owned,
            aa_endpoint=Endpoint(alice_owned.cert.aid, alice_owned.cert.aa_ephid),
            callback=responses.append,
        )
        world.network.run()
        assert len(responses) == 1
        assert responses[0].accepted
        # Alice's EphID is now blocked at her own AS's border router.
        alice.send_data(session, b"this must not arrive")
        world.network.run()
        from repro.core.border_router import DropReason

        assert world.as_a.br.drops[DropReason.SRC_REVOKED] >= 1

    def test_shutoff_signer_must_own_destination(self, world):
        alice, bob = world.hosts["alice"], world.hosts["bob"]
        alice_owned = alice.acquire_ephid_direct()
        bob_owned = bob.acquire_ephid_direct()
        other = bob.acquire_ephid_direct()
        packet = alice.stack.make_packet(
            alice_owned.ephid, Endpoint(200, bob_owned.ephid), b"x"
        )
        from repro.core.errors import ShutoffError

        with pytest.raises(ShutoffError):
            bob.send_shutoff(
                packet,
                signer=other,
                aa_endpoint=Endpoint(100, alice_owned.cert.aa_ephid),
            )


class TestIcmp:
    def test_ping_round_trip(self, world):
        alice, bob = world.hosts["alice"], world.hosts["bob"]
        bob_owned = bob.acquire_ephid_direct()
        rtts = []
        alice.ping(Endpoint(200, bob_owned.ephid), callback=rtts.append)
        world.network.run()
        assert len(rtts) == 1
        # 2 access links (1 ms each) + inter-AS link (10 ms) each way, plus
        # serialization: RTT slightly above 24 ms.
        assert rtts[0] == pytest.approx(0.024, rel=0.1)
        # Bob logged the echo request.
        assert any(m.type_name == "echo-request" for m in bob.icmp_log)

    def test_unreachable_generated_for_expired_destination(self, world):
        """Feedback from the network (Section VIII-B): the border router
        answers with ICMP when the destination EphID has expired."""
        alice, bob = world.hosts["alice"], world.hosts["bob"]
        record = world.as_b.hostdb.find_by_subscriber(bob.subscriber_id)
        stale = world.as_b.codec.seal(
            hid=record.hid, exp_time=5, iv=world.as_b.ivs.next_iv()
        )
        world.network.run_until(10.0)
        alice_owned = alice.acquire_ephid_direct()
        packet = alice.stack.make_packet(
            alice_owned.ephid, Endpoint(200, stale), b"late"
        )
        alice._transmit(packet)
        world.network.run()
        assert any(m.type_name == "dest-unreachable" for m in alice.icmp_log)
        from repro.wire.icmp import CODE_EPHID_EXPIRED

        assert any(m.code == CODE_EPHID_EXPIRED for m in alice.icmp_log)


class TestReplayProtection:
    def test_replayed_packet_dropped_with_nonces(self, world_with_nonces):
        world = world_with_nonces
        alice, bob = world.hosts["alice"], world.hosts["bob"]
        bob_owned = bob.acquire_ephid_direct()
        session = alice.connect(bob_owned.cert, early_data=b"first")
        world.network.run()
        assert len(bob.inbox) == 1

        # An on-path adversary replays the last frame toward Bob.
        captured = []
        original = bob.handle_frame

        def capture(frame_bytes, *, from_node):
            captured.append(frame_bytes)
            original(frame_bytes, from_node=from_node)

        bob.handle_frame = capture
        alice.send_data(session, b"second")
        world.network.run()
        assert len(bob.inbox) == 2
        replayed = captured[-1]
        bob.handle_frame(replayed, from_node=world.as_b.node.name)
        assert len(bob.inbox) == 2  # no duplicate delivery
        assert bob.replay_drops == 1

    @staticmethod
    def _forged_data(src_ephid: bytes, real: ApnaPacket, nonce: int) -> bytes:
        """A ``PT_DATA`` frame toward ``real``'s destination whose sealed
        payload is garbage: nothing the forger holds opens a session."""
        header = ApnaHeader(
            src_aid=real.header.src_aid,
            src_ephid=src_ephid,
            dst_ephid=real.header.dst_ephid,
            dst_aid=real.header.dst_aid,
            nonce=nonce,
        )
        body = nonce.to_bytes(8, "big") + bytes(40)
        return ApnaPacket(header, framing.frame(framing.PT_DATA, body)).to_wire()

    def _session_with_capture(self, world):
        """Alice -> Bob session; returns it and the frames Bob received."""
        alice, bob = world.hosts["alice"], world.hosts["bob"]
        bob_owned = bob.acquire_ephid_direct()
        session = alice.connect(bob_owned.cert, early_data=b"first")
        captured = []
        original = bob.handle_frame

        def capture(frame_bytes, *, from_node):
            captured.append(frame_bytes)
            original(frame_bytes, from_node=from_node)

        bob.handle_frame = capture
        world.network.run()
        assert len(bob.inbox) == 1
        return session, captured

    def test_forged_frames_cannot_close_a_peers_window(self, world_with_nonces):
        """An on-path forger copies the clear EphID pair of Alice's
        frames and sends ``PT_DATA`` under it with nonces far ahead of
        hers.  The payloads do not open, so Bob's window records none of
        them, and every real packet Alice sends afterwards arrives."""
        world = world_with_nonces
        alice, bob = world.hosts["alice"], world.hosts["bob"]
        session, captured = self._session_with_capture(world)
        real = ApnaPacket.from_wire(captured[-1], with_nonce=True)
        for nonce in (10**6, 10**6 + 1, 2**63):
            bob.handle_frame(
                self._forged_data(real.header.src_ephid, real, nonce),
                from_node=world.as_b.node.name,
            )
        assert bob.malformed_frames == 3
        for data in (b"second", b"third", b"fourth"):
            alice.send_data(session, data)
        world.network.run()
        assert [entry[2] for entry in bob.inbox] == [
            b"first", b"second", b"third", b"fourth"
        ]
        assert bob.replay_drops == 0

    def test_forged_sources_do_not_grow_the_window_table(self, world_with_nonces):
        """Frames from random source EphIDs authenticate nothing, so they
        add no replay window; the table is an LRU of a fixed capacity."""
        world = world_with_nonces
        bob = world.hosts["bob"]
        _, captured = self._session_with_capture(world)
        real = ApnaPacket.from_wire(captured[-1], with_nonce=True)
        windows = bob._replay_windows
        before = len(windows)
        rng = random.Random(34)
        for nonce in range(1, 201):
            bob.handle_frame(
                self._forged_data(rng.randbytes(16), real, nonce),
                from_node=world.as_b.node.name,
            )
        assert len(windows) == before
        assert bob.malformed_frames == 0  # no session: dropped unopened
        assert windows.capacity == REPLAY_WINDOW_CAPACITY

    def test_nonce_header_is_56_bytes(self, world_with_nonces):
        world = world_with_nonces
        alice = world.hosts["alice"]
        owned = alice.acquire_ephid_direct()
        packet = alice.stack.make_packet(
            owned.ephid, Endpoint(200, bytes(16)), b"", nonce=1
        )
        assert packet.header.wire_size == 56
