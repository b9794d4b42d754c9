"""A host's receive path drops bad frames instead of raising them.

Anyone on an access link can send a host bytes, and a forged certificate
or a garbled reply is bytes too.  ``ApnaHostNode.handle_frame`` (and the
access points in front of hosts) must drop a frame that fails a parse,
certificate or reply check and count it in ``malformed_frames`` — the
name ``BorderRouterNode`` uses — rather than let the error escape into
``world.run()`` and stop the simulation.  Errors raised by the
application's own callbacks are not frame errors and still propagate.
"""

import dataclasses

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro import scenarios
from repro.core import framing
from repro.core.errors import ApnaError
from repro.core.messages import ShutoffResponse
from repro.core.session import ConnectionRequest
from repro.gateway import NatAccessPoint
from repro.gateway.ap import LC_DATA, LC_EPHID_REP, LC_EPHID_REQ, _lc_seal
from repro.wire.apna import Endpoint
from repro.wire.errors import WireError
from repro.wire.icmp import IcmpMessage
from tests.conftest import build_world


@pytest.fixture()
def fig1():
    world = scenarios.build("fig1", seed=7)
    alice = world.attach_host("alice", at="a")
    bob = world.attach_host("bob", at="b")
    return world, alice, bob


def test_forged_certificate_is_dropped_not_raised(fig1):
    world, alice, bob = fig1
    mine, peer = alice.acquire_ephid_direct(), bob.acquire_ephid_direct()
    forged = dataclasses.replace(mine.cert, signature=bytes(64))
    # Well-MAC'd, so the border routers forward it to bob.
    packet = alice.stack.make_packet(
        mine.ephid,
        Endpoint(peer.cert.aid, peer.ephid),
        framing.frame(framing.PT_CONN_REQUEST, ConnectionRequest(cert=forged).pack()),
    )
    alice.send(alice.assembly.node.name, packet.to_wire())
    world.run()
    assert bob.malformed_frames == 1
    assert bob.sessions == {}
    # The host keeps serving: a genuine connection after it completes.
    alice.connect(peer.cert, early_data=b"after the forgery")
    world.run()
    assert bob.inbox[-1][2] == b"after the forgery"
    assert bob.malformed_frames == 1


def test_runt_frame_is_dropped_not_raised(fig1):
    world, _, bob = fig1
    world.asys("b").node.send(bob.name, bytes(20))
    world.run()
    assert bob.malformed_frames == 1


def test_garbled_control_reply_leaves_the_request_waiting(fig1):
    """A reply that fails authentication is dropped without settling the
    pending EphID request: the genuine reply, arriving after it, does."""
    world, _, bob = fig1
    got = []
    bob.acquire_ephid(callback=got.append)
    ms = world.asys("b").ms_identity
    garbled = ms.make_packet(
        bob.assembly.aid,
        Endpoint(bob.assembly.aid, bob.stack.control_ephid),
        framing.frame(framing.PT_CONTROL_REP, bytes(96)),
    )
    bob.handle_frame(garbled.to_wire(), from_node=bob.assembly.node.name)
    assert bob.malformed_frames == 1 and got == []
    world.run()
    assert len(got) == 1 and got[0].ephid in bob.owned


def test_application_errors_still_propagate(fig1):
    """Only the frame checks are netted: an ``ApnaError`` raised by the
    application's own handler is the application's, and is not counted."""
    world, alice, bob = fig1
    peer = bob.acquire_ephid_direct()

    def handler(session, transport, data):
        raise ApnaError("the application's own failure")

    bob.listen(7, handler)
    alice.connect(peer.cert, early_data=b"boom", dst_port=7)
    with pytest.raises(ApnaError, match="application's own"):
        world.run()
    assert bob.malformed_frames == 0


#: Payload types a host acts on; ``PT_CONTROL_REQ`` and ``PT_SHUTOFF``
#: are addressed to AS services and a host ignores them.
_HOST_TYPES = (
    framing.PT_DATA,
    framing.PT_CONN_REQUEST,
    framing.PT_CONN_ACCEPT,
    framing.PT_CONTROL_REP,
    framing.PT_SHUTOFF_RESP,
    framing.PT_ICMP,
)
_SERVICE_TYPES = (framing.PT_CONTROL_REQ, framing.PT_SHUTOFF)


def _parses(parse, body) -> bool:
    try:
        parse(body)
    except (WireError, ApnaError):
        return False
    return True


def test_random_bodies_never_raise_and_are_counted(fig1):
    """Under every payload type a host acts on, and under every byte that
    is no payload type, a random body never raises, and the frame is
    counted malformed exactly when it fails a check.  Every body under an
    authenticated type fails one (a session's AEAD, a certificate
    signature, the EphID reply's AEAD); ICMP and shutoff responses are
    unauthenticated, so those fail only where they do not parse."""
    world, alice, bob = fig1
    peer = bob.acquire_ephid_direct()
    session = alice.connect(peer.cert, early_data=b"open")
    world.run()
    src = session.local
    bob.acquire_ephid()  # an EphID request left pending for PT_CONTROL_REP
    uplink = bob.assembly.node.name

    @settings(max_examples=150, deadline=None)
    @given(
        payload_type=st.sampled_from(_HOST_TYPES) | st.integers(0, 255),
        body=st.binary(max_size=300),
    )
    def offer(payload_type, body):
        assume(payload_type not in _SERVICE_TYPES)
        packet = alice.stack.make_packet(
            src.ephid, Endpoint(peer.cert.aid, peer.ephid), bytes([payload_type]) + body
        )
        if payload_type == framing.PT_ICMP:
            accepted = _parses(IcmpMessage.parse, body)
        elif payload_type == framing.PT_SHUTOFF_RESP:
            accepted = _parses(ShutoffResponse.parse, body)
        else:
            accepted = False
        before = bob.malformed_frames
        bob.handle_frame(packet.to_wire(), from_node=uplink)
        assert bob.malformed_frames - before == (not accepted)

    offer()


class TestAccessPoints:
    def test_nat_client_drops_bad_frames_from_its_ap(self):
        """A client behind a NAT-mode AP counts a frame that fails the
        AP's MAC, and an authentic one carrying a runt, in
        ``malformed_frames`` instead of raising out of the event loop."""
        world = build_world(host_names=("bob",))
        ap = world.as_a.attach_host("cafe-ap", node_cls=NatAccessPoint)
        ap.bootstrap()
        laptop = ap.register_client("cafe-laptop")
        world.network.compute_routes()
        ap.send(laptop.name, bytes(20))
        world.network.run()
        assert laptop.malformed_frames == 1
        ap.send(laptop.name, _lc_seal(ap._clients[laptop.name], LC_DATA, bytes(20)))
        ap.send(laptop.name, _lc_seal(ap._clients[laptop.name], LC_EPHID_REP, b"\0"))
        world.network.run()
        assert laptop.malformed_frames == 3
        # The client keeps working: an EphID through the AP after them.
        got = []
        laptop.acquire_ephid(callback=got.append)
        world.network.run()
        assert len(got) == 1 and laptop.malformed_frames == 3

    def test_nat_ap_drops_runts_and_garbled_replies(self):
        world = build_world(host_names=("bob",))
        ap = world.as_a.attach_host("cafe-ap", node_cls=NatAccessPoint)
        ap.bootstrap()
        laptop = ap.register_client("cafe-laptop")
        world.network.compute_routes()
        # A client-authenticated LC_DATA frame carrying a runt.
        laptop.send(ap.name, _lc_seal(laptop._mac, LC_DATA, bytes(20)))
        # A runt from the uplink.
        world.as_a.node.send(ap.name, bytes(20))
        # A client-authenticated EphID request too short for its fields.
        laptop.send(ap.name, _lc_seal(laptop._mac, LC_EPHID_REQ, bytes(2)))
        world.network.run()
        assert ap.malformed_frames == 3
        # A garbled proxied EphID reply leaves the client's request
        # waiting; the genuine one settles it.
        got = []
        laptop.acquire_ephid(callback=got.append)
        # Far enough for the AP to proxy the request, not for the reply.
        world.network.run_until(ap.now + 0.0006)
        garbled = world.as_a.ms_identity.make_packet(
            world.as_a.aid,
            Endpoint(world.as_a.aid, ap.stack.control_ephid),
            framing.frame(framing.PT_CONTROL_REP, bytes(96)),
        )
        ap.handle_frame(garbled.to_wire(), from_node=world.as_a.node.name)
        assert ap.malformed_frames == 4
        world.network.run()
        assert len(got) == 1
