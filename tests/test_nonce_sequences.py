"""Each EphID numbers its own Section VIII-D nonces.

The nonce rides in the clear header, so a counter shared by several
EphIDs (one per host, one per AS for its services, one per access-point
client) lets an observer link those EphIDs to one sender, which
sender-flow unlinkability (Section II-B) forbids.  Each test records the
frames a receiver gets and checks that every source EphID's nonces run
1, 2, 3, ... on their own.
"""

from collections import defaultdict

from repro.core.config import ApnaConfig
from repro.gateway import NatAccessPoint
from repro.wire.apna import ApnaPacket, Endpoint

from tests.conftest import build_world


def _nonces_by_source(node) -> dict[bytes, list[int]]:
    """Wrap ``node.handle_frame``; the returned map fills, in arrival
    order, with the nonces each source EphID's frames carry."""
    seen: dict[bytes, list[int]] = defaultdict(list)
    original = node.handle_frame

    def record(frame_bytes, *, from_node):
        header = ApnaPacket.from_wire(frame_bytes, with_nonce=True).header
        seen[header.src_ephid].append(header.nonce)
        original(frame_bytes, from_node=from_node)

    node.handle_frame = record
    return seen


def _world(**kwargs):
    return build_world(config=ApnaConfig(replay_protection=True), **kwargs)


def test_two_flows_of_one_host_number_their_own_nonces():
    world = _world()
    alice, bob = world.hosts["alice"], world.hosts["bob"]
    seen = _nonces_by_source(bob)
    peer = bob.acquire_ephid_direct()
    first = alice.connect(peer.cert, early_data=b"a0")
    second = alice.connect(peer.cert, early_data=b"b0")
    world.network.run()
    for k in range(1, 4):
        alice.send_data(first, b"a%d" % k)
        alice.acquire_ephid()  # a control-EphID request in between
        alice.send_data(second, b"b%d" % k)
    world.network.run()
    assert len(bob.inbox) == 8
    assert seen[first.local.ephid] == [1, 2, 3, 4]
    assert seen[second.local.ephid] == [1, 2, 3, 4]


def test_two_services_of_one_as_number_their_own_nonces():
    """AS 100's accountability agent and its border router both answer
    bob (AS 200), in turn: a shutoff response, then an ICMP error."""
    world = _world()
    alice, bob = world.hosts["alice"], world.hosts["bob"]
    as_a = world.as_a
    seen = _nonces_by_source(bob)
    alice_owned = alice.acquire_ephid_direct()
    bob_owned = bob.acquire_ephid_direct()
    record = as_a.hostdb.find_by_subscriber(alice.subscriber_id)
    stale = as_a.codec.seal(hid=record.hid, exp_time=5, iv=as_a.ivs.next_iv())
    world.network.run_until(10.0)
    offending = alice.stack.make_packet(
        alice_owned.ephid, Endpoint(200, bob_owned.ephid), b"spam", nonce=1
    )
    aa = Endpoint(100, alice_owned.cert.aa_ephid)
    for _ in range(2):
        bob.send_shutoff(offending, signer=bob_owned, aa_endpoint=aa)
        world.network.run()
        bob.ping(Endpoint(100, stale), src_owned=bob_owned)
        world.network.run()
    assert seen[as_a.aa_identity.owned.ephid] == [1, 2]
    assert seen[as_a.router_identity.owned.ephid] == [1, 2]


def test_two_ephids_of_one_access_point_client_number_their_own_nonces():
    world = _world(host_names=("bob",))
    bob = world.hosts["bob"]
    ap = world.as_a.attach_host("cafe-ap", node_cls=NatAccessPoint)
    ap.bootstrap()
    laptop = ap.register_client("cafe-laptop")
    world.network.compute_routes()
    got = []
    for _ in range(2):
        laptop.acquire_ephid(callback=got.append)
    world.network.run()
    seen = _nonces_by_source(bob)
    peer = bob.acquire_ephid_direct()
    sessions = [laptop.connect(peer.cert, owned, early_data=b"hi") for owned in got]
    for k in range(3):
        for session in sessions:
            laptop.send_data(session, b"%d" % k)
    world.network.run()
    assert len(bob.inbox) == 8
    assert [seen[owned.ephid] for owned in got] == [[1, 2, 3, 4], [1, 2, 3, 4]]
