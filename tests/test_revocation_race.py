"""Revocation racing in-flight traffic (paper Sections IV-E, VIII-G2).

The race the evaluation pack's ``revocation-wave`` preset exercises at
scale, pinned down here at the single-router level: packets are *built*
(sealed, MAC'd, queued) before the revocation lands, and the contract
is that the verdict depends only on the revocation state **at
verification time** — an in-flight packet carrying a just-revoked
EphID drops with ``SRC_REVOKED`` no matter when it was made, and the
cut-over is exact at the packet where the revocation interleaved.
"""

import pytest

from repro.core.border_router import Action, BorderRouter, DropReason
from repro.core.verdict import verdict_of
from repro.wire.apna import Endpoint

from tests.conftest import build_world

FAR_FUTURE = 1e12


# The ids keep the crypto-provider and state-family labels they carried
# while each had two.
@pytest.fixture(params=[pytest.param(None, id="openssl-columnar")])
def race_world():
    return build_world()


def _router(world, clock=None):
    """A fresh border router sharing the AS's live mutable state."""
    return BorderRouter(
        world.as_a.aid,
        world.as_a.codec,
        world.as_a.hostdb,
        world.as_a.revocations,
        clock or world.network.scheduler.clock(),
        packet_mac_size=world.config.packet_mac_size,
        replay_filter=None,
    )


def _in_flight(world, src_ephid, count):
    """``count`` pre-built packets — sealed and MAC'd before any revoke."""
    alice = world.hosts["alice"]
    bob_ephid = world.hosts["bob"].acquire_ephid_direct().ephid
    dst = Endpoint(world.as_b.aid, bob_ephid)
    return [
        alice.stack.make_packet(src_ephid, dst, b"in-flight", nonce=n + 1)
        for n in range(count)
    ]


def test_revocation_cuts_over_exactly_mid_stream(race_world):
    """The verdict flips at precisely the packet where the revoke lands."""
    world = race_world
    src = world.hosts["alice"].acquire_ephid_direct()
    packets = _in_flight(world, src.ephid, 10)
    router = _router(world)
    verdicts = []
    for i, packet in enumerate(packets):
        if i == 6:  # the revocation interleaves here
            world.as_a.revocations.add(src.ephid, FAR_FUTURE)
        verdicts.append(router.process_outgoing(packet))
    # Build time is irrelevant: every packet was made before the revoke.
    assert [v.action for v in verdicts[:6]] == [Action.FORWARD_INTER] * 6
    assert [v.reason for v in verdicts[6:]] == [DropReason.SRC_REVOKED] * 4
    assert router.forwarded_inter == 6
    assert router.drops[DropReason.SRC_REVOKED] == 4


def test_revocation_between_batches_is_batch_exact(race_world):
    """A whole in-flight batch flips at once when the revoke precedes it."""
    world = race_world
    src = world.hosts["alice"].acquire_ephid_direct()
    packets = _in_flight(world, src.ephid, 8)
    router = _router(world)
    frames = [packet.to_wire() for packet in packets]
    before = map(verdict_of, router.process_burst(frames[:4], [True] * 4))
    world.as_a.revocations.add(src.ephid, FAR_FUTURE)
    after = map(verdict_of, router.process_burst(frames[4:], [True] * 4))
    assert all(v.action is Action.FORWARD_INTER for v in before)
    assert all(v.reason is DropReason.SRC_REVOKED for v in after)
    assert router.drops[DropReason.SRC_REVOKED] == 4


def test_hid_revocation_fells_every_ephid_at_once(race_world):
    """Revoking the HID invalidates all its in-flight EphIDs together."""
    world = race_world
    alice = world.hosts["alice"]
    first = alice.acquire_ephid_direct()
    second = alice.acquire_ephid_direct()
    flight = _in_flight(world, first.ephid, 2) + _in_flight(
        world, second.ephid, 2
    )
    router = _router(world)
    assert router.process_outgoing(flight[0]).action is Action.FORWARD_INTER
    hid = world.as_a.hostdb.find_by_subscriber(alice.subscriber_id).hid
    world.as_a.hostdb.revoke_hid(hid)
    verdicts = [router.process_outgoing(p) for p in flight[1:]]
    assert [v.reason for v in verdicts] == [DropReason.SRC_HID_INVALID] * 3
    assert router.drops[DropReason.SRC_HID_INVALID] == 3


def test_pruned_revocation_cannot_resurrect_a_forward(race_world):
    """Section VIII-G2 pruning: the expiry check closes the prune race.

    A revocation entry is pruned once its EphID's own lifetime is over —
    safe only because the expiry check runs *before* the revocation
    check, so the packet keeps dropping (as ``SRC_EXPIRED``) after the
    entry is gone.  This pins that ordering.
    """
    world = race_world
    alice = world.hosts["alice"]
    codec = world.as_a.codec
    hid = world.as_a.hostdb.find_by_subscriber(alice.subscriber_id).hid
    # The EphID's lifetime ended at t=0; the router verifies at t=10.
    now = 10.0
    stale = codec.seal(hid, exp_time=0, iv=world.as_a.ivs.next_iv())
    world.as_a.revocations.add(stale, exp_time=0)
    assert world.as_a.revocations.contains(stale)
    packets = _in_flight(world, stale, 2)
    router = _router(world, clock=lambda: now)
    while_listed = router.process_outgoing(packets[0])
    # The router auto-prunes as it goes; force it anyway, then verify
    # the verdict is unchanged without the list entry.
    world.as_a.revocations.prune(now)
    after_prune = router.process_outgoing(packets[1])
    assert while_listed.reason is DropReason.SRC_EXPIRED
    assert after_prune.reason is DropReason.SRC_EXPIRED
    assert not world.as_a.revocations.contains(stale)
