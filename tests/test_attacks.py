"""The Section VI security analysis as executable tests (E10).

Every adversary of the paper's threat model is run against the stack and
must fail; the granularity-dependent linkability adversary is scored to
show per-flow EphIDs deliver unlinkability and per-host EphIDs do not.
"""

import pytest

from repro.attacks import (
    EphIdMinter,
    EphIdSpoofer,
    FlowLinker,
    IdentityMinter,
    MitmAs,
    PfsBreaker,
    ShutoffAbuser,
)
from repro.core.config import ApnaConfig
from repro.core.keys import SigningKeyPair
from repro.core.session import Session, derive_session_key
from repro.experiments.common import build_bench_world
from repro.wire.apna import Endpoint


class TestEphIdSpoofing:
    def test_sniffed_ephid_useless_without_kha(self, world):
        alice = world.hosts["alice"]
        bob = world.hosts["bob"]
        victim_ephid = alice.acquire_ephid_direct().ephid  # "sniffed"
        bob_owned = bob.acquire_ephid_direct()
        spoofer = EphIdSpoofer(world.as_a)
        for _ in range(20):
            assert not spoofer.spoof(victim_ephid, Endpoint(200, bob_owned.ephid))
        assert spoofer.successes == 0
        assert spoofer.attempts == 20


def test_spoofer_is_judged_by_a_sharded_plane():
    """The spoofer injects at the AS's one verdict path, so it runs
    against a sharded AS (which has no in-line router) too, and the
    shards charge every guessed MAC."""
    with build_bench_world(config=ApnaConfig(forwarding_shards=2)) as world:
        victim_ephid = world.hosts_a[0].acquire_ephid_direct().ephid
        peer = Endpoint(world.as_b.aid, world.hosts_b[0].acquire_ephid_direct().ephid)
        spoofer = EphIdSpoofer(world.as_a)
        for _ in range(50):
            spoofer.spoof(victim_ephid, peer)
        assert (spoofer.attempts, spoofer.successes) == (50, 0)
        assert world.as_a.shard_pool.stats()["packet-mac-invalid"] == 50


class TestEphIdMinting:
    def test_random_forgeries_rejected(self, world):
        minter = EphIdMinter(world.as_a)
        assert minter.mint_random(2000) == 0

    def test_malleated_forgeries_rejected(self, world):
        valid = world.hosts["alice"].acquire_ephid_direct().ephid
        minter = EphIdMinter(world.as_a)
        assert minter.mint_malleated(valid) == 0
        assert minter.attempts == 128


class TestIdentityMinting:
    def test_live_identities_never_exceed_one(self, world):
        minter = IdentityMinter(world.hosts["alice"])
        assert minter.mint(rounds=5) == 1


class TestMitm:
    def test_victim_detects_substituted_cert(self, world):
        # A malicious (non-source, non-destination) AS swaps Bob's cert.
        attacker = MitmAs(attacker_signer=SigningKeyPair.generate(world.rng))
        bob_owned = world.hosts["bob"].acquire_ephid_direct()
        alice = world.hosts["alice"]
        assert not attacker.attempt(alice, bob_owned.cert, world.rng)
        assert attacker.intercepted == 1
        assert attacker.successes == 0

    def test_colluding_as_is_out_of_model(self, world):
        # If the attacker somehow held the destination AS's signing key
        # (collusion, excluded by the threat model), the substitution
        # would succeed — documenting the boundary of the guarantee.
        attacker = MitmAs(attacker_signer=world.as_b.keys.signing)
        bob_owned = world.hosts["bob"].acquire_ephid_direct()
        alice = world.hosts["alice"]
        assert attacker.attempt(alice, bob_owned.cert, world.rng)


class TestShutoffAbuse:
    def test_dos_via_shutoff_fails(self, world):
        alice, bob = world.hosts["alice"], world.hosts["bob"]
        alice_owned = alice.acquire_ephid_direct()
        bob_owned = bob.acquire_ephid_direct()
        victim_packet = alice.stack.make_packet(
            alice_owned.ephid, Endpoint(200, bob_owned.ephid), b"legit"
        )
        abuser = ShutoffAbuser(world.as_a)
        # Attack 1: a third party signs with its own (wrong) EphID.
        mallory_owned = bob.acquire_ephid_direct()
        request = bob.stack.build_shutoff_request(victim_packet.to_wire(), mallory_owned)
        assert not abuser.attempt(request)
        # Attack 2: fabricated packet "from" the victim.
        fake = alice.stack.make_packet(
            alice_owned.ephid, Endpoint(200, bob_owned.ephid), b"fake"
        )
        from repro.wire.apna import ApnaPacket

        doctored = ApnaPacket(fake.header.with_mac(bytes(8)), fake.payload)
        request = bob.stack.build_shutoff_request(doctored.to_wire(), bob_owned)
        assert not abuser.attempt(request)
        assert abuser.successes == 0
        # The victim's EphID is untouched.
        assert not world.as_a.revocations.contains(alice_owned.ephid)


class TestFlowLinkability:
    def run_workload(self, world, policy_name, flows=12):
        from repro.core.granularity import make_policy, FlowKey

        alice = world.hosts["alice"]
        policy = make_policy(
            policy_name,
            lambda flags, lifetime: alice.acquire_ephid_direct(flags, lifetime),
            world.network.scheduler.clock(),
        )
        linker = FlowLinker()
        for i in range(flows):
            flow = FlowKey(200, bytes([i]) * 16, 1000 + i, 80)
            owned = policy.ephid_for(flow=flow, app=f"app-{i % 3}")
            linker.observe(owned.ephid, true_host=1)
        return linker.linkage_score()

    def test_per_flow_gives_unlinkability(self, world):
        assert self.run_workload(world, "per-flow") == 0.0

    def test_per_host_gives_full_linkability(self, world):
        assert self.run_workload(world, "per-host") == 1.0

    def test_per_application_partial(self, world):
        score = self.run_workload(world, "per-application")
        assert 0.0 < score < 1.0


class TestPfs:
    def test_long_term_keys_do_not_decrypt_past_sessions(self, world):
        """The Section VI-B claim: compromise of every long-term secret
        (host keys, AS signing keys, even kA) does not yield a past
        session key."""
        alice, bob = world.hosts["alice"], world.hosts["bob"]
        a_owned = alice.acquire_ephid_direct()
        b_owned = bob.acquire_ephid_direct()
        session = Session(a_owned, b_owned.cert)
        sealed = session.seal(b"recorded ciphertext")

        breaker = PfsBreaker()
        breaker.record(sealed)
        long_term = {
            "alice-K-H": alice.stack.keys.secret,
            "bob-K-H": bob.stack.keys.secret,
            "as-a-signing": world.as_a.keys.signing.secret,
            "as-a-exchange": world.as_a.keys.exchange.secret,
            "as-a-master-kA": world.as_a.keys.secret.master,
            "as-b-signing": world.as_b.keys.signing.secret,
        }
        assert not breaker.try_decrypt_with(
            a_owned.cert, b_owned.cert, long_term, sealed, session.key
        )

    def test_compromise_of_one_session_does_not_leak_another(self, world):
        alice, bob = world.hosts["alice"], world.hosts["bob"]
        s1 = Session(alice.acquire_ephid_direct(), bob.acquire_ephid_direct().cert)
        s2 = Session(alice.acquire_ephid_direct(), bob.acquire_ephid_direct().cert)
        assert s1.key != s2.key


class TestAnonymitySet:
    def test_header_reveals_only_the_as(self, world):
        """Host privacy: the anonymity set is the whole AS (Section III-B).
        The only cleartext identity information in a packet is the AID."""
        alice = world.hosts["alice"]
        owned = alice.acquire_ephid_direct()
        packet = alice.stack.make_packet(owned.ephid, Endpoint(200, bytes(16)), b"x")
        wire = packet.to_wire()
        # The AID is visible...
        assert int.from_bytes(wire[0:4], "big") == 100
        # ...but nothing in the packet decodes to the host without kA:
        # a foreign AS's codec rejects the EphID.
        from repro.core.errors import EphIdError

        with pytest.raises(EphIdError):
            world.as_b.codec.open(packet.header.src_ephid)
