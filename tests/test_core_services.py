"""Tests for the Registry Service (Fig. 2) and Management Service (Fig. 3)."""

import pytest

from repro import scenarios
from repro.core import management
from repro.core.errors import AuthError, CertError, IssuanceError
from repro.core.messages import BootstrapRequest, EphIdReply, EphIdRequest
from repro.core.registry import credential_proof
from repro.crypto.aead import EtmScheme
from tests.conftest import build_world


class TestBootstrap:
    def test_host_bootstraps(self, world):
        alice = world.hosts["alice"]
        assert alice.stack.kha is not None
        assert alice.stack.control_ephid is not None
        assert alice.stack.ms_cert is not None
        assert alice.stack.dns_cert is not None

    def test_host_and_as_agree_on_kha(self, world):
        alice = world.hosts["alice"]
        record = world.as_a.hostdb.find_by_subscriber(alice.subscriber_id)
        assert record is not None
        assert record.keys == alice.stack.kha

    def test_control_ephid_decodes_to_host_hid(self, world):
        alice = world.hosts["alice"]
        info = world.as_a.codec.open(alice.stack.control_ephid)
        record = world.as_a.hostdb.find_by_subscriber(alice.subscriber_id)
        assert info.hid == record.hid
        # Control EphIDs get the long (DHCP-lease-like) lifetime.
        assert info.exp_time == pytest.approx(
            world.config.control_ephid_lifetime, abs=2
        )

    def test_unknown_subscriber_rejected(self, world):
        alice = world.hosts["alice"]
        request = BootstrapRequest(
            subscriber_id=999_999,
            host_public=alice.stack.keys.public,
            proof=bytes(32),
        )
        with pytest.raises(AuthError):
            world.as_a.rs.bootstrap(request)

    def test_bad_proof_rejected(self, world):
        request = BootstrapRequest(
            subscriber_id=world.hosts["alice"].subscriber_id,
            host_public=bytes(32),
            proof=bytes(32),
        )
        with pytest.raises(AuthError):
            world.as_a.rs.bootstrap(request)
        assert world.as_a.rs.rejected >= 1

    def test_proof_binds_public_key(self, world):
        # A valid proof for one key must not authenticate a different key
        # (defence against key substitution at registration).
        alice = world.hosts["alice"]
        secret = world.as_a.rs._subscribers[alice.subscriber_id]
        proof = credential_proof(secret, alice.stack.keys.public)
        request = BootstrapRequest(
            subscriber_id=alice.subscriber_id,
            host_public=bytes(32),  # not the key the proof covers
            proof=proof,
        )
        with pytest.raises(AuthError):
            world.as_a.rs.bootstrap(request)

    def test_rebootstrap_revokes_previous_hid(self, world):
        # Identity minting defence (Section VI-A): one live HID per host.
        alice = world.hosts["alice"]
        old_record = world.as_a.hostdb.find_by_subscriber(alice.subscriber_id)
        alice.bootstrap()  # second bootstrap
        new_record = world.as_a.hostdb.find_by_subscriber(alice.subscriber_id)
        assert new_record.hid != old_record.hid
        assert not world.as_a.hostdb.is_valid(old_record.hid)
        assert world.as_a.hostdb.is_valid(new_record.hid)

    def test_forged_id_info_rejected_by_host(self, world):
        # The host verifies m2 against the AS key from RPKI.
        alice = world.hosts["alice"]
        request = alice.stack.build_bootstrap_request()
        reply = world.as_a.rs.bootstrap(request)
        from repro.core.messages import BootstrapReply, IdInfo

        forged = BootstrapReply(
            id_info=IdInfo(
                ephid=reply.id_info.ephid,
                exp_time=reply.id_info.exp_time + 1,  # tampered
                signature=reply.id_info.signature,
            ),
            ms_cert=reply.ms_cert,
            dns_cert=reply.dns_cert,
        )
        with pytest.raises(CertError):
            alice.stack.accept_bootstrap_reply(forged)

    def test_bootstrap_counts(self, world):
        assert world.as_a.rs.bootstraps == 1
        assert world.as_b.rs.bootstraps == 1


class TestIssuance:
    def test_issue_roundtrip(self, world):
        alice = world.hosts["alice"]
        owned = alice.acquire_ephid_direct()
        info = world.as_a.codec.open(owned.ephid)
        record = world.as_a.hostdb.find_by_subscriber(alice.subscriber_id)
        assert info.hid == record.hid
        assert owned.cert.aid == 100
        assert owned.cert.aa_ephid == world.as_a.aa_identity.owned.ephid

    def test_default_lifetime_is_15_minutes(self, world):
        # Section VIII-G1: per-flow EphIDs live 15 minutes by default.
        owned = world.hosts["alice"].acquire_ephid_direct()
        now = world.network.now
        assert owned.cert.exp_time == pytest.approx(now + 900.0, abs=2)

    def test_requested_lifetime_clamped(self, world):
        owned = world.hosts["alice"].acquire_ephid_direct(lifetime=10**9)
        now = world.network.now
        assert owned.cert.exp_time <= now + world.config.max_ephid_lifetime + 1

    def test_each_ephid_is_unique(self, world):
        alice = world.hosts["alice"]
        ephids = {alice.acquire_ephid_direct().ephid for _ in range(10)}
        assert len(ephids) == 10

    def test_request_with_forged_source_ephid_rejected(self, world):
        alice = world.hosts["alice"]
        _, sealed = alice.stack.build_ephid_request()
        with pytest.raises(IssuanceError):
            world.as_a.ms.handle_request(bytes(16), sealed)

    def test_request_with_expired_control_ephid_rejected(self, world):
        alice = world.hosts["alice"]
        _, sealed = alice.stack.build_ephid_request()
        record = world.as_a.hostdb.find_by_subscriber(alice.subscriber_id)
        expired = world.as_a.codec.seal(
            hid=record.hid, exp_time=5, iv=world.as_a.ivs.next_iv()
        )
        world.network.run_until(10.0)  # advance past the expiry
        with pytest.raises(IssuanceError):
            world.as_a.ms.handle_request(expired, sealed)

    def test_request_from_revoked_hid_rejected(self, world):
        alice = world.hosts["alice"]
        _, sealed = alice.stack.build_ephid_request()
        record = world.as_a.hostdb.find_by_subscriber(alice.subscriber_id)
        world.as_a.hostdb.revoke_hid(record.hid)
        with pytest.raises(IssuanceError):
            world.as_a.ms.handle_request(alice.stack.control_ephid, sealed)

    def test_tampered_request_rejected(self, world):
        alice = world.hosts["alice"]
        _, sealed = alice.stack.build_ephid_request()
        tampered = bytearray(sealed)
        tampered[-1] ^= 0x01
        with pytest.raises(IssuanceError):
            world.as_a.ms.handle_request(alice.stack.control_ephid, bytes(tampered))
        assert world.as_a.ms.rejected >= 1

    def test_wrong_as_cannot_decrypt_request(self, world):
        # Bob's AS cannot serve Alice's request: her control EphID does not
        # decode under AS-B's secret.
        alice = world.hosts["alice"]
        _, sealed = alice.stack.build_ephid_request()
        with pytest.raises(IssuanceError):
            world.as_b.ms.handle_request(alice.stack.control_ephid, sealed)

    def test_reply_tampered_detected_by_host(self, world):
        alice = world.hosts["alice"]
        keypair, sealed = alice.stack.build_ephid_request()
        reply = world.as_a.ms.handle_request(alice.stack.control_ephid, sealed)
        tampered = bytearray(reply)
        tampered[20] ^= 0xFF
        from repro.core.errors import MacError

        with pytest.raises(MacError):
            alice.stack.accept_ephid_reply(keypair, bytes(tampered))

    def test_issuance_counter(self, world):
        start = world.as_a.ms.issued
        world.hosts["alice"].acquire_ephid_direct()
        assert world.as_a.ms.issued == start + 1

    def test_receive_only_flag_propagates(self, world):
        from repro.core.certs import FLAG_RECEIVE_ONLY

        owned = world.hosts["alice"].acquire_ephid_direct(flags=FLAG_RECEIVE_ONLY)
        assert owned.cert.receive_only


class TestIssuanceOverNetwork:
    def test_full_fig3_exchange(self, world):
        alice = world.hosts["alice"]
        got = []
        alice.acquire_ephid(callback=got.append)
        world.network.run()
        assert len(got) == 1
        info = world.as_a.codec.open(got[0].ephid)
        assert world.as_a.hostdb.is_valid(info.hid)

    def test_multiple_outstanding_requests(self, world):
        alice = world.hosts["alice"]
        got = []
        for _ in range(3):
            alice.acquire_ephid(callback=got.append)
        world.network.run()
        assert len(got) == 3
        assert len({o.ephid for o in got}) == 3


class TestSchemeCache:
    """The MS keeps a requester's control-key scheme between requests —
    in a bounded LRU, and only under the key it was derived from."""

    def test_issuance_flood_cannot_grow_the_service(self, monkeypatch):
        """3x capacity distinct requesters, twice over: the cache stays
        at its cap and every reply still opens under the requester's
        own control key."""
        capacity = 8
        monkeypatch.setattr(management, "SCHEME_CACHE_CAPACITY", capacity)
        with scenarios.build(f"metro:{3 * capacity}", seed=5) as world:
            asys = world.asys("a")
            ms = asys.ms
            exp_time = int(asys.clock() + 600)
            issued = set()
            for _ in range(2):
                for hid in world.population("a"):
                    control_key = asys.hostdb.get(hid).keys.control
                    scheme = EtmScheme(control_key)
                    request = EphIdRequest(dh_public=bytes(32), sig_public=bytes(32))
                    nonce = hid.to_bytes(12, "big")
                    sealed = nonce + scheme.seal(
                        nonce, request.pack(), b"ephid-request"
                    )
                    control = asys.codec.seal(hid, exp_time, iv=hid)
                    reply = ms.handle_request(control, sealed)
                    cert = EphIdReply.parse(
                        scheme.open(reply[:12], reply[12:], b"ephid-reply")
                    ).cert
                    assert asys.codec.open(cert.ephid).hid == hid
                    issued.add(cert.ephid)
                    assert len(ms._scheme_cache) <= capacity
            assert len(ms._scheme_cache) == capacity
            assert len(issued) == ms.issued == 6 * capacity

    def test_changed_control_key_is_not_served_from_the_cache(self, world):
        ms = world.as_a.ms
        old, new = b"\x01" * 16, b"\x02" * 16
        nonce = bytes(12)
        assert ms._scheme_for(77, old) is ms._scheme_for(77, bytes(old))
        sealed = ms._scheme_for(77, new).seal(nonce, b"reply", b"aad")
        assert EtmScheme(new).open(nonce, sealed, b"aad") == b"reply"
        assert len(ms._scheme_cache) == 1
