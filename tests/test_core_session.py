"""Tests for sessions (IV-D1), PFS (VI-B), replay windows and handshake
messages (VII-A)."""

import pytest

from repro.core.certs import EphIdCertificate
from repro.core.errors import ApnaError, CertError
from repro.core.keys import EphIdKeyPair, SigningKeyPair
from repro.core.replay import ReplayWindow
from repro.core.session import (
    ConnectionAccept,
    ConnectionRequest,
    OwnedEphId,
    Session,
    SessionError,
    derive_session_key,
)
from repro.crypto.rng import DeterministicRng


def make_owned(rng, signer, *, flags=0, ephid=None):
    keypair = EphIdKeyPair.generate(rng)
    cert = EphIdCertificate.issue(
        signer,
        ephid=ephid or rng.read(16),
        exp_time=10**9,
        dh_public=keypair.exchange.public,
        sig_public=keypair.signing.public,
        aid=100,
        aa_ephid=rng.read(16),
        flags=flags,
    )
    return OwnedEphId(cert=cert, keypair=keypair)


@pytest.fixture()
def pair():
    rng = DeterministicRng(42)
    signer = SigningKeyPair.generate(rng)
    a = make_owned(rng, signer)
    b = make_owned(rng, signer)
    return a, b


class TestKeyDerivation:
    def test_both_sides_derive_same_key(self, pair):
        a, b = pair
        ka = derive_session_key(a.keypair, b.cert.dh_public, a.ephid, b.ephid)
        kb = derive_session_key(b.keypair, a.cert.dh_public, b.ephid, a.ephid)
        assert ka == kb

    def test_key_bound_to_ephid_pair(self, pair):
        a, b = pair
        k1 = derive_session_key(a.keypair, b.cert.dh_public, a.ephid, b.ephid)
        k2 = derive_session_key(a.keypair, b.cert.dh_public, a.ephid, bytes(16))
        assert k1 != k2

    def test_pfs_key_independent_of_long_term_keys(self, pair):
        # The session key derives only from the EphID key pairs; no AS or
        # host long-term key enters the derivation (Section VI-B).  Two
        # sessions between the same hosts with fresh EphIDs get unrelated
        # keys.
        rng = DeterministicRng(43)
        signer = SigningKeyPair.generate(rng)
        a1, b1 = make_owned(rng, signer), make_owned(rng, signer)
        a2, b2 = make_owned(rng, signer), make_owned(rng, signer)
        k1 = derive_session_key(a1.keypair, b1.cert.dh_public, a1.ephid, b1.ephid)
        k2 = derive_session_key(a2.keypair, b2.cert.dh_public, a2.ephid, b2.ephid)
        assert k1 != k2


class TestSession:
    def test_bidirectional_exchange(self, pair):
        a, b = pair
        sa = Session(a, b.cert)
        sb = Session(b, a.cert)
        assert sb.open(sa.seal(b"hello from a")) == b"hello from a"
        assert sa.open(sb.seal(b"hello from b")) == b"hello from b"
        assert sa.sent == 1 and sa.received == 1

    def test_many_messages_in_order(self, pair):
        a, b = pair
        sa, sb = Session(a, b.cert), Session(b, a.cert)
        for i in range(20):
            assert sb.open(sa.seal(f"msg-{i}".encode())) == f"msg-{i}".encode()

    def test_replayed_payload_rejected(self, pair):
        a, b = pair
        sa, sb = Session(a, b.cert), Session(b, a.cert)
        payload = sa.seal(b"once")
        sb.open(payload)
        with pytest.raises(SessionError):
            sb.open(payload)

    def test_tampered_payload_rejected(self, pair):
        a, b = pair
        sa, sb = Session(a, b.cert), Session(b, a.cert)
        payload = bytearray(sa.seal(b"data"))
        payload[-1] ^= 1
        with pytest.raises(SessionError):
            sb.open(bytes(payload))

    def test_direction_separation(self, pair):
        # A sender cannot be reflected its own packets.
        a, b = pair
        sa, sb = Session(a, b.cert), Session(b, a.cert)
        payload = sa.seal(b"to b")
        with pytest.raises(SessionError):
            sa.open(payload)

    def test_cross_session_splicing_rejected(self, pair):
        rng = DeterministicRng(44)
        signer = SigningKeyPair.generate(rng)
        a, b = pair
        c = make_owned(rng, signer)
        sa_b = Session(a, b.cert)
        # c pretends a's ciphertext belongs to the (a, c) session.
        sc = Session(c, a.cert)
        with pytest.raises(SessionError):
            sc.open(sa_b.seal(b"for b only"))

    def test_forged_sequence_numbers_do_not_move_the_window(self, pair):
        # The EphID pair travels in the clear, so anyone can send a payload
        # under any sequence number.  Refused, it must leave the replay
        # window where it was, or every real payload after it is "stale".
        a, b = pair
        sa, sb = Session(a, b.cert), Session(b, a.cert)
        for forged_seq in (2**62, 0):
            with pytest.raises(SessionError, match="authentication"):
                sb.open(forged_seq.to_bytes(8, "big") + bytes(40))
        real = [sa.seal(f"msg-{i}".encode()) for i in range(3)]
        assert [sb.open(payload) for payload in real] == [b"msg-0", b"msg-1", b"msg-2"]
        with pytest.raises(SessionError, match="replayed"):
            sb.open(real[1])

    def test_short_payload_rejected(self, pair):
        a, b = pair
        sb = Session(b, a.cert)
        with pytest.raises(SessionError):
            sb.open(b"short")


class TestReplayWindow:
    def test_fresh_values_accepted(self):
        window = ReplayWindow(8)
        assert all(window.check(i) for i in range(10))
        assert window.accepted == 10

    def test_duplicates_rejected(self):
        window = ReplayWindow(8)
        window.check(5)
        assert not window.check(5)
        assert window.rejected == 1

    def test_out_of_order_within_window_accepted(self):
        window = ReplayWindow(8)
        window.check(10)
        assert window.check(7)
        assert not window.check(7)

    def test_stale_rejected(self):
        window = ReplayWindow(8)
        window.check(100)
        assert not window.check(91)  # 100 - 8 = 92 is the floor
        assert window.check(93)

    def test_negative_rejected(self):
        assert not ReplayWindow().check(-1)

    def test_window_eviction_bounds_memory(self):
        window = ReplayWindow(16)
        for i in range(10_000):
            window.check(i)
        assert len(window._seen) <= 32 + 1

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            ReplayWindow(0)


class TestHandshakeMessages:
    def test_connection_request_roundtrip(self, pair):
        a, _ = pair
        request = ConnectionRequest(cert=a.cert, early_data=b"\x01\x02\x03")
        parsed = ConnectionRequest.parse(request.pack())
        assert parsed.cert == a.cert
        assert parsed.early_data == b"\x01\x02\x03"

    def test_connection_request_empty_early_data(self, pair):
        a, _ = pair
        parsed = ConnectionRequest.parse(ConnectionRequest(cert=a.cert).pack())
        assert parsed.early_data == b""

    def test_connection_request_truncated(self, pair):
        a, _ = pair
        wire = ConnectionRequest(cert=a.cert, early_data=b"abc").pack()
        with pytest.raises(CertError):
            ConnectionRequest.parse(wire[:-1])

    def test_connection_accept_roundtrip(self, pair):
        _, b = pair
        accept = ConnectionAccept(serving_cert=b.cert, data=b"greeting")
        parsed = ConnectionAccept.parse(accept.pack())
        assert parsed.serving_cert == b.cert
        assert parsed.data == b"greeting"


class TestReceiveOnlyGuard:
    def test_stack_refuses_receive_only_source(self, world):
        from repro.core.certs import FLAG_RECEIVE_ONLY

        alice = world.hosts["alice"]
        bob_owned = world.hosts["bob"].acquire_ephid_direct()
        ro = alice.acquire_ephid_direct(flags=FLAG_RECEIVE_ONLY)
        with pytest.raises(ApnaError):
            alice.stack.open_session(ro, bob_owned.cert)
