"""Tests for key material, EphID certificates and the RPKI substrate."""

import dataclasses
import pickle

import pytest

from repro.core.certs import (
    AS_CERT_SIZE,
    EPHID_CERT_SIZE,
    FLAG_CONTROL,
    FLAG_RECEIVE_ONLY,
    AsCertificate,
    EphIdCertificate,
)
from repro.core.errors import CertError
from repro.core.keys import (
    AsKeyMaterial,
    AsSecret,
    EphIdKeyPair,
    ExchangeKeyPair,
    HostAsKeys,
    SigningKeyPair,
    as_host_dh,
    host_as_dh,
)
from repro.core.rpki import RpkiDirectory, TrustAnchor
from repro.crypto import ed25519
from repro.crypto.rng import DeterministicRng


@pytest.fixture()
def rng():
    return DeterministicRng(2024)


class TestKeys:
    def test_as_secret_subkeys_differ(self, rng):
        secret = AsSecret.generate(rng)
        assert len({secret.ephid_enc, secret.ephid_mac, secret.infra_mac}) == 3

    def test_as_secret_requires_16_bytes(self):
        with pytest.raises(ValueError):
            AsSecret(bytes(15))

    def test_host_as_dh_agreement(self, rng):
        as_keys = AsKeyMaterial.generate(rng)
        host = ExchangeKeyPair.generate(rng)
        host_view = host_as_dh(host, as_keys.exchange.public)
        as_view = as_host_dh(as_keys.exchange, host.public)
        assert host_view == as_view
        assert host_view.control != host_view.packet_mac

    def test_kha_differs_per_host(self, rng):
        as_keys = AsKeyMaterial.generate(rng)
        host1 = ExchangeKeyPair.generate(rng)
        host2 = ExchangeKeyPair.generate(rng)
        assert as_host_dh(as_keys.exchange, host1.public) != as_host_dh(
            as_keys.exchange, host2.public
        )

    def test_signing_pair_roundtrip(self, rng):
        pair = SigningKeyPair.generate(rng)
        signature = pair.sign(b"message")
        assert ed25519.verify(pair.public, b"message", signature)

    def test_signing_pair_holds_its_loaded_key_out_of_sight(self, rng):
        """The pair signs with a key loaded once, and that key is neither
        printed, compared, hashed nor pickled: the frozen pair behaves as
        its two byte fields."""
        pair = SigningKeyPair.generate(rng)
        assert pair.sign(b"m") == ed25519.sign(pair.secret, b"m")
        twin = SigningKeyPair(secret=pair.secret, public=pair.public)
        assert twin == pair and hash(twin) == hash(pair)
        assert repr(pair) == f"SigningKeyPair(public={pair.public!r})"
        revived = pickle.loads(pickle.dumps(pair))
        assert revived == pair and revived.sign(b"m") == pair.sign(b"m")
        with pytest.raises(dataclasses.FrozenInstanceError):
            pair.secret = bytes(32)

    def test_ephid_keypair_dual_use(self, rng):
        pair = EphIdKeyPair.generate(rng)
        # DH public and signing public are distinct keys from one seed.
        assert pair.exchange.public != pair.signing.public
        # Deterministic from the seed.
        again = EphIdKeyPair.from_seed(pair.seed)
        assert again.exchange.public == pair.exchange.public
        assert again.signing.public == pair.signing.public

    def test_ephid_keypair_seed_length(self):
        with pytest.raises(ValueError):
            EphIdKeyPair.from_seed(bytes(31))

    def test_hostaskeys_deterministic(self):
        a = HostAsKeys.from_dh(bytes(32))
        b = HostAsKeys.from_dh(bytes(32))
        assert a == b


class TestEphIdCertificate:
    def make_cert(self, rng, signer=None, **overrides):
        signer = signer or SigningKeyPair.generate(rng)
        keys = EphIdKeyPair.generate(rng)
        fields = dict(
            ephid=rng.read(16),
            exp_time=1_000_000,
            dh_public=keys.exchange.public,
            sig_public=keys.signing.public,
            aid=65000,
            aa_ephid=rng.read(16),
            flags=0,
        )
        fields.update(overrides)
        return signer, EphIdCertificate.issue(signer, **fields)

    def test_issue_and_verify(self, rng):
        signer, cert = self.make_cert(rng)
        cert.verify(signer.public, now=999_999)

    def test_verify_rejects_wrong_signer(self, rng):
        _, cert = self.make_cert(rng)
        other = SigningKeyPair.generate(rng)
        with pytest.raises(CertError):
            cert.verify(other.public)

    def test_verify_rejects_expired(self, rng):
        signer, cert = self.make_cert(rng, exp_time=100)
        cert.verify(signer.public, now=100)
        with pytest.raises(CertError):
            cert.verify(signer.public, now=101)

    def test_pack_parse_roundtrip(self, rng):
        signer, cert = self.make_cert(rng, flags=FLAG_RECEIVE_ONLY)
        wire = cert.pack()
        assert len(wire) == EPHID_CERT_SIZE
        recovered = EphIdCertificate.parse(wire)
        assert recovered == cert
        recovered.verify(signer.public)

    def test_parse_rejects_short(self):
        with pytest.raises(CertError):
            EphIdCertificate.parse(bytes(10))

    def test_tampered_fields_fail_verification(self, rng):
        signer, cert = self.make_cert(rng)
        wire = bytearray(cert.pack())
        wire[16] ^= 0x01  # flip a bit in exp_time
        with pytest.raises(CertError):
            EphIdCertificate.parse(bytes(wire)).verify(signer.public)

    def test_receive_only_flag(self, rng):
        _, plain = self.make_cert(rng)
        _, ro = self.make_cert(rng, flags=FLAG_RECEIVE_ONLY)
        assert not plain.receive_only
        assert ro.receive_only
        assert FLAG_CONTROL != FLAG_RECEIVE_ONLY

    def test_field_validation(self, rng):
        signer = SigningKeyPair.generate(rng)
        with pytest.raises(CertError):
            EphIdCertificate(
                ephid=bytes(15),
                exp_time=0,
                dh_public=bytes(32),
                sig_public=bytes(32),
            )
        with pytest.raises(CertError):
            EphIdCertificate(
                ephid=bytes(16),
                exp_time=2**32,
                dh_public=bytes(32),
                sig_public=bytes(32),
            )


class TestRpki:
    def test_anchor_certify_and_lookup(self, rng):
        anchor = TrustAnchor(rng)
        as_keys = AsKeyMaterial.generate(rng)
        cert = anchor.certify(64512, as_keys)
        directory = RpkiDirectory(anchor.public_key, clock=lambda: 0.0)
        directory.publish(cert)
        assert directory.lookup(64512).signing_public == as_keys.signing.public
        assert directory.signing_key_of(64512) == as_keys.signing.public
        assert 64512 in directory
        assert len(directory) == 1

    def test_lookup_unknown_aid(self, rng):
        directory = RpkiDirectory(TrustAnchor(rng).public_key, clock=lambda: 0.0)
        with pytest.raises(CertError):
            directory.lookup(1)

    def test_publish_rejects_forged_cert(self, rng):
        anchor = TrustAnchor(rng)
        rogue_anchor = TrustAnchor(rng)
        as_keys = AsKeyMaterial.generate(rng)
        forged = rogue_anchor.certify(64512, as_keys)
        directory = RpkiDirectory(anchor.public_key, clock=lambda: 0.0)
        with pytest.raises(CertError):
            directory.publish(forged)

    def test_publish_rejects_key_swap(self, rng):
        anchor = TrustAnchor(rng)
        directory = RpkiDirectory(anchor.public_key, clock=lambda: 0.0)
        directory.publish(anchor.certify(64512, AsKeyMaterial.generate(rng)))
        with pytest.raises(CertError):
            directory.publish(anchor.certify(64512, AsKeyMaterial.generate(rng)))

    def test_expired_cert_rejected_at_lookup(self, rng):
        anchor = TrustAnchor(rng)
        now = [50.0]
        directory = RpkiDirectory(anchor.public_key, clock=lambda: now[0])
        directory.publish(anchor.certify(1, AsKeyMaterial.generate(rng), exp_time=100))
        directory.lookup(1)
        now[0] = 200.0
        with pytest.raises(CertError):
            directory.lookup(1)

    def test_as_cert_pack_parse(self, rng):
        anchor = TrustAnchor(rng)
        cert = anchor.certify(7, AsKeyMaterial.generate(rng), exp_time=123)
        wire = cert.pack()
        assert len(wire) == AS_CERT_SIZE
        assert AsCertificate.parse(wire) == cert
