"""Production vs spec: every OpenSSL primitive against its from-scratch twin.

The primitives the protocols use (:class:`AES`, :class:`Cmac`,
``ed25519.public_key`` / ``sign`` / ``verify``,
``x25519.public_key`` / ``shared_secret``, ``hmac_sha256``) are OpenSSL;
the ``Pure*`` classes and ``pure_*`` functions beside them are the spec
no protocol path runs.  The differential tests drive both with the same
seeded-random inputs — any divergence in output bytes or in what is
accepted or refused is a bug in one of them.  The ``test_spec_*`` tests
run the known-answer tables of the ``tests/test_crypto_*.py`` files
(which pin production) against the spec too.
"""

import random

import pytest

from repro.crypto import ed25519, kdf, x25519
from repro.crypto.aead import EtmScheme
from repro.crypto.aes import AES, PureAES
from repro.crypto.cmac import Cmac, PureCmac
from repro.crypto.kdf import derive_subkey, hkdf

from tests.test_crypto_aes import FIPS_197_VECTORS
from tests.test_crypto_cmac import KEY as CMAC_KEY
from tests.test_crypto_cmac import RFC4493_VECTORS
from tests.test_crypto_ed25519 import RFC8032_VECTORS
from tests.test_crypto_kdf import RFC4231_VECTORS
from tests.test_crypto_modes import KEY as MODES_KEY
from tests.test_crypto_modes import check_sp800_38a_ctr
from tests.test_crypto_x25519 import RFC7748_VECTORS


def test_provider_layer_validation_parity():
    """Production and spec refuse the same out-of-range parameters."""
    for cipher_cls in (AES, PureAES):
        with pytest.raises(ValueError):
            cipher_cls(bytes(15))
        cipher = cipher_cls(bytes(16))
        for bad_block in (bytes(15), bytes(17)):
            with pytest.raises(ValueError):
                cipher.encrypt_block(bad_block)
            with pytest.raises(ValueError):
                cipher.ctr_xcrypt(bad_block, b"x" * 200)
    for mac in (Cmac(bytes(16)), PureCmac(bytes(16))):
        for bad_length in (0, 17):
            with pytest.raises(ValueError):
                mac.tag(b"x", bad_length)


@pytest.mark.parametrize("key_size", [16, 24, 32])
def test_aes_block_agrees(key_size):
    rnd = random.Random(0xAE5_000 + key_size)
    for _ in range(25):
        key = rnd.randbytes(key_size)
        block = rnd.randbytes(16)
        spec, prod = PureAES(key), AES(key)
        assert spec.encrypt_block(block) == prod.encrypt_block(block)


def test_ctr_agrees_including_counter_wrap():
    rnd = random.Random(0xC7C7)
    lengths = [0, 1, 15, 16, 17, 64, 100, 1000]
    for length in lengths:
        key = rnd.randbytes(16)
        counter = rnd.randbytes(16)
        data = rnd.randbytes(length)
        spec, prod = PureAES(key), AES(key)
        assert spec.ctr_xcrypt(counter, data) == prod.ctr_xcrypt(counter, data)
    # The 128-bit counter must wrap identically — with a payload large
    # enough (>128 B) to drive production's native EVP CTR path, not
    # just its short-payload ECB keystream path.
    key = rnd.randbytes(16)
    spec, prod = PureAES(key), AES(key)
    near_wrap = b"\xff" * 16
    for size in (64, 256):
        assert spec.ctr_xcrypt(near_wrap, bytes(size)) == prod.ctr_xcrypt(
            near_wrap, bytes(size)
        )


def test_cmac_agrees_across_lengths_and_truncations():
    rnd = random.Random(0xC3AC)
    for length in [0, 1, 15, 16, 17, 40, 64, 100, 1518]:
        key = rnd.randbytes(16)
        message = rnd.randbytes(length)
        spec, prod = PureCmac(key), Cmac(key)
        for tag_len in (4, 8, 16):
            assert spec.tag(message, tag_len) == prod.tag(message, tag_len)
        assert prod.verify(message, spec.tag(message, 8))
        assert prod.tag_many([message, message[:-1]], 8) == [
            spec.tag(message, 8),
            spec.tag(message[:-1], 8),
        ]


def test_ed25519_agrees():
    rnd = random.Random(0xED2_5519)
    for _ in range(8):
        secret = rnd.randbytes(32)
        message = rnd.randbytes(rnd.randrange(0, 200))
        pub_spec = ed25519.pure_public_key(secret)
        pub_prod = ed25519.public_key(secret)
        assert pub_spec == pub_prod
        sig_spec = ed25519.pure_sign(secret, message)
        sig_prod = ed25519.sign(secret, message)
        assert sig_spec == sig_prod  # Ed25519 signing is deterministic
        # Cross-verification: each accepts the other's signature.
        assert ed25519.pure_verify(pub_prod, message, sig_prod)
        assert ed25519.verify(pub_spec, message, sig_spec)
        # Corruption is rejected by both.
        bad = bytearray(sig_spec)
        bad[rnd.randrange(64)] ^= 0xFF
        for verify in (ed25519.pure_verify, ed25519.verify):
            assert not verify(pub_spec, message, bytes(bad))
            assert not verify(pub_spec, message + b"!", sig_spec)


def test_ed25519_non_canonical_encodings_rejected_by_both():
    """OpenSSL reduces non-canonical point encodings instead of
    rejecting them; production screens them first (RFC 8032 §5.1.3), so
    it accepts exactly what the spec accepts."""
    from repro.crypto.ed25519 import L, P, _BASE, _compress, _scalar_mult

    message = b"canonicality"
    # Identity point encoded non-canonically: y = 1 + p.
    bad_pub = (1 + P).to_bytes(32, "little")
    sig = _compress(_scalar_mult(5, _BASE)) + (5).to_bytes(32, "little")
    good_pub = ed25519.pure_public_key(bytes(range(32)))
    # Sign bit set on x = 0 (identity with a claimed odd x).
    zero_x_bad = (1 | (1 << 255)).to_bytes(32, "little")
    for verify in (ed25519.pure_verify, ed25519.verify):
        assert not verify(bad_pub, message, sig)
        # Non-canonical R inside the signature.
        assert not verify(good_pub, message, bad_pub + (5).to_bytes(32, "little"))
        assert not verify(zero_x_bad, message, sig)
        # s >= L is non-canonical on both.
        assert not verify(good_pub, message, good_pub + L.to_bytes(32, "little"))


def test_x25519_agrees():
    rnd = random.Random(0x25519)
    for _ in range(8):
        priv_a = rnd.randbytes(32)
        priv_b = rnd.randbytes(32)
        pub_a = x25519.pure_public_key(priv_a)
        assert pub_a == x25519.public_key(priv_a)
        pub_b = x25519.pure_public_key(priv_b)
        shared = x25519.pure_shared_secret(priv_a, pub_b)
        assert shared == x25519.shared_secret(priv_a, pub_b)
        # DH symmetry across the two.
        assert x25519.shared_secret(priv_b, pub_a) == shared


def test_x25519_low_order_point_rejected_by_both():
    low_order = bytes(32)  # u = 0 is a low-order point
    for shared_secret in (x25519.pure_shared_secret, x25519.shared_secret):
        with pytest.raises(ValueError):
            shared_secret(b"\x02" * 32, low_order)


def test_hmac_and_hkdf_agree(monkeypatch):
    rnd = random.Random(0x4DF)
    for _ in range(10):
        key = rnd.randbytes(rnd.choice([16, 32, 65, 100]))
        message = rnd.randbytes(rnd.randrange(0, 300))
        assert kdf.pure_hmac_sha256(key, message) == kdf.hmac_sha256(key, message)
    ikm = rnd.randbytes(32)

    def derive():
        return hkdf(ikm, salt=b"s", info=b"i", length=80), derive_subkey(ikm, "etm")

    derived = derive()
    # HKDF built on the spec's HMAC.
    monkeypatch.setattr(kdf, "hmac_sha256", kdf.pure_hmac_sha256)
    assert derive() == derived


def test_aead_schemes_interoperate_across_backends():
    """The EtM composition over the spec primitives seals the same bytes
    as over production, and each opens the other's."""
    rnd = random.Random(0xAEAD)
    key = rnd.randbytes(32)
    nonce = rnd.randbytes(12)
    plaintext = rnd.randbytes(256)
    aad = rnd.randbytes(12)
    spec = EtmScheme(key)
    spec._enc = PureAES(derive_subkey(key, "etm-enc", 16))
    spec._mac = PureCmac(derive_subkey(key, "etm-mac", 16))
    prod = EtmScheme(key)
    sealed = spec.seal(nonce, plaintext, aad)
    assert sealed == prod.seal(nonce, plaintext, aad)
    assert prod.open(nonce, sealed, aad) == plaintext
    assert spec.open(nonce, prod.seal(nonce, plaintext, aad), aad) == plaintext


# -- the known-answer tables, run against the spec --


@pytest.mark.parametrize("key,plaintext,ciphertext", FIPS_197_VECTORS)
def test_spec_aes_vectors(key, plaintext, ciphertext):
    cipher = PureAES(bytes.fromhex(key))
    assert cipher.encrypt_block(bytes.fromhex(plaintext)).hex() == ciphertext


def test_spec_ctr_vectors():
    check_sp800_38a_ctr(PureAES(MODES_KEY))


@pytest.mark.parametrize("message,tag", RFC4493_VECTORS)
def test_spec_cmac_vectors(message, tag):
    assert PureCmac(CMAC_KEY).tag(message).hex() == tag


@pytest.mark.parametrize("secret,public,message,signature", RFC8032_VECTORS)
def test_spec_ed25519_vectors(secret, public, message, signature):
    secret, public, message, signature = (
        bytes.fromhex(field) for field in (secret, public, message, signature)
    )
    assert ed25519.pure_public_key(secret) == public
    assert ed25519.pure_sign(secret, message) == signature
    assert ed25519.pure_verify(public, message, signature)


@pytest.mark.parametrize("name", sorted(RFC7748_VECTORS))
def test_spec_x25519_vectors(name):
    scalar, u, out = (bytes.fromhex(field) for field in RFC7748_VECTORS[name])
    assert x25519.pure_shared_secret(scalar, u) == out
    if u == x25519.BASE_POINT:
        assert x25519.pure_public_key(scalar) == out


@pytest.mark.parametrize("case", sorted(RFC4231_VECTORS))
def test_spec_hmac_vectors(case):
    key, data, mac = RFC4231_VECTORS[case]
    assert kdf.pure_hmac_sha256(key, data).hex() == mac
