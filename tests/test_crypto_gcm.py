"""AES-GCM tests pinned to the NIST GCM specification test cases."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.gcm import AesGcm, PureAesGcm

NIST_KEY = bytes.fromhex("feffe9928665731c6d6a8f9467308308")
NIST_IV = bytes.fromhex("cafebabefacedbaddecaf888")
NIST_PT = bytes.fromhex(
    "d9313225f88406e5a55909c5aff5269a"
    "86a7a9531534f7da2e4c303d8a318a72"
    "1c3c0c95956809532fcf0e2449a6b525"
    "b16aedf5aa0de657ba637b391aafd255"
)
NIST_AAD = bytes.fromhex("feedfacedeadbeeffeedfacedeadbeefabaddad2")

#: The GCM specification's AES-128 test cases: number -> (key, IV,
#: plaintext, AAD, ciphertext hex, tag hex).  Cases 5 and 6 carry a
#: 64-bit and a 480-bit IV (J0 = GHASH(IV)); production takes 96-bit
#: nonces only, so they pin the spec alone
#: (``tests/test_crypto_backends.py`` runs every case against it).
NIST_GCM_VECTORS = {
    1: (bytes(16), bytes(12), b"", b"", "", "58e2fccefa7e3061367f1d57a4e7455a"),
    2: (
        bytes(16),
        bytes(12),
        bytes(16),
        b"",
        "0388dace60b6a392f328c2b971b2fe78",
        "ab6e47d42cec13bdf53a67b21257bddf",
    ),
    3: (
        NIST_KEY,
        NIST_IV,
        NIST_PT,
        b"",
        "42831ec2217774244b7221b784d0d49c"
        "e3aa212f2c02a4e035c17e2329aca12e"
        "21d514b25466931c7d8f6a5aac84aa05"
        "1ba30b396a0aac973d58e091473f5985",
        "4d5c2af327cd64a62cf35abd2ba6fab4",
    ),
    4: (
        NIST_KEY,
        NIST_IV,
        NIST_PT[:60],
        NIST_AAD,
        "42831ec2217774244b7221b784d0d49c"
        "e3aa212f2c02a4e035c17e2329aca12e"
        "21d514b25466931c7d8f6a5aac84aa05"
        "1ba30b396a0aac973d58e091",
        "5bc94fbc3221a5db94fae95ae7121a47",
    ),
    5: (
        NIST_KEY,
        bytes.fromhex("cafebabefacedbad"),
        NIST_PT[:60],
        NIST_AAD,
        "61353b4c2806934a777ff51fa22a4755"
        "699b2a714fcdc6f83766e5f97b6c7423"
        "73806900e49f24b22b097544d4896b42"
        "4989b5e1ebac0f07c23f4598",
        "3612d2e79e3b0785561be14aaca2fccb",
    ),
    6: (
        NIST_KEY,
        bytes.fromhex(
            "9313225df88406e555909c5aff5269aa"
            "6a7a9538534f7da1e4c303d2a318a728"
            "c3c0c95156809539fcf0e2429a6b5254"
            "16aedbf5a0de6a57a637b39b"
        ),
        NIST_PT[:60],
        NIST_AAD,
        "8ce24998625615b603a033aca13fb894"
        "be9112a5c3a211a8ba262a3cca7e2ca7"
        "01e4a9a4fba43c90ccdcb281d48c7c6f"
        "d62875d2aca417034c34aee5",
        "619cc5aefffe0bfa462af43c1699d050",
    ),
}


def check_nist_case(gcm_cls, case):
    """``gcm_cls`` seals NIST case ``case`` to its ciphertext and tag and
    opens it back."""
    key, iv, plaintext, aad, ciphertext, tag = NIST_GCM_VECTORS[case]
    gcm = gcm_cls(key)
    sealed = gcm.seal(iv, plaintext, aad)
    assert sealed.hex() == ciphertext + tag
    assert gcm.open(iv, sealed, aad) == plaintext


def test_nist_case_1_empty():
    check_nist_case(AesGcm, 1)


def test_nist_case_2_single_zero_block():
    check_nist_case(AesGcm, 2)


def test_nist_case_3_four_blocks():
    check_nist_case(AesGcm, 3)


def test_nist_case_4_with_aad():
    check_nist_case(AesGcm, 4)


@pytest.mark.parametrize("iv_size", [1, 8, 11, 13, 16, 60])
def test_production_takes_96_bit_nonces_only(iv_size):
    gcm = AesGcm(NIST_KEY)
    sealed = gcm.seal(NIST_IV, b"payload")
    with pytest.raises(ValueError, match="nonce must be 12 bytes"):
        gcm.seal(bytes(iv_size), b"payload")
    with pytest.raises(ValueError, match="nonce must be 12 bytes"):
        gcm.open(bytes(iv_size), sealed)


@pytest.mark.parametrize("gcm_cls", [AesGcm, PureAesGcm])
def test_empty_iv_refused(gcm_cls):
    """SP 800-38D §5.2.1.1: 1 <= len(IV).  An empty IV used to seal,
    and the blob it sealed to open again."""
    gcm = gcm_cls(bytes(16))
    with pytest.raises(ValueError):
        gcm.seal(b"", b"hello")
    with pytest.raises(ValueError):
        gcm.open(b"", bytes(21))


def test_open_rejects_wrong_aad():
    gcm = AesGcm(NIST_KEY)
    sealed = gcm.seal(NIST_IV, b"payload", b"aad-1")
    with pytest.raises(ValueError):
        gcm.open(NIST_IV, sealed, b"aad-2")


def test_open_rejects_truncated():
    gcm = AesGcm(bytes(16))
    with pytest.raises(ValueError):
        gcm.open(bytes(12), b"short")


def test_tag_size_bounds():
    with pytest.raises(ValueError):
        AesGcm(bytes(16), tag_size=3)
    with pytest.raises(ValueError):
        AesGcm(bytes(16), tag_size=17)


@settings(max_examples=25, deadline=None)
@given(
    key=st.binary(min_size=16, max_size=16),
    nonce=st.binary(min_size=12, max_size=12),
    plaintext=st.binary(min_size=0, max_size=120),
    aad=st.binary(min_size=0, max_size=40),
)
def test_seal_open_roundtrip(key, nonce, plaintext, aad):
    gcm = AesGcm(key)
    assert gcm.open(nonce, gcm.seal(nonce, plaintext, aad), aad) == plaintext


@settings(max_examples=25, deadline=None)
@given(
    key=st.binary(min_size=16, max_size=16),
    nonce=st.binary(min_size=12, max_size=12),
    plaintext=st.binary(min_size=1, max_size=60),
    flip=st.integers(min_value=0),
)
def test_ciphertext_tamper_detected(key, nonce, plaintext, flip):
    gcm = AesGcm(key)
    sealed = bytearray(gcm.seal(nonce, plaintext))
    sealed[flip % len(sealed)] ^= 0x01
    with pytest.raises(ValueError):
        gcm.open(nonce, bytes(sealed))
