"""Tests for the Fig. 6 EphID construction."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ephid import (
    CIPHERTEXT_SIZE,
    EPHID_SIZE,
    IV_SIZE,
    TAG_SIZE,
    EphIdCodec,
    EphIdInfo,
    IvAllocator,
)
from repro.core.errors import EphIdError
from repro.crypto.aes import PureAES
from repro.crypto.rng import DeterministicRng

ENC_KEY = bytes(range(16))
MAC_KEY = bytes(range(16, 32))


@pytest.fixture()
def codec():
    return EphIdCodec(ENC_KEY, MAC_KEY)


def test_ephid_is_16_bytes(codec):
    # Fig. 6: 8 B ciphertext + 4 B IV + 4 B tag = 16 B, one AES block.
    assert CIPHERTEXT_SIZE + IV_SIZE + TAG_SIZE == EPHID_SIZE == 16
    assert len(codec.seal(hid=1, exp_time=2, iv=3)) == 16


def test_seal_open_roundtrip(codec):
    ephid = codec.seal(hid=0xDEADBEEF, exp_time=1_700_000_000, iv=42)
    info = codec.open(ephid)
    assert info == EphIdInfo(hid=0xDEADBEEF, exp_time=1_700_000_000)


def test_stateless_decode_needs_no_table(codec):
    # The defining property of the construction (Section IV-C): any number
    # of EphIDs decode with O(1) state.
    ephids = [codec.seal(hid=h, exp_time=h * 2, iv=h) for h in range(200)]
    for h, ephid in enumerate(ephids):
        assert codec.open(ephid).hid == h


def test_same_hid_distinct_ivs_give_unlinkable_tokens(codec):
    a = codec.seal(hid=7, exp_time=100, iv=1)
    b = codec.seal(hid=7, exp_time=100, iv=2)
    assert a != b
    # Both decode to the same host.
    assert codec.open(a).hid == codec.open(b).hid == 7


def test_iv_is_embedded_in_clear(codec):
    ephid = codec.seal(hid=1, exp_time=2, iv=0x01020304)
    (iv,) = struct.unpack_from(">I", ephid, CIPHERTEXT_SIZE)
    assert iv == 0x01020304


def test_tamper_any_byte_rejected(codec):
    ephid = codec.seal(hid=55, exp_time=1000, iv=77)
    for position in range(EPHID_SIZE):
        tampered = bytearray(ephid)
        tampered[position] ^= 0x01
        with pytest.raises(EphIdError):
            codec.open(bytes(tampered))


def test_forgery_without_keys_fails(codec):
    # An adversary cannot mint EphIDs (Section VI-A, Unauthorized EphID
    # Generation): random tokens fail the MAC check.
    rng = DeterministicRng(0)
    for _ in range(500):
        assert not codec.is_valid(rng.read(EPHID_SIZE))


def test_other_as_cannot_decode(codec):
    # EphIDs are "meaningful only to the issuing AS" (Section III-B).
    other = EphIdCodec(bytes(range(32, 48)), bytes(range(48, 64)))
    ephid = codec.seal(hid=9, exp_time=50, iv=1)
    with pytest.raises(EphIdError):
        other.open(ephid)


def test_wrong_length_rejected(codec):
    with pytest.raises(EphIdError):
        codec.open(bytes(15))
    with pytest.raises(EphIdError):
        codec.open(bytes(17))


def test_field_ranges(codec):
    with pytest.raises(EphIdError):
        codec.seal(hid=2**32, exp_time=0, iv=0)
    with pytest.raises(EphIdError):
        codec.seal(hid=0, exp_time=2**32, iv=0)
    with pytest.raises(EphIdError):
        codec.seal(hid=0, exp_time=0, iv=2**32)
    with pytest.raises(EphIdError):
        codec.seal(hid=-1, exp_time=0, iv=0)


def test_matches_fig6_over_the_spec_cipher(codec):
    """Fig. 6 written out over :class:`PureAES`: single-block CTR for the
    ciphertext, and a CBC-MAC over one fixed 16-byte block — which is one
    block encryption — for the tag."""
    for hid, exp_time, iv in ((1, 2, 3), (0xDEADBEEF, 2**32 - 1, 0), (7, 10**9, 2**31)):
        keystream = PureAES(ENC_KEY).encrypt_block(struct.pack(">I", iv) + bytes(12))
        ciphertext = bytes(
            x ^ k for x, k in zip(struct.pack(">II", hid, exp_time), keystream)
        )
        mac_input = struct.pack(">I", iv) + bytes(4) + ciphertext
        tag = PureAES(MAC_KEY).encrypt_block(mac_input)[:TAG_SIZE]
        assert codec.seal(hid, exp_time, iv) == ciphertext + struct.pack(">I", iv) + tag


def test_identical_keys_rejected():
    with pytest.raises(ValueError):
        EphIdCodec(ENC_KEY, ENC_KEY)


def test_expired_helper():
    info = EphIdInfo(hid=1, exp_time=100)
    assert not info.expired(now=99)
    assert not info.expired(now=100)
    assert info.expired(now=101)


@settings(max_examples=60, deadline=None)
@given(
    hid=st.integers(min_value=0, max_value=2**32 - 1),
    exp_time=st.integers(min_value=0, max_value=2**32 - 1),
    iv=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_property_roundtrip(hid, exp_time, iv):
    codec = EphIdCodec(ENC_KEY, MAC_KEY)
    info = codec.open(codec.seal(hid=hid, exp_time=exp_time, iv=iv))
    assert (info.hid, info.exp_time) == (hid, exp_time)


@settings(max_examples=20, deadline=None)
@given(
    hid=st.integers(min_value=0, max_value=2**32 - 1),
    exp_time=st.integers(min_value=0, max_value=2**32 - 1),
    iv1=st.integers(min_value=0, max_value=2**32 - 1),
    iv2=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_distinct_ivs_never_collide(hid, exp_time, iv1, iv2):
    codec = EphIdCodec(ENC_KEY, MAC_KEY)
    a = codec.seal(hid=hid, exp_time=exp_time, iv=iv1)
    b = codec.seal(hid=hid, exp_time=exp_time, iv=iv2)
    assert (a == b) == (iv1 == iv2)


class TestIvAllocator:
    def test_sequential_unique(self):
        alloc = IvAllocator(start=10)
        ivs = [alloc.next_iv() for _ in range(100)]
        assert len(set(ivs)) == 100
        assert alloc.issued == 100

    def test_wraps_modulo_32_bits(self):
        alloc = IvAllocator(start=2**32 - 1)
        assert alloc.next_iv() == 2**32 - 1
        assert alloc.next_iv() == 0

    def test_random_start_from_rng(self):
        a = IvAllocator(DeterministicRng(1))
        b = IvAllocator(DeterministicRng(1))
        assert a.next_iv() == b.next_iv()

    def test_exhaustion_guard(self):
        alloc = IvAllocator(start=0)
        alloc._remaining = 1
        alloc.next_iv()
        with pytest.raises(EphIdError):
            alloc.next_iv()
