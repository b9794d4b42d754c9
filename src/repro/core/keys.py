"""Key material for ASes, hosts and EphIDs.

Paper mapping:

* ``kA`` — the AS master secret.  The EphID encryption key kA' and MAC key
  kA'' "can be derived from the secret key of the AS" (Section V-A1); we
  derive them with HKDF domain separation.  A third subkey authenticates
  intra-AS infrastructure messages (the ``MAC_kAS(revoke ...)`` push in
  Fig. 5).
* ``K+AS / K-AS`` — the AS key pair.  The paper uses one Curve25519 pair
  for both signing and key exchange "for simplicity" but notes a real
  deployment would separate them; we separate them (Ed25519 for
  signatures, X25519 for DH) while keeping both under one object.
* ``K+H / K-H`` — the host key pair used in bootstrapping (Fig. 2).
* ``K+EphID / K-EphID`` — the per-EphID key pair, generated by the host.
  The paper uses it both to negotiate the session key (DH) and to sign
  shutoff requests; we realise that dual use by deriving an X25519 key
  and an Ed25519 key from one 32-byte seed with domain separation.
* ``kHA`` — host<->AS shared secret from DH, split into a control-channel
  encryption key and a per-packet MAC key ("One key is used to encrypt
  EphID request and reply messages, and the other key is used to
  authenticate every packet", Section IV-B).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..crypto import ed25519, x25519
from ..crypto.kdf import derive_subkey, hkdf
from ..crypto.rng import Rng, SystemRng

SYMMETRIC_KEY_SIZE = 16


@dataclass(frozen=True)
class HostAsKeys:
    """The two kHA subkeys shared between a host and its AS."""

    control: bytes  # encrypts EphID request/reply messages
    packet_mac: bytes  # authenticates every packet the host sends

    @classmethod
    def from_dh(cls, shared_secret: bytes) -> "HostAsKeys":
        master = hkdf(shared_secret, info=b"apna-kha", length=32)
        return cls(
            control=derive_subkey(master, "kha-control", SYMMETRIC_KEY_SIZE),
            packet_mac=derive_subkey(master, "kha-packet-mac", SYMMETRIC_KEY_SIZE),
        )


class AsSecret:
    """The AS master secret kA and its derived subkeys."""

    __slots__ = (
        "master",
        "ephid_enc",
        "ephid_mac",
        "infra_mac",
        "infra_enc",
        "shard_route",
    )

    def __init__(self, master: bytes) -> None:
        if len(master) != SYMMETRIC_KEY_SIZE:
            raise ValueError(f"kA must be {SYMMETRIC_KEY_SIZE} bytes")
        self.master = master
        self.ephid_enc = derive_subkey(master, "ephid-enc")  # kA'
        self.ephid_mac = derive_subkey(master, "ephid-mac")  # kA''
        self.infra_mac = derive_subkey(master, "infra-mac")  # kAS in Fig. 5
        self.infra_enc = derive_subkey(master, "infra-enc", 32)  # seals m1 (Fig. 2)
        # kR: keys the IV -> shard dispatch map so clear IV bytes carry no
        # publicly computable linkage (repro.sharding.plan).  AS-internal,
        # never leaves the AS's own processes.
        self.shard_route = derive_subkey(master, "shard-route")

    @classmethod
    def generate(cls, rng: Rng | None = None) -> "AsSecret":
        rng = rng or SystemRng()
        return cls(rng.read(SYMMETRIC_KEY_SIZE))


@dataclass(frozen=True)
class SigningKeyPair:
    """Ed25519 key pair."""

    secret: bytes = field(repr=False)
    public: bytes
    #: ``secret`` loaded once into OpenSSL: re-loading it per signature
    #: doubled the cost of one.  Derived, so not compared or printed.
    _loaded_key: object = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_loaded_key", ed25519.signing_key(self.secret))

    def __reduce__(self):
        # The loaded key does not pickle; it is rebuilt from the seed.
        return type(self), (self.secret, self.public)

    @classmethod
    def generate(cls, rng: Rng | None = None) -> "SigningKeyPair":
        rng = rng or SystemRng()
        secret = rng.read(32)
        return cls(secret=secret, public=ed25519.public_key(secret))

    def sign(self, message: bytes) -> bytes:
        return self._loaded_key.sign(message)


@dataclass(frozen=True)
class ExchangeKeyPair:
    """X25519 key pair."""

    secret: bytes = field(repr=False)
    public: bytes

    @classmethod
    def generate(cls, rng: Rng | None = None) -> "ExchangeKeyPair":
        rng = rng or SystemRng()
        secret = rng.read(32)
        return cls(secret=secret, public=x25519.public_key(secret))

    def shared_secret(self, peer_public: bytes) -> bytes:
        return x25519.shared_secret(self.secret, peer_public)


@dataclass(frozen=True)
class AsKeyMaterial:
    """Everything secret an AS holds."""

    secret: AsSecret
    signing: SigningKeyPair
    exchange: ExchangeKeyPair

    @classmethod
    def generate(cls, rng: Rng | None = None) -> "AsKeyMaterial":
        rng = rng or SystemRng()
        return cls(
            secret=AsSecret.generate(rng),
            signing=SigningKeyPair.generate(rng),
            exchange=ExchangeKeyPair.generate(rng),
        )


@dataclass(frozen=True)
class EphIdKeyPair:
    """The per-EphID key pair, generated by the host (Section IV-C).

    The paper's single K-EphID is used both for DH key negotiation and for
    signing shutoff requests; we derive an X25519 and an Ed25519 key from
    one seed with domain separation to realise that dual use soundly.
    """

    seed: bytes = field(repr=False)
    exchange: ExchangeKeyPair
    signing: SigningKeyPair

    @classmethod
    def generate(cls, rng: Rng | None = None) -> "EphIdKeyPair":
        rng = rng or SystemRng()
        return cls.from_seed(rng.read(32))

    @classmethod
    def from_seed(cls, seed: bytes) -> "EphIdKeyPair":
        if len(seed) != 32:
            raise ValueError("EphID key seed must be 32 bytes")
        dh_secret = hkdf(seed, info=b"ephid-dh", length=32)
        sig_secret = hkdf(seed, info=b"ephid-sig", length=32)
        return cls(
            seed=seed,
            exchange=ExchangeKeyPair(dh_secret, x25519.public_key(dh_secret)),
            signing=SigningKeyPair(sig_secret, ed25519.public_key(sig_secret)),
        )


def host_as_dh(host_exchange: ExchangeKeyPair, as_public: bytes) -> HostAsKeys:
    """Host side of the Fig. 2 key agreement: kHA = DH(K-H, K+AS)."""
    return HostAsKeys.from_dh(host_exchange.shared_secret(as_public))


def as_host_dh(as_exchange: ExchangeKeyPair, host_public: bytes) -> HostAsKeys:
    """AS side of the Fig. 2 key agreement: kHA = DH(K-AS, K+H)."""
    return HostAsKeys.from_dh(as_exchange.shared_secret(host_public))
