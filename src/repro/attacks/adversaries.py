"""Attack implementations mirroring Section VI of the paper.

Every adversary works only with what its threat model grants it — sniffed
packets, control of foreign ASes, long-term keys obtained *after* the
fact — and returns measurable success counters.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from ..core.autonomous_system import ApnaAutonomousSystem, ApnaHostNode
from ..core.border_router import Action
from ..core.certs import EphIdCertificate
from ..core.ephid import EPHID_SIZE
from ..core.keys import EphIdKeyPair, SigningKeyPair
from ..core.session import OwnedEphId, Session, derive_session_key
from ..crypto.rng import DeterministicRng, Rng
from ..wire.apna import ApnaHeader, ApnaPacket, Endpoint


class EphIdSpoofer:
    """Section VI-A, EphID Spoofing: use a *sniffed* (valid) EphID.

    The adversary shares the access network with the victim, sees valid
    EphIDs in flight, and injects packets using them — but cannot compute
    the per-packet MAC without the victim's kHA.
    """

    def __init__(self, assembly: ApnaAutonomousSystem, rng: Rng | None = None) -> None:
        self.assembly = assembly
        self._rng = rng or DeterministicRng(0xBAD)
        self.attempts = 0
        self.successes = 0

    def spoof(self, sniffed_ephid: bytes, dst: Endpoint, payload: bytes = b"spoof") -> bool:
        """Inject one frame at the source AS's border, as a host on its
        access network would; ``True`` if the AS lets it through."""
        header = ApnaHeader(
            src_aid=self.assembly.aid,
            src_ephid=sniffed_ephid,
            dst_ephid=dst.ephid,
            dst_aid=dst.aid,
            mac=self._rng.read(8),  # best effort: a guessed MAC
            nonce=self.attempts if self.assembly.config.replay_protection else None,
        )
        frame = ApnaPacket(header, payload).to_wire()
        [verdict] = self.assembly.judge([frame], [True])
        self.attempts += 1
        success = verdict.action is not Action.DROP
        self.successes += int(success)
        return success


class EphIdMinter:
    """Section VI-A, Unauthorized EphID Generation: forge tokens.

    Tries random tokens and structured variants (bit-flips of a valid
    EphID) against the AS codec; CCA security means acceptance is
    negligible.
    """

    def __init__(self, assembly: ApnaAutonomousSystem, seed: int = 0xF0F0) -> None:
        self.assembly = assembly
        self._rng = DeterministicRng(seed)
        self.attempts = 0
        self.accepted = 0

    def mint_random(self, tries: int) -> int:
        for _ in range(tries):
            self.attempts += 1
            if self.assembly.codec.is_valid(self._rng.read(EPHID_SIZE)):
                self.accepted += 1
        return self.accepted

    def mint_malleated(self, valid_ephid: bytes) -> int:
        """All 128 single-bit malleations of a genuine EphID."""
        for bit in range(8 * EPHID_SIZE):
            tampered = bytearray(valid_ephid)
            tampered[bit // 8] ^= 1 << (bit % 8)
            self.attempts += 1
            if self.assembly.codec.is_valid(bytes(tampered)):
                self.accepted += 1
        return self.accepted


class IdentityMinter:
    """Section VI-A, Identity Minting: amass live HIDs.

    A subscriber re-bootstraps repeatedly hoping to accumulate usable
    identities; the AS revokes the previous HID each time, so the number
    of *live* identities never exceeds one.
    """

    def __init__(self, host: ApnaHostNode) -> None:
        self.host = host

    def mint(self, rounds: int) -> int:
        """Returns the number of live HIDs after ``rounds`` re-bootstraps."""
        for _ in range(rounds):
            self.host.bootstrap()
        db = self.host.assembly.hostdb
        return sum(
            1
            for record in db.records()
            if record.subscriber_id == self.host.subscriber_id and not record.revoked
        )


@dataclass
class MitmAs:
    """Section VI-B: a malicious AS substituting certificates.

    The attacker controls an AS on the path (or the destination AS's
    infrastructure) and swaps the victim's certificate for one binding
    the attacker's keys.  It CAN forge a cert signed by *its own* key,
    but cannot produce the victim-AS signature the peer checks via RPKI.
    """

    attacker_signer: SigningKeyPair
    intercepted: int = 0
    successes: int = 0

    def substitute(self, genuine: EphIdCertificate, rng: Rng) -> EphIdCertificate:
        """The substituted certificate (attacker keys, forged binding)."""
        self.intercepted += 1
        attacker_keys = EphIdKeyPair.generate(rng)
        return EphIdCertificate.issue(
            self.attacker_signer,
            ephid=genuine.ephid,
            exp_time=genuine.exp_time,
            dh_public=attacker_keys.exchange.public,
            sig_public=attacker_keys.signing.public,
            aid=genuine.aid,
            aa_ephid=genuine.aa_ephid,
        )

    def attempt(self, victim_host, genuine: EphIdCertificate, rng: Rng) -> bool:
        """Returns True if the victim accepts the substituted cert."""
        from ..core.errors import CertError

        fake = self.substitute(genuine, rng)
        try:
            victim_host.stack.verify_peer_cert(fake)
        except CertError:
            return False
        self.successes += 1
        return True


class ShutoffAbuser:
    """Section VI-C: unauthorized shutoff requests as a DoS tool."""

    def __init__(self, assembly_of_victim_source: ApnaAutonomousSystem) -> None:
        self.aa = assembly_of_victim_source.aa
        self.attempts = 0
        self.successes = 0

    def attempt(self, request) -> bool:
        self.attempts += 1
        response = self.aa.handle_shutoff(request)
        self.successes += int(response.accepted)
        return response.accepted


class FlowLinker:
    """Section II-B sender-flow unlinkability: a passive observer groups
    flows by their source EphIDs and scores against ground truth.

    It reads EphIDs only, not the header's other clear fields.  Grouping
    by source EphID recovers nothing beyond singleton groups with
    per-flow EphIDs and the full sender<->flows mapping with per-host
    ones.  A score of 0 is not unlinkability against every header-only
    observer: nonces number each EphID's own packets (so they link no
    two EphIDs), but the Fig. 6 IVs of EphIDs issued back to back are
    adjacent, an open leak this linker does not score.
    """

    def __init__(self) -> None:
        self.observed: list[tuple[bytes, int]] = []  # (src_ephid, true_host)

    def observe(self, src_ephid: bytes, true_host: int) -> None:
        self.observed.append((src_ephid, true_host))

    def linkage_score(self) -> float:
        """Fraction of same-host flow *pairs* the observer can link.

        1.0 — every pair of flows from the same host is linkable
        (per-host EphIDs); 0.0 — none are (per-flow EphIDs).
        """
        by_host: dict[int, list[bytes]] = defaultdict(list)
        for ephid, host in self.observed:
            by_host[host].append(ephid)
        total_pairs = 0
        linked_pairs = 0
        for ephids in by_host.values():
            n = len(ephids)
            total_pairs += n * (n - 1) // 2
            counts: dict[bytes, int] = defaultdict(int)
            for e in ephids:
                counts[e] += 1
            linked_pairs += sum(c * (c - 1) // 2 for c in counts.values())
        if total_pairs == 0:
            return 0.0
        return linked_pairs / total_pairs


class PfsBreaker:
    """Section VI-B: retrospective decryption with captured long-term keys.

    The adversary records ciphertext, then later obtains *all long-term
    secrets* (K-AS, K-H, even the AS master kA).  PFS holds iff those
    secrets do not yield the session key.  We check the strongest
    structural claim: the session key is a function of the ephemeral
    EphID secrets only, which were deleted at session end.
    """

    def __init__(self) -> None:
        self.recorded: list[bytes] = []

    def record(self, frame: bytes) -> None:
        self.recorded.append(frame)

    @staticmethod
    def try_decrypt_with(
        session_a_cert: EphIdCertificate,
        session_b_cert: EphIdCertificate,
        long_term_secrets: dict[str, bytes],
        sealed_payload: bytes,
        true_key: bytes,
    ) -> bool:
        """Attempt every key derivable from long-term secrets; succeed only
        if one reproduces the true session key (it cannot: the DH secrets
        behind the certs are not derivable from any input here)."""
        from ..crypto.kdf import hkdf

        first, second = sorted((session_a_cert.ephid, session_b_cert.ephid))
        info = b"apna-session-v1:" + first + second
        for secret in long_term_secrets.values():
            candidate = hkdf(secret, info=info, length=32)
            if candidate == true_key:
                return True
        return False
