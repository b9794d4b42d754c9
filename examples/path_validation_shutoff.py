#!/usr/bin/env python3
"""Strengthened shutoff via path validation (paper Section VIII-C).

The base shutoff protocol (Fig. 5) only lets the packet's *recipient*
demand a shutoff.  The paper suggests combining APNA with path-validation
proposals (Packet Passport, ICING, OPT) so that on-path ASes — the ones
actually carrying a DDoS flood — can act too.  This example runs that
combination end to end:

1. An attacker in AS 100 floods a victim four ASes away.
2. AS 100's border stamps each packet with Passport MACs for every
   downstream AS (one CMAC per AS, keyed pairwise via RPKI).
3. Transit AS 200, drowning in flood traffic, verifies its stamp and
   issues an on-path shutoff to AS 100's accountability agent.
4. The agent validates the request (real AS? genuine customer packet?
   provably stamped toward that AS?) and revokes the attacker's EphID.
5. An off-path AS tries the same and is rejected.

Run:  python examples/path_validation_shutoff.py
"""

from repro.core.border_router import DropReason
from repro.pathval import (
    AsPairwiseKeys,
    OnPathShutoffRequest,
    PassportStamper,
    PassportVerifier,
    upgrade_to_onpath,
)
from repro import scenarios
from repro.wire.apna import Endpoint


def main() -> None:
    # --- A four-AS chain: attacker -> transit -> transit -> victim.
    world = scenarios.build("chain:4", seed="pathval-demo")
    source, transit, _transit2, destination = world.ases
    attacker = world.attach_host("attacker", at=source.aid)
    victim = world.attach_host("victim", at=destination.aid)
    print(f"chain: {' -> '.join(f'AS{a.aid}' for a in world.ases)}")

    # AS 100 deploys the extension: its agent now accepts on-path requests.
    agent = upgrade_to_onpath(source)

    # --- The flood. The source AS stamps every packet for the path.
    attacker_ephid = attacker.acquire_ephid_direct()
    victim_ephid = victim.acquire_ephid_direct()
    downstream = world.as_path(source.aid, destination.aid)[1:]
    stamper = PassportStamper(
        AsPairwiseKeys(source.aid, source.keys.exchange, world.rpki)
    )
    flood = [
        attacker.stack.make_packet(
            attacker_ephid.ephid,
            Endpoint(destination.aid, victim_ephid.ephid),
            f"flood packet {i}".encode(),
        )
        for i in range(50)
    ]
    passports = [stamper.stamp(packet, downstream) for packet in flood]
    print(
        f"stamped {len(flood)} flood packets for downstream ASes {downstream} "
        f"({passports[0].wire_size} B of stamps per packet)"
    )

    # --- Transit AS 200 verifies its stamps and decides it has had enough.
    verifier = PassportVerifier(
        AsPairwiseKeys(transit.aid, transit.keys.exchange, world.rpki)
    )
    verified = sum(
        verifier.verify(packet, passport)
        for packet, passport in zip(flood, passports)
    )
    print(f"AS{transit.aid} verified {verified}/{len(flood)} passport stamps")

    evidence, evidence_passport = flood[0], passports[0]
    request = OnPathShutoffRequest.build(
        evidence.to_wire(),
        transit.aid,
        evidence_passport.mac_for(transit.aid),
        transit.keys.signing,
    )
    response = agent.handle_onpath_shutoff(request)
    print(f"on-path shutoff from AS{transit.aid}: {response.reason}")

    # --- The flood dies at its own AS's border router.
    verdicts = source.judge([packet.to_wire() for packet in flood], [True] * len(flood))
    dropped = sum(v.reason is DropReason.SRC_REVOKED for v in verdicts)
    print(f"source border router now drops {dropped}/{len(flood)} flood packets")

    # --- An off-path AS gets nowhere: it holds no stamp for these packets.
    bystander_world = scenarios.build("star:1", seed="bystander")
    bystander = bystander_world.ases[0]
    world.rpki.publish(world.anchor.certify(999, bystander.keys))
    rogue = OnPathShutoffRequest.build(
        flood[1].to_wire(), 999, b"\x00" * 8, bystander.keys.signing
    )
    response = agent.handle_onpath_shutoff(rogue)
    print(f"off-path AS999 shutoff attempt: rejected ({response.reason})")

    print(
        f"\nagent totals: {agent.accepted} accepted "
        f"({agent.onpath_accepted} on-path), rejections: {agent.rejected}"
    )


if __name__ == "__main__":
    main()
