"""The APNA border router data plane (paper Fig. 4 and Section V-B).

Two pipelines, both built purely from symmetric cryptography:

* **Outgoing** (host -> Internet): decrypt the source EphID, check
  expiry / revocation / HID validity, verify the per-packet MAC with the
  host's kHA.  Only authenticated packets from authorized EphIDs leave
  the AS — this is the accountability enforcement point.
* **Incoming** (Internet -> host): transit packets are forwarded toward
  the destination AID untouched; at the destination AS the destination
  EphID is decrypted and checked, then the packet is forwarded
  intra-domain by HID.

The router is sans-IO: it turns a packet into a :class:`Verdict`, and the
AS assembly (or a benchmark loop) acts on it.  With the ``openssl``
crypto backend active (see :mod:`repro.crypto.backend`) the AES pass
over the packet — and the EphID open before it — runs on AES-NI, which
*is* the data path of the paper's DPDK prototype rather than a
simulation of it.

Per-host CMAC contexts
----------------------

Steady-state verification costs one AES pass over the packet because
each host's CMAC context (key schedule and subkeys) is kept — in one
:class:`~repro.core.lru.LruCache` of :data:`MAC_CACHE_CAPACITY` contexts
(8192, ~950 B each, so under 8 MB per router), never in a map that grows
with the sources seen: a flash crowd of first-contact hosts evicts the
least recently used context, one per insertion, instead of inflating the
router.  The capacity is a constant sized from the MAC-reaching working
sets of the benchmark's warm workloads — 1024 sources per shard on
``mixed_imix_pipelined``, ~650 growing to ~1300 per shard on
``churn_hostile`` — so every warm workload stays fully resident.  A miss
fetches the key with ``hostdb.packet_mac_key(hid)`` (on the columnar
stores a 16-byte slice of the pooled key column — no per-host record is
built) and builds the context.  There is deliberately no one-shot path
for a HID seen once in a burst: measured, a one-shot CMAC (build, update,
finalize) costs 1.69 µs against 1.41 µs build + 0.49 µs copy-and-tag =
1.90 µs for the reusable context, ~1.5 % of a 64-frame cold burst — not
worth a second code path.

:meth:`BorderRouter.forget_host` drops one host's context.  A
:class:`~repro.sharding.worker.ShardState` calls it when a
``MSG_REGISTER_HOST`` (re)writes an owned HID's keys and when a
``MSG_REVOKE_HID`` revokes it, so a context never outlives the key it
was built from and a revoked host's key material does not linger.  The
in-line router needs no hook: the authoritative stores never reuse a HID
(``register`` refuses a registered one), and a revoked host's context —
unreachable, since ``is_valid`` runs before any MAC work — ages out of
the LRU.

Burst pipeline
--------------

The paper's DPDK prototype hits line rate by computing verdicts over
*bursts* of raw frames; :meth:`BorderRouter.process_burst` is that loop
and the only production verdict path (the in-line node and every
:class:`~repro.sharding.worker.ShardState` call it).  It never builds a
packet object: the fields are fixed-offset slices of the packed Fig. 7
header (:mod:`repro.wire.apna`) — source AID ``[0:4]``, source EphID
``[4:20]``, destination EphID ``[20:36]``, destination AID ``[36:40]``,
MAC ``[40:48]`` and, when the router runs a replay filter (the one
stage that reads it), the Section VIII-D nonce ``[48:56]`` — and the MAC
input is ``frame[:40] + zero MAC + frame[48:]``.  A burst pays one clock read
and one revocation prune; each *distinct* source/destination EphID is
opened (:meth:`~repro.core.ephid.EphIdCodec.open_batch`, two bulk ECB
calls) and checked once; MACs are verified grouped by HID through each
host's cached CMAC context (:meth:`~repro.crypto.cmac.Cmac.tag_many`);
replay keys go through one
:meth:`~repro.core.replay_filter.RotatingReplayFilter.observe_many`.

The tag checks are column passes too: a column of EphID tags (inside
``open_batch``) and each HID group's packet MACs are compared *joined*,
all computed tags against all carried ones in a single ``ct_eq``, and
only a column that fails is walked element by element, again with
``ct_eq``, to charge exactly the forged EphIDs or the ``BAD_MAC``
frames — nothing is forwarded without a constant-time match covering
its own tag.  A joined compare's timing shows only that *some* element
of that column was refused, which the drop itself shows anyway.

Each verdict leaves as its packed 11-byte record (:mod:`repro.core.
verdict`, the one definition of the layout) — one constant per
:class:`DropReason` (``DROP_RECORDS``), ``INTER_HEAD + dst_aid`` for
``FORWARD_INTER``, ``INTRA_HEAD + hid + INTRA_TAIL`` for ``FORWARD_INTRA``
— so a shard's reply is a header plus ``b"".join(records)``.
:func:`~repro.core.verdict.verdicts_of` turns records into
:class:`Verdict` objects at the API edge, out of a bounded intern table.

Equivalence guarantee: ``process_burst(frames, egress)`` returns the
records of exactly the verdicts the scalar loop (``process_outgoing``
on each egress frame, ``process_incoming`` on each ingress frame, in
arrival order) returns when the clock does not advance inside the burst,
and leaves the router in the identical state: same drop and forward
counters, same replay-filter inserts in the same order.
``tests/test_batch_equivalence.py`` fuzzes this, with the scalar side
over the per-record :class:`~repro.core.hostdb.HostDatabase` /
:class:`~repro.core.revocation.RevocationList` and the burst side over
the :mod:`repro.state` columns; the scalar pipelines stay as the
one-screen spec and that oracle.  They share no predicate with the burst
path: each side's EphID ladder is written once for the scalar pipelines
(:meth:`BorderRouter._admit`) and once for the burst
(:meth:`BorderRouter._vet`), because an oracle that calls the code it
checks checks nothing.

:meth:`BorderRouter.process_mixed_batch` is an adapter over
``process_burst`` for ``bench/apnabench/trace.py``, which still hands
the router parsed packets; ROADMAP item 0(b) re-points the trace and
deletes it.
"""

from __future__ import annotations

from itertools import repeat
from typing import Callable, Sequence

from ..crypto.cmac import Cmac
from ..crypto.util import ct_eq
from ..wire import icmp as icmp_wire
from ..wire.apna import (
    DST_AID_FIELD,
    DST_EPHID_FIELD,
    HEADER_SIZE,
    HEADER_SIZE_WITH_NONCE,
    MAC_FIELD,
    MAC_SIZE,
    NONCE_FIELD,
    SRC_AID_FIELD,
    SRC_EPHID_FIELD,
    ApnaPacket,
)
from ..wire.errors import ParseError
from .ephid import EphIdCodec
from .errors import EphIdError
from .hostdb import HostDatabase
from .lru import LruCache
from .replay_filter import RotatingReplayFilter
from .revocation import RevocationList
from .verdict import (
    DROP_RECORDS,
    INTER_HEAD,
    INTRA_HEAD,
    INTRA_TAIL,
    Action,
    DropReason,
    Verdict,
    verdicts_of,
)

#: ICMP codes attached to (incoming-side) drops so the source can learn
#: why its packets die (Section VIII-B: ICMP works by default in APNA).
ICMP_CODES = {
    DropReason.DST_EXPIRED: icmp_wire.CODE_EPHID_EXPIRED,
    DropReason.DST_REVOKED: icmp_wire.CODE_EPHID_REVOKED,
    DropReason.DST_HID_INVALID: icmp_wire.CODE_HID_INVALID,
}

#: Most per-host CMAC contexts one router keeps (see "Per-host CMAC
#: contexts" above for what it was sized from).  A constant, not a knob.
MAC_CACHE_CAPACITY = 8192

#: The MAC input is the frame with its MAC field zeroed.
_BEFORE_MAC = slice(0, MAC_FIELD.start)
_ZERO_MAC = bytes(MAC_SIZE)
_AFTER_MAC = slice(MAC_FIELD.stop, None)

#: The (forged, expired, revoked, HID-invalid) reasons of each side.
_SRC_FAULTS = (
    DropReason.SRC_FORGED,
    DropReason.SRC_EXPIRED,
    DropReason.SRC_REVOKED,
    DropReason.SRC_HID_INVALID,
)
_DST_FAULTS = (
    DropReason.DST_FORGED,
    DropReason.DST_EXPIRED,
    DropReason.DST_REVOKED,
    DropReason.DST_HID_INVALID,
)


class BorderRouter:
    """One AS's border router."""

    def __init__(
        self,
        aid: int,
        codec: EphIdCodec,
        hostdb: HostDatabase,
        revocations: RevocationList,
        clock: Callable[[], float],
        *,
        packet_mac_size: int = 8,
        replay_filter: RotatingReplayFilter | None = None,
    ) -> None:
        self.aid = aid
        self._codec = codec
        self._hostdb = hostdb
        self._revocations = revocations
        self._clock = clock
        self._mac_size = packet_mac_size
        self._mac_cache = LruCache(MAC_CACHE_CAPACITY)  # hid -> Cmac
        #: Optional in-network replay detection (Section VIII-D future
        #: work; see :mod:`repro.core.replay_filter`).  Checked on both
        #: pipelines for packets that carry the replay nonce.
        self.replay_filter = replay_filter
        self.drops: dict[DropReason, int] = {reason: 0 for reason in DropReason}
        self.forwarded_inter = 0
        self.forwarded_intra = 0

    def _drop(self, reason: DropReason) -> Verdict:
        self.drops[reason] += 1
        return Verdict(Action.DROP, reason=reason)

    def _mac_for(self, hid: int) -> Cmac:
        mac = self._mac_cache.hit(hid)
        if mac is None:
            mac = Cmac(self._hostdb.packet_mac_key(hid))
            self._mac_cache.put(hid, mac)
        return mac

    def forget_host(self, hid: int) -> None:
        """Drop ``hid``'s cached CMAC context: its key changed or the
        host is gone."""
        self._mac_cache.pop(hid, None)

    # -- Fig. 4 bottom: outgoing packets --

    def process_outgoing(self, packet: ApnaPacket) -> Verdict:
        """Egress pipeline for a packet originated by a local host."""
        now = self._clock()
        self._revocations.maybe_prune(now)
        header = packet.header
        if header.src_aid != self.aid:
            return self._drop(DropReason.NOT_LOCAL_SOURCE)
        hid, fault = self._admit(header.src_ephid, now, _SRC_FAULTS)
        if fault is not None:
            return self._drop(fault)
        expected = self._mac_for(hid).tag(packet.mac_input(), self._mac_size)
        if not ct_eq(expected, header.mac):
            return self._drop(DropReason.BAD_MAC)
        # Replay detection runs after the MAC check so that spoofed
        # packets cannot pollute the filter against a victim's nonces.
        if not self._replay_fresh(header, now):
            return self._drop(DropReason.REPLAYED)
        if header.dst_aid == self.aid:
            # Intra-AS communication: run the destination-side checks too.
            return self._deliver_local(packet, now)
        self.forwarded_inter += 1
        return Verdict(Action.FORWARD_INTER, next_aid=header.dst_aid)

    # -- Fig. 4 top: incoming packets --

    def process_incoming(self, packet: ApnaPacket) -> Verdict:
        """Ingress pipeline for a packet arriving from a neighbor AS."""
        header = packet.header
        if header.dst_aid != self.aid:
            # Transit: forward toward the destination AS.
            self.forwarded_inter += 1
            return Verdict(Action.FORWARD_INTER, next_aid=header.dst_aid)
        now = self._clock()
        self._revocations.maybe_prune(now)
        if not self._replay_fresh(header, now):
            return self._drop(DropReason.REPLAYED)
        return self._deliver_local(packet, now)

    def _deliver_local(self, packet: ApnaPacket, now: float) -> Verdict:
        hid, fault = self._admit(packet.header.dst_ephid, now, _DST_FAULTS)
        if fault is not None:
            return self._drop(fault)
        self.forwarded_intra += 1
        return Verdict(Action.FORWARD_INTRA, hid=hid)

    def _admit(
        self, ephid: bytes, now: float, faults: "tuple[DropReason, ...]"
    ) -> "tuple[int | None, DropReason | None]":
        """The scalar EphID ladder, the same on both sides of Fig. 4:
        authentic, unexpired, unrevoked, of a valid HID — in that order.
        Returns ``(hid, None)``, or ``(None, fault)`` with the one of
        ``faults`` (a side's forged / expired / revoked / HID-invalid
        reasons) for the first check that fails."""
        forged, expired, revoked, hid_invalid = faults
        try:
            info = self._codec.open(ephid)
        except EphIdError:
            return None, forged
        if info.exp_time < now:
            return None, expired
        if self._revocations.contains(ephid):
            return None, revoked
        if not self._hostdb.is_valid(info.hid):
            return None, hid_invalid
        return info.hid, None

    def _replay_fresh(self, header, now: float) -> bool:
        """True unless the filter says this (EphID, nonce) was seen before.

        Packets without a nonce (the base Fig. 7 header) always pass;
        in-network replay detection needs the Section VIII-D nonce.
        ``now`` is the pipeline's single clock read, so the expiry and
        replay checks can never disagree on time across a filter
        rotation boundary.
        """
        if self.replay_filter is None or header.nonce is None:
            return True
        return self.replay_filter.observe(header.src_ephid, header.nonce, now)

    # -- the burst pipeline (paper §V-B: verdicts are computed per burst) --

    def process_burst(
        self, frames: "Sequence[bytes]", egress: "Sequence[bool]"
    ) -> "list[bytes]":
        """Both Fig. 4 pipelines over one burst of raw wire frames
        (``egress[k]`` says which applies to ``frames[k]``); returns one
        packed :data:`~repro.core.verdict.VERDICT_RECORD` per frame.
        See the module docstring for the layout and the equivalence
        guarantee with the scalar pipelines.

        A frame shorter than the header raises ``ParseError`` before any
        counter or filter is touched.
        """
        if len(frames) != len(egress):
            raise ValueError(
                f"{len(frames)} frames but {len(egress)} direction flags"
            )
        if not frames:
            return []
        replay_filter = self.replay_filter
        header = HEADER_SIZE if replay_filter is None else HEADER_SIZE_WITH_NONCE
        if min(map(len, frames)) < header:
            k = next(k for k, frame in enumerate(frames) if len(frame) < header)
            raise ParseError(
                f"frame {k} of the burst is {len(frames[k])} bytes, "
                f"the APNA header needs {header}"
            )
        now = self._clock()
        self._revocations.maybe_prune(now)
        aid = self.aid.to_bytes(4, "big")
        records: "list[bytes | None]" = [None] * len(frames)
        foreign: list[int] = []  # egress frames of another AS's source AID
        by_src: dict[bytes, list[int]] = {}  # the rest, by source EphID
        checked: list[int] = []  # frames due the replay check
        inter = 0
        for k, (frame, out) in enumerate(zip(frames, egress)):
            if out:
                if frame[SRC_AID_FIELD] == aid:
                    by_src.setdefault(frame[SRC_EPHID_FIELD], []).append(k)
                else:
                    foreign.append(k)
            elif frame[DST_AID_FIELD] == aid:
                checked.append(k)
            else:  # transit
                inter += 1
                records[k] = INTER_HEAD + frame[DST_AID_FIELD]
        self._drop_frames(DropReason.NOT_LOCAL_SOURCE, foreign, records)
        # Source side: MAC work grouped by HID so each group reuses one
        # cached CMAC context.
        bad_mac: list[int] = []
        for hid, group in self._vet(by_src, now, _SRC_FAULTS, records).items():
            tags = self._mac_for(hid).tag_many(
                [
                    frames[k][_BEFORE_MAC] + _ZERO_MAC + frames[k][_AFTER_MAC]
                    for k in group
                ],
                self._mac_size,
            )
            carried = [frames[k][MAC_FIELD] for k in group]
            # One joined compare per group; frame by frame only to
            # locate the bad MACs of a group that fails it.
            if ct_eq(b"".join(tags), b"".join(carried)):
                checked += group
            else:
                for k, tag, mac in zip(group, tags, carried):
                    (checked if ct_eq(tag, mac) else bad_mac).append(k)
        self._drop_frames(DropReason.BAD_MAC, bad_mac, records)
        # Replay inserts happen in arrival order (the MAC groups and the
        # ingress frames interleave), after the MAC check so spoofed
        # packets cannot pollute the filter against a victim's nonces.
        checked.sort()
        if replay_filter is not None and checked:
            fresh = replay_filter.observe_many(
                [
                    frames[k][SRC_EPHID_FIELD] + frames[k][NONCE_FIELD]
                    for k in checked
                ],
                now,
            )
        else:
            fresh = repeat(True)
        replayed: list[int] = []
        by_dst: dict[bytes, list[int]] = {}  # local deliveries, by dst EphID
        for k, ok in zip(checked, fresh):
            frame = frames[k]
            dst_aid = frame[DST_AID_FIELD]
            if not ok:
                replayed.append(k)
            elif dst_aid == aid:
                by_dst.setdefault(frame[DST_EPHID_FIELD], []).append(k)
            else:
                inter += 1
                records[k] = INTER_HEAD + dst_aid
        self._drop_frames(DropReason.REPLAYED, replayed, records)
        self.forwarded_inter += inter
        for hid, group in self._vet(by_dst, now, _DST_FAULTS, records).items():
            self.forwarded_intra += len(group)
            record = INTRA_HEAD + hid.to_bytes(4, "big") + INTRA_TAIL
            for k in group:
                records[k] = record
        return records  # type: ignore[return-value]  # every slot is filled

    def _drop_frames(
        self, reason: DropReason, group: "list[int]", records: list
    ) -> None:
        self.drops[reason] += len(group)
        record = DROP_RECORDS[reason]
        for k in group:
            records[k] = record

    def _vet(
        self,
        by_ephid: "dict[bytes, list[int]]",
        now: float,
        faults: "tuple[DropReason, ...]",
        records: list,
    ) -> "dict[int, list[int]]":
        """Open and check each distinct EphID of a burst column
        (``by_ephid`` maps it to the frames that carry it).  Frames of
        an EphID the scalar ladder refuses get the drop record of the
        matching one of ``faults``; the rest come back grouped by HID.

        Bursts repeat EphIDs heavily (a flow's packets share one), so
        deduplication removes most of the per-packet cost before the
        bulk AES calls amortise the rest.
        """
        forged, expired, revoked, hid_invalid = faults
        contains, is_valid = self._revocations.contains, self._hostdb.is_valid
        by_hid: dict[int, list[int]] = {}
        infos = self._codec.open_batch(list(by_ephid))
        for (ephid, group), info in zip(by_ephid.items(), infos):
            if info is None:
                self._drop_frames(forged, group, records)
                continue
            hid, exp_time = info
            if exp_time < now:
                self._drop_frames(expired, group, records)
            elif contains(ephid):
                self._drop_frames(revoked, group, records)
            elif not is_valid(hid):
                self._drop_frames(hid_invalid, group, records)
            elif hid in by_hid:
                by_hid[hid] += group
            else:
                by_hid[hid] = group
        return by_hid

    def process_mixed_batch(
        self, packets: "list[ApnaPacket]", egress: "list[bool]"
    ) -> "list[Verdict]":
        """:meth:`process_burst` for parsed packets — kept only for
        ``bench/apnabench/trace.py``; ROADMAP item 0(b) deletes it."""
        frames = [packet.to_wire() for packet in packets]
        return verdicts_of(b"".join(self.process_burst(frames, egress)))

    # -- observability --

    @property
    def total_drops(self) -> int:
        return sum(self.drops.values())

    def drop_counts(self) -> dict[str, int]:
        return {reason.value: count for reason, count in self.drops.items() if count}
