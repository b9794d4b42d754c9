"""A :class:`~repro.faults.plan.FaultPlan` armed on a plane's carrier.

Faults are injected where they would really happen — in the send of a
burst, or in the read of its reply.  Control frames, stats reads and the
supervisor's restart/resync exchange pass straight through: recovery
itself is assumed reliable, failures are what is being modelled.
"""

from __future__ import annotations

import time
from collections import deque

from ..core.errors import ShardTimeout
from ..sharding import wire

__all__ = ["FaultCarrier"]


class FaultCarrier:
    """``inner`` (a :class:`repro.sharding.ShardProcessPool`) with
    ``plan``'s faults injected; same surface, delegated explicitly."""

    #: ``error``: the burst is cut inside its fixed header.
    _TRUNCATE_AT = 11
    #: ``garbage``: first byte deliberately no known message kind.
    _GARBAGE = b"\xee\xfa\x11\xed" * 4

    def __init__(self, plan, inner) -> None:
        self.plan = plan
        self.inner = inner
        shards = range(len(inner))
        #: Per shard, the seqs of bursts sent and not yet answered: a
        #: read is a burst reply exactly while one is awaited.
        self._awaited: "list[deque[int]]" = [deque() for _ in shards]
        #: A really hung worker answers *nothing* from then on, so every
        #: later burst to the same incarnation is swallowed too — else a
        #: live worker's reply to burst N+1 would pair with hung burst N.
        self._hung = [False for _ in shards]
        #: Replies duplicated in transit, surfaced (stale) ahead of the
        #: shard's next real burst reply — transport-level replay.
        self._duplicates: "list[deque[bytes]]" = [deque() for _ in shards]

    def send_bytes(self, shard: int, msg: bytes) -> None:
        if msg[0] != wire.MSG_BURST:
            self.inner.send_bytes(shard, msg)
            return
        seq = wire.burst_seq(msg)
        fault = self.plan.fault_for(shard, seq)
        kind = None if fault is None or self._hung[shard] else fault.kind
        if kind in ("kill", "hang", "error"):
            self.plan.mark_injected(shard, seq, kind)
        if kind == "kill":
            self.inner.kill_worker(shard)  # the send then fails
        elif kind == "hang":
            self._hung[shard] = True
        elif kind == "error":
            msg = msg[: self._TRUNCATE_AT]
        if not self._hung[shard]:  # else swallowed: the worker never sees it
            self.inner.send_bytes(shard, msg)
        self._awaited[shard].append(seq)

    def recv_bytes(self, shard: int, *, timeout: float) -> bytes:
        awaited = self._awaited[shard]
        if not awaited:
            return self.inner.recv_bytes(shard, timeout=timeout)
        if self._duplicates[shard]:
            return self._duplicates[shard].popleft()
        seq = awaited[0]
        fault = self.plan.fault_for(shard, seq)
        kind = None if fault is None else fault.kind
        if kind == "delay":
            self.plan.mark_injected(shard, seq, kind)
            time.sleep(fault.delay)
        msg = self.inner.recv_bytes(shard, timeout=timeout)
        awaited.popleft()
        if kind in ("garbage", "drop", "duplicate"):
            self.plan.mark_injected(shard, seq, kind)
        if kind == "garbage":
            return self._GARBAGE
        if kind == "drop":
            raise ShardTimeout(
                f"shard {shard}: reply for burst #{seq} dropped in "
                "transit (injected)",
                shard=shard,
            )
        if kind == "duplicate":
            self._duplicates[shard].append(msg)
        return msg

    def restart(self, shard: int, spec) -> None:
        """A new incarnation on a new pipe: nothing sent to the old one
        is awaited any more, and it is not hung."""
        self.inner.restart(shard, spec)
        self._awaited[shard].clear()
        self._hung[shard] = False

    def discard_worker(self, shard: int) -> None:
        self.inner.discard_worker(shard)

    def close(self, *, stop_msg: "bytes | None" = None) -> None:
        self.inner.close(stop_msg=stop_msg)

    @property
    def closed(self) -> bool:
        return self.inner.closed
