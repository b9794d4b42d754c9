"""Sharded Management-Service issuance (paper §V-A3's 4-process setup).

The paper's MS throughput number comes from four share-nothing
processes; E1 reproduces it.  This module runs that measurement on the
same :class:`~repro.sharding.pool.ShardProcessPool` scaffolding the
sharded data plane uses, replacing E1's former private fork-``Pool``.

Request distribution is exact: ``split_requests`` spreads the remainder
of a non-divisible load over the first workers instead of silently
truncating it, so a rate computed over the *full* request count is
measured over workers that actually issued the full request count.
"""

from __future__ import annotations

import struct
import traceback

from ..core.errors import ShardError
from . import wire
from .pool import ShardProcessPool

_JOB = struct.Struct(">BII")  # kind, requests, seed
_RESULT = struct.Struct(">BId")  # kind, requests done, elapsed seconds
_KIND_JOB = 1
_KIND_RESULT = 2


def _read(layout: struct.Struct, kind: int, msg: bytes) -> tuple:
    """The fields after the kind byte of a private ``kind`` frame, which
    is exactly ``layout`` long — anything else is a ``ValueError``."""
    if len(msg) != layout.size or msg[0] != kind:
        raise ValueError(
            f"{len(msg)}-byte frame of kind {msg[:1].hex() or 'none'} where "
            f"a {layout.size}-byte kind-{kind} frame was expected"
        )
    return layout.unpack(msg)[1:]


def split_requests(requests: int, workers: int) -> "list[int]":
    """Split ``requests`` into at most ``workers`` positive chunks that
    sum exactly to ``requests`` (remainder spread over the first chunks)."""
    if requests < 1:
        raise ValueError(f"requests must be positive, got {requests}")
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")
    base, remainder = divmod(requests, workers)
    counts = [base + (1 if i < remainder else 0) for i in range(workers)]
    return [count for count in counts if count > 0]


def issuance_worker(conn, worker_index: int) -> None:
    """Worker main: time full-path (Fig. 3) issuance loops on request.

    The import is deferred so the module stays importable without the
    experiments package loaded (and to keep the e1 <-> sharding import
    edge one-directional at module-load time).
    """
    from ..experiments.e1_ms_performance import measure_issuance_rate

    while True:
        try:
            # Worker request loop: blocking forever *is* the contract —
            # the parent's EOF (pool teardown) wakes it; the bounded
            # side of the wait lives in run_issuance_shards' recv.
            msg = conn.recv_bytes()  # audit: allow(bounded-wait)
        except (EOFError, OSError):
            break
        if not msg or msg[0] != _KIND_JOB:
            break
        try:
            requests, seed = _read(_JOB, _KIND_JOB, msg)
            elapsed = measure_issuance_rate(requests, seed=seed)
        # Nothing is swallowed: the traceback ships home as a MSG_ERROR
        # frame and ShardProcessPool.recv_bytes re-raises it as ShardError.
        except Exception:  # audit: allow(silent-except)
            conn.send_bytes(wire.encode_error(traceback.format_exc()))
            continue
        conn.send_bytes(_RESULT.pack(_KIND_RESULT, requests, elapsed))
    conn.close()


#: Default bound on one MS worker's whole timed issuance loop.  Generous
#: — the loop builds a world and issues tens of thousands of EphIDs, all
#: local CPU work — but finite, so one wedged worker fails the run as
#: :class:`~repro.sharding.pool.ShardTimeout` instead of blocking E1
#: forever.
DEFAULT_REPLY_TIMEOUT = 600.0


def run_issuance_shards(
    counts: "list[int]",
    *,
    seed_base: int = 100,
    reply_timeout: float = DEFAULT_REPLY_TIMEOUT,
) -> "list[tuple[int, float]]":
    """Run one timed issuance loop per worker, share-nothing.

    Each worker builds an independent MS world (seeded ``seed_base + i``)
    and times only its issuance loop, exactly as the paper's 4-process
    measurement does.  Returns ``(requests_done, elapsed_seconds)`` per
    worker.  A worker that sends no result within ``reply_timeout``
    seconds raises :class:`~repro.sharding.pool.ShardTimeout`; one that
    answers with anything but a result frame (short, long, another kind)
    raises :class:`~repro.sharding.pool.ShardError` naming it.  Teardown
    then reaps the workers.
    """
    pool = ShardProcessPool(
        issuance_worker, list(range(len(counts))), name="apna-ms"
    )
    try:
        for i, count in enumerate(counts):
            pool.send_bytes(i, _JOB.pack(_KIND_JOB, count, seed_base + i))
        results = []
        for i in range(len(counts)):
            msg = pool.recv_bytes(i, timeout=reply_timeout)
            try:
                results.append(_read(_RESULT, _KIND_RESULT, msg))
            except ValueError as exc:
                raise ShardError(f"issuance worker {i}: {exc}") from exc
        return results
    finally:
        pool.close(stop_msg=b"\x00")
