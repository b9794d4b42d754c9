"""Per-packet EphID demultiplexing (paper Section VIII-A, reference [23]).

"A host could use different EphIDs per each packet.  Hence, it would be
difficult to link different packets even to a single flow, providing the
strongest privacy guarantee.  However, even the destination host cannot
demultiplex packets into flows based on the APNA headers in the packets.
An additional protocol is necessary to demultiplex packets [23]."

This module is that additional protocol, following the one-time-address
idea of the paper's reference [23] (Lee et al., ICNP 2016): both session
endpoints derive a *flow-tag* sequence from the established session key,

    tag_i = CMAC(k_demux, i)[:8]      k_demux = HKDF(session key),

the sender prepends the next tag to each data payload, and the receiver
keeps a window of live tags per session.  To any observer the tags are
indistinguishable from random and never repeat, so they leak nothing the
per-packet EphIDs were hiding; to the receiver each tag names exactly one
session, restoring demultiplexing without readable headers.

Each tag is single-use (a reused tag is rejected — the session layer
already rejects replayed *payloads*, this keeps the demux layer from
becoming a cheaper oracle).  Reordering is tolerated up to ``window``
positions behind and ahead of the newest delivered packet; memory is
bounded at ``2 x window`` precomputed tags per session.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from ..crypto.cmac import Cmac
from ..crypto.kdf import hkdf
from .errors import ApnaError
from .session import Session

TAG_SIZE = 8

#: Reordering horizon (positions) a receiver tolerates per session.
DEFAULT_WINDOW = 64


class DemuxError(ApnaError):
    """A one-time-tagged payload could not be demultiplexed."""


def derive_demux_key(session: Session) -> bytes:
    """The tag key both endpoints derive from the session key."""
    return hkdf(session.key, info=b"apna-ota-demux-v1", length=16)


def flow_tag(demux_key: bytes, index: int) -> bytes:
    """The ``index``-th tag of a session's tag sequence."""
    return Cmac(demux_key).tag(struct.pack(">Q", index), TAG_SIZE)


class FlowTagger:
    """Sender side: hands out consecutive tags for one session."""

    def __init__(self, session: Session) -> None:
        self._mac = Cmac(derive_demux_key(session))
        self._next = 0

    def next_tag(self) -> bytes:
        tag = self._mac.tag(struct.pack(">Q", self._next), TAG_SIZE)
        self._next += 1
        return tag

    @property
    def issued(self) -> int:
        return self._next


@dataclass
class _SessionWindow:
    session: Session
    key: bytes
    low: int  # lowest still-live index
    high: int  # first index not yet precomputed


class TagDemuxer:
    """Receiver side: maps incoming tags back to their sessions.

    All live tags of all registered sessions share one dictionary, so
    matching costs a single lookup — no per-session scan, no trial
    decryption.
    """

    def __init__(self, window: int = DEFAULT_WINDOW) -> None:
        if window < 1:
            raise ValueError("window must be at least 1")
        self.window = window
        self._by_tag: dict[bytes, tuple[int, int]] = {}  # tag -> (handle, index)
        self._windows: dict[int, _SessionWindow] = {}  # handle -> state
        self.matched = 0
        self.unmatched = 0

    def register(self, session: Session) -> None:
        """Start demultiplexing for ``session``."""
        handle = id(session)
        if handle in self._windows:
            return
        key = derive_demux_key(session)
        state = _SessionWindow(session=session, key=key, low=0, high=0)
        self._windows[handle] = state
        self._extend(handle, state, self.window)

    def _extend(self, handle: int, state: _SessionWindow, up_to: int) -> None:
        """Precompute tags so indexes < ``up_to`` are live, trim the tail."""
        for index in range(state.high, up_to):
            self._by_tag[flow_tag(state.key, index)] = (handle, index)
        state.high = max(state.high, up_to)
        floor = state.high - 2 * self.window
        while state.low < floor:
            self._by_tag.pop(flow_tag(state.key, state.low), None)
            state.low += 1

    def match(self, tag: bytes) -> Session:
        """The session a tag belongs to; raises :class:`DemuxError`.

        The matched tag is retired (single-use) and the session's window
        advances so a burst ``window`` positions ahead stays matchable.
        """
        entry = self._by_tag.pop(tag, None)
        if entry is None:
            self.unmatched += 1
            raise DemuxError("unknown, reused or out-of-window flow tag")
        handle, index = entry
        state = self._windows[handle]
        self._extend(handle, state, index + 1 + self.window)
        self.matched += 1
        return state.session

    @property
    def sessions(self) -> int:
        return len(self._windows)

    def live_tags(self) -> int:
        return len(self._by_tag)


def pack_tagged(tag: bytes, sealed: bytes) -> bytes:
    """Wire form of a one-time-tagged payload: ``tag || sealed data``."""
    if len(tag) != TAG_SIZE:
        raise DemuxError(f"tag must be {TAG_SIZE} bytes")
    return tag + sealed


def unpack_tagged(body: bytes) -> tuple[bytes, bytes]:
    if len(body) < TAG_SIZE:
        raise DemuxError("tagged payload shorter than its tag")
    return body[:TAG_SIZE], body[TAG_SIZE:]
