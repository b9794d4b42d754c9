"""``repro.state`` — columnar million-host state storage.

The paper's accountability machinery keeps two per-AS tables on the
Fig. 4 path: ``host_info`` (HID -> kHA subkeys, Section V-A2) and
``revoked_ids`` (the revocation list, IV-E) — and, in this
reproduction's sharded data plane, a per-worker replica of both.  At
the ROADMAP's "millions of users" scale RAM and GC, not crypto, become
the cap of a per-host-object store, so the stores of this package are
the ones the system runs:

**Dense-HID index.**  Host HIDs are allocated sequentially from
``FIRST_HOST_HID``, so ``row = hid - FIRST_HOST_HID`` indexes flat
columns directly — no hash table, no per-host key objects.  Service
HIDs (a handful per AS, below ``FIRST_HOST_HID``) keep ordinary
:class:`~repro.core.hostdb.HostRecord` objects.

**Column layout.**  :class:`ColumnarHostDatabase` holds one flags byte
(registered/revoked), one 32-byte kHA key slot (control || packet_mac,
pooled in a single ``bytearray``), one subscriber id (``array('q')``,
-1 for none) and two EphID counters (``array('I')``) per row — ~53 B
per registered host and zero Python objects until a caller materialises
a :class:`~repro.state.columns.HostRef` row proxy.
:class:`ColumnarRevocationList` stores ``revoked_ids`` as an expiry
column plus a pooled EphID blob; :class:`ColumnarShardView` holds a
shard's owned rows worker-side, in the dense row space its
:class:`~repro.sharding.plan.ShardPlan` assigns.

**One shard layout.**  Which host rows a shard owns, and where each
lands in the shard's row space, is the plan's alone: the export
(``ColumnarHostDatabase.shard_columns(plan, shard)``) and the view
(``ColumnarShardView(plan, shard)``) take a plan — any object with its
methods, since importing :mod:`repro.sharding` here would be circular —
and call its scalar and numpy column forms.  Nothing in this package
computes a shard stripe itself.

**Snapshot codec.**  :class:`ShardSnapshot` packs one shard's owned
keys, replicated live-HID view and revocation replica as length-
prefixed big-endian columns.  ``MSG_RESYNC`` frames carry its
``encode()`` output verbatim and the initial ``ShardSpec`` embeds the
same bytes, so spawning and resyncing a million-host shard is a few
numpy gathers and scatters instead of per-record ``struct.pack`` loops.

**One family.**  There is no backend to select:
:class:`~repro.core.autonomous_system.ApnaAutonomousSystem` constructs
:class:`ColumnarHostDatabase` and :class:`ColumnarRevocationList`, and a
:class:`~repro.sharding.worker.ShardState` a :class:`ColumnarShardView`
and a :class:`ColumnarRevocationList`.  The per-record
:class:`~repro.core.hostdb.HostDatabase` and
:class:`~repro.core.revocation.RevocationList` are the one-screen spec
of the same API and the oracle the differential tests run the scalar
Fig. 4 pipelines over (``tests/test_state_store.py``,
``tests/test_first_contact.py``, ``tests/test_batch_equivalence.py``).
"""

from __future__ import annotations

import hashlib

from .columns import ColumnarHostDatabase, HostRef
from .revlist import ColumnarRevocationList
from .snapshot import KEY_BYTES, ShardSnapshot, build_shard_snapshot
from .view import ColumnarShardView

__all__ = [
    "ColumnarHostDatabase",
    "ColumnarRevocationList",
    "ColumnarShardView",
    "HostRef",
    "ShardSnapshot",
    "build_shard_snapshot",
    "population_key_material",
]


def population_key_material(seed: bytes, count: int) -> bytes:
    """Deterministic kHA keystream for a bulk-registered population.

    One SHAKE-256 squeeze of ``count`` 32-byte rows (control ||
    packet_mac per host) — drawing a million hosts' keys through the
    per-call AES rng would dominate build time.  A pure function of the
    seed, so same-seed worlds register identical populations.
    """
    return hashlib.shake_256(seed).digest(KEY_BYTES * count)
