"""Order statistics and the work clock that calibrates every timing.

Why timings are calibrated.  On the hosts this benchmark runs on, each
CPU's speed switches between 1x and about 1.8x slower for seconds at a
time, one CPU independently of the other (a busy hyperthread sibling, a
neighbour VM): the same code measured twice differs by 30% and a
regression bound of 10% would mean nothing.  The noise is slow enough to
follow, so a fixed *unit* of reference work — a pure-Python
struct/bytes/object loop plus one OpenSSL cipher pass over 64 KiB, none
of it code under test — is timed between groups of bursts, and every
interval the benchmark times is scaled by ``NOMINAL_UNIT_NS / measured
unit time`` of the readings on either side of it.  A calibrated
microsecond is therefore a microsecond on a host where the unit takes
exactly ``NOMINAL_UNIT_NS``, which is what it takes on the defining
2-core box when nothing disturbs it; raw wall-clock values are kept
beside the calibrated ones in the results file, and
``bench/baseline/spread_*.txt`` holds the ten-seed spreads of both.
"""

from __future__ import annotations

import math
import os
import statistics
import struct
import time

#: What one unit takes on the nominal host: its median on the 2-core box
#: the benchmark was defined on while that box is quiet, so calibrated
#: and raw numbers agree there.
NOMINAL_UNIT_NS = 1_100_000


def percentile(ordered: "list[float]", share: float) -> float:
    """Nearest-rank percentile of an ascending list (p99 of 1024 samples
    is the 1014th, leaving ten beyond it)."""
    rank = max(1, math.ceil(share * len(ordered)))
    return ordered[rank - 1]


def summary(values: "list[float]") -> dict:
    """Median, quartiles and count of per-repeat values."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "values": list(values),
    }


_UNIT_STRUCT = struct.Struct(">IQ16s")
_UNIT_BLOCKS = bytes(65536)
_UNIT_TABLE = {i.to_bytes(4, "big"): i for i in range(4096)}

try:
    from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

    _ECB = Cipher(algorithms.AES(bytes(range(16))), modes.ECB())

    def _cipher_pass() -> None:
        _ECB.encryptor().update(_UNIT_BLOCKS)

except ImportError:  # no OpenSSL binding: the stdlib's OpenSSL hash instead
    import hashlib

    def _cipher_pass() -> None:
        hashlib.sha256(_UNIT_BLOCKS)


class _Record:
    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c) -> None:
        self.a = a
        self.b = b
        self.c = c


def _unit() -> int:
    pack, unpack = _UNIT_STRUCT.pack, _UNIT_STRUCT.unpack
    table, tail, out, acc = _UNIT_TABLE, bytes(16), [], 0
    started = time.perf_counter_ns()
    for i in range(1200):
        blob = pack(i, acc, tail)
        acc = (acc + unpack(blob)[0] + blob[3]) & 0xFFFF_FFFF
        record = _Record(i, blob[4:12], (i, acc))
        out.append(record.b + blob[:4])
        acc += table.get(blob[:4], 0)
    _cipher_pass()
    return time.perf_counter_ns() - started


class WorkClock:
    """Times the reference unit.

    With ``per_cpu`` (the sharded workloads, whose processes run on
    every CPU) a reading runs the unit pinned to each CPU of this
    process's affinity set in turn and takes the mean; the affinity set
    is restored after every reading.  (The mean, not the slowest CPU: a
    burst does wait for its slowest shard, but measured against repeats
    of the same plan the mean follows burst time with half the residual
    of the maximum — the scheduler moves work off a slow CPU.)
    Otherwise the unit runs wherever the scheduler has put the process.
    Either way it runs twice in each place and the second time counts,
    so a CPU that was idle or that the process has just moved to is not
    read as slow.
    """

    #: A repeat is disturbed when its unit time is this far off the
    #: median of its workload's repeats.
    TOLERANCE = 0.10

    def __init__(self, *, per_cpu: bool) -> None:
        self._home = None
        self._cpus: "list[int]" = []
        #: CPU seconds this process has spent inside units.
        self.cpu_s = 0.0
        if per_cpu and hasattr(os, "sched_setaffinity"):
            home = os.sched_getaffinity(0)
            if 2 <= len(home) <= 4:
                try:
                    os.sched_setaffinity(0, home)
                except OSError:
                    return
                self._home, self._cpus = home, sorted(home)

    def read(self) -> float:
        """One reading: the unit's time in ns, the mean over the CPUs
        read."""
        cpu = time.process_time()
        try:
            if not self._cpus:
                _unit()
                return float(_unit())
            try:
                total = 0
                for one in self._cpus:
                    os.sched_setaffinity(0, {one})
                    _unit()
                    total += _unit()
                return total / len(self._cpus)
            finally:
                os.sched_setaffinity(0, self._home)
        finally:
            self.cpu_s += time.process_time() - cpu

    @staticmethod
    def factor(before_ns: float, after_ns: float) -> float:
        """What to multiply an interval by, given the readings on either
        side of it."""
        return 2.0 * NOMINAL_UNIT_NS / (before_ns + after_ns)

    @classmethod
    def disturbed(cls, unit_ms: float, reference_ms: float) -> bool:
        return abs(unit_ms - reference_ms) > cls.TOLERANCE * reference_ms
