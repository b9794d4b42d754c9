"""CPU time and peak memory of the bench process and its shard workers,
read from ``/proc`` so nothing inside the measured system is touched."""

from __future__ import annotations

import multiprocessing
import os
import time

_TICK = os.sysconf("SC_CLK_TCK")


def worker_pids(aid: int) -> "list[int]":
    """Live data-plane workers of one AS (the pool names them
    ``apna-br-<aid>-<shard>``)."""
    prefix = f"apna-br-{aid}-"
    return [
        child.pid
        for child in multiprocessing.active_children()
        if child.name.startswith(prefix) and child.pid is not None
    ]


def _proc_cpu_s(pid: int) -> float:
    with open(f"/proc/{pid}/stat", "rb") as handle:
        # Fields after the parenthesised command name; utime and stime
        # are the 14th and 15th of the whole line.
        fields = handle.read().rsplit(b")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICK


def _reaped_cpu_s() -> float:
    times = os.times()
    return times.children_user + times.children_system


class CpuMeter:
    """CPU seconds spent by this process and one AS's workers between
    :meth:`start` and :meth:`stop`.

    A worker killed in between has left ``/proc`` by the time ``stop``
    runs; its whole lifetime is in the reaped-children clock instead, so
    what it had already used at ``start`` is subtracted from that.
    """

    def __init__(self, aid: "int | None") -> None:
        self._aid = aid

    def _workers(self) -> "dict[int, float]":
        if self._aid is None:
            return {}
        return {pid: _proc_cpu_s(pid) for pid in worker_pids(self._aid)}

    def start(self) -> None:
        self._own = time.process_time()
        self._reaped = _reaped_cpu_s()
        self._at_start = self._workers()

    def stop(self) -> "tuple[float, float]":
        """``(bench process CPU s, worker CPU s)``."""
        own = time.process_time() - self._own
        now = self._workers()
        workers = sum(
            used - self._at_start.get(pid, 0.0) for pid, used in now.items()
        )
        workers += _reaped_cpu_s() - self._reaped
        workers -= sum(
            used for pid, used in self._at_start.items() if pid not in now
        )
        return own, max(workers, 0.0)


def peak_rss_mb(pids: "list[int]") -> float:
    """Sum of ``VmHWM`` over the given processes, in MB."""
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
                    break
    return total_kb / 1024.0
