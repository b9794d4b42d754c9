"""Wall-clock timing and table formatting for the experiment harness."""

from __future__ import annotations

import math
import time
from typing import Callable, Iterable, Sequence


class Timer:
    """A context-manager stopwatch."""

    def __init__(self) -> None:
        self.elapsed = 0.0

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed = time.perf_counter() - self._start


def time_loop(fn: Callable[[], None], *, repeat: int) -> float:
    """Seconds to run ``fn`` ``repeat`` times — the best of three passes
    (the ``timeit`` rule), so one preemption cannot decide a timing."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(repeat):
            fn()
        best = min(best, time.perf_counter() - start)
    return best


def rate(count: int, seconds: float) -> float:
    """Operations per second (0 for degenerate timings)."""
    return count / seconds if seconds > 0 else 0.0


class LatencyHistogram:
    """Bounded-memory latency distribution with percentile queries.

    Samples land in logarithmically spaced buckets (~19% wide, from a
    1 µs floor), so memory is a few dozen counters regardless of sample
    count — the right shape for per-burst latencies recorded across a
    long run — and any percentile is answered to within one bucket's
    relative error.  The evaluation runner's bounded-p99 invariant reads
    :meth:`percentile` instead of an ad-hoc mean, because tail latency
    is where a sick data plane shows first.

    Samples are *durations passed in by the caller* (e.g. from
    :class:`Timer`); the histogram itself never reads a clock.
    """

    #: Resolution floor: everything at or below one microsecond shares
    #: bucket 0.
    _BASE = 1e-6
    #: Bucket growth factor: 2**0.25 per bucket, ~77 buckets per 1000x.
    _GROWTH = math.log(2.0) / 4.0

    def __init__(self) -> None:
        self._counts: dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    def record(self, seconds: float) -> None:
        """Add one duration sample (negative clamps to the floor)."""
        if seconds <= self._BASE:
            index = 0
        else:
            index = 1 + int(math.log(seconds / self._BASE) / self._GROWTH)
        self._counts[index] = self._counts.get(index, 0) + 1
        self.count += 1
        self.total += max(seconds, 0.0)
        if seconds > self.max:
            self.max = seconds

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """Fold another histogram's samples into this one."""
        for index, count in other._counts.items():
            self._counts[index] = self._counts.get(index, 0) + count
        self.count += other.count
        self.total += other.total
        self.max = max(self.max, other.max)
        return self

    def percentile(self, p: float) -> float:
        """An upper bound on the ``p``-th percentile, in seconds.

        Returns the upper edge of the bucket where the cumulative count
        crosses ``p`` percent of the samples (0.0 when empty), so the
        answer errs *against* the caller — a latency budget checked with
        it can only be conservative.
        """
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be within [0, 100], got {p}")
        if self.count == 0:
            return 0.0
        needed = max(1, math.ceil(self.count * p / 100.0))
        seen = 0
        for index in sorted(self._counts):
            seen += self._counts[index]
            if seen >= needed:
                if index == 0:
                    return self._BASE
                return min(
                    self._BASE * math.exp(index * self._GROWTH), self.max
                )
        return self.max  # pragma: no cover - cumulative always reaches count

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> "dict[str, float]":
        """The report-ready summary, in milliseconds where timed."""
        return {
            "samples": float(self.count),
            "mean_ms": self.mean * 1e3,
            "p50_ms": self.p50 * 1e3,
            "p99_ms": self.p99 * 1e3,
            "max_ms": self.max * 1e3,
        }

    def __repr__(self) -> str:
        return (
            f"<LatencyHistogram n={self.count} p50={self.p50 * 1e3:.3f}ms "
            f"p99={self.p99 * 1e3:.3f}ms max={self.max * 1e3:.3f}ms>"
        )


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """A plain-text table matching the paper's row/series style."""
    rendered = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rendered:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)
