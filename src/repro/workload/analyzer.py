"""Trace analysis: the statistics Section V-A3 extracts from its trace.

"We identify 1,266,598 unique hosts generating a peak rate of 3,888
active HTTP(S) sessions per second."  The analyzer computes unique-host
counts and the peak per-second new-session rate from a (synthetic)
trace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TraceStats:
    total_flows: int
    unique_hosts: int
    peak_sessions_per_second: int
    peak_second: float
    https_flows: int
    mean_duration: float
    p98_duration: float

    def summary(self) -> str:
        return (
            f"{self.total_flows:,} flows from {self.unique_hosts:,} hosts; "
            f"peak {self.peak_sessions_per_second:,} new sessions/s at "
            f"t={self.peak_second:,.0f}s; 98th pct duration "
            f"{self.p98_duration:,.0f}s"
        )


def analyze(trace: dict[str, np.ndarray], *, duration: float | None = None) -> TraceStats:
    """Compute the Section V-A3 statistics over a column-oriented trace."""
    starts = trace["start"]
    if len(starts) == 0:
        return TraceStats(0, 0, 0, 0.0, 0, 0.0, 0.0)
    horizon = duration if duration is not None else float(starts.max()) + 1.0
    per_second = np.bincount(
        starts.astype(np.int64), minlength=int(horizon) + 1
    )
    peak_idx = int(per_second.argmax())
    durations = trace["duration"]
    return TraceStats(
        total_flows=int(len(starts)),
        unique_hosts=int(len(np.unique(trace["host_id"]))),
        peak_sessions_per_second=int(per_second[peak_idx]),
        peak_second=float(peak_idx),
        https_flows=int(trace["is_https"].sum()),
        mean_duration=float(durations.mean()),
        p98_duration=float(np.percentile(durations, 98)),
    )
