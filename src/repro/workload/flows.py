"""Synthetic HTTP(S) flow-trace generation (substitute for the paper's
proprietary 24-hour national-research-network trace, Section V-A3).

The paper's experiment consumes exactly two statistics from its trace:
the number of unique hosts (1,266,598) and the peak rate of new HTTP(S)
sessions (3,888/second).  The generator reproduces a trace with the same
*shape* at a configurable scale:

* flow arrivals follow a diurnal (sinusoidal) intensity profile,
* flow durations follow the dragonfly/tortoise mixture of Brownlee &
  Claffy (the paper's [11]): overwhelmingly short flows — 98% under 15
  minutes — with a heavy Pareto tail,
* per-host activity is skewed (a few heavy hitters, many light users).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

#: Per-host peak intensity implied by the paper's numbers:
#: 3,888 sessions/s over 1,266,598 hosts.
PAPER_HOSTS = 1_266_598
PAPER_PEAK_RATE = 3_888.0
_PAPER_PEAK_PER_HOST = PAPER_PEAK_RATE / PAPER_HOSTS


@dataclass(frozen=True)
class FlowRecord:
    """One flow in the trace (mirrors the paper's trace entries)."""

    start: float
    duration: float
    host_id: int
    is_https: bool

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class TraceConfig:
    hosts: int = 12_666  # 1% of the paper's host count by default
    duration: float = 86_400.0  # 24 hours
    #: Peak new-session intensity per host per second; the default keeps
    #: the paper's per-host intensity so peak rate scales with `hosts`.
    peak_per_host: float = _PAPER_PEAK_PER_HOST
    #: Fraction of flows that are HTTPS (paper: 74M of 178M entries).
    https_fraction: float = 74 / 178
    #: Fraction of long-lived "tortoise" flows.
    tortoise_fraction: float = 0.02
    seed: int = 20161003  # the paper's arXiv date

    def __post_init__(self) -> None:
        if not self.duration > 0:
            raise ValueError(
                f"TraceConfig.duration must be positive, got {self.duration}"
            )
        if self.hosts < 0:
            raise ValueError(
                f"TraceConfig.hosts must not be negative, got {self.hosts}"
            )
        if not self.peak_per_host >= 0:
            raise ValueError(
                "TraceConfig.peak_per_host must not be negative, got "
                f"{self.peak_per_host}"
            )
        for name in ("https_fraction", "tortoise_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(
                    f"TraceConfig.{name} must lie in [0, 1], got {value}"
                )


class TraceGenerator:
    """Draws the time-sorted trace, column-wise or row by row.

    The trace is drawn slice by slice from one generator seeded by
    ``config.seed``, made afresh by each call: equal seeds and equal
    slice lengths give bit-identical traces, and the generator object
    holds no random state between calls.
    """

    def __init__(self, config: TraceConfig | None = None) -> None:
        self.config = config or TraceConfig()

    def _intensity(self, t: np.ndarray) -> np.ndarray:
        """Diurnal profile: trough at 04:00, peak at 16:00 local time."""
        day_phase = 2 * np.pi * (t / 86_400.0 - 16.0 / 24.0)
        return 0.55 + 0.45 * np.cos(day_phase)

    def _durations(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Dragonfly/tortoise mixture, calibrated to ~98% under 15 min."""
        cfg = self.config
        is_tortoise = rng.uniform(size=n) < cfg.tortoise_fraction
        # Dragonflies: lognormal, median ~8 s, sigma wide but bounded.
        dragonflies = rng.lognormal(mean=np.log(8.0), sigma=1.6, size=n)
        # Tortoises: Pareto tail starting at 15 minutes.
        tortoises = 900.0 * (1.0 + rng.pareto(1.2, size=n))
        return np.where(is_tortoise, tortoises, np.minimum(dragonflies, 890.0))

    def _hosts(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Skewed host activity via a Zipf-like draw over the host space."""
        cfg = self.config
        ranks = rng.zipf(1.2, size=n)
        return (ranks + rng.integers(0, cfg.hosts, size=n)) % cfg.hosts

    def generate_arrays(self) -> dict[str, np.ndarray]:
        """The whole trace as one slice, column-oriented (what the
        analyzer consumes; much faster than per-row records)."""
        (columns,) = self.iter_arrays(chunk_duration=self.config.duration)
        return columns

    def iter_arrays(
        self, *, chunk_duration: float = 3_600.0
    ) -> "Iterator[dict[str, np.ndarray]]":
        """Lazily yield column chunks over consecutive time slices.

        Each chunk covers ``chunk_duration`` trace seconds, so memory
        stays bounded by one slice whatever the total trace size.  Flow
        starts are thinned from a homogeneous Poisson process under the
        diurnal intensity and sorted within each slice; slices are
        consecutive, so the concatenated stream is globally time-sorted.
        """
        if chunk_duration <= 0:
            raise ValueError(f"chunk_duration must be positive, got {chunk_duration}")
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        peak_rate = cfg.peak_per_host * cfg.hosts
        slice_start = 0.0
        while slice_start < cfg.duration:
            slice_end = min(slice_start + chunk_duration, cfg.duration)
            n_candidates = rng.poisson(peak_rate * (slice_end - slice_start))
            candidates = rng.uniform(slice_start, slice_end, size=n_candidates)
            keep = rng.uniform(size=n_candidates) < self._intensity(candidates)
            starts = np.sort(candidates[keep])
            n = len(starts)
            yield {
                "start": starts,
                "duration": self._durations(rng, n),
                "host_id": self._hosts(rng, n),
                "is_https": rng.uniform(size=n) < cfg.https_fraction,
            }
            slice_start = slice_end

    def stream(
        self, *, chunk_duration: float = 3_600.0
    ) -> Iterator[FlowRecord]:
        """Lazy, globally time-sorted :class:`FlowRecord` stream (the
        per-row view of :meth:`iter_arrays`)."""
        for columns in self.iter_arrays(chunk_duration=chunk_duration):
            starts = columns["start"]
            durations = columns["duration"]
            hosts = columns["host_id"]
            https = columns["is_https"]
            for i in range(len(starts)):
                yield FlowRecord(
                    start=float(starts[i]),
                    duration=float(durations[i]),
                    host_id=int(hosts[i]),
                    is_https=bool(https[i]),
                )
