"""Metric arithmetic of the end-to-end benchmark, kept free of I/O.

Everything here works on plain numbers (timestamps in seconds, counts),
so the definitions can be tested on synthetic data:

* latency is measured from a message's *due* time in the open-loop
  schedule, never from the moment it was handed to the overlay;
* goodput counts only deliveries that land inside a phase's steady
  window (after warm-up, before drain);
* a p99 is reported only when at least :data:`MIN_P99_SAMPLES` samples
  back it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

#: Fewest latency samples that may back a reported p99 (ten samples
#: beyond the percentile).
MIN_P99_SAMPLES = 1000


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0..100) of ``values``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of an empty sample")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def latency_summary(samples_s: Sequence[float]) -> Dict[str, Optional[float]]:
    """Sample count and p50/p90/p99 in ms of latencies given in seconds;
    p99 is None below :data:`MIN_P99_SAMPLES` samples."""
    count = len(samples_s)
    if count == 0:
        return {"count": 0, "p50_ms": None, "p90_ms": None, "p99_ms": None}
    return {
        "count": count,
        "p50_ms": percentile(samples_s, 50.0) * 1000.0,
        "p90_ms": percentile(samples_s, 90.0) * 1000.0,
        "p99_ms": (
            percentile(samples_s, 99.0) * 1000.0 if count >= MIN_P99_SAMPLES else None
        ),
    }


@dataclass
class Request:
    """One message the benchmark asked the overlay to carry."""

    flow: int
    index: int
    due: float
    payload: bytes
    injected_at: Optional[float] = None
    seq: Optional[int] = None
    delivered_at: Optional[float] = None


@dataclass
class Phase:
    """Accounting of one phase: its requests and its steady window.

    ``warm_end`` .. ``steady_end`` is the window goodput and CPU per
    message are measured over; deliveries before it (warm-up) or after
    it (drain) are excluded.
    """

    name: str
    start: float
    warm_end: float
    steady_end: float
    requests: List[Request] = field(default_factory=list)
    #: Generator lateness (injection time minus due time), seconds.
    lateness: List[float] = field(default_factory=list)
    refusals: int = 0
    cpu_steady_s: float = 0.0
    #: Actual window bounds as sampled on the loop (may trail the plan
    #: under load); the steady metrics use these.
    window: Optional[tuple] = None

    @property
    def requested(self) -> int:
        return len(self.requests)

    @property
    def injected(self) -> int:
        return sum(1 for r in self.requests if r.injected_at is not None)

    @property
    def delivered(self) -> int:
        return sum(1 for r in self.requests if r.delivered_at is not None)

    def steady_bounds(self) -> tuple:
        return self.window if self.window is not None else (self.warm_end, self.steady_end)

    def steady_deliveries(self) -> int:
        return deliveries_in_window(
            (r.delivered_at for r in self.requests), *self.steady_bounds()
        )

    def goodput(self) -> float:
        return goodput(
            (r.delivered_at for r in self.requests), *self.steady_bounds()
        )

    def due_latencies(self) -> List[float]:
        """Due-to-delivery latencies (s) of messages due in the steady
        window; undelivered ones are excluded here and counted as
        failures by :meth:`failed`."""
        low, high = self.warm_end, self.steady_end
        return due_latencies(r for r in self.requests if low <= r.due < high)

    def cpu_us_per_msg(self) -> float:
        delivered = self.steady_deliveries()
        return self.cpu_steady_s * 1e6 / delivered if delivered else float("inf")

    def failed(self) -> int:
        return self.requested - self.delivered

    def accounting(self) -> Dict[str, object]:
        lateness = self.lateness
        return {
            "phase": self.name,
            "requested": self.requested,
            "injected": self.injected,
            "delivered": self.delivered,
            "refusals": self.refusals,
            "generator_late_p50_ms": percentile(lateness, 50.0) * 1000.0 if lateness else 0.0,
            "generator_late_p99_ms": percentile(lateness, 99.0) * 1000.0 if lateness else 0.0,
            "generator_late_max_ms": max(lateness) * 1000.0 if lateness else 0.0,
        }


def deliveries_in_window(
    delivered_at: Iterable[Optional[float]], low: float, high: float
) -> int:
    """Deliveries whose timestamp lies in ``[low, high)``."""
    return sum(1 for t in delivered_at if t is not None and low <= t < high)


def goodput(delivered_at: Iterable[Optional[float]], low: float, high: float) -> float:
    """Unique deliveries per second inside the steady window ``[low, high)``."""
    if high <= low:
        raise ValueError("empty steady window")
    return deliveries_in_window(delivered_at, low, high) / (high - low)


def due_latencies(requests: Iterable[Request]) -> List[float]:
    """Seconds from each delivered request's due time to its delivery."""
    return [r.delivered_at - r.due for r in requests if r.delivered_at is not None]
