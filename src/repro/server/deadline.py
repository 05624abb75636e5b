"""Per-request deadlines and the latency estimate that drives degradation.

A :class:`Deadline` is a wall-clock budget started when the request is
*received* (before admission), so queue wait spends the same budget as
decode work.  The handler consults it twice:

* entering the admission queue — the wait is capped at the remaining
  budget, a request never out-waits its own deadline;
* before decoding — if the remaining budget cannot fit the expected
  full-path latency (times a safety factor), the handler degrades to a
  cheaper plan rather than blowing the deadline.

:class:`LatencyEstimator` supplies that expectation: an EWMA of
observed full-path latencies, floored so that sub-floor deadlines
degrade deterministically even on a cold server.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Optional


class Deadline:
    """Monotonic-clock budget for one request (``None`` = unlimited)."""

    __slots__ = ("budget_s", "_expires_at")

    def __init__(self, budget_s: Optional[float]) -> None:
        self.budget_s = budget_s
        self._expires_at = (
            None if budget_s is None else time.perf_counter() + budget_s
        )

    @classmethod
    def from_ms(cls, budget_ms: Optional[float]) -> "Deadline":
        """Deadline from milliseconds; ``None`` or <= 0 means unlimited."""
        if budget_ms is None or budget_ms <= 0:
            return cls(None)
        return cls(budget_ms / 1000.0)

    @property
    def unlimited(self) -> bool:
        """True when no deadline applies."""
        return self._expires_at is None

    def remaining(self) -> float:
        """Seconds left (may be negative); +inf when unlimited."""
        if self._expires_at is None:
            return math.inf
        return self._expires_at - time.perf_counter()

    def expired(self) -> bool:
        """True when the budget is spent."""
        return self.remaining() <= 0.0


class LatencyEstimator:
    """Thread-safe EWMA of full-path request latency, with a floor.

    The floor does double duty: it keeps the estimate meaningful before
    any sample has arrived, and it sets the smallest deadline that can
    still take the full path — anything below ``floor * safety``
    degrades by construction, which is what makes the deadline tests
    deterministic.
    """

    def __init__(self, floor_s: float = 0.005, alpha: float = 0.2) -> None:
        if floor_s <= 0:
            raise ValueError("floor_s must be > 0")
        if not 0 < alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")
        self.floor_s = floor_s
        self.alpha = alpha
        self._ewma: Optional[float] = None
        self._samples = 0
        self._lock = threading.Lock()

    def observe(self, seconds: float) -> None:
        """Fold one full-path latency sample into the EWMA."""
        seconds = max(0.0, float(seconds))
        with self._lock:
            if self._ewma is None:
                self._ewma = seconds
            else:
                self._ewma += self.alpha * (seconds - self._ewma)
            self._samples += 1

    def estimate(self) -> float:
        """Expected full-path latency in seconds (never below the floor)."""
        with self._lock:
            if self._ewma is None:
                return self.floor_s
            return max(self.floor_s, self._ewma)

    @property
    def samples(self) -> int:
        """Observations folded in so far."""
        with self._lock:
            return self._samples


def should_degrade(
    deadline: Deadline, estimator: LatencyEstimator, safety: float
) -> bool:
    """True when the remaining budget cannot fit a full-path decode."""
    return deadline.remaining() < estimator.estimate() * safety
