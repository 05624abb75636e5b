"""Admission control: bounded concurrency with a bounded wait queue.

The controller owns a semaphore of ``max_concurrency`` permits.  A
request that finds a free permit executes immediately; otherwise it may
wait, but only while fewer than ``queue_depth`` requests are already
waiting and only up to a timeout.  Everything else is **shed** — the
caller gets :class:`OverloadedError` and turns it into ``429 Too Many
Requests`` with a ``Retry-After`` hint.

Why shed instead of queue deeper: with a fixed service rate, queue
length is the latency the *next* request will see.  Past
``queue_depth`` the daemon would only be manufacturing timeouts, so the
honest answer is an immediate refusal the client can back off from.

The controller is pure threading (no asyncio) to match the
thread-per-connection front end (:mod:`repro.server.transport`), and
is independently testable without sockets.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.errors import ReproError

#: Shed causes, also used as the ``reason`` attached to the error.
SHED_QUEUE_FULL = "queue_full"
SHED_TIMEOUT = "timeout"


class OverloadedError(ReproError):
    """Request shed by admission control (HTTP 429).

    ``waited_s`` carries the queue time the request spent before being
    shed, so the access log and flight recorder can attribute the wait
    even for requests that never executed.
    """

    def __init__(self, reason: str, waited_s: float = 0.0) -> None:
        super().__init__(f"overloaded ({reason})")
        self.reason = reason
        self.waited_s = waited_s


@dataclass(frozen=True)
class AdmissionStats:
    """Plain-integer counter snapshot (ungated, always available)."""

    admitted: int
    shed_queue_full: int
    shed_timeout: int
    executing: int
    waiting: int

    @property
    def shed(self) -> int:
        """Total shed requests, both causes."""
        return self.shed_queue_full + self.shed_timeout


class AdmissionController:
    """Semaphore-bounded concurrency plus a bounded, timed wait queue."""

    def __init__(
        self,
        max_concurrency: int,
        queue_depth: int = 0,
        queue_timeout_s: float = 1.0,
    ) -> None:
        if max_concurrency < 1:
            raise ReproError("max_concurrency must be >= 1")
        if queue_depth < 0:
            raise ReproError("queue_depth must be >= 0")
        self.max_concurrency = max_concurrency
        self.queue_depth = queue_depth
        self.queue_timeout_s = queue_timeout_s
        self._semaphore = threading.Semaphore(max_concurrency)
        self._lock = threading.Lock()
        self._executing = 0
        self._waiting = 0
        self._admitted = 0
        self._shed_queue_full = 0
        self._shed_timeout = 0

    # ------------------------------------------------------------------ #
    # acquire / release
    # ------------------------------------------------------------------ #

    def acquire(self, timeout_s: Optional[float] = None) -> float:
        """Take one execution permit or raise :class:`OverloadedError`.

        *timeout_s* caps the queue wait below ``queue_timeout_s`` (a
        request with little deadline budget left should not out-wait
        its own deadline); ``None`` uses the configured timeout.

        Returns the seconds this request spent waiting in the queue
        (0.0 on the uncontended fast path), so the caller can attribute
        queue wait separately from decode time.
        """
        if self._semaphore.acquire(blocking=False):
            with self._lock:
                self._executing += 1
                self._admitted += 1
            return 0.0
        with self._lock:
            if self._waiting >= self.queue_depth:
                self._shed_queue_full += 1
                raise OverloadedError(SHED_QUEUE_FULL)
            self._waiting += 1
        budget = self.queue_timeout_s
        if timeout_s is not None:
            budget = min(budget, timeout_s)
        wait_start = time.perf_counter()
        admitted = self._semaphore.acquire(timeout=max(0.0, budget))
        waited = time.perf_counter() - wait_start
        with self._lock:
            self._waiting -= 1
            if admitted:
                self._executing += 1
                self._admitted += 1
            else:
                self._shed_timeout += 1
        if not admitted:
            raise OverloadedError(SHED_TIMEOUT, waited_s=waited)
        return waited

    def release(self) -> None:
        """Return one execution permit."""
        with self._lock:
            self._executing -= 1
        self._semaphore.release()

    @contextmanager
    def admit(self, timeout_s: Optional[float] = None) -> Iterator[float]:
        """``with admission.admit() as waited_s: ...`` — acquire, run,
        release; yields the queue wait in seconds."""
        waited = self.acquire(timeout_s=timeout_s)
        try:
            yield waited
        finally:
            self.release()

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    def stats(self) -> AdmissionStats:
        """Counter snapshot."""
        with self._lock:
            return AdmissionStats(
                admitted=self._admitted,
                shed_queue_full=self._shed_queue_full,
                shed_timeout=self._shed_timeout,
                executing=self._executing,
                waiting=self._waiting,
            )

    @property
    def saturated(self) -> bool:
        """True when every permit is taken and the queue is full."""
        with self._lock:
            return (
                self._executing >= self.max_concurrency
                and self._waiting >= self.queue_depth
            )
