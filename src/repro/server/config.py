"""Serving-daemon configuration.

Every knob of the network layer in one frozen dataclass, mirroring
:class:`~repro.core.reformulator.ReformulatorConfig` for the pipeline.
The defaults target a small single-host deployment; the CLI ``serve``
verb exposes the admission and deadline knobs as flags.

Capacity model
--------------

``max_concurrency`` requests execute at once (a semaphore); up to
``queue_depth`` more wait for at most ``queue_timeout_s`` seconds.
Anything beyond that is *shed* immediately with ``429 Too Many
Requests`` and a ``Retry-After`` hint — the daemon prefers a fast
refusal over unbounded queueing, so latency stays bounded under
overload (the classic admission-control trade).

Deadline model
--------------

A request may carry ``deadline_ms``; ``default_deadline_ms`` applies
when it does not (0 disables deadlines entirely).  Queue wait counts
against the deadline.  When the remaining budget is smaller than
``degrade_safety`` times the observed full-path latency (EWMA, floored
at ``min_latency_estimate_s``), the handler *degrades* instead of
blowing the deadline: it serves the result-cache entry if one exists,
else the single-best Viterbi decode, and marks the response
``"degraded": true``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import ReproError
from repro.lanes.router import KNOWN_LANES, RouterConfig


class ServerConfigError(ReproError):
    """Invalid serving-daemon configuration."""


@dataclass(frozen=True)
class ServerConfig:
    """All tunables of the HTTP serving daemon."""

    host: str = "127.0.0.1"
    port: int = 8080
    #: Requests executing at once (admission semaphore permits).
    max_concurrency: int = 8
    #: Requests allowed to wait for a permit; 0 sheds on saturation.
    queue_depth: int = 16
    #: Longest a queued request waits before being shed.
    queue_timeout_s: float = 1.0
    #: Deadline applied when the request does not carry ``deadline_ms``
    #: (0 = no deadline, never degrade unless the request asks for one).
    default_deadline_ms: int = 0
    #: Degrade when ``remaining < degrade_safety * estimated_latency``.
    degrade_safety: float = 1.5
    #: Floor of the latency estimate, so tiny deadlines degrade even
    #: before the EWMA has samples.
    min_latency_estimate_s: float = 0.005
    #: Clamp of the computed ``Retry-After`` hint (seconds).
    retry_after_min_s: int = 1
    retry_after_max_s: int = 30
    #: Idle keep-alive connections are closed after this long; it also
    #: bounds how long a drain waits on an idle connection.
    keepalive_timeout_s: float = 5.0
    #: Default ``k`` when a request does not specify one.
    default_k: int = 10
    #: Build the pipeline before serving, so ``/readyz`` is green from
    #: the first accepted connection.
    warm_on_start: bool = True
    #: Bind with ``SO_REUSEPORT`` so several worker processes can listen
    #: on the same port and let the kernel balance accepts (the pre-fork
    #: pool of :mod:`repro.server.prefork` sets this on every worker).
    reuse_port: bool = False
    #: Identity of this process inside a pre-fork pool (0 standalone).
    worker_index: int = 0
    #: Directory where this worker periodically spools a JSON metrics
    #: snapshot, and where ``GET /metrics/aggregate`` merges the whole
    #: pool's snapshots from.  ``None`` (standalone) makes the aggregate
    #: view identical to ``/metrics``.  Flight-recorder trace snapshots
    #: (``traces-worker-NNNN.json``) share the same directory, merged by
    #: ``GET /debug/traces``.
    metrics_spool_dir: Optional[str] = None
    #: Seconds between metrics-snapshot spool writes.
    metrics_flush_interval_s: float = 1.0
    #: Head-sampling rate of request traces kept in the flight
    #: recorder's *sampled* ring (slow/degraded/shed requests are always
    #: kept regardless).  1.0 keeps every request, 0.0 only notable ones.
    trace_sample_rate: float = 0.1
    #: Requests slower than this are always captured by the flight
    #: recorder, whatever the sampling decision said.
    slow_trace_ms: float = 500.0
    #: Per-ring capacity of the in-memory flight recorder.
    flight_recorder_size: int = 64
    #: JSON-lines access log (one line per request: trace id, route,
    #: status, stage latencies, cache/degraded flags).  ``None`` disables.
    #: Opened in append mode per worker, so a pre-fork pool can share one
    #: path — each line is a single O_APPEND write.
    access_log_path: Optional[str] = None
    #: Reformulation lanes the daemon serves (``{"lane": ...}`` request
    #: field); names outside this set get a 400.
    lanes: Tuple[str, ...] = KNOWN_LANES
    #: Lane used when a request does not name one.
    default_lane: str = "hmm"
    #: Lane to re-route through when the routed lane's best-path cohesion
    #: falls below ``cohesion_threshold`` (``None`` disables the chain).
    fallback_lane: Optional[str] = None
    #: Cohesion threshold of the fallback chain (and the relaxation
    #: lane's own incohesion trigger).
    cohesion_threshold: float = 1e-9

    def router_config(self) -> RouterConfig:
        """The lane-routing slice of this config, for the live wrapper."""
        return RouterConfig(
            lanes=tuple(self.lanes),
            default_lane=self.default_lane,
            fallback_lane=self.fallback_lane,
            cohesion_threshold=self.cohesion_threshold,
        )

    def validate(self) -> None:
        """Raise :class:`ServerConfigError` on out-of-range values."""
        if self.max_concurrency < 1:
            raise ServerConfigError("max_concurrency must be >= 1")
        if self.queue_depth < 0:
            raise ServerConfigError("queue_depth must be >= 0")
        if self.queue_timeout_s < 0:
            raise ServerConfigError("queue_timeout_s must be >= 0")
        if self.default_deadline_ms < 0:
            raise ServerConfigError("default_deadline_ms must be >= 0")
        if self.degrade_safety <= 0:
            raise ServerConfigError("degrade_safety must be > 0")
        if self.min_latency_estimate_s <= 0:
            raise ServerConfigError("min_latency_estimate_s must be > 0")
        if not 0 < self.retry_after_min_s <= self.retry_after_max_s:
            raise ServerConfigError(
                "need 0 < retry_after_min_s <= retry_after_max_s"
            )
        if self.default_k < 1:
            raise ServerConfigError("default_k must be >= 1")
        if self.worker_index < 0:
            raise ServerConfigError("worker_index must be >= 0")
        if self.metrics_flush_interval_s <= 0:
            raise ServerConfigError("metrics_flush_interval_s must be > 0")
        if not 0.0 <= self.trace_sample_rate <= 1.0:
            raise ServerConfigError("trace_sample_rate must be in [0, 1]")
        if self.slow_trace_ms < 0:
            raise ServerConfigError("slow_trace_ms must be >= 0")
        if self.flight_recorder_size < 1:
            raise ServerConfigError("flight_recorder_size must be >= 1")
        try:
            self.router_config().validate()
        except ReproError as exc:
            raise ServerConfigError(str(exc)) from None
