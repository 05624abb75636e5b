"""The serving daemon: HTTP routes over one LiveReformulator.

Request lifecycle for the query routes (``/reformulate``,
``/reformulate/batch``, ``/similar``)::

    receive -> parse body -> start deadline -> admission (may wait/shed)
            -> degrade decision -> decode (full or fallback) -> respond

* **Admission** (:mod:`repro.server.admission`): ``max_concurrency``
  requests execute, ``queue_depth`` wait, the rest are shed with
  ``429`` + ``Retry-After``.
* **Deadlines** (:mod:`repro.server.deadline`): queue wait and decode
  share one budget; on deadline pressure the handler asks
  :meth:`~repro.live.LiveReformulator.route` for a degraded answer —
  the result-cache entry (if the identical request is resident) or a
  single-best Viterbi decode — and marks the response
  ``"degraded": true`` — a cheap answer beats a blown deadline.
* **Drain**: SIGTERM (via :meth:`ReformulationServer.install_signal_handlers`)
  or :meth:`ReformulationServer.shutdown` stops accepting connections,
  flips ``/readyz`` to 503, closes idle keep-alive connections and
  joins the threads of in-flight requests before returning.

Health/metrics/admin routes bypass admission so the daemon stays
observable and steerable under overload.

Every request runs under a :class:`repro.obs.TraceContext` — generated
or echoed from the client's ``X-Request-Id`` header and stamped on
**every** response (200s, 400s, 429 sheds, health probes).  The handler
records per-stage timings (parse, queue wait, decode, serialize, plus
the assemble/decode split lifted from the span tree), writes one
JSON line per request to the optional access log, and feeds the
per-worker :class:`~repro.obs.flight.FlightRecorder` whose merged view
is served at ``GET /debug/traces``.

Everything is standard library: the keep-alive HTTP/1.1 front end of
:mod:`repro.server.transport` hands each parsed request to
:meth:`ReformulationServer._dispatch`; JSON bodies; and the existing
:mod:`repro.obs` Prometheus exporter behind ``GET /metrics``.
"""

from __future__ import annotations

import json
import logging
import math
import os
import random
import signal
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple
from urllib.parse import parse_qs

from repro import obs
from repro.core.scoring import ScoredQuery
from repro.errors import ReproError
from repro.lanes.base import BadRequestError, LaneResult, Request
from repro.live import DEGRADE_CACHED, DEGRADE_VITERBI, LiveReformulator
from repro.obs.flight import FlightRecorder, merge_trace_snapshots
from repro.obs.trace import (
    Span,
    TraceContext,
    new_trace_id,
    reset_current_trace,
    sanitize_trace_id,
    set_current_trace,
)
from repro.server.accesslog import open_access_log
from repro.server.admission import AdmissionController, OverloadedError
from repro.server.config import ServerConfig
from repro.server.deadline import Deadline, LatencyEstimator, should_degrade
from repro.server.transport import Connection, HTTPFrontEnd

logger = logging.getLogger("repro.server")

_JSON = "application/json"
_PROMETHEUS = "text/plain; version=0.0.4; charset=utf-8"

#: Routes that consume pipeline capacity and go through admission.
_QUERY_ROUTES = frozenset({"/reformulate", "/reformulate/batch", "/similar"})
#: Routes metrics label by name; any other path is labelled "unknown".
_KNOWN_ROUTES = _QUERY_ROUTES | {
    "/healthz", "/readyz", "/metrics", "/metrics/aggregate",
    "/debug/traces", "/admin/reload", "/admin/ingest",
}

#: Span names folded into the flat stage view of the access log:
#: plan-cache assemble (candidate plans + HMM build), decode, and
#: response shaping.
_STAGE_SPAN_NAMES = {
    "candidates": "assemble",
    "hmm_build": "assemble",
    "decode": "decode",
    "postprocess": "postprocess",
}


def _tree_stage_latencies(root: Span) -> Dict[str, float]:
    """Sum span durations under *root* into coarse stage buckets."""
    out: Dict[str, float] = {}

    def visit(span: Span) -> None:
        stage = _STAGE_SPAN_NAMES.get(span.name)
        if stage is not None:
            out[stage] = out.get(stage, 0.0) + span.duration
        for child in span.children:
            visit(child)

    visit(root)
    return out


def scored_to_dict(query: ScoredQuery) -> Dict[str, Any]:
    """JSON-able view of one suggestion.

    ``score`` survives the JSON round trip exactly: ``json.dumps`` emits
    ``repr(float)`` which parses back bit-identical, so HTTP responses
    can be compared 1:1 against in-process results.
    """
    return {
        "text": query.text,
        "score": query.score,
        "terms": list(query.terms),
        "state_path": list(query.state_path),
    }


def drain_on_signals(shutdown: Callable[[], None], name: str) -> None:
    """SIGTERM/SIGINT run *shutdown* on a helper thread named *name*.

    The handler returns at once, so the interrupted main thread can
    leave its serving loop once *shutdown* stops it.
    """

    def _handle(signum: int, _frame: Any) -> None:
        logger.info("received signal %d, draining", signum)
        threading.Thread(target=shutdown, name=name, daemon=True).start()

    signal.signal(signal.SIGTERM, _handle)
    signal.signal(signal.SIGINT, _handle)


def _query_int(
    params: Dict[str, List[str]], name: str, default: int, minimum: int
) -> int:
    try:
        value = int(params.get(name, [str(default)])[0])
    except ValueError:
        raise BadRequestError(f"{name} must be an integer")
    if value < minimum:
        raise BadRequestError(f"{name} must be an integer >= {minimum}")
    return value


class ReformulationServer:
    """HTTP daemon wrapping one :class:`LiveReformulator`.

    The server object is independent of the socket machinery: handlers
    call :meth:`handle_reformulate` / :meth:`handle_batch` /
    :meth:`handle_similar`, which are plain methods and unit-testable.
    """

    def __init__(
        self,
        live: LiveReformulator,
        config: Optional[ServerConfig] = None,
    ) -> None:
        self.live = live
        self.config = config or ServerConfig()
        self.config.validate()
        # Route with the served lane set — in a pre-fork pool __init__
        # runs post-fork, so every worker re-applies the shared config.
        self.live.configure_router(self.config.router_config())
        self.admission = AdmissionController(
            self.config.max_concurrency,
            queue_depth=self.config.queue_depth,
            queue_timeout_s=self.config.queue_timeout_s,
        )
        self.latency = LatencyEstimator(
            floor_s=self.config.min_latency_estimate_s
        )
        self._httpd: Optional[HTTPFrontEnd] = None
        self._thread: Optional[threading.Thread] = None
        self._draining = threading.Event()
        self._started = threading.Event()
        self._lifecycle_lock = threading.Lock()
        self._closed = False
        self._degraded_served = 0
        self._flush_stop = threading.Event()
        self._flusher: Optional[threading.Thread] = None
        self.flight = FlightRecorder(
            capacity=self.config.flight_recorder_size,
            slow_threshold_s=self.config.slow_trace_ms / 1000.0,
        )
        self.access_log = open_access_log(self.config.access_log_path)
        # Per-process sampling RNG.  In a pre-fork pool this object is
        # constructed in the worker (post-fork), so worker streams are
        # independent by construction.
        self._trace_rng = random.Random(os.urandom(8))

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    @property
    def address(self) -> Tuple[str, int]:
        """Bound ``(host, port)`` — resolves port 0 to the real one."""
        if self._httpd is None:
            return (self.config.host, self.config.port)
        return self._httpd.server_address

    @property
    def port(self) -> int:
        """The bound port."""
        return self.address[1]

    @property
    def draining(self) -> bool:
        """True once shutdown started; ``/readyz`` turns 503."""
        return self._draining.is_set()

    @property
    def ready(self) -> bool:
        """Pipeline built, serving, and not draining."""
        return (
            self._started.is_set()
            and not self.draining
            and self.live.version >= 1
        )

    def _ensure_httpd(self) -> HTTPFrontEnd:
        with self._lifecycle_lock:
            if self._closed:
                raise ReproError("server already shut down")
            if self._httpd is None:
                self._httpd = HTTPFrontEnd(
                    (self.config.host, self.config.port),
                    self._dispatch,
                    reuse_port=self.config.reuse_port,
                    keepalive_timeout_s=self.config.keepalive_timeout_s,
                )
            return self._httpd

    def bind(self) -> Tuple[str, int]:
        """Bind the listening socket now; returns the bound address.

        Lets callers (the CLI) announce the real port — meaningful with
        ``port=0`` — before blocking in :meth:`serve_forever`.
        """
        self._ensure_httpd()
        return self.address

    def start(self) -> "ReformulationServer":
        """Serve from a background thread (tests, embedding); returns self."""
        httpd = self._ensure_httpd()
        if self.config.warm_on_start:
            self.live.pipeline()
        self._thread = threading.Thread(
            target=self._serve_loop, args=(httpd,),
            name="repro-server", daemon=True,
        )
        self._thread.start()
        self._started.wait(timeout=10.0)
        return self

    def serve_forever(self) -> None:
        """Serve from the calling thread until :meth:`shutdown`."""
        httpd = self._ensure_httpd()
        if self.config.warm_on_start:
            self.live.pipeline()
        self._serve_loop(httpd)

    def _serve_loop(self, httpd: HTTPFrontEnd) -> None:
        logger.info("serving on %s:%d", *self.address)
        self._start_metrics_flusher()
        self._started.set()
        try:
            httpd.serve_forever()
        finally:
            self._close(httpd)

    def _close(self, httpd: HTTPFrontEnd) -> None:
        """Join in-flight handlers and release the socket (idempotent)."""
        with self._lifecycle_lock:
            if self._closed:
                return
            self._closed = True
        # Non-daemon connection threads: this join IS the drain — every
        # request being handled finishes before we return.
        httpd.server_close()
        self._stop_metrics_flusher()
        if self.access_log is not None:
            self.access_log.close()
        logger.info("drained and closed")

    def shutdown(self) -> None:
        """Graceful stop: refuse new connections, drain in-flight work.

        Safe to call from any thread except a request handler; returns
        once every in-flight request has completed and the listening
        socket is released.  Idempotent.
        """
        if self._httpd is None:
            return
        self._draining.set()
        self._httpd.shutdown()  # stops the accept loop (blocks until out)
        self._close(self._httpd)
        if (
            self._thread is not None
            and self._thread is not threading.current_thread()
        ):
            self._thread.join(timeout=self.config.keepalive_timeout_s + 5.0)

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT -> graceful drain (main thread only).

        ``serve_forever`` runs in the main thread under the CLI, and
        :meth:`shutdown` waits for the accept loop to exit, so calling
        it from the serving thread would deadlock.
        """
        drain_on_signals(self.shutdown, "repro-server-drain")

    # ------------------------------------------------------------------ #
    # request handling (HTTP-free, unit-testable)
    # ------------------------------------------------------------------ #

    @property
    def degraded_served(self) -> int:
        """Requests answered through a degradation fallback (ungated)."""
        return self._degraded_served

    def retry_after_s(self) -> int:
        """``Retry-After`` hint: expected time for the queue to clear."""
        stats = self.admission.stats()
        backlog = stats.executing + stats.waiting
        per_slot = self.latency.estimate()
        estimate = per_slot * max(1, backlog) / self.admission.max_concurrency
        return int(
            min(
                self.config.retry_after_max_s,
                max(self.config.retry_after_min_s, math.ceil(estimate)),
            )
        )

    def _parse_query_terms(self, payload: Dict[str, Any]) -> Any:
        """Keywords from ``keywords`` (pre-tokenized) or ``query`` (raw)."""
        if "keywords" in payload:
            return payload["keywords"]
        raw = payload.get("query")
        if not isinstance(raw, str) or not raw.strip():
            raise BadRequestError(
                "provide 'keywords' (list of strings) or 'query' (string)"
            )
        parsed = self.live.pipeline().parser.parse(raw.lower())
        keywords = list(parsed.keywords)
        if not keywords:
            raise BadRequestError(f"query {raw!r} has no keywords")
        return keywords

    def _answer(
        self,
        requests: List[Request],
        deadline: Deadline,
        route: str,
    ) -> Tuple[List[LaneResult], Optional[str]]:
        """Answer *requests* in one :meth:`LiveReformulator.route` call.

        Degrades when the deadline cannot fit the expected latency; the
        reported mode is the weaker fallback any entry took.  Only full
        answers feed the per-query latency estimate.
        """
        degrade = should_degrade(
            deadline, self.latency, self.config.degrade_safety
        )
        start = time.perf_counter()
        results = self.live.route(requests, degrade=degrade)
        if not degrade:
            self.latency.observe(
                (time.perf_counter() - start) / len(requests)
            )
            return results, None
        modes = {result.degraded for result in results}
        mode = DEGRADE_VITERBI if DEGRADE_VITERBI in modes else DEGRADE_CACHED
        self._degraded_served += 1
        obs.annotate_trace("degraded_mode", mode)
        obs.counter(
            "repro_server_degraded_total",
            "Requests answered via a degradation fallback",
        ).inc()
        logger.debug("degraded %s via %s", route, mode)
        return results, mode

    @staticmethod
    def _suggestion_dicts(result: LaneResult) -> List[Dict[str, Any]]:
        """Suggestion dicts with per-suggestion provenance merged in.

        The ``lane`` provenance key is omitted per suggestion — it is
        reported once at the response level.
        """
        out = []
        for scored, prov in zip(result.suggestions, result.provenance):
            entry = scored_to_dict(scored)
            entry.update(
                {key: value for key, value in prov.items() if key != "lane"}
            )
            out.append(entry)
        return out

    def handle_reformulate(
        self, payload: Dict[str, Any], deadline: Deadline
    ) -> Dict[str, Any]:
        """``POST /reformulate`` body -> response dict."""
        request = Request(
            self._parse_query_terms(payload),
            payload.get("k", self.config.default_k),
            payload.get("lane"),
            payload.get("algorithm", "astar"),
        )
        keywords = list(request.keywords)
        obs.annotate_trace("algorithm", request.algorithm)
        obs.annotate_trace("keywords", keywords)
        (result,), mode = self._answer([request], deadline, "/reformulate")
        return {
            "keywords": keywords,
            "k": request.k,
            "algorithm": request.algorithm,
            "lane": result.lane,
            "lane_requested": result.requested,
            "relaxed": result.relaxed,
            "fallback_from": result.fallback_from,
            "suggestions": self._suggestion_dicts(result),
            "degraded": mode is not None,
            "degraded_mode": mode,
            "version": self.live.version,
        }

    def handle_batch(
        self, payload: Dict[str, Any], deadline: Deadline
    ) -> Dict[str, Any]:
        """``POST /reformulate/batch`` body -> response dict."""
        queries = payload.get("queries")
        if not isinstance(queries, (list, tuple)) or not queries:
            raise BadRequestError("queries must be a non-empty list")
        k = payload.get("k", self.config.default_k)
        lane = payload.get("lane")
        algorithm = payload.get("algorithm", "astar")
        requests = []
        for i, query in enumerate(queries):
            try:
                requests.append(Request(query, k, lane, algorithm))
            except BadRequestError as exc:
                raise BadRequestError(f"queries[{i}]: {exc}") from None
        obs.annotate_trace("algorithm", algorithm)
        obs.annotate_trace("keywords", [f"<batch of {len(requests)}>"])
        results, mode = self._answer(requests, deadline, "/reformulate/batch")
        return {
            "k": k,
            "algorithm": algorithm,
            "lane_requested": results[0].requested,
            "degraded": mode is not None,
            "degraded_mode": mode,
            "version": self.live.version,
            "results": [
                {
                    "keywords": list(request.keywords),
                    "lane": result.lane,
                    "relaxed": result.relaxed,
                    "fallback_from": result.fallback_from,
                    "suggestions": self._suggestion_dicts(result),
                }
                for request, result in zip(requests, results)
            ],
        }

    def handle_similar(self, params: Dict[str, List[str]]) -> Dict[str, Any]:
        """``GET /similar?term=...&n=...`` -> response dict."""
        terms = params.get("term")
        if not terms or not terms[0]:
            raise BadRequestError("missing required query parameter 'term'")
        term = terms[0].lower()
        pairs = self.live.similar_terms(term, _query_int(params, "n", 10, 1))
        return {
            "term": term,
            "similar": [
                {"term": other, "score": score} for other, score in pairs
            ],
        }

    def handle_admin_reload(self) -> Dict[str, Any]:
        """``POST /admin/reload`` -> drop cached relation stores.

        Per-worker semantics: inside a pre-fork pool this reload only
        affects the worker that happened to accept the connection (the
        response names it).  Reload every worker by hitting the endpoint
        until each worker index answered, or restart the pool.  Corpus
        deltas should use ``/admin/ingest`` instead — its layer chain
        fans out to every worker automatically.
        """
        self.live.reload_relations()
        logger.info("admin reload: relation store cache dropped")
        # per-worker semantics: the pool identity names who was refreshed
        return self._with_pool_identity({
            "reloaded": True,
            "stale": self.live.is_stale,
            "version": self.live.version,
        })

    def handle_admin_ingest(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """``POST /admin/ingest`` -> fold rows in as one delta layer.

        Body: ``{"rows": [{"table": ..., "row": {...}}, ...]}`` plus
        optional ``n_similar``/``closeness_top``/``batch_size``.  The
        accepting worker runs the incremental offline stage
        (:class:`repro.offline.DeltaIngestor`) and writes a delta layer
        beside the relation store; sibling pre-fork workers replay the
        layer's rows from the chain on their next metrics-flush tick, so
        the whole pool converges on the new epoch without a restart.
        """
        rows = payload.get("rows")
        if not isinstance(rows, list) or not rows:
            raise BadRequestError("rows must be a non-empty list")
        options: Dict[str, Any] = {}
        for name in ("n_similar", "closeness_top", "batch_size"):
            if name in payload:
                value = payload[name]
                if not isinstance(value, int) or isinstance(value, bool):
                    raise BadRequestError(f"{name} must be an integer")
                options[name] = value
        start = time.perf_counter()
        stats = self.live.ingest(rows, **options)
        logger.info(
            "admin ingest: %d rows -> epoch %d (%d terms recomputed, "
            "%d invalidated) in %.3fs",
            stats.n_rows, stats.epoch, stats.n_recomputed,
            stats.n_invalidated, time.perf_counter() - start,
        )
        return self._with_pool_identity(
            {"ingested": True, "stats": stats.to_dict()}
        )

    def _with_pool_identity(self, body: Dict[str, Any]) -> Dict[str, Any]:
        """*body* plus, in pool mode, the answering worker and pid."""
        if self.config.metrics_spool_dir is not None:
            body["worker"] = self.config.worker_index
            body["pid"] = os.getpid()
        return body

    # ------------------------------------------------------------------ #
    # metrics
    # ------------------------------------------------------------------ #

    def record_request(
        self,
        route: str,
        status: int,
        seconds: float,
        trace_id: Optional[str] = None,
    ) -> None:
        """Per-request series (gated by the ``repro.obs`` switch).

        *trace_id* rides along as a histogram exemplar, so a latency
        outlier in the metrics view links straight to its span tree in
        ``GET /debug/traces``.
        """
        if not obs.is_enabled():
            return
        registry = obs.registry()
        registry.counter(
            "repro_server_requests_total",
            "HTTP requests served by the daemon",
            route=route, status=str(status),
        ).inc()
        registry.histogram(
            "repro_server_request_seconds",
            "End-to-end request latency (queue wait included)",
            route=route,
        ).observe(seconds, exemplar=trace_id)
        stats = self.admission.stats()
        registry.gauge(
            "repro_server_inflight",
            "Requests currently executing",
        ).set(stats.executing)
        registry.gauge(
            "repro_server_queue_waiting",
            "Requests waiting for an execution permit",
        ).set(stats.waiting)

    def record_shed(self, reason: str) -> None:
        """Count one shed request (gated)."""
        obs.counter(
            "repro_server_shed_total",
            "Requests shed by admission control (HTTP 429)",
        ).inc()
        obs.counter(
            "repro_server_shed_by_reason_total",
            "Shed requests by cause",
            reason=reason,
        ).inc()

    # ------------------------------------------------------------------ #
    # request tracing: sampling, flight recorder, access log
    # ------------------------------------------------------------------ #

    def sample_trace(self) -> bool:
        """Head-sampling decision for one incoming request."""
        rate = self.config.trace_sample_rate
        if rate >= 1.0:
            return True
        if rate <= 0.0:
            return False
        return self._trace_rng.random() < rate

    def observe_trace(
        self,
        ctx: TraceContext,
        verb: str,
        route: str,
        status: int,
        seconds: float,
        stages: Dict[str, float],
        root_span: Optional[Span] = None,
        shed_reason: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Fold one finished request into the flight recorder + access log.

        Builds the request record from the handler-measured *stages*,
        the stage latencies lifted from the span tree (plan-cache
        assemble vs decode), and whatever the layers below annotated on
        the trace context (cache hit/miss, degraded mode, algorithm).
        """
        annotations = ctx.annotations
        merged_stages = dict(stages)
        if root_span is not None:
            merged_stages.update(_tree_stage_latencies(root_span))
        record: Dict[str, Any] = {
            "ts": time.time(),
            "trace_id": ctx.trace_id,
            "verb": verb,
            "route": route,
            "status": status,
            "duration_s": round(seconds, 6),
            "sampled": ctx.sampled,
            "worker": self.config.worker_index,
            "pid": os.getpid(),
            "stages": {
                name: round(value, 6)
                for name, value in merged_stages.items()
            },
            "degraded": annotations.get("degraded_mode") is not None,
            "degraded_mode": annotations.get("degraded_mode"),
            "shed": shed_reason is not None,
            "shed_reason": shed_reason,
            "cache": annotations.get("result_cache"),
            "lane": annotations.get("lane"),
            "algorithm": annotations.get("algorithm"),
            "keywords": annotations.get("keywords"),
            "error": annotations.get("error"),
        }
        if root_span is not None:
            record["span_tree"] = obs.export.span_to_dict(root_span)
        self.flight.observe(record)
        if self.access_log is not None:
            self.access_log.write(record)
        return record

    def _traces_snapshot(self) -> Dict[str, Any]:
        return {
            "worker": self.config.worker_index,
            "traces": self.flight.snapshot(),
        }

    def write_traces_snapshot(self) -> Optional[Path]:
        """Atomically spool this worker's flight-recorder contents."""
        return self._spool_write("traces-worker", self._traces_snapshot())

    def debug_traces_dict(self, limit: int = 0) -> Dict[str, Any]:
        """``GET /debug/traces`` payload: retained traces, pool-wide.

        Standalone this is the local flight recorder.  Inside a pool,
        this worker spools its own snapshot first (so its view is as
        fresh as its ``/metrics``), then merges every sibling's
        ``traces-worker-*.json`` — the exact shape of the
        ``/metrics/aggregate`` merge, applied to trace records.
        """
        if self.config.metrics_spool_dir is None:
            snapshots = [self._traces_snapshot()]
        else:
            self.write_traces_snapshot()
            snapshots = self._spool_read("traces-worker")
        return merge_trace_snapshots(snapshots, limit=limit)

    # ------------------------------------------------------------------ #
    # multi-process metrics spool (pre-fork pool support)
    # ------------------------------------------------------------------ #

    def _start_metrics_flusher(self) -> None:
        """Spool periodic metrics snapshots when configured (idempotent)."""
        if self.config.metrics_spool_dir is None or self._flusher is not None:
            return
        if obs.is_enabled():
            obs.registry().gauge(
                "repro_server_worker_up",
                "1 per live worker process (labelled by worker index)",
                worker=str(self.config.worker_index),
            ).set(1)

        def loop() -> None:
            while not self._flush_stop.wait(
                self.config.metrics_flush_interval_s
            ):
                try:
                    self.write_metrics_snapshot()
                    self.write_traces_snapshot()
                except Exception:  # noqa: BLE001 - keep serving
                    logger.exception("metrics spool write failed")
                try:
                    # delta-ingest fan-out: the layer chain doubles as
                    # the ingest journal, so polling it on the flush
                    # tick converges every worker on the newest epoch
                    applied = self.live.sync_ingest()
                    if applied:
                        logger.info(
                            "worker %d replayed %d delta layer(s), "
                            "now at ingest epoch %d",
                            self.config.worker_index, applied,
                            self.live.ingest_epoch,
                        )
                except Exception:  # noqa: BLE001 - keep serving
                    logger.exception("delta-ingest sync failed")

        self._flusher = threading.Thread(
            target=loop, name="repro-metrics-flush", daemon=True
        )
        self._flusher.start()

    def _stop_metrics_flusher(self) -> None:
        """Stop the flusher and leave one final post-drain snapshot."""
        self._flush_stop.set()
        if self._flusher is not None:
            self._flusher.join(timeout=5.0)
            self._flusher = None
        if self.config.metrics_spool_dir is not None:
            try:
                self.write_metrics_snapshot()
                self.write_traces_snapshot()
            except Exception:  # noqa: BLE001 - shutdown best-effort
                logger.exception("final metrics spool write failed")

    def write_metrics_snapshot(self) -> Optional[Path]:
        """Atomically write this worker's registry snapshot to the spool."""
        return self._spool_write(
            "worker", obs.export.registry_to_dict(obs.registry())
        )

    def _spool_write(self, prefix: str, payload: Any) -> Optional[Path]:
        """Atomically write ``<prefix>-NNNN.json`` for this worker."""
        spool = self.config.metrics_spool_dir
        if spool is None:
            return None
        root = Path(spool)
        root.mkdir(parents=True, exist_ok=True)
        path = root / f"{prefix}-{self.config.worker_index:04d}.json"
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(payload), encoding="utf-8")
        os.replace(tmp, path)
        return path

    def _spool_read(self, prefix: str) -> List[Dict[str, Any]]:
        """Every worker's ``<prefix>-NNNN.json`` snapshot in the spool."""
        snapshots = []
        spool = Path(self.config.metrics_spool_dir)
        for path in sorted(spool.glob(f"{prefix}-*.json")):
            try:
                snapshots.append(json.loads(path.read_text(encoding="utf-8")))
            except (OSError, json.JSONDecodeError):
                continue  # a sibling is mid-rotation; skip this scrape
        return snapshots

    def aggregate_metrics_dict(self) -> Dict[str, Any]:
        """Pool-wide metrics: every spooled worker snapshot, merged.

        Standalone (no spool directory) this is simply the process's own
        registry, so ``/metrics/aggregate`` always answers.  Inside a
        pool, this worker writes a fresh snapshot first so its own
        numbers are as current as its ``/metrics`` view.
        """
        if self.config.metrics_spool_dir is None:
            return obs.export.registry_to_dict(obs.registry())
        self.write_metrics_snapshot()
        return obs.export.merge_snapshots(self._spool_read("worker"))

    # ------------------------------------------------------------------ #
    # HTTP dispatch: one call per well-framed request from the transport
    # ------------------------------------------------------------------ #

    def _dispatch(
        self,
        conn: Connection,
        verb: str,
        target: str,
        headers: Dict[str, str],
        body: bytes,
    ) -> None:
        path, _, query_string = target.partition("?")
        route = path.rstrip("/") or "/"
        start = time.perf_counter()
        status = 500
        # Trace identity: echo the client's X-Request-Id when it is
        # well-formed, otherwise mint one.  The context rides a
        # contextvar so spans opened anywhere below (including pipeline
        # worker threads) attach to this request.
        ctx = TraceContext(
            trace_id=sanitize_trace_id(headers.get("x-request-id"))
            or new_trace_id(),
            sampled=self.sample_trace(),
        )
        stages: Dict[str, float] = {}
        extra_headers: Optional[Dict[str, str]] = None
        token = set_current_trace(ctx)
        root_span: Optional[Span] = None
        shed_reason: Optional[str] = None
        try:
            with obs.span("http.request", verb=verb, route=route) as root:
                if isinstance(root, Span):
                    root_span = root
                try:
                    parse_start = time.perf_counter()
                    payload = _json_body(body) if verb == "POST" else {}
                    stages["parse"] = time.perf_counter() - parse_start
                    status, content = self._route(
                        verb, route, query_string, payload, stages
                    )
                except OverloadedError as exc:
                    retry_after = self.retry_after_s()
                    self.record_shed(exc.reason)
                    shed_reason = exc.reason
                    stages["queue_wait"] = exc.waited_s
                    status = 429
                    content = {"error": str(exc), "retry_after_s": retry_after}
                    extra_headers = {"Retry-After": str(retry_after)}
                except ReproError as exc:  # BadRequestError included
                    ctx.annotate("error", str(exc))
                    status, content = 400, {"error": str(exc)}
                except Exception as exc:  # noqa: BLE001 - last-resort 500
                    logger.exception("unhandled error on %s %s", verb, route)
                    ctx.annotate("error", f"{type(exc).__name__}: {exc}")
                    status = 500
                    content = {"error": f"internal error: {exc}"}
                if isinstance(content, str):  # Prometheus exposition
                    payload_bytes, content_type = content.encode(), _PROMETHEUS
                else:
                    serialize_start = time.perf_counter()
                    payload_bytes = json.dumps(content).encode("utf-8")
                    stages["serialize"] = time.perf_counter() - serialize_start
                    content_type = _JSON
                # written after the admission permit is released: a slow
                # reader holds a connection thread, never a permit
                try:
                    conn.send(
                        status, payload_bytes, content_type, ctx.trace_id,
                        extra_headers,
                    )
                except OSError:
                    ctx.annotate("error", "client disconnected")
                    status = 499
                if root_span is not None:
                    root_span.set_attribute("status", status)
        finally:
            reset_current_trace(token)
            elapsed = time.perf_counter() - start
            label = route if route in _KNOWN_ROUTES else "unknown"
            self.record_request(label, status, elapsed, trace_id=ctx.trace_id)
            try:
                self.observe_trace(
                    ctx, verb, label, status, elapsed,
                    stages, root_span, shed_reason,
                )
            except Exception:  # noqa: BLE001 - tracing never fails requests
                logger.exception("trace observation failed")

    def _route(
        self,
        verb: str,
        route: str,
        query_string: str,
        payload: Dict[str, Any],
        stages: Dict[str, float],
    ) -> Tuple[int, Any]:
        """``(status, content)``: a JSON-able dict, or exposition text."""
        if verb not in ("GET", "POST"):
            return 501, {"error": f"unsupported method {verb!r}"}
        if verb == "GET" and route == "/healthz":
            return 200, self._with_pool_identity({
                "status": "ok",
                "draining": self.draining,
                "ingest_epoch": self.live.ingest_epoch,
            })
        if verb == "GET" and route == "/readyz":
            if self.ready:
                return 200, {"status": "ready", "version": self.live.version}
            return 503, {"status": "draining" if self.draining else "warming"}
        if verb == "GET" and route == "/metrics":
            return 200, obs.export.registry_to_prometheus(obs.registry())
        if verb == "GET" and route == "/metrics/aggregate":
            return 200, obs.export.prometheus_from_dict(
                self.aggregate_metrics_dict()
            )
        if verb == "GET" and route == "/debug/traces":
            limit = _query_int(parse_qs(query_string), "n", 0, 0)
            return 200, self.debug_traces_dict(limit=limit)
        if verb == "POST" and route == "/admin/reload":
            return 200, self.handle_admin_reload()
        if verb == "POST" and route == "/admin/ingest":
            return 200, self.handle_admin_ingest(payload)
        if route not in _QUERY_ROUTES:
            return 404, {"error": f"no route {route}"}
        if (verb == "GET") != (route == "/similar"):
            return 405, {"error": f"wrong verb for {route}"}

        deadline_ms = payload.get(
            "deadline_ms", self.config.default_deadline_ms
        )
        if not isinstance(deadline_ms, (int, float)) or isinstance(
            deadline_ms, bool
        ):
            raise BadRequestError("deadline_ms must be a number")
        deadline = Deadline.from_ms(deadline_ms)
        wait_cap = None if deadline.unlimited else deadline.remaining()
        with obs.span("admission") as admission_span:
            waited = self.admission.acquire(timeout_s=wait_cap)
            admission_span.set_attribute("waited_s", round(waited, 6))
        stages["queue_wait"] = waited
        try:
            with obs.span("handle", route=route):
                if route == "/reformulate":
                    return 200, self.handle_reformulate(payload, deadline)
                if route == "/reformulate/batch":
                    return 200, self.handle_batch(payload, deadline)
                return 200, self.handle_similar(parse_qs(query_string))
        finally:
            self.admission.release()


def _json_body(body: bytes) -> Dict[str, Any]:
    if not body:
        return {}
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise BadRequestError(f"body is not valid JSON: {exc}")
    if not isinstance(payload, dict):
        raise BadRequestError("body must be a JSON object")
    return payload
