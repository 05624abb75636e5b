"""Network serving layer: the HTTP daemon over :class:`LiveReformulator`.

The subsystem turns the in-process pipeline into a long-lived query
service with an overload story:

* :mod:`repro.server.config` — :class:`ServerConfig`, every knob;
* :mod:`repro.server.admission` — semaphore-bounded concurrency plus a
  bounded wait queue; excess load is shed with 429 + ``Retry-After``;
* :mod:`repro.server.deadline` — per-request budgets and the latency
  EWMA behind graceful degradation (cached result / single-best
  Viterbi instead of a blown deadline);
* :mod:`repro.server.app` — the daemon and its routes:
  ``POST /reformulate``, ``POST /reformulate/batch``, ``GET /similar``,
  ``GET /healthz``, ``GET /readyz``, ``GET /metrics``,
  ``GET /metrics/aggregate``, ``GET /debug/traces``,
  ``POST /admin/reload``, graceful SIGTERM drain; every response
  carries ``X-Request-Id`` (echoed from the client or generated);
* :mod:`repro.server.transport` — the keep-alive HTTP/1.1 front end:
  listening socket, accept loop, one thread per connection, request
  framing and single-write responses;
* :mod:`repro.server.accesslog` — JSON-lines per-request access log
  shared append-safely across pre-fork workers;
* :mod:`repro.server.prefork` — :class:`PreforkServer`, the
  SO_REUSEPORT master/worker pool that runs one daemon process per
  core over a shared (ideally memmapped v3) relation store;
* :mod:`repro.server.client` — stdlib keep-alive JSON client.

Quickstart (in-process; the CLI equivalent is ``repro serve``)::

    from repro.live import LiveReformulator
    from repro.server import ReformulationServer, ServerClient, ServerConfig

    server = ReformulationServer(
        LiveReformulator(database), ServerConfig(port=0)
    ).start()
    with ServerClient(port=server.port) as client:
        print(client.reformulate(["probabilistic", "query"], k=5).json)
    server.shutdown()
"""

from repro.server.accesslog import AccessLog, open_access_log
from repro.server.admission import (
    AdmissionController,
    AdmissionStats,
    OverloadedError,
    SHED_QUEUE_FULL,
    SHED_TIMEOUT,
)
from repro.server.app import (
    DEGRADE_CACHED,
    DEGRADE_VITERBI,
    BadRequestError,
    ReformulationServer,
    scored_to_dict,
)
from repro.server.client import (
    ServerClient,
    ServerClientError,
    ServerResponse,
    suggestions_signature,
)
from repro.server.config import ServerConfig, ServerConfigError
from repro.server.deadline import Deadline, LatencyEstimator, should_degrade
from repro.server.prefork import PreforkServer

__all__ = [
    "AccessLog",
    "open_access_log",
    "AdmissionController",
    "AdmissionStats",
    "BadRequestError",
    "Deadline",
    "DEGRADE_CACHED",
    "DEGRADE_VITERBI",
    "LatencyEstimator",
    "OverloadedError",
    "PreforkServer",
    "ReformulationServer",
    "ServerClient",
    "ServerClientError",
    "ServerConfig",
    "ServerConfigError",
    "ServerResponse",
    "SHED_QUEUE_FULL",
    "SHED_TIMEOUT",
    "scored_to_dict",
    "should_degrade",
    "suggestions_signature",
]
