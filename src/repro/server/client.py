"""Minimal stdlib HTTP client for the serving daemon.

Used by the test suite, the load benchmark and as the reference for
integrating from other processes — one persistent keep-alive connection
per :class:`ServerClient`, JSON in/out, no third-party dependency.

Responses are returned as :class:`ServerResponse` rather than raised on
non-2xx, because overload (429) and draining (503) are *expected*
states the caller is supposed to branch on::

    with ServerClient(port=server.port) as client:
        response = client.reformulate(["probabilistic", "query"], k=5)
        if response.status == 429:
            time.sleep(response.retry_after or 1)
        else:
            for s in response.json["suggestions"]:
                print(s["score"], s["text"])
"""

from __future__ import annotations

import http.client
import json
import socket
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence
from urllib.parse import quote, urlencode

from repro.errors import ReproError


class ServerClientError(ReproError):
    """Transport-level client failure (connect/read errors)."""


@dataclass(frozen=True)
class ServerResponse:
    """One HTTP exchange, body parsed lazily."""

    status: int
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def ok(self) -> bool:
        """2xx."""
        return 200 <= self.status < 300

    @property
    def text(self) -> str:
        """Body decoded as UTF-8."""
        return self.body.decode("utf-8")

    @property
    def json(self) -> Any:
        """Body parsed as JSON."""
        return json.loads(self.body) if self.body else None

    @property
    def retry_after(self) -> Optional[int]:
        """Parsed ``Retry-After`` header, when present."""
        value = self.headers.get("retry-after")
        return int(value) if value is not None else None

    @property
    def request_id(self) -> Optional[str]:
        """The ``X-Request-Id`` the server stamped on this response."""
        return self.headers.get("x-request-id")


class ServerClient:
    """Keep-alive JSON client for :class:`~repro.server.app.ReformulationServer`."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8080,
        timeout_s: float = 30.0,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self._conn: Optional[http.client.HTTPConnection] = None

    # ------------------------------------------------------------------ #
    # transport
    # ------------------------------------------------------------------ #

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout_s
            )
            conn.connect()
            # Requests are tiny; leaving Nagle on trades latency for
            # nothing here (see the matching server-side setting).
            conn.sock.setsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
            )
            self._conn = conn
        return self._conn

    def close(self) -> None:
        """Drop the persistent connection (reopened on next request)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServerClient":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    def request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
        request_id: Optional[str] = None,
    ) -> ServerResponse:
        """One JSON exchange; retries once on a stale keep-alive socket.

        *request_id* is sent as ``X-Request-Id`` so the server traces
        the request under the caller's id (echoed back in the response
        and joinable against the access log / ``/debug/traces``).
        """
        body = None
        headers = {"Accept": "application/json"}
        if request_id is not None:
            headers["X-Request-Id"] = request_id
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        for attempt in (1, 2):
            try:
                conn = self._connection()
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                data = response.read()
                return ServerResponse(
                    status=response.status,
                    headers={
                        name.lower(): value
                        for name, value in response.getheaders()
                    },
                    body=data,
                )
            except (http.client.HTTPException, OSError) as exc:
                # The server closes idle keep-alive sockets; a request
                # racing that close fails exactly once — reconnect.
                self.close()
                if attempt == 2:
                    raise ServerClientError(
                        f"{method} {path} failed: {exc}"
                    ) from exc
        raise AssertionError("unreachable")

    # ------------------------------------------------------------------ #
    # endpoints
    # ------------------------------------------------------------------ #

    def reformulate(
        self,
        keywords: Optional[Sequence[str]] = None,
        k: Optional[int] = None,
        algorithm: Optional[str] = None,
        deadline_ms: Optional[int] = None,
        query: Optional[str] = None,
        lane: Optional[str] = None,
    ) -> ServerResponse:
        """``POST /reformulate`` (pre-tokenized keywords or a raw query)."""
        payload: Dict[str, Any] = {}
        if keywords is not None:
            payload["keywords"] = list(keywords)
        if query is not None:
            payload["query"] = query
        if k is not None:
            payload["k"] = k
        if algorithm is not None:
            payload["algorithm"] = algorithm
        if deadline_ms is not None:
            payload["deadline_ms"] = deadline_ms
        if lane is not None:
            payload["lane"] = lane
        return self.request("POST", "/reformulate", payload)

    def batch(
        self,
        queries: Sequence[Sequence[str]],
        k: Optional[int] = None,
        algorithm: Optional[str] = None,
        deadline_ms: Optional[int] = None,
        lane: Optional[str] = None,
    ) -> ServerResponse:
        """``POST /reformulate/batch``."""
        payload: Dict[str, Any] = {
            "queries": [list(query) for query in queries]
        }
        if k is not None:
            payload["k"] = k
        if algorithm is not None:
            payload["algorithm"] = algorithm
        if deadline_ms is not None:
            payload["deadline_ms"] = deadline_ms
        if lane is not None:
            payload["lane"] = lane
        return self.request("POST", "/reformulate/batch", payload)

    def similar(self, term: str, n: int = 10) -> ServerResponse:
        """``GET /similar``."""
        params = urlencode({"term": term, "n": n}, quote_via=quote)
        return self.request("GET", f"/similar?{params}")

    def healthz(self) -> ServerResponse:
        """``GET /healthz``."""
        return self.request("GET", "/healthz")

    def readyz(self) -> ServerResponse:
        """``GET /readyz``."""
        return self.request("GET", "/readyz")

    def metrics(self) -> ServerResponse:
        """``GET /metrics`` (Prometheus text format)."""
        return self.request("GET", "/metrics")

    def metrics_aggregate(self) -> ServerResponse:
        """``GET /metrics/aggregate`` (pool-wide Prometheus view)."""
        return self.request("GET", "/metrics/aggregate")

    def debug_traces(self, n: Optional[int] = None) -> ServerResponse:
        """``GET /debug/traces`` (pool-wide flight-recorder view)."""
        path = "/debug/traces" if n is None else f"/debug/traces?n={n}"
        return self.request("GET", path)

    def admin_reload(self) -> ServerResponse:
        """``POST /admin/reload``."""
        return self.request("POST", "/admin/reload", {})

    def wait_ready(self, timeout_s: float = 10.0) -> bool:
        """Poll ``/readyz`` until 200 or *timeout_s* elapses."""
        limit = time.monotonic() + timeout_s
        while time.monotonic() < limit:
            try:
                if self.readyz().status == 200:
                    return True
            except ServerClientError:
                pass
            time.sleep(0.05)
        return False


def suggestions_signature(
    suggestions: List[Dict[str, Any]]
) -> List[tuple]:
    """Comparison key matching in-process ``(text, score, state_path)``.

    JSON round-trips floats exactly (``repr`` in, ``float`` out), so
    equality against direct :meth:`LiveReformulator.reformulate_lane`
    output is bit-identical, not approximate.
    """
    return [
        (s["text"], s["score"], tuple(s["state_path"])) for s in suggestions
    ]
