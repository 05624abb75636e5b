"""A minimal keep-alive HTTP/1.1 front end on plain sockets.

:class:`HTTPFrontEnd` owns the listening socket, an accept loop and one
tracked, non-daemon thread per connection.  A connection reads requests
off one buffered reader, hands each to the handler as ``(connection,
verb, target, headers, body)`` with lower-cased header names, and the
handler answers with :meth:`Connection.send`.  The body is always read
(exactly ``Content-Length`` bytes, any verb), ``Transfer-Encoding`` is
refused, and a framing error is answered with a JSON ``{"error": ...}``
body and ``X-Request-Id`` before the connection closes.  The framing
rules in full are in ``docs/server.md``.
"""

from __future__ import annotations

import json
import logging
import selectors
import socket
import threading
import time
from email.utils import formatdate
from http import HTTPStatus
from typing import Callable, Dict, Optional, Tuple

from repro.obs.trace import new_trace_id, sanitize_trace_id

logger = logging.getLogger("repro.server")

_MAX_LINE = 65536
_MAX_HEADERS = 100
_REASONS = {status.value: status.phrase for status in HTTPStatus}
_date_cache: Tuple[int, str] = (0, "")


def _http_date() -> str:
    """The ``Date`` header value, formatted at most once per second."""
    global _date_cache
    now = int(time.time())
    if _date_cache[0] != now:
        _date_cache = (now, formatdate(now, usegmt=True))
    return _date_cache[1]


class _FramingError(Exception):
    """``(status, message, request_id)``: answer, then close."""


class Connection:
    """One accepted socket: reads requests, writes responses."""

    def __init__(self, sock: socket.socket, front: "HTTPFrontEnd") -> None:
        self.sock = sock
        self._front = front
        self._reader = sock.makefile("rb")
        #: Whether the connection stays open after the current response.
        self.keep_alive = True
        #: True while waiting for the next request line.
        self.idle = False

    def read_request(self) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        """Next ``(verb, target, headers, body)``; ``None`` to close."""
        reader = self._reader
        # idle is set before draining is read, and a drain sets draining
        # before it reads idle: one side always sees the other
        self.idle = True
        if self._front.draining:
            return None
        line = reader.readline(_MAX_LINE + 1)
        while line in (b"\r\n", b"\n"):  # tolerated before a request
            line = reader.readline(_MAX_LINE + 1)
        self.idle = False
        if not line:
            return None
        if len(line) > _MAX_LINE:
            raise _FramingError(414, "request line too long", None)
        parts = line.decode("latin-1").split()
        if len(parts) != 3 or parts[2] not in ("HTTP/1.1", "HTTP/1.0"):
            raise _FramingError(400, "malformed request line", None)
        verb, target, version = parts
        headers: Dict[str, str] = {}
        length: Optional[str] = None
        for _ in range(_MAX_HEADERS + 1):
            line = reader.readline(_MAX_LINE + 1)
            if line in (b"\r\n", b"\n"):
                break
            if not line:
                return None
            if len(line) > _MAX_LINE:
                raise _FramingError(431, "header line too long", None)
            name, sep, value = line.decode("latin-1").partition(":")
            if not sep or not name or name != name.strip():
                raise _FramingError(400, "malformed header line", None)
            name, value = name.lower(), value.strip()
            if name == "content-length":
                if length not in (None, value):
                    raise _FramingError(400, "Content-Length conflict", None)
                length = value
            headers[name] = value
        else:
            raise _FramingError(431, f"more than {_MAX_HEADERS} headers", None)
        request_id = headers.get("x-request-id")
        if "transfer-encoding" in headers:
            raise _FramingError(
                501, "Transfer-Encoding is not supported; send Content-Length",
                request_id,
            )
        if length is not None and not (length.isascii() and length.isdigit()):
            raise _FramingError(400, "invalid Content-Length", request_id)
        remaining = int(length or 0)
        if remaining and headers.get("expect", "").lower() == "100-continue":
            self.sock.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
        chunks = []
        while remaining:  # bounded reads: memory follows what arrives
            chunk = reader.read(min(remaining, _MAX_LINE))
            if not chunk:
                return None
            chunks.append(chunk)
            remaining -= len(chunk)
        self.keep_alive = (
            version == "HTTP/1.1"
            and "close" not in headers.get("connection", "").lower()
        )
        return verb, target, headers, b"".join(chunks)

    def send(
        self,
        status: int,
        body: bytes,
        content_type: str,
        request_id: str,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        """Write one complete response in a single ``sendall``.

        Raises :class:`OSError` when the peer is gone or stalled.
        """
        if self._front.draining:
            self.keep_alive = False
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, '')}\r\n"
            f"Server: repro-server/1.0\r\nDate: {_http_date()}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\nX-Request-Id: {request_id}\r\n"
        )
        for name, value in (extra_headers or {}).items():
            head += f"{name}: {value}\r\n"
        if not self.keep_alive:
            head += "Connection: close\r\n"
        try:
            self.sock.sendall(head.encode("latin-1") + b"\r\n" + body)
        except OSError:
            self.keep_alive = False
            raise

    def serve(self, handler: Callable[..., None]) -> None:
        """Answer requests until the connection should close."""
        try:
            while self.keep_alive:
                try:
                    request = self.read_request()
                except _FramingError as exc:
                    status, message, request_id = exc.args
                    self.keep_alive = False
                    self.send(
                        status, json.dumps({"error": message}).encode(),
                        "application/json",
                        sanitize_trace_id(request_id) or new_trace_id(),
                    )
                    return
                if request is None:
                    return
                handler(self, *request)
        except OSError:
            pass  # idle timeout, reset, or a drain closing an idle socket
        except Exception:  # noqa: BLE001 - never kills the server
            logger.exception("connection handler failed")
        finally:
            try:
                self.sock.shutdown(socket.SHUT_WR)  # FIN after the response
            except OSError:
                pass
            self._reader.close()
            self.sock.close()


class HTTPFrontEnd:
    """Listening socket, accept loop and tracked connection threads.

    :meth:`shutdown` stops the accept loop from another thread;
    :meth:`server_close` then closes idle connections and joins every
    connection thread — the drain guarantee: a request being handled
    finishes before it returns.
    """

    def __init__(
        self,
        address: Tuple[str, int],
        handler: Callable[..., None],
        reuse_port: bool = False,
        keepalive_timeout_s: float = 5.0,
    ) -> None:
        self._handler = handler
        self._keepalive_timeout_s = keepalive_timeout_s
        # SO_REUSEADDR always; SO_REUSEPORT lets pre-fork workers share
        # one port, the kernel balancing accepts across them
        self._sock = socket.create_server(
            address, backlog=128, reuse_port=reuse_port
        )
        self._sock.setblocking(False)
        self.server_address: Tuple[str, int] = self._sock.getsockname()[:2]
        self._wake_r, self._wake_w = socket.socketpair()
        self.draining = False
        self._stop = False
        self._loop_done = threading.Event()
        self._loop_done.set()  # shutdown() before serve_forever() is a no-op
        self._lock = threading.Lock()
        self._active: Dict[Connection, threading.Thread] = {}

    def serve_forever(self) -> None:
        """Accept connections until :meth:`shutdown`."""
        self._loop_done.clear()
        try:
            with selectors.DefaultSelector() as selector:
                selector.register(self._sock, selectors.EVENT_READ)
                selector.register(self._wake_r, selectors.EVENT_READ)
                while not self._stop:
                    selector.select()
                    self._accept()
        finally:
            self._loop_done.set()

    def _accept(self) -> None:
        if self._stop:
            return
        try:
            sock, _peer = self._sock.accept()
        except OSError:  # nothing pending, or the peer already gave up
            return
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(self._keepalive_timeout_s)
        conn = Connection(sock, self)
        # non-daemon whatever the accepting thread is: the drain joins
        # these threads
        thread = threading.Thread(
            target=self._run, args=(conn,), name="repro-http-conn",
            daemon=False,
        )
        with self._lock:
            self._active[conn] = thread
        thread.start()

    def _run(self, conn: Connection) -> None:
        try:
            conn.serve(self._handler)
        finally:
            with self._lock:
                del self._active[conn]

    def shutdown(self) -> None:
        """Stop the accept loop and wait until it exits."""
        self._stop = True
        try:
            self._wake_w.send(b"x")
        except OSError:
            pass
        self._loop_done.wait()

    def server_close(self) -> None:
        """Close the listener and idle connections; join the rest."""
        self._stop = self.draining = True
        self._sock.close()
        with self._lock:
            active = list(self._active.items())
        for conn, _thread in active:
            if conn.idle:
                try:
                    conn.sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
        for _conn, thread in active:
            thread.join()
        self._wake_r.close()
        self._wake_w.close()
