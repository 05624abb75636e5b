"""Raw-socket tests of the daemon's HTTP/1.1 framing.

``ServerClient`` only ever sends well-formed requests, so these tests
write bytes to the socket directly: keep-alive reuse, pipelining,
connection close rules, the framing errors that could desync a
keep-alive stream (each followed by a probe request on the same socket),
and the idle-timeout and drain behaviour of connections.
"""

import json
import socket
import threading
import time
from typing import Dict, NamedTuple, Optional

import pytest

from tests.test_server import _make_server

_REFORMULATE = json.dumps({"keywords": ["probabilistic", "query"], "k": 2})
_PROBE = b"GET /healthz HTTP/1.1\r\nHost: x\r\nX-Request-Id: probe\r\n\r\n"


class _Response(NamedTuple):
    status: int
    headers: Dict[str, str]
    body: bytes

    @property
    def json(self):
        return json.loads(self.body)


@pytest.fixture(scope="module")
def server():
    srv = _make_server()
    yield srv
    srv.shutdown()


class _Conn:
    """One raw client socket with a buffered response reader."""

    def __init__(self, port: int, timeout_s: float = 3.0) -> None:
        self.sock = socket.create_connection(
            ("127.0.0.1", port), timeout=timeout_s
        )
        self.reader = self.sock.makefile("rb")

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def response(self) -> Optional[_Response]:
        """Next response, or ``None`` when the server closed first."""
        line = self.reader.readline()
        if not line:
            return None
        version, status, _reason = line.decode("latin-1").split(" ", 2)
        assert version == "HTTP/1.1", line
        headers = {}
        while True:
            line = self.reader.readline()
            if line in (b"\r\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        body = self.reader.read(int(headers.get("content-length", "0")))
        return _Response(int(status), headers, body)

    def closed_by_server(self) -> bool:
        """True when the server ends the stream (EOF or reset)."""
        try:
            return self.reader.read(1) == b""
        except ConnectionResetError:
            return True

    def close(self) -> None:
        self.reader.close()
        self.sock.close()

    def __enter__(self) -> "_Conn":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def _request(verb: str, path: str, body: bytes = b"", **headers) -> bytes:
    lines = [f"{verb} {path} HTTP/1.1", "Host: x"]
    if body:
        lines.append(f"Content-Length: {len(body)}")
    lines += [f"{name.replace('_', '-')}: {value}"
              for name, value in headers.items()]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def _assert_json_error(response: _Response, status: int) -> None:
    assert response.status == status
    assert response.headers["content-type"] == "application/json"
    assert response.headers.get("x-request-id")
    assert isinstance(response.json["error"], str)


def _assert_probe_answered(conn: _Conn) -> None:
    conn.send(_PROBE)
    probe = conn.response()
    assert probe is not None and probe.status == 200
    assert probe.headers["x-request-id"] == "probe"
    assert probe.json["status"] == "ok"


class TestKeepAlive:
    def test_one_socket_serves_many_requests(self, server):
        with _Conn(server.port) as conn:
            for i in range(20):
                conn.send(_request("GET", "/healthz", X_Request_Id=f"ka-{i}"))
                response = conn.response()
                assert response.status == 200
                assert response.headers["x-request-id"] == f"ka-{i}"
                assert "connection" not in response.headers
                conn.send(_request(
                    "POST", "/reformulate", _REFORMULATE.encode(),
                    Content_Type="application/json",
                ))
                response = conn.response()
                assert response.status == 200
                assert response.json["suggestions"]

    def test_pipelined_requests_answered_in_order(self, server):
        with _Conn(server.port) as conn:
            conn.send(
                _request("POST", "/reformulate", _REFORMULATE.encode(),
                         X_Request_Id="first")
                + _request("GET", "/healthz", X_Request_Id="second")
            )
            first, second = conn.response(), conn.response()
            assert (first.status, first.headers["x-request-id"]) == (
                200, "first")
            assert first.json["suggestions"]
            assert (second.status, second.headers["x-request-id"]) == (
                200, "second")

    def test_connection_close_request_closes_after_response(self, server):
        with _Conn(server.port) as conn:
            conn.send(_request("GET", "/healthz", Connection="close"))
            response = conn.response()
            assert response.status == 200
            assert response.headers["connection"] == "close"
            assert conn.closed_by_server()

    def test_http10_closes_after_response(self, server):
        with _Conn(server.port) as conn:
            conn.send(b"GET /healthz HTTP/1.0\r\n\r\n")
            response = conn.response()
            assert response.status == 200
            assert response.headers["connection"] == "close"
            assert conn.closed_by_server()


class TestFramingDesync:
    def test_get_body_is_consumed_not_parsed_as_a_request(self, server):
        smuggled = b"GET /nothere HTTP/1.1\r\nHost: x\r\n\r\n"
        with _Conn(server.port) as conn:
            conn.send(_request("GET", "/healthz", smuggled))
            assert conn.response().status == 200
            _assert_probe_answered(conn)

    def test_chunked_body_refused_and_connection_closed(self, server):
        chunk = _REFORMULATE.encode()
        with _Conn(server.port) as conn:
            conn.send(
                _request("POST", "/reformulate", Transfer_Encoding="chunked",
                         X_Request_Id="chunked")
                + f"{len(chunk):x}\r\n".encode() + chunk + b"\r\n0\r\n\r\n"
                + _PROBE
            )
            response = conn.response()
            _assert_json_error(response, 501)
            assert response.headers["x-request-id"] == "chunked"
            assert response.headers["connection"] == "close"
            assert conn.closed_by_server()

    @pytest.mark.parametrize("length", ["-3", "abc", "1e2", "+3"])
    def test_invalid_content_length_400_and_closed(self, server, length):
        with _Conn(server.port) as conn:
            conn.send(
                _request("POST", "/reformulate", Content_Length=length)
                + b"abc" + _PROBE
            )
            response = conn.response()
            _assert_json_error(response, 400)
            assert "Content-Length" in response.json["error"]
            assert response.headers["connection"] == "close"
            assert conn.closed_by_server()

    def test_conflicting_content_lengths_400_and_closed(self, server):
        with _Conn(server.port) as conn:
            conn.send(
                b"POST /reformulate HTTP/1.1\r\nContent-Length: 2\r\n"
                b"Content-Length: 5\r\n\r\n{}" + _PROBE
            )
            _assert_json_error(conn.response(), 400)
            assert conn.closed_by_server()


class TestFramingErrors:
    def test_malformed_request_line(self, server):
        with _Conn(server.port) as conn:
            conn.send(b"GARBAGE\r\n\r\n")
            response = conn.response()
            _assert_json_error(response, 400)
            assert response.headers["connection"] == "close"
            assert conn.closed_by_server()

    def test_oversized_request_line_414(self, server):
        with _Conn(server.port) as conn:
            conn.send(b"GET /" + b"a" * 70000 + b" HTTP/1.1\r\n\r\n")
            response = conn.response()
            _assert_json_error(response, 414)
            assert response.headers["connection"] == "close"

    def test_too_many_headers_431(self, server):
        headers = "".join(f"X-H{i}: v\r\n" for i in range(101))
        with _Conn(server.port) as conn:
            conn.send(f"GET /healthz HTTP/1.1\r\n{headers}\r\n".encode())
            response = conn.response()
            _assert_json_error(response, 431)
            assert response.headers["connection"] == "close"
            assert conn.closed_by_server()

    def test_hundred_headers_accepted(self, server):
        headers = "".join(f"X-H{i}: v\r\n" for i in range(100))
        with _Conn(server.port) as conn:
            conn.send(f"GET /healthz HTTP/1.1\r\n{headers}\r\n".encode())
            assert conn.response().status == 200

    def test_unknown_method_json_501_keeps_connection(self, server):
        with _Conn(server.port) as conn:
            conn.send(_request("PUT", "/reformulate", b'{"k": 1}',
                               X_Request_Id="put-1"))
            response = conn.response()
            _assert_json_error(response, 501)
            assert response.headers["x-request-id"] == "put-1"
            _assert_probe_answered(conn)


class TestConnectionLifetime:
    def test_idle_connection_closed_after_keepalive_timeout(self):
        server = _make_server(keepalive_timeout_s=0.3)
        try:
            with _Conn(server.port, timeout_s=5.0) as conn:
                conn.send(_request("GET", "/healthz"))
                assert conn.response().status == 200
                start = time.monotonic()
                assert conn.closed_by_server()
                assert time.monotonic() - start < 3.0
        finally:
            server.shutdown()

    def test_drain_does_not_wait_for_idle_keepalive_client(self):
        server = _make_server(keepalive_timeout_s=30.0)
        conn = _Conn(server.port, timeout_s=5.0)
        try:
            conn.send(_request("GET", "/healthz"))
            assert conn.response().status == 200
            drain = threading.Thread(target=server.shutdown)
            start = time.monotonic()
            drain.start()
            drain.join(timeout=3.0)
            assert not drain.is_alive(), "drain waited on an idle client"
            assert time.monotonic() - start < 3.0
            assert conn.closed_by_server()
        finally:
            conn.close()
            server.shutdown()
