"""The one-worker HTTP server, forked from the benchmark process.

The child serves the way ``repro serve`` does: metrics on, a
``LiveReformulator`` over the v3 store, the default ``ServerConfig``
and a SIGTERM drain.  It talks to the parent over a status pipe:
``READY <port>`` once bound, ``MARK`` after SIGUSR1 took a snapshot of
its cache counters (and of the spans recorded so far), ``ON`` after
SIGUSR2 switched the span wrappers on, and one JSON summary line when
it exits.  Forking, rather than starting ``repro serve``, puts the
benchmark's span wrappers in the server's process.
"""

from __future__ import annotations

import json
import os
import select
import signal
import sys
import threading
import time
from typing import Any, Dict, List

from repro import obs
from repro.live import LiveReformulator
from repro.server.app import ReformulationServer
from repro.server.config import ServerConfig

import corpus
import harness
import spans


def _send(fd: int, line: str) -> None:
    data = (line + "\n").encode("utf-8")
    while data:
        data = data[os.write(fd, data):]


def _exit_with(parent: int) -> None:
    """Stop the server once the benchmark process that forked it is gone."""
    while os.getppid() == parent:
        time.sleep(0.5)
    os._exit(1)


def _serve(database, store_path, status_fd: int, parent: int) -> None:
    threading.Thread(target=_exit_with, args=(parent,), daemon=True).start()
    obs.reset()
    obs.enable()
    live = LiveReformulator(database, corpus.CONFIG, relations=str(store_path))
    live.sync_ingest()
    live.pipeline()
    server = ReformulationServer(live, ServerConfig(port=0))
    server.install_signal_handlers()
    _host, port = server.bind()
    recorder = spans.Recorder()
    marks: List[Dict[str, Any]] = []

    # the parent signals only while no request is in flight
    def mark(_signum, _frame) -> None:
        marks.append({
            "caches": harness.cache_counters(
                live.pipeline().plan_cache, live.result_cache
            ),
            "version": live.version,
            "spans": spans.summarize(recorder.spans),
        })
        _send(status_fd, "MARK")

    def trace_on(_signum, _frame) -> None:
        recorder.install()
        _send(status_fd, "ON")

    signal.signal(signal.SIGUSR1, mark)
    signal.signal(signal.SIGUSR2, trace_on)
    _send(status_fd, f"READY {port}")
    server.serve_forever()
    recorder.uninstall()
    admission = server.admission.stats()
    _send(status_fd, json.dumps({
        "marks": marks,
        "version": live.version,
        "spans": spans.summarize(recorder.spans),
        "shed": admission.shed,
        "degraded": server.degraded_served,
    }))


class ServerProcess:
    """Parent-side handle of the forked server."""

    def __init__(self, pid: int, status_fd: int) -> None:
        self.pid = pid
        self._fd = status_fd
        self._buffer = b""
        self._reaped = False
        self.port = 0

    @classmethod
    def start(cls, database, store_path, timeout_s: float = 120.0) -> "ServerProcess":
        """Fork, build the pipeline in the child, wait for ``READY``."""
        sys.stdout.flush()
        sys.stderr.flush()
        read_fd, write_fd = os.pipe()
        parent = os.getpid()
        pid = os.fork()
        if pid == 0:  # child: never returns
            code = 0
            try:
                os.close(read_fd)
                _serve(database, store_path, write_fd, parent)
            except BaseException as exc:  # noqa: BLE001 - report, then exit
                code = 1
                try:
                    _send(write_fd, f"ERROR {exc!r}")
                except OSError:
                    pass
            finally:
                os._exit(code)
        os.close(write_fd)
        proc = cls(pid, read_fd)
        line = proc.read_line(timeout_s)
        if not line.startswith("READY "):
            proc.kill()
            raise RuntimeError(f"server did not start: {line!r}")
        proc.port = int(line.split()[1])
        return proc

    def read_line(self, timeout_s: float) -> str:
        """Next status line; '' on timeout or end of stream."""
        deadline = time.monotonic() + timeout_s
        while b"\n" not in self._buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return ""
            ready, _, _ = select.select([self._fd], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(self._fd, 1 << 16)
            if not chunk:
                break
            self._buffer += chunk
        line, _, self._buffer = self._buffer.partition(b"\n")
        return line.decode("utf-8", "replace")

    def command(self, signum: int, expect: str, timeout_s: float = 30.0) -> None:
        """Signal the child and wait for its acknowledgement."""
        os.kill(self.pid, signum)
        line = self.read_line(timeout_s)
        if line != expect:
            raise RuntimeError(f"server answered {line!r}, expected {expect!r}")

    def mark(self) -> None:
        """Have the child snapshot its counters (``summary["marks"]``)."""
        self.command(signal.SIGUSR1, "MARK")

    def trace_on(self) -> None:
        """Have the child install the span wrappers."""
        self.command(signal.SIGUSR2, "ON")

    def stop(self, timeout_s: float = 60.0) -> Dict[str, Any]:
        """SIGTERM, let it drain, reap it; returns its summary."""
        if self._reaped:
            return {}
        os.kill(self.pid, signal.SIGTERM)
        deadline = time.monotonic() + timeout_s
        summary: Dict[str, Any] = {}
        error = ""
        while True:
            line = self.read_line(max(0.0, deadline - time.monotonic()))
            if not line:
                break
            if line.startswith("{"):
                summary = json.loads(line)
            elif line.startswith("ERROR"):
                error = line
        self._reap(deadline)
        if error:
            raise RuntimeError(f"server failed: {error}")
        return summary

    def kill(self) -> None:
        """Stop the child at once (error paths, discarded set-ups)."""
        if self._reaped:
            return
        try:
            os.kill(self.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self._reap(time.monotonic())

    def _reap(self, deadline: float) -> None:
        while not os.waitpid(self.pid, os.WNOHANG)[0]:
            if time.monotonic() > deadline:
                os.kill(self.pid, signal.SIGKILL)
                os.waitpid(self.pid, 0)
                break
            time.sleep(0.02)
        os.close(self._fd)
        self._reaped = True
