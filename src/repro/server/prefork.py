"""SO_REUSEPORT pre-fork worker pool for the serving daemon.

One master process owns no request path at all — it exists to fork,
watch, and drain N :class:`~repro.server.app.ReformulationServer`
workers that each bind the *same* ``(host, port)`` with ``SO_REUSEPORT``
and let the kernel balance accepted connections across them.  That turns
the GIL-bound single daemon into one serving process per core:

.. code-block:: text

    master ── resolver socket (bound, never listening: reserves the port)
      ├─ fork → worker 0: bind+listen SO_REUSEPORT, own admission/caches
      ├─ fork → worker 1:   "    (kernel balances accepts between them)
      └─ monitor thread: waitpid each child, respawn on crash,
                         SIGTERM fan-out + reap on shutdown

Design points:

* **Copy-on-write sharing.**  The pipeline factory runs (and should
  warm) *before* the forks, so the TAT graph, index, and — with a v3
  binary store (:mod:`repro.storage.binary`) — the memmapped relation
  blocks are physically shared: each worker adds only its own caches
  and request state on top of one resident copy.
* **The master reserves but never serves the port.**  The resolver
  socket is bound with ``SO_REUSEPORT`` yet never calls ``listen()``,
  so it resolves ``port=0`` to a concrete port for the children and
  keeps the port claimed between a crash and the respawn, while
  receiving none of the kernel-balanced connections itself.
* **Crash containment.**  A worker that dies (segfault, OOM kill,
  ``kill -9``) is reaped by the monitor and respawned with the same
  worker index, up to ``max_respawns`` times per slot; its siblings
  keep serving throughout.
* **Drain semantics.**  ``shutdown()`` (or SIGTERM via
  :meth:`PreforkServer.install_signal_handlers`) fans SIGTERM out to
  every worker; each worker runs its own in-process drain (stop
  accepting, join in-flight handlers, flush the metrics spool) and
  exits.  Workers still alive after ``drain_timeout_s`` get SIGKILL.
* **Metrics.**  Every worker keeps its per-process ``/metrics``; all
  workers spool JSON snapshots into a shared directory, and any
  worker's ``GET /metrics/aggregate`` merges the pool
  (:func:`repro.obs.export.merge_snapshots`).
* **Traces.**  Each worker also spools its flight-recorder contents
  (``traces-worker-NNNN.json``) into the same directory on the metrics
  flush cadence, so ``GET /debug/traces`` on *any* worker returns the
  pool-wide view (:func:`repro.obs.flight.merge_trace_snapshots`) —
  the kernel may route the debug request to a different worker than
  the slow query it is investigating.  Request ids ride ``X-Request-Id``
  headers end to end, so a client can trace a request without caring
  which worker served it.

Everything is standard library: ``os.fork``, a status pipe per worker
for the READY handshake, and ``os.waitpid(pid, WNOHANG)`` polling (a
specific pid, never ``-1`` — the embedding process may own unrelated
children).
"""

from __future__ import annotations

import dataclasses
import logging
import os
import select
import shutil
import signal
import socket
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro import obs
from repro.errors import ReproError
from repro.live import LiveReformulator
from repro.server.app import ReformulationServer, drain_on_signals
from repro.server.config import ServerConfig

logger = logging.getLogger("repro.server.prefork")

#: Default cap on automatic respawns per worker slot.
DEFAULT_MAX_RESPAWNS = 3


@dataclass
class _Worker:
    """Master-side bookkeeping for one forked worker."""

    index: int
    pid: int
    status_fd: int
    alive: bool = True
    ready: bool = False
    respawns: int = 0
    status_buf: bytes = field(default=b"", repr=False)


class PreforkServer:
    """Master of a pre-fork pool of :class:`ReformulationServer` workers.

    Parameters
    ----------
    live_factory:
        Zero-argument callable returning the :class:`LiveReformulator`
        a worker serves.  Called once per worker *after* the fork — to
        share the pipeline copy-on-write, build and warm it first and
        return the same object from every call.
    config:
        Template :class:`ServerConfig`.  Each worker gets a copy with
        the resolved port, ``reuse_port=True``, its ``worker_index``,
        and the shared ``metrics_spool_dir`` filled in.
    workers:
        Number of worker processes (>= 1).
    max_respawns:
        Automatic restarts allowed per worker slot before the slot is
        abandoned (the pool keeps serving on the remaining workers).
    drain_timeout_s:
        How long ``shutdown()`` waits for SIGTERM-initiated worker
        drains before escalating to SIGKILL.
    enable_metrics:
        Flip the :mod:`repro.obs` switch on in every worker (the CLI
        maps ``--no-metrics`` onto this).
    """

    def __init__(
        self,
        live_factory: Callable[[], LiveReformulator],
        config: Optional[ServerConfig] = None,
        workers: int = 2,
        max_respawns: int = DEFAULT_MAX_RESPAWNS,
        drain_timeout_s: float = 20.0,
        enable_metrics: bool = True,
    ) -> None:
        if workers < 1:
            raise ReproError("workers must be >= 1")
        if os.name != "posix":
            raise ReproError("the pre-fork pool requires a POSIX platform")
        self.live_factory = live_factory
        self.config = config or ServerConfig()
        self.config.validate()
        self.n_workers = workers
        self.max_respawns = max_respawns
        self.drain_timeout_s = drain_timeout_s
        self.enable_metrics = enable_metrics
        self._resolver: Optional[socket.socket] = None
        self._port: Optional[int] = None
        self._workers: Dict[int, _Worker] = {}
        self._workers_lock = threading.RLock()
        self._spool_dir: Optional[str] = None
        self._owns_spool = False
        self._monitor: Optional[threading.Thread] = None
        self._stopping = threading.Event()
        self._stopped = threading.Event()
        self._started = False

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    @property
    def port(self) -> int:
        """The resolved listening port (after :meth:`start`)."""
        if self._port is None:
            return self.config.port
        return self._port

    @property
    def address(self) -> Tuple[str, int]:
        """``(host, port)`` the pool serves on."""
        return (self.config.host, self.port)

    @property
    def worker_pids(self) -> List[int]:
        """PIDs of currently live workers."""
        with self._workers_lock:
            return [w.pid for w in self._workers.values() if w.alive]

    def start(self, ready_timeout_s: float = 60.0) -> "PreforkServer":
        """Fork the pool and wait for every worker's READY handshake.

        The monitor (reap/respawn) runs on a background thread; returns
        self once all workers are accepting.
        """
        if self._started:
            raise ReproError("pre-fork pool already started")
        self._started = True
        self._bind_resolver()
        spool = self.config.metrics_spool_dir
        if spool is None:
            spool = tempfile.mkdtemp(prefix="repro-metrics-spool-")
            self._owns_spool = True
        os.makedirs(spool, exist_ok=True)
        self._spool_dir = spool
        for index in range(self.n_workers):
            self._spawn(index)
        self._await_ready(ready_timeout_s)
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-prefork-monitor",
            daemon=True,
        )
        self._monitor.start()
        logger.info(
            "pre-fork pool serving on %s:%d with %d workers (pids %s)",
            self.config.host, self.port, self.n_workers,
            ",".join(map(str, self.worker_pids)),
        )
        return self

    def serve_forever(self) -> None:
        """Run the pool from the calling thread until :meth:`shutdown`."""
        if not self._started:
            self.start()
        self._stopped.wait()

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT on the master -> fan-out drain of the pool."""
        drain_on_signals(self.shutdown, "repro-prefork-drain")

    def shutdown(self) -> None:
        """Drain every worker, reap them, release the port (idempotent)."""
        if self._stopping.is_set():
            self._stopped.wait()
            return
        self._stopping.set()
        with self._workers_lock:
            targets = [w for w in self._workers.values() if w.alive]
        self._drain_workers(targets)
        # final sweep: a worker respawned by the monitor in the instant
        # before _stopping was set would not be in `targets`
        with self._workers_lock:
            stragglers = [
                w for w in self._workers.values()
                if w.alive and w not in targets
            ]
        self._drain_workers(stragglers)
        if self._monitor is not None:
            self._stopped.set()
            self._monitor.join(timeout=5.0)
        if self._resolver is not None:
            self._resolver.close()
            self._resolver = None
        with self._workers_lock:
            for worker in self._workers.values():
                self._close_status_fd(worker)
        if self._owns_spool and self._spool_dir is not None:
            shutil.rmtree(self._spool_dir, ignore_errors=True)
        self._stopped.set()
        logger.info("pre-fork pool drained and closed")

    def _drain_workers(self, targets: List[_Worker]) -> None:
        """SIGTERM *targets*, reap them, SIGKILL any past the timeout."""
        for worker in targets:
            self._signal(worker, signal.SIGTERM)
        deadline = time.monotonic() + self.drain_timeout_s
        for worker in targets:
            self._reap(worker, deadline)
        for worker in targets:
            if worker.alive:
                logger.warning(
                    "worker %d (pid %d) did not drain in %.1fs; killing",
                    worker.index, worker.pid, self.drain_timeout_s,
                )
                self._signal(worker, signal.SIGKILL)
                self._reap(worker, time.monotonic() + 5.0)

    # ------------------------------------------------------------------ #
    # port reservation
    # ------------------------------------------------------------------ #

    def _bind_resolver(self) -> None:
        """Bind (but never listen on) the port to reserve and resolve it.

        A bound, non-listening SO_REUSEPORT socket takes part in the
        port claim — so ``port=0`` resolves once for all workers and the
        port survives worker crashes — but the kernel only balances
        connections across *listening* sockets, so the master receives
        none of the traffic.
        """
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            sock.bind((self.config.host, self.config.port))
        except OSError as exc:
            sock.close()
            raise ReproError(
                f"cannot reserve {self.config.host}:{self.config.port}: {exc}"
            )
        self._resolver = sock
        self._port = sock.getsockname()[1]

    # ------------------------------------------------------------------ #
    # forking
    # ------------------------------------------------------------------ #

    def _worker_config(self, index: int) -> ServerConfig:
        return dataclasses.replace(
            self.config,
            port=self.port,
            reuse_port=True,
            worker_index=index,
            metrics_spool_dir=self._spool_dir,
        )

    def _spawn(self, index: int, respawns: int = 0) -> _Worker:
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            # --- child: never returns, never runs parent atexit/pytest
            os.close(read_fd)
            self._child_main(index, write_fd)
            os._exit(0)  # unreachable (child_main always _exits)
        os.close(write_fd)
        worker = _Worker(
            index=index, pid=pid, status_fd=read_fd, respawns=respawns
        )
        with self._workers_lock:
            self._workers[index] = worker
        return worker

    def _child_main(self, index: int, write_fd: int) -> None:
        """Worker body: bind with SO_REUSEPORT, handshake, serve, exit."""
        code = 0
        try:
            if self._resolver is not None:
                self._resolver.close()
            # single-threaded right after fork: touch the dict without
            # the lock, which another master thread may have held at
            # fork time (its owner does not exist in this process)
            for sibling in list(self._workers.values()):
                self._close_status_fd(sibling)
            if self.enable_metrics:
                obs.reset()
                obs.enable()
            server = ReformulationServer(
                self.live_factory(), self._worker_config(index)
            )
            # after fork the forking thread is the child's main thread,
            # so per-worker signal handlers install cleanly
            server.install_signal_handlers()
            server.bind()
            os.write(write_fd, f"READY {server.port}\n".encode("utf-8"))
            server.serve_forever()
        except BaseException as exc:  # noqa: BLE001 - report then die
            code = 1
            try:
                os.write(
                    write_fd, f"ERROR {exc!r}\n".encode("utf-8", "replace")
                )
            except OSError:
                pass
        finally:
            try:
                os.close(write_fd)
            except OSError:
                pass
            os._exit(code)

    # ------------------------------------------------------------------ #
    # readiness handshake
    # ------------------------------------------------------------------ #

    def _await_ready(self, timeout_s: float) -> None:
        with self._workers_lock:
            pending = [w for w in self._workers.values() if not w.ready]
        try:
            self._await_workers(pending, timeout_s)
        except ReproError:
            self.shutdown()
            raise

    def _await_workers(self, pending: List[_Worker], timeout_s: float) -> None:
        """READY handshake of *pending* workers, within *timeout_s*."""
        deadline = time.monotonic() + timeout_s
        pending = list(pending)
        while pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ReproError(
                    f"workers not ready after {timeout_s:.0f}s: "
                    f"{[w.index for w in pending]}"
                )
            readable, _w, _x = select.select(
                [w.status_fd for w in pending], [], [], min(remaining, 0.5)
            )
            for worker in list(pending):
                if worker.status_fd not in readable:
                    continue
                line = self._read_status_line(worker)
                if line is None:
                    continue
                if not line.startswith("READY"):
                    raise ReproError(
                        f"worker {worker.index} failed to start: {line}"
                    )
                worker.ready = True
                pending.remove(worker)

    def _read_status_line(self, worker: _Worker) -> Optional[str]:
        """One newline-terminated status line, or None if incomplete."""
        try:
            chunk = os.read(worker.status_fd, 4096)
        except OSError:
            chunk = b""
        worker.status_buf += chunk
        if b"\n" in worker.status_buf:
            line, _sep, worker.status_buf = worker.status_buf.partition(b"\n")
            return line.decode("utf-8", "replace")
        if not chunk:  # EOF without a full line: the child died early
            return "ERROR worker exited before reporting status"
        return None

    @staticmethod
    def _close_status_fd(worker: _Worker) -> None:
        if worker.status_fd >= 0:
            try:
                os.close(worker.status_fd)
            except OSError:
                pass
            worker.status_fd = -1

    # ------------------------------------------------------------------ #
    # monitor: reap + respawn
    # ------------------------------------------------------------------ #

    def _poll_worker(self, worker: _Worker) -> bool:
        """Non-blocking reap of one worker; True when it has exited."""
        if not worker.alive:
            return True
        try:
            pid, status = os.waitpid(worker.pid, os.WNOHANG)
        except ChildProcessError:
            worker.alive = False
            return True
        if pid == 0:
            return False
        worker.alive = False
        if os.waitstatus_to_exitcode(status) != 0:
            logger.warning(
                "worker %d (pid %d) exited abnormally (status %d)",
                worker.index, worker.pid, status,
            )
        return True

    def _reap(self, worker: _Worker, deadline: float) -> None:
        """Blockingly reap one worker until *deadline* (poll WNOHANG)."""
        while worker.alive and time.monotonic() < deadline:
            if self._poll_worker(worker):
                return
            time.sleep(0.02)

    def _signal(self, worker: _Worker, signum: int) -> None:
        try:
            os.kill(worker.pid, signum)
        except ProcessLookupError:
            worker.alive = False

    def _monitor_loop(self) -> None:
        """Reap crashed workers and respawn them (until shutdown)."""
        while not self._stopping.is_set():
            with self._workers_lock:
                snapshot = list(self._workers.values())
            for worker in snapshot:
                if not worker.alive or not self._poll_worker(worker):
                    continue
                if self._stopping.is_set():
                    break
                self._close_status_fd(worker)
                if worker.respawns >= self.max_respawns:
                    logger.error(
                        "worker %d crashed %d times; abandoning the slot",
                        worker.index, worker.respawns + 1,
                    )
                    continue
                logger.warning(
                    "worker %d (pid %d) died; respawning",
                    worker.index, worker.pid,
                )
                replacement = self._spawn(
                    worker.index, respawns=worker.respawns + 1
                )
                try:
                    self._await_workers([replacement], timeout_s=60.0)
                except ReproError:
                    logger.exception(
                        "respawned worker %d failed its handshake",
                        worker.index,
                    )
            self._stopping.wait(0.2)
