"""Structured JSON-lines access log for the serving daemon.

One line per finished request — trace id, route, status, lane
(algorithm), cache hit/miss, degraded/shed flags, and the per-stage
latency breakdown — machine-parseable (``jq``-able) and joinable with
``GET /debug/traces`` output on ``trace_id``.

The file is opened in **append** mode.  In a pre-fork pool every worker
opens the same path after the fork; each record is serialized to a
single ``write`` of one line, which POSIX appends atomically for writes
up to ``PIPE_BUF`` — and in practice for ordinary ``O_APPEND`` regular
files — so per-worker lines interleave without tearing.  A per-process
lock serializes the daemon's own handler threads.
"""

from __future__ import annotations

import json
import logging
import threading
from typing import Any, Dict, Optional

logger = logging.getLogger("repro.server")

#: Keys dropped from access-log lines (bulky; they live in the flight
#: recorder / ``/debug/traces`` instead, joinable via ``trace_id``).
_EXCLUDED_KEYS = frozenset({"span_tree"})


class AccessLog:
    """Append-only JSON-lines request log."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._lock = threading.Lock()
        # line-buffered text append: every write() of one "...\n" line
        # reaches the file as a single OS-level append
        self._handle = open(path, "a", encoding="utf-8", buffering=1)

    def write(self, record: Dict[str, Any]) -> None:
        """Append one request record as a single JSON line.

        Never raises: a full disk or revoked file must not fail the
        request that was otherwise served fine.
        """
        payload = {
            key: value
            for key, value in record.items()
            if key not in _EXCLUDED_KEYS
        }
        try:
            line = json.dumps(payload, separators=(",", ":"), default=str)
            with self._lock:
                self._handle.write(line + "\n")
        except (OSError, ValueError):
            logger.exception("access-log write failed")

    def close(self) -> None:
        """Flush and close the log file (idempotent)."""
        with self._lock:
            if not self._handle.closed:
                try:
                    self._handle.close()
                except OSError:
                    logger.exception("access-log close failed")


def open_access_log(path: Optional[str]) -> Optional[AccessLog]:
    """An :class:`AccessLog` for *path*, or ``None`` when disabled."""
    return AccessLog(path) if path else None
