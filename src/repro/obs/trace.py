"""Nestable wall-clock spans, the context-local tracer, and the
request-scoped :class:`TraceContext`.

A :class:`Span` records a name, free-form attributes, and
``time.perf_counter`` start/end stamps.  :class:`Tracer` hands them out
as context managers and maintains a *context-local* stack (a
:class:`contextvars.ContextVar` holding an immutable tuple) so nesting
falls out of lexical structure::

    tracer = Tracer()
    with tracer.span("reformulate", k=5) as root:
        with tracer.span("candidates") as sp:
            sp.set_attribute("sizes", [7, 7])

Why contextvars instead of ``threading.local``:

* a fresh thread still starts with an empty stack (thread independence
  is preserved — each ``Thread`` begins in a copy of the *spawning*
  context, and the stack var is reset per-span by token);
* ``contextvars.copy_context()`` lets a thread-pool task *inherit* the
  submitting request's open spans when the submitter opts in (running
  each task under a copied context), so its spans attach to the
  request's root instead of becoming orphan roots;
* ``os.fork`` copies the whole interpreter state, so a pre-fork worker
  inherits the master's trace context for free.

The stack is an **immutable tuple**: pushing stores a new tuple via
``ContextVar.set`` and popping restores the previous one with the set's
token.  Token-based restore is what makes span exit leak-proof — even
if a span's body raised, or left dangling children behind, closing the
span restores the exact stack that was in place when it opened, so the
next request on this thread/context starts clean.  A span whose body
raises is additionally marked errored (``error=True`` plus the
exception type) before it is finished.

Completed **root** spans are retained on a bounded ring
(:attr:`Tracer.keep_roots`) so the CLI's ``--trace`` flag can render the
last request after the fact.  When the global switch in
:mod:`repro.obs` is off, instrumented code receives :data:`NOOP_SPAN`
instead and pays only the dispatch check.

:class:`TraceContext` is the request-scoped identity carried alongside
the span stack: a trace id (generated, or echoed from a client's
``X-Request-Id``), the head-sampling decision, and a free-form
annotations dict that layers crossing the request (result cache,
degradation) write into.  Root spans opened while a trace context is
current are stamped with its ``trace_id``.
"""

from __future__ import annotations

import binascii
import os
import re
import threading
import time
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar, Token
from typing import Any, Deque, Dict, Iterator, List, Optional, Tuple


class Span:
    """One timed operation: name, attributes, children, timing."""

    __slots__ = ("name", "attributes", "children", "start_time", "end_time")

    def __init__(
        self, name: str, attributes: Optional[Dict[str, Any]] = None
    ) -> None:
        self.name = name
        self.attributes: Dict[str, Any] = dict(attributes or {})
        self.children: List["Span"] = []
        self.start_time = time.perf_counter()
        self.end_time: Optional[float] = None

    def set_attribute(self, key: str, value: Any) -> None:
        """Attach (or overwrite) one attribute."""
        self.attributes[key] = value

    def mark_error(self, kind: str, message: Optional[str] = None) -> None:
        """Flag this span as errored (exception escaped its body)."""
        self.attributes["error"] = True
        self.attributes["error_type"] = kind
        if message:
            self.attributes["error_message"] = message

    def finish(self) -> None:
        """Stamp the end time (idempotent)."""
        if self.end_time is None:
            self.end_time = time.perf_counter()

    @property
    def is_finished(self) -> bool:
        """True once :meth:`finish` ran."""
        return self.end_time is not None

    @property
    def duration(self) -> float:
        """Elapsed seconds (up to now while the span is still open)."""
        end = self.end_time if self.end_time is not None else time.perf_counter()
        return end - self.start_time

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, {self.duration * 1e3:.3f} ms, "
            f"{len(self.children)} children)"
        )


class NoopSpan:
    """Do-nothing span: the disabled-instrumentation fast path."""

    __slots__ = ()

    def set_attribute(self, key: str, value: Any) -> None:
        """Discard the attribute."""

    def mark_error(self, kind: str, message: Optional[str] = None) -> None:
        """Discard the error flag."""

    def __enter__(self) -> "NoopSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


#: Shared no-op span; ``with NOOP_SPAN:`` costs two trivial calls.
NOOP_SPAN = NoopSpan()


# --------------------------------------------------------------------- #
# request-scoped trace context
# --------------------------------------------------------------------- #

#: Accepted characters of a client-supplied request id; anything else is
#: stripped before the id is echoed back into a response header.
_REQUEST_ID_UNSAFE = re.compile(r"[^A-Za-z0-9._\-]")

#: Longest request id the server echoes (longer ids are truncated).
MAX_TRACE_ID_LEN = 64


def new_trace_id() -> str:
    """A fresh 16-hex-char request id (64 random bits)."""
    return binascii.hexlify(os.urandom(8)).decode("ascii")


def sanitize_trace_id(raw: Any) -> Optional[str]:
    """Validate/truncate a client-supplied ``X-Request-Id``.

    Keeps ``[A-Za-z0-9._-]`` only (header-safe, log-safe), truncates to
    :data:`MAX_TRACE_ID_LEN`; returns ``None`` when nothing usable
    survives, so the caller falls back to :func:`new_trace_id`.
    """
    if not isinstance(raw, str) or not raw:
        return None
    cleaned = _REQUEST_ID_UNSAFE.sub("", raw)[:MAX_TRACE_ID_LEN]
    return cleaned or None


class TraceContext:
    """Identity and sampling decision of one request.

    Carried in a :class:`contextvars.ContextVar` so it follows the
    request across thread-pool hops (via ``copy_context``) and into
    forked workers.  ``annotations`` is a free-form dict any layer under
    the request may write into (cache hit/miss, degraded mode, chosen
    algorithm); the access log and the flight recorder read it back at
    the end of the request.
    """

    __slots__ = ("trace_id", "sampled", "annotations")

    def __init__(
        self, trace_id: Optional[str] = None, sampled: bool = True
    ) -> None:
        self.trace_id = trace_id or new_trace_id()
        self.sampled = bool(sampled)
        self.annotations: Dict[str, Any] = {}

    def annotate(self, key: str, value: Any) -> None:
        """Attach (or overwrite) one request-scoped annotation."""
        self.annotations[key] = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceContext({self.trace_id!r}, sampled={self.sampled}, "
            f"{len(self.annotations)} annotations)"
        )


_TRACE_CONTEXT: ContextVar[Optional[TraceContext]] = ContextVar(
    "repro_trace_context", default=None
)


def current_trace() -> Optional[TraceContext]:
    """The request's :class:`TraceContext`, or ``None`` outside one."""
    return _TRACE_CONTEXT.get()


def set_current_trace(ctx: Optional[TraceContext]) -> Token:
    """Install *ctx* as the current trace; returns the reset token."""
    return _TRACE_CONTEXT.set(ctx)


def reset_current_trace(token: Token) -> None:
    """Restore the trace context that was current before ``set``."""
    _TRACE_CONTEXT.reset(token)


@contextmanager
def trace_scope(ctx: TraceContext) -> Iterator[TraceContext]:
    """``with trace_scope(TraceContext()) as ctx: ...`` — scoped install."""
    token = _TRACE_CONTEXT.set(ctx)
    try:
        yield ctx
    finally:
        _TRACE_CONTEXT.reset(token)


def annotate_trace(key: str, value: Any) -> None:
    """Annotate the current trace context; no-op outside a request."""
    ctx = _TRACE_CONTEXT.get()
    if ctx is not None:
        ctx.annotations[key] = value


# --------------------------------------------------------------------- #
# tracer
# --------------------------------------------------------------------- #


class _SpanScope:
    """Context manager pushing/popping one span on a tracer's stack.

    A dedicated class (not ``@contextmanager``) keeps the per-span cost
    to two method calls and avoids a generator frame on the hot path.
    Exit restores the stack via the set-token, which is what guarantees
    no leak: whatever happened inside the body — exceptions, dangling
    children — the outer stack is reinstated exactly.
    """

    __slots__ = ("_tracer", "_span", "_token")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span
        self._token: Optional[Token] = None

    def __enter__(self) -> Span:
        tracer = self._tracer
        span = self._span
        stack: Tuple[Span, ...] = tracer._stack_var.get()
        if stack:
            # list.append is atomic under the GIL, so a pool thread
            # attaching a child to the submitting request's open span
            # is safe without a lock.
            stack[-1].children.append(span)
        else:
            ctx = _TRACE_CONTEXT.get()
            if ctx is not None:
                span.attributes.setdefault("trace_id", ctx.trace_id)
        # Re-stamp: exclude any delay between Span construction and the
        # span actually opening.
        span.start_time = time.perf_counter()
        self._token = tracer._stack_var.set(stack + (span,))
        return span

    def __exit__(self, exc_type, exc, _tb) -> bool:
        span = self._span
        if exc_type is not None:
            span.mark_error(exc_type.__name__, str(exc) if exc else None)
        span.finish()
        tracer = self._tracer
        token = self._token
        was_root = False
        try:
            if token is not None:
                was_root = token.old_value in ((), Token.MISSING)
                tracer._stack_var.reset(token)
        except ValueError:
            # Token from a different context (a span object smuggled
            # across threads) — fall back to truncating below the span.
            stack = tracer._stack_var.get()
            if span in stack:
                index = stack.index(span)
                was_root = index == 0
                tracer._stack_var.set(stack[:index])
        if was_root:
            with tracer._roots_lock:
                tracer._roots.append(span)
        return False


class Tracer:
    """Hands out nested spans; keeps the last *keep_roots* root spans.

    The span stack lives in a per-tracer :class:`ContextVar` of
    immutable tuples: concurrent requests on different threads (or
    contexts) build independent trees, while thread-pool tasks running
    under a *copied* context extend the submitting request's tree.  The
    finished-roots ring is shared (and lock-protected).
    """

    def __init__(self, keep_roots: int = 64) -> None:
        self.keep_roots = keep_roots
        self._stack_var: ContextVar[Tuple[Span, ...]] = ContextVar(
            f"repro_span_stack_{id(self)}", default=()
        )
        self._roots: Deque[Span] = deque(maxlen=keep_roots)
        self._roots_lock = threading.Lock()

    def span(self, name: str, **attributes: Any) -> _SpanScope:
        """Open a child of the current span (or a new root) as a CM."""
        return _SpanScope(self, Span(name, attributes))

    def current(self) -> Optional[Span]:
        """The innermost open span in this context, or None."""
        stack = self._stack_var.get()
        return stack[-1] if stack else None

    def roots(self) -> List[Span]:
        """Completed root spans, oldest first."""
        with self._roots_lock:
            return list(self._roots)

    def last_root(self) -> Optional[Span]:
        """The most recently completed root span, or None."""
        with self._roots_lock:
            return self._roots[-1] if self._roots else None

    def reset(self) -> None:
        """Drop retained root spans (open spans are unaffected)."""
        with self._roots_lock:
            self._roots.clear()
