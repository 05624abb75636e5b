"""Unit tests for repro.obs.trace and the module-level switch."""

import contextvars
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import obs
from repro.obs.trace import (
    MAX_TRACE_ID_LEN,
    NOOP_SPAN,
    Span,
    TraceContext,
    Tracer,
    annotate_trace,
    current_trace,
    new_trace_id,
    sanitize_trace_id,
    trace_scope,
)


class TestSpan:
    def test_attributes_from_kwargs_and_set(self):
        span = Span("op", {"k": 5})
        span.set_attribute("result", "ok")
        assert span.attributes == {"k": 5, "result": "ok"}

    def test_finish_is_idempotent(self):
        span = Span("op")
        span.finish()
        first_end = span.end_time
        span.finish()
        assert span.end_time == first_end

    def test_duration_while_open_and_after_finish(self):
        span = Span("op")
        assert not span.is_finished
        assert span.duration >= 0.0
        span.finish()
        assert span.is_finished
        frozen = span.duration
        assert span.duration == frozen


class TestTracer:
    def test_nesting_follows_lexical_structure(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("child-a") as a:
                with tracer.span("grandchild"):
                    pass
            with tracer.span("child-b"):
                pass
        assert [c.name for c in root.children] == ["child-a", "child-b"]
        assert [c.name for c in a.children] == ["grandchild"]
        assert root.is_finished

    def test_current_tracks_innermost(self):
        tracer = Tracer()
        assert tracer.current() is None
        with tracer.span("root") as root:
            assert tracer.current() is root
            with tracer.span("inner") as inner:
                assert tracer.current() is inner
            assert tracer.current() is root
        assert tracer.current() is None

    def test_only_roots_retained(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("child"):
                pass
        assert [s.name for s in tracer.roots()] == ["root"]
        assert tracer.last_root().name == "root"

    def test_root_ring_is_bounded(self):
        tracer = Tracer(keep_roots=3)
        for i in range(5):
            with tracer.span(f"op-{i}"):
                pass
        assert [s.name for s in tracer.roots()] == ["op-2", "op-3", "op-4"]

    def test_span_finished_on_exception(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("x")
        root = tracer.last_root()
        assert root.name == "boom"
        assert root.is_finished
        assert tracer.current() is None

    def test_threads_build_independent_trees(self):
        tracer = Tracer()
        seen = {}

        def worker(tag):
            with tracer.span(f"root-{tag}"):
                seen[tag] = tracer.current().name

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert seen == {0: "root-0", 1: "root-1", 2: "root-2"}
        assert len(tracer.roots()) == 3

    def test_reset_drops_roots(self):
        tracer = Tracer()
        with tracer.span("op"):
            pass
        tracer.reset()
        assert tracer.roots() == []
        assert tracer.last_root() is None


class TestSpanErrorMarking:
    def test_exception_marks_span_errored(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("bad input")
        root = tracer.last_root()
        assert root.attributes["error"] is True
        assert root.attributes["error_type"] == "ValueError"
        assert root.attributes["error_message"] == "bad input"

    def test_erroring_child_closed_and_stack_restored(self):
        """The satellite fix: an exception inside a nested span must not
        leak the child onto the stack — the next span on this context
        starts from the restored parent."""
        tracer = Tracer()
        with tracer.span("root") as root:
            with pytest.raises(RuntimeError):
                with tracer.span("child"):
                    raise RuntimeError("x")
            assert tracer.current() is root
            with tracer.span("sibling"):
                pass
        assert [c.name for c in root.children] == ["child", "sibling"]
        assert all(c.is_finished for c in root.children)
        assert tracer.current() is None

    def test_dangling_child_does_not_leak_past_parent_exit(self):
        """A child opened but never exited (no `with`) cannot corrupt
        the stack: token-based restore reinstates the outer stack when
        the parent closes."""
        tracer = Tracer()
        with tracer.span("root"):
            scope = tracer.span("dangling")
            scope.__enter__()
            # parent exits with the child still open
        assert tracer.current() is None
        with tracer.span("next-root"):
            assert tracer.current().name == "next-root"


class TestTraceContext:
    def test_generated_id_is_hex(self):
        trace_id = new_trace_id()
        assert len(trace_id) == 16
        int(trace_id, 16)  # parses as hex

    def test_sanitize_passes_clean_ids(self):
        assert sanitize_trace_id("req-1.2_3") == "req-1.2_3"

    def test_sanitize_strips_unsafe_and_truncates(self):
        assert sanitize_trace_id("a b\nc\x00d!") == "abcd"
        long = "x" * 200
        assert sanitize_trace_id(long) == "x" * MAX_TRACE_ID_LEN

    def test_sanitize_rejects_unusable(self):
        assert sanitize_trace_id(None) is None
        assert sanitize_trace_id("") is None
        assert sanitize_trace_id("\x00\x01!!") is None
        assert sanitize_trace_id(42) is None

    def test_trace_scope_installs_and_restores(self):
        assert current_trace() is None
        with trace_scope(TraceContext("t-1")) as ctx:
            assert current_trace() is ctx
            annotate_trace("cache", "hit")
        assert current_trace() is None
        assert ctx.annotations == {"cache": "hit"}

    def test_annotate_outside_request_is_noop(self):
        annotate_trace("ignored", 1)  # must not raise

    def test_root_span_stamped_with_trace_id(self):
        tracer = Tracer()
        with trace_scope(TraceContext("t-42")):
            with tracer.span("root") as root:
                with tracer.span("child") as child:
                    pass
        assert root.attributes["trace_id"] == "t-42"
        assert "trace_id" not in child.attributes

    def test_no_stamp_without_context(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            pass
        assert "trace_id" not in root.attributes


class TestThreadPoolPropagation:
    def test_copied_context_attaches_to_submitting_tree(self):
        """A pool task running under copy_context() extends the
        submitting request's open span instead of starting a new root
        — how a thread pool keeps its tasks' spans in one request tree."""
        tracer = Tracer()
        with trace_scope(TraceContext("batch-1")):
            with tracer.span("batch") as batch_span:

                def solve(i):
                    with tracer.span(f"decode-{i}"):
                        annotate_trace(f"task-{i}", True)
                    return i

                # one copy per task, made on the SUBMITTING thread —
                # copying inside the pool task would capture the pool
                # thread's empty context instead
                contexts = [contextvars.copy_context() for _ in range(4)]
                with ThreadPoolExecutor(max_workers=2) as pool:
                    results = list(pool.map(
                        lambda task: task[0].run(solve, task[1]),
                        zip(contexts, range(4)),
                    ))
            ctx = current_trace()
        assert results == [0, 1, 2, 3]
        names = sorted(c.name for c in batch_span.children)
        assert names == [f"decode-{i}" for i in range(4)]
        # annotations land on the shared TraceContext object
        assert all(ctx.annotations[f"task-{i}"] for i in range(4))
        # no orphan roots: the only retained root is the batch span
        assert [s.name for s in tracer.roots()] == ["batch"]

    def test_fresh_thread_still_starts_empty(self):
        tracer = Tracer()
        leaked = {}

        def probe():
            leaked["current"] = tracer.current()

        with tracer.span("root"):
            t = threading.Thread(target=probe)
            t.start()
            t.join()
        assert leaked["current"] is None


class TestModuleSwitch:
    def test_disabled_returns_noops(self):
        obs.disable()
        assert obs.span("x") is NOOP_SPAN
        assert obs.counter("c_total") is obs.NOOP_METRIC
        assert obs.gauge("g") is obs.NOOP_METRIC
        assert obs.histogram("h") is obs.NOOP_METRIC

    def test_noop_span_is_inert_context_manager(self):
        with NOOP_SPAN as span:
            span.set_attribute("ignored", 1)

    def test_enabled_records(self):
        obs.reset()
        with obs.enabled():
            with obs.span("op", k=1) as span:
                span.set_attribute("done", True)
            obs.counter("c_total", "help").inc(3)
        assert not obs.is_enabled()
        root = obs.tracer().last_root()
        assert root.name == "op"
        assert root.attributes == {"k": 1, "done": True}
        assert obs.registry().get("c_total").value == 3.0
        obs.reset()

    def test_enabled_restores_previous_state(self):
        obs.enable()
        try:
            with obs.enabled(False):
                assert not obs.is_enabled()
            assert obs.is_enabled()
        finally:
            obs.disable()

    def test_reset_clears_registry_and_spans_not_switch(self):
        with obs.enabled():
            obs.counter("c_total").inc()
            with obs.span("op"):
                pass
            obs.reset()
            assert obs.is_enabled()
            assert len(obs.registry()) == 0
            assert obs.tracer().last_root() is None
        obs.reset()
