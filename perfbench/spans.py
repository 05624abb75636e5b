"""In-memory spans around layer-boundary public functions.

The traced run replaces a fixed set of public methods -- the calls one
layer makes into the next -- with timing wrappers.  A span records its
name, start, end, the span that caused it and a request id (the id of
its root span); a layer's self time is the duration of its spans minus
the part their child spans cover.  Per-lookup store calls are not
wrapped on purpose: a cold run makes about a million of them, and a
wrapper on each would cost more than the work it times.

:meth:`Recorder.install` patches the class attributes and
:meth:`Recorder.uninstall` restores the originals, so the program
under test is measured as shipped.
"""

from __future__ import annotations

import functools
import itertools
import threading
import weakref
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: span name -> the layer (module) it belongs to.
LAYER_OF = {
    "server.handle_reformulate": "server",
    "server.admission_acquire": "server",
    "live.reformulate_lane": "live",
    "live.ingest": "live",
    "live.pipeline": "live",
    "live.router": "live",
    "lanes.route": "lanes",
    "core.reformulate": "core",
    "core.assemble": "core",
    "serving.term_plan": "serving",
    "serving.pair_plan": "serving",
    "offline.ingest": "offline",
    "offline.compact": "offline",
    "offline.build_store": "offline",
    "graph.close_terms": "graph",
    "graph.close_rows": "graph",
    "graph.batch_walk": "graph",
}

#: Root spans of the read path: a ``close_terms`` call below one of
#: these is the layered store's lazy closeness BFS.
READ_ROOTS = frozenset({
    "server.handle_reformulate",
    "live.reformulate_lane",
    "lanes.route",
    "core.reformulate",
})

#: Spans whose individual durations are kept (for medians).
KEEP_DURATIONS = frozenset({"server.handle_reformulate"})

#: (before(args) -> state, after(args, result, state) -> info) for spans
#: that record a number besides their duration.
Probe = Tuple[Optional[Callable[[tuple], Any]], Callable[[tuple, Any, Any], float]]


def _targets() -> List[Tuple[type, str, str, Optional[Probe]]]:
    """(owner, attribute, span name, probe) of every wrapped function."""
    from repro.core.hmm import ReformulationHMM
    from repro.core.reformulator import Reformulator
    from repro.graph.closeness import ClosenessExtractor
    from repro.graph.similarity import SimilarityExtractor
    from repro.lanes.router import LaneRouter
    from repro.live import LiveReformulator
    from repro.offline import DeltaIngestor, OfflinePrecomputer
    from repro.server.admission import AdmissionController
    from repro.server.app import ReformulationServer
    from repro.serving.plan_cache import PlanCache

    def misses_probe(counter: str):
        # the counter of each plan cache as of its last traced call, so
        # a call costs one stats() snapshot rather than two
        seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

        def before(args) -> None:
            if args[0] not in seen:
                seen[args[0]] = getattr(args[0].stats(), counter)

        def missed(args) -> bool:
            cache = args[0]
            misses = getattr(cache.stats(), counter)
            grew = misses > seen[cache]
            seen[cache] = misses
            return grew

        return before, missed

    term_before, term_missed = misses_probe("term_misses")
    pair_before, pair_missed = misses_probe("pair_misses")

    def pair_lookups(args, result, _state) -> float:
        # a missed pair reads one stored closeness value per matrix cell
        return float(result.raw.size) if pair_missed(args) else 0.0

    def rebuilt(args, _result, version_before) -> float:
        return float(args[0].version != version_before)

    return [
        (ReformulationServer, "handle_reformulate",
         "server.handle_reformulate", None),
        (AdmissionController, "acquire", "server.admission_acquire", None),
        (LiveReformulator, "reformulate_lane", "live.reformulate_lane", None),
        (LiveReformulator, "ingest", "live.ingest", None),
        # a rebuild runs in pipeline() or, inside a request, in router()
        (LiveReformulator, "pipeline", "live.pipeline",
         (lambda args: args[0].version, rebuilt)),
        (LiveReformulator, "router", "live.router",
         (lambda args: args[0].version, rebuilt)),
        (LaneRouter, "route", "lanes.route", None),
        (Reformulator, "reformulate", "core.reformulate", None),
        (ReformulationHMM, "assemble", "core.assemble",
         (None, lambda _args, hmm, _state: float(hmm.search_space))),
        (PlanCache, "term_plan", "serving.term_plan",
         (term_before, lambda args, _r, _s: float(term_missed(args)))),
        (PlanCache, "pair_plan", "serving.pair_plan",
         (pair_before, pair_lookups)),
        (DeltaIngestor, "ingest", "offline.ingest", None),
        (DeltaIngestor, "compact", "offline.compact", None),
        (OfflinePrecomputer, "build_store", "offline.build_store", None),
        (ClosenessExtractor, "close_terms", "graph.close_terms", None),
        (ClosenessExtractor, "close_rows", "graph.close_rows", None),
        (SimilarityExtractor, "batch_walk", "graph.batch_walk", None),
    ]


class Recorder:
    """Collects spans from every thread of this process.

    Each span is ``(id, parent id, request id, name, start, end, info)``;
    the parent is 0 for a root span, whose own id is the request id.
    """

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: List[Tuple[type, str, Any]] = []

    def _wrap(self, name: str, fn: Callable, probe: Optional[Probe]) -> Callable:
        spans, ids, local = self.spans, self._ids, self._local
        before_fn, after_fn = probe if probe is not None else (None, None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent, request = stack[-1] if stack else (0, span_id)
            stack.append((span_id, request))
            start = perf_counter()
            try:
                state = before_fn(args) if before_fn is not None else None
                result = fn(*args, **kwargs)
                info = after_fn(args, result, state) if after_fn else 0.0
            finally:
                stack.pop()
            spans.append(
                (span_id, parent, request, name, start, perf_counter(), info)
            )
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target (idempotent)."""
        if self._saved:
            return
        for owner, attr, name, probe in _targets():
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                wrapped: Any = classmethod(
                    self._wrap(name, original.__func__, probe)
                )
            else:
                wrapped = self._wrap(name, original, probe)
            setattr(owner, attr, wrapped)
            self._saved.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put the original functions back."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def _empty() -> Dict[str, Any]:
    return {
        "n": 0, "total": 0.0, "self": 0.0,
        "info": 0.0, "info_n": 0, "info_total": 0.0, "durations": [],
    }


def summarize(spans: List[tuple]) -> Dict[str, Any]:
    """Per span name: count, total and self seconds, and probe info.

    ``info_n`` / ``info_total`` count and time the spans whose probe
    reported a non-zero number (plan-cache misses, pipeline rebuilds);
    ``info`` sums the numbers.  ``layer_self`` sums self time per layer.
    """
    covered: Dict[int, float] = defaultdict(float)
    root_name: Dict[int, str] = {}
    for span_id, parent, request, name, start, end, _info in spans:
        if parent:
            covered[parent] += end - start
        if span_id == request:
            root_name[span_id] = name
    names: Dict[str, Dict[str, Any]] = {}
    layer_self: Dict[str, float] = defaultdict(float)
    read_close_terms = 0.0
    for span_id, parent, request, name, start, end, info in spans:
        duration = end - start
        own = duration - covered.get(span_id, 0.0)
        agg = names.setdefault(name, _empty())
        agg["n"] += 1
        agg["total"] += duration
        agg["self"] += own
        if info:
            agg["info"] += info
            agg["info_n"] += 1
            agg["info_total"] += duration
        if name in KEEP_DURATIONS:
            agg["durations"].append(duration)
        layer_self[LAYER_OF[name]] += own
        if name == "graph.close_terms" and root_name.get(request) in READ_ROOTS:
            read_close_terms += duration
    return {
        "names": names,
        "layer_self": dict(layer_self),
        "read_close_terms_s": read_close_terms,
    }


def merge(*summaries: Dict[str, Any]) -> Dict[str, Any]:
    """Sum summaries recorded in different processes."""
    names: Dict[str, Dict[str, Any]] = {}
    layer_self: Dict[str, float] = defaultdict(float)
    read_close_terms = 0.0
    for summary in summaries:
        for name, agg in summary.get("names", {}).items():
            into = names.setdefault(name, _empty())
            for key, value in agg.items():
                into[key] = into[key] + value
        for layer, seconds in summary.get("layer_self", {}).items():
            layer_self[layer] += seconds
        read_close_terms += summary.get("read_close_terms_s", 0.0)
    return {
        "names": names,
        "layer_self": dict(layer_self),
        "read_close_terms_s": read_close_terms,
    }
