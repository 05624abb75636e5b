"""Run one workload in this process; turn its measurements into metrics.

A workload module (``paper_online``, ``zipf_http``) exposes
``make(seed, work) -> (state, set-up timings)``, ``dispose(state)`` and
``run(seed, seconds, trace, work) -> Record``, which sets itself up
once through ``make``, measures, checks its answers and fills a
:class:`Record`.  :func:`run` then sets the workload up again
(``SETUPS`` set-ups in all) and prints the report and the result line.

The metric names and units come from ``BENCHMARK.json``: with tracing
off the result carries every end-to-end metric, with tracing on every
per-layer metric.  A per-layer metric whose layer does no work in a
workload reads 0.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parent
SPEC_PATH = REPO_ROOT / "BENCHMARK.json"
#: Corpora and stores of a run live here; removed when the run ends.
WORK_ROOT = REPO_ROOT / ".perfbench_work"
#: Set-ups per run, one before the measured work and the rest after
#: it, so that they span the run; ``setup_s`` and the build timings are
#: those of the fastest (see :func:`fastest_rounds` for why).
SETUPS = 3
#: The end-to-end latency figures are read over the fastest
#: ``1/FASTEST`` of a run's rounds (:func:`fastest_rounds`).
FASTEST = 10


@dataclass
class Record:
    """Raw measurements of one run."""

    #: span name of one read-path request (denominator of lookups/query)
    entry: str
    #: setup_s and the offline build's timings of each set-up
    setups: List[Dict[str, float]]
    corpus: Dict[str, int]
    attempted: int = 0
    failed: int = 0
    mismatches: List[str] = field(default_factory=list)
    #: request latencies of each round of the closed loop
    rounds: List[List[float]] = field(default_factory=list)
    fresh: List[float] = field(default_factory=list)
    digest: str = ""
    samples: Dict[str, Any] = field(default_factory=dict)
    #: peak RSS of the set-up and the measured work (before the later
    #: set-ups)
    peak_rss_mb: float = 0.0
    # ---- traced runs only ----
    summary: Dict[str, Any] = field(default_factory=dict)
    #: spans of the query phase alone (layer shares)
    query_summary: Dict[str, Any] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)
    ingests: List[Dict[str, float]] = field(default_factory=list)
    #: latencies of the traced and the untraced stretches
    traced: List[float] = field(default_factory=list)
    untraced: List[float] = field(default_factory=list)
    #: spans of the ingests behind ``fresh`` (where that time went)
    fresh_summary: Dict[str, Any] = field(default_factory=dict)
    compact_s: float = 0.0
    rebuilds: int = 0
    shed: int = 0
    degraded: int = 0


# --------------------------------------------------------------------- #
# numbers
# --------------------------------------------------------------------- #

def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile (linear interpolation); 0 for no values."""
    if not len(values):
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q))


def overhead(traced: Sequence[float], untraced: Sequence[float]) -> float:
    """Tracing overhead: relative change of the median latency between
    the traced and the untraced stretches.  The median keeps the
    estimate off the cache-miss mix of each stretch."""
    if not len(traced) or not len(untraced):
        return 0.0
    return percentile(traced, 50) / percentile(untraced, 50) - 1.0


def digest(value: Any) -> str:
    """Short stable hash of a JSON-able value (floats kept exact)."""
    blob = json.dumps(value, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


# --------------------------------------------------------------------- #
# cache counters
# --------------------------------------------------------------------- #

PLAN_FIELDS = (
    "term_hits", "term_misses", "term_evictions",
    "pair_hits", "pair_misses", "pair_evictions",
)


def cache_counters(plan_cache, result_cache) -> Dict[str, int]:
    """Plan- and result-cache counters from their ``stats()`` snapshots."""
    out: Dict[str, int] = {}
    if plan_cache is not None:
        stats = plan_cache.stats()
        out.update({name: getattr(stats, name) for name in PLAN_FIELDS})
    if result_cache is not None:
        stats = result_cache.stats()
        out.update(
            result_hits=stats.hits,
            result_misses=stats.misses,
            result_evictions=stats.evictions,
        )
    return out


def hit_ratio(totals: Dict[str, int], hits: str, misses: str) -> float:
    total = totals.get(hits, 0) + totals.get(misses, 0)
    return totals.get(hits, 0) / total if total else 0.0


class CacheCounts:
    """Cache counters summed over the traced stretches of a run."""

    def __init__(self) -> None:
        self.totals: Counter = Counter()

    def add(self, before: Dict[str, int], after: Dict[str, int]) -> None:
        for name, value in after.items():
            self.totals[name] += value - before.get(name, 0)

    def metrics(self) -> Dict[str, float]:
        t = self.totals
        return {
            "serving.term_hit_ratio": hit_ratio(t, "term_hits", "term_misses"),
            "serving.term_evictions": t["term_evictions"],
            "serving.pair_hit_ratio": hit_ratio(t, "pair_hits", "pair_misses"),
            "serving.pair_evictions": t["pair_evictions"],
            "serving.result_hit_ratio": hit_ratio(
                t, "result_hits", "result_misses"
            ),
            "serving.result_evictions": t["result_evictions"],
        }


# --------------------------------------------------------------------- #
# per-layer metrics
# --------------------------------------------------------------------- #

def span_metrics(summary: Dict[str, Any], entry: str) -> Dict[str, float]:
    """Per-layer metrics read off a span summary (``spans.summarize``)."""
    names = summary.get("names", {})
    empty = {"n": 0, "total": 0.0, "self": 0.0,
             "info": 0.0, "info_n": 0, "info_total": 0.0, "durations": []}

    def agg(name: str) -> Dict[str, Any]:
        return names.get(name, empty)

    def per_call_ms(name: str, key: str = "self") -> float:
        a = agg(name)
        return 1000.0 * a[key] / a["n"] if a["n"] else 0.0

    def per_info_span(*span_names: str) -> float:
        seconds = sum(agg(name)["info_total"] for name in span_names)
        count = sum(agg(name)["info_n"] for name in span_names)
        return seconds / count if count else 0.0

    def mean_s(name: str) -> float:
        a = agg(name)
        return a["total"] / a["n"] if a["n"] else 0.0

    assemble = agg("core.assemble")
    queries = agg(entry)["n"]
    # a term-plan miss reads the term's stored similar list; a pair-plan
    # miss one closeness value per cell of its matrix
    lookups = agg("serving.pair_plan")["info"] + agg("serving.term_plan")["info_n"]
    handle = agg("server.handle_reformulate")["durations"]
    return {
        "core.decode_ms": per_call_ms("core.reformulate"),
        "core.assemble_ms": per_call_ms("core.assemble"),
        "core.search_space_mean": (
            assemble["info"] / assemble["n"] if assemble["n"] else 0.0
        ),
        "serving.term_miss_ms": 1000.0 * per_info_span("serving.term_plan"),
        "serving.pair_miss_ms": 1000.0 * per_info_span("serving.pair_plan"),
        "storage.lookups_per_query": lookups / queries if queries else 0.0,
        "graph.close_terms_s": summary.get("read_close_terms_s", 0.0),
        "graph.walk_s": agg("graph.batch_walk")["total"],
        "graph.close_rows_s": agg("graph.close_rows")["total"],
        "live.rebuild_s": per_info_span("live.pipeline", "live.router"),
        "live.ingest_s": mean_s("live.ingest"),
        "lanes.route_self_ms": per_call_ms("lanes.route"),
        "server.handle_ms": 1000.0 * statistics.median(handle) if handle else 0.0,
        "server.queue_wait_ms": per_call_ms("server.admission_acquire", "total"),
    }


def ingest_metrics(stats: Sequence[Dict[str, float]]) -> Dict[str, float]:
    """Means over ``DeltaIngestStats.to_dict()`` of every ingest."""
    def avg(key: str) -> float:
        return statistics.fmean(s[key] for s in stats) if stats else 0.0

    return {
        "offline.ingest_graph_s": avg("graph_seconds"),
        "offline.ingest_walk_s": avg("walk_seconds"),
        "offline.ingest_closeness_s": avg("closeness_seconds"),
        "offline.ingest_write_s": avg("write_seconds"),
        "offline.recomputed_terms": avg("n_recomputed"),
        "offline.invalidated_terms": avg("n_invalidated"),
    }


def layer_shares(summary: Dict[str, Any]) -> Dict[str, float]:
    """Each layer's share of the self time the spans recorded."""
    selfs = summary.get("layer_self", {})
    total = sum(selfs.values())
    return {
        layer: round(seconds / total, 4) for layer, seconds in
        sorted(selfs.items(), key=lambda item: -item[1])
    } if total else {}


# --------------------------------------------------------------------- #
# environment
# --------------------------------------------------------------------- #

def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = REPO_ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text(encoding="utf-8").strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return "unknown"


def fingerprint(corpus_shape: Dict[str, int]) -> Dict[str, Any]:
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "corpus": corpus_shape,
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


# --------------------------------------------------------------------- #
# the run
# --------------------------------------------------------------------- #

def fastest_rounds(rounds: Sequence[Sequence[float]]) -> List[float]:
    """The latencies of the fastest tenth of *rounds* (at least one),
    ranked by their median latency.

    The host shares its cores with other machines' work, and stretches
    of a run go up to twice as slow for seconds at a time; a slow stretch
    only adds time, so the rounds that ran in the calmest stretches are
    the ones that measure the program.  Ranking by the median rather
    than the total keeps the few expensive requests of a round (the
    tail being measured) from deciding which rounds are kept."""
    ranked = sorted((r for r in rounds if r), key=lambda r: percentile(r, 50))
    kept = ranked[:max(1, len(ranked) // FASTEST)]
    return [x for r in kept for x in r]


def _metrics(rec: Record) -> Tuple[Dict, Dict, Dict]:
    """(end-to-end metrics, per-layer metrics, report) of a run."""
    latencies = [x for r in rec.rounds for x in r]
    fast = fastest_rounds(rec.rounds)
    # the figures of the fastest set-up, for the reason above
    setup = min(rec.setups, key=lambda t: t["setup_s"])
    end_to_end = {
        "setup_s": setup["setup_s"],
        "query_p50_ms": 1000.0 * percentile(fast, 50),
        "query_p99_ms": 1000.0 * percentile(fast, 99),
        "qps": len(fast) / sum(fast) if fast else 0.0,
        "peak_rss_mb": rec.peak_rss_mb,
    }
    counts = CacheCounts()
    counts.totals.update(rec.counts)
    layers = {
        **span_metrics(rec.summary, rec.entry),
        **counts.metrics(),
        **ingest_metrics(rec.ingests),
        "storage.open_s": setup["open_s"],
        "storage.write_s": setup["write_s"],
        "offline.build_s": setup["build_s"],
        "offline.terms_per_s": setup["terms_per_s"],
        "offline.compact_s": rec.compact_s,
        "live.rebuilds": rec.rebuilds,
        "live.fresh_p50_s": percentile(rec.fresh, 50),
        "server.shed": rec.shed,
        "server.degraded": rec.degraded,
        "loadgen.sent": len(latencies),
        "trace.overhead_frac": overhead(rec.traced, rec.untraced),
    }
    if layers["server.handle_ms"]:
        # client service time beyond the handler: HTTP and transport
        layers["server.http_overhead_ms"] = (
            1000.0 * percentile(rec.traced, 50) - layers["server.handle_ms"]
        )

    report: Dict[str, Any] = {
        "digest": rec.digest,
        "samples": {
            **rec.samples,
            "rounds": len(rec.rounds),
            "latencies": len(latencies),
            "fastest_latencies": len(fast),
            "fastest_beyond_p99": sum(1 for x in fast if x > percentile(fast, 99)),
            "fresh": len(rec.fresh),
        },
        "layer_share": layer_shares(rec.query_summary),
    }
    if rec.fresh_summary:
        names = rec.fresh_summary["names"]
        fresh_s = sum(rec.fresh)

        def seconds(name: str, key: str) -> float:
            return names.get(name, {}).get(key, 0.0)

        # what the ingest-to-answer time went to: the offline ingest,
        # and live's own share of the ingest call plus the rebuild that
        # follows it
        report["fresh_share"] = {
            "offline": round(seconds("offline.ingest", "total") / fresh_s, 4),
            "live": round((
                seconds("live.ingest", "self")
                + seconds("live.pipeline", "info_total")
            ) / fresh_s, 4),
        }
    return end_to_end, layers, report


def _select(entries: List[Dict[str, str]], values: Dict[str, float]) -> Dict:
    known = {entry["name"] for entry in entries}
    unknown = sorted(set(values) - known)
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    metrics = {}
    for entry in entries:
        value = float(values.get(entry["name"], 0.0))
        if not math.isfinite(value):
            raise ValueError(f"metric {entry['name']} is {value}")
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    import importlib

    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    module = importlib.import_module(workload)
    work = WORK_ROOT / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        rec = module.run(seed=seed, seconds=seconds, trace=trace, work=work)
        rec.peak_rss_mb = peak_rss_mb()
        for _ in range(SETUPS - 1):
            gc.collect()
            state, timings = module.make(seed, work)
            rec.setups.append(timings)
            module.dispose(state)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    end_to_end, layers, report = _metrics(rec)
    if trace:
        metrics = _select(spec["per_layer"], layers)
    else:
        metrics = _select(spec["end_to_end"], end_to_end)
    report.update(
        workload=workload,
        seed=seed,
        seconds=seconds,
        trace=trace,
        env=fingerprint(rec.corpus),
        mismatches=rec.mismatches[:20],
    )
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": not rec.mismatches,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": metrics,
    }), flush=True)
    return 1 if rec.mismatches else 0
