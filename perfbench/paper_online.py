"""paper_online: the paper's Figure 7-10 query set, in process, closed loop.

400 length-varied queries (lengths 1-8, ``WorkloadGenerator
.length_varied_queries``) over the stock ``medium`` corpus go through
an in-process ``Reformulator`` over a v3 store, one caller, in repeated
passes after one warm-up pass.  There is no result cache, and the
~500-term vocabulary fits the plan cache, so after the warm-up every
pass is candidate assembly from cached plans, A* decode and
postprocess: decode is the dominant layer; storage and server do
almost nothing.

After the passes, ``N_TAIL`` held-out papers are ingested one at a time
through a ``LiveReformulator`` over the same store (``live.fresh_p50_s``),
and the run ends with one ``DeltaIngestor.compact``: probes over the
last ingested paper must answer the same through the compacted store
as through the layered one.
"""

from __future__ import annotations

import dataclasses
import random
import types
from time import perf_counter

from repro.core.reformulator import Reformulator
from repro.data.workloads import WorkloadGenerator
from repro.live import LiveReformulator
from repro.offline import DeltaIngestor

import corpus
import harness
import spans

N_QUERIES = 400
#: Held-out papers ingested after the passes, one per ingest.
N_TAIL = 6
#: Queries re-answered with the uncached pipeline.
N_CHECK = 20


def make(seed: int, work):
    start = perf_counter()
    built = corpus.build("medium", N_TAIL, seed, work / "store")
    pipeline = Reformulator(
        built.graph, corpus.CONFIG,
        similarity=built.store, closeness=built.store,
    )
    return (built, pipeline), {"setup_s": perf_counter() - start, **built.timings}


def dispose(state) -> None:
    pass


def run(seed: int, seconds: float, trace: bool, work) -> harness.Record:
    (built, pipeline), setup = make(seed, work)
    rec = harness.Record(
        entry="core.reformulate", setups=[setup], corpus=built.shape
    )
    generator = WorkloadGenerator(
        types.SimpleNamespace(database=built.base), seed=seed
    )
    queries = [
        list(query.keywords)
        for query in generator.length_varied_queries(N_QUERIES)
    ]
    expected = [pipeline.reformulate(q, k=corpus.K) for q in queries]
    rec.digest = harness.digest([corpus.signature(r) for r in expected])

    recorder = spans.Recorder()
    counts = harness.CacheCounts()
    passes = 0
    deadline = perf_counter() + seconds
    # with tracing, odd passes are traced and even ones are the baseline
    while passes < (2 if trace else 1) or perf_counter() < deadline:
        tracing = trace and passes % 2 == 1
        if tracing:
            before = harness.cache_counters(pipeline.plan_cache, None)
            recorder.install()
        times = []
        for query, want in zip(queries, expected):
            begin = perf_counter()
            got = pipeline.reformulate(query, k=corpus.K)
            times.append(perf_counter() - begin)
            if got != want:
                rec.mismatches.append(f"{query}: answer changed between passes")
        if tracing:
            recorder.uninstall()
            counts.add(before, harness.cache_counters(pipeline.plan_cache, None))
            rec.traced.extend(times)
        else:
            rec.untraced.extend(times)
        rec.rounds.append(times)
        passes += 1

    uncached = Reformulator(
        built.graph,
        dataclasses.replace(corpus.CONFIG, enable_plan_cache=False),
        similarity=built.store, closeness=built.store,
    )
    for i in sorted(random.Random(seed).sample(range(N_QUERIES), N_CHECK)):
        if uncached.reformulate(queries[i], k=corpus.K) != expected[i]:
            rec.mismatches.append(
                f"{queries[i]}: plan-cached answer differs from uncached"
            )

    # freshness on the same store, traced apart from the passes so the
    # layer shares describe the query phase
    live = LiveReformulator(
        built.base, corpus.CONFIG, relations=str(built.store_path)
    )
    live.pipeline()
    version = live.version
    tail_recorder = spans.Recorder()
    if trace:
        tail_recorder.install()
    for rows in built.deltas:
        seconds_to_fresh, stats = corpus.ingest_and_probe(live, rows)
        rec.fresh.append(seconds_to_fresh)
        rec.ingests.append(stats.to_dict())
    rec.rebuilds = live.version - version
    # the compaction below is traced too, apart from the ingests
    ingest_spans = len(tail_recorder.spans)
    probes = corpus.probe_queries(built.deltas[-1])
    layered = [
        corpus.signature(live.reformulate_lane(p, k=corpus.K).suggestions)
        for p in probes
    ]
    start = perf_counter()
    DeltaIngestor(live.database, built.store_path).compact()
    rec.compact_s = perf_counter() - start
    live.reload_relations()
    for probe, want in zip(probes, layered):
        got = corpus.signature(live.reformulate_lane(probe, k=corpus.K).suggestions)
        if got != want:
            rec.mismatches.append(
                f"probe {probe}: compacted store answers differently "
                "from the layered store"
            )
    tail_recorder.uninstall()

    rec.attempted = (
        passes * N_QUERIES + N_QUERIES + N_CHECK + 2 * N_TAIL + 2 * len(probes)
    )
    if trace:
        rec.query_summary = spans.summarize(recorder.spans)
        rec.fresh_summary = spans.summarize(tail_recorder.spans[:ingest_spans])
        rec.summary = spans.merge(
            rec.query_summary, spans.summarize(tail_recorder.spans)
        )
        rec.counts = dict(counts.totals)
    return rec
