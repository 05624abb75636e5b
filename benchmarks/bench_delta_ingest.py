"""Bench: incremental delta ingest vs a from-scratch offline rebuild.

The acceptance bar for the incremental-offline rework: folding a **1 %**
corpus delta into an existing store via
:class:`repro.offline.DeltaIngestor` must cost **< 10 %** of a full
rebuild's wall-clock, while store-backed top-k reformulations over the
ingested terms stay **bit-identical** to a from-scratch build on the
merged corpus (the layered store's recomputed rows + lazy exact
closeness make this an equality, not a tolerance).

The corpus uses a wide synthetic topic pool (60 topics x ~50 words) so
the vocabulary scales with the corpus the way real title vocabularies
do; the stock 12-topic pool saturates at a few hundred distinct words,
which would make a 1 % row delta touch >10 % of the vocabulary — a
generator artifact, not an ingest property.

Also reported: the warm-started power iteration (seeding the iterative
solver with the pre-ingest fixed point) versus a cold start on the
extended graph — the iteration savings delta ingest gets when the
corpus moves only slightly.

Script mode (used by the CI smoke job) runs a smaller corpus, checks the
bit-identity only, and writes the numbers as JSON::

    PYTHONPATH=src python benchmarks/bench_delta_ingest.py \
        --smoke --out BENCH_delta_ingest.json
"""

import json
import shutil
import time

import numpy as np
import pytest

from repro.core.reformulator import ReformulatorConfig
from repro.data.dblp_synth import SynthConfig, dblp_schema, synthesize_dblp
from repro.data.topics import Topic
from repro.graph.context import ContextualPreference
from repro.graph.randomwalk import RandomWalkEngine
from repro.graph.tat import TATGraph
from repro.index.inverted import InvertedIndex
from repro.live import LiveReformulator
from repro.offline import DeltaIngestor, OfflinePrecomputer
from repro.server.app import scored_to_dict
from repro.storage.binary import write_store_v3
from repro.storage.database import Database

N_SIMILAR = 15
CLOSENESS_TOP = 100


def make_rich_topics(n_topics=60, words_per_topic=50):
    """A wide topic pool whose vocabulary grows with the corpus."""
    topics = []
    for t in range(n_topics):
        words = [f"t{t:02d}w{i:02d}" for i in range(words_per_topic)]
        clusters = []
        i = 0
        while i < len(words):
            # every 7th slot becomes a 2-word synonym cluster, mirroring
            # the quasi-synonym structure of the stock pool
            if i % 7 == 0 and i + 1 < len(words):
                clusters.append((words[i], words[i + 1]))
                i += 2
            else:
                clusters.append((words[i],))
                i += 1
        topics.append(Topic(
            topic_id=t,
            name=f"topic {t:02d}",
            clusters=tuple(clusters),
            related=(
                f"topic {(t + 1) % n_topics:02d}",
                f"topic {(t + 2) % n_topics:02d}",
            ),
        ))
    return tuple(topics)


def split_corpus(n_papers, delta_frac=0.01, seed=7):
    """Synthesize, then hold out the last ``delta_frac`` of papers."""
    full = synthesize_dblp(
        SynthConfig(
            n_authors=max(60, n_papers // 4),
            n_papers=n_papers,
            n_conferences=30,
            seed=seed,
        ),
        topics=make_rich_topics(),
    ).database
    papers = list(full.table("papers").scan())
    writes = list(full.table("writes").scan())
    n_held = max(1, int(len(papers) * delta_frac))
    held = {p["pid"] for p in papers[-n_held:]}
    delta_rows = [
        {"table": "papers", "row": p} for p in papers if p["pid"] in held
    ] + [
        {"table": "writes", "row": w} for w in writes if w["pid"] in held
    ]
    base = Database(dblp_schema())
    for name in ("conferences", "authors"):
        for row in full.table(name).scan():
            base.insert(name, row)
    for paper in papers:
        if paper["pid"] not in held:
            base.insert("papers", paper)
    for write in writes:
        if write["pid"] not in held:
            base.insert("writes", write)
    return base, delta_rows


def probe_queries(delta_rows, n_queries=5):
    """2-keyword probes drawn from the ingested titles (keywords in R)."""
    queries = []
    for item in delta_rows:
        if item["table"] != "papers":
            continue
        words = item["row"]["title"].split()
        if len(words) >= 2:
            queries.append(words[:2])
        if len(queries) >= n_queries:
            break
    return queries


def _timed_full_build(database, out_dir):
    """From-scratch offline stage over *database*, written as v3."""
    start = time.perf_counter()
    graph = TATGraph(database, InvertedIndex(database))
    store = OfflinePrecomputer(
        graph, n_similar=N_SIMILAR, closeness_top=CLOSENESS_TOP
    ).build_store(batch_size=128, walk_method="direct")
    write_store_v3(
        store, out_dir,
        build_info={"n_similar": N_SIMILAR, "closeness_top": CLOSENESS_TOP},
    )
    return time.perf_counter() - start, graph


def _warm_start_stat(base_db, delta_rows):
    """Iterations saved by seeding the power iteration after an ingest.

    Measured on a *separate* corpus copy so the timing runs above stay
    undisturbed: solve one term's contextual walk on the base graph,
    extend the graph in place with the delta rows, then solve the same
    term's walk on the extended graph cold vs seeded with the padded
    pre-ingest fixed point.
    """
    graph = TATGraph(base_db, InvertedIndex(base_db))
    probe = probe_queries(delta_rows, n_queries=1)
    if not probe:
        return {}
    term = None
    for field_term in graph.index.terms():
        if field_term.text == probe[0][0]:
            term = field_term
            break
    if term is None:
        return {}
    nid = graph.term_node_id(term)
    engine = RandomWalkEngine(graph.adjacency)
    r0 = ContextualPreference(graph).preference_matrix([nid])
    before = engine.walk_many_result(r0, method="iterative")

    refs = [
        base_db.insert(item["table"], dict(item["row"]))
        for item in delta_rows
    ]
    graph.add_tuples(refs)
    r1 = ContextualPreference(graph).preference_matrix([nid])
    cold = engine.walk_many_result(r1, method="iterative")
    seeds = np.zeros_like(r1)
    seeds[: before.scores.shape[0], :] = before.scores
    warm = engine.walk_many_result(r1, method="iterative", seeds=seeds)
    assert np.allclose(warm.scores, cold.scores, atol=1e-8)
    return {
        "cold_iterations": cold.iterations,
        "warm_iterations": warm.iterations,
    }


def run(n_papers=1200, delta_frac=0.01, tmp_root="/tmp/bench_delta_ingest"):
    """Full bench: timings, bit-identity probes, warm-start stat."""
    shutil.rmtree(tmp_root, ignore_errors=True)
    base_db, delta_rows = split_corpus(n_papers, delta_frac)
    base_root = f"{tmp_root}/base"
    oracle_root = f"{tmp_root}/oracle"

    base_seconds, _ = _timed_full_build(base_db, base_root)

    ingestor = DeltaIngestor(base_db, base_root, batch_size=128)
    start = time.perf_counter()
    stats = ingestor.ingest(delta_rows)
    delta_seconds = time.perf_counter() - start

    # the comparison baseline: a from-scratch build of the merged corpus
    # (base_db now holds every row)
    full_seconds, _ = _timed_full_build(base_db, oracle_root)

    # bit-identity: layered store vs oracle store, end to end through
    # the reformulation pipeline, for queries over the ingested terms
    config = ReformulatorConfig(n_candidates=8)
    layered_live = LiveReformulator(base_db, config, relations=base_root)
    oracle_live = LiveReformulator(base_db, config, relations=oracle_root)
    queries = probe_queries(delta_rows)
    mismatches = 0
    for keywords in queries:
        got = [
            scored_to_dict(s)
            for s in layered_live.reformulate(keywords, k=5)
        ]
        want = [
            scored_to_dict(s)
            for s in oracle_live.reformulate(keywords, k=5)
        ]
        if got != want:
            mismatches += 1

    warm_db, warm_rows = split_corpus(n_papers, delta_frac)
    warm = _warm_start_stat(warm_db, warm_rows)

    return {
        "n_papers": n_papers,
        "delta_rows": len(delta_rows),
        "terms_recomputed": stats.n_recomputed,
        "terms_invalidated": stats.n_invalidated,
        "full_build_seconds": round(full_seconds, 3),
        "base_build_seconds": round(base_seconds, 3),
        "delta_ingest_seconds": round(delta_seconds, 3),
        "ratio": round(delta_seconds / full_seconds, 4),
        "probe_queries": len(queries),
        "probe_mismatches": mismatches,
        **warm,
    }


def test_delta_ingest_speed_and_exactness(benchmark):
    report = benchmark.pedantic(
        lambda: run(n_papers=1200, delta_frac=0.01),
        rounds=1, iterations=1,
    )

    print("\n" + "=" * 60)
    print(f"Delta ingest, {report['n_papers']} papers, "
          f"{report['delta_rows']} rows (1%)")
    print(f"  full rebuild       : {report['full_build_seconds']:8.2f} s")
    print(f"  delta ingest       : {report['delta_ingest_seconds']:8.2f} s "
          f"({report['terms_recomputed']} terms recomputed, "
          f"{report['terms_invalidated']} invalidated)")
    print(f"  ratio              : {report['ratio']:8.1%}")
    print(f"  probe bit-identity : {report['probe_queries']} queries, "
          f"{report['probe_mismatches']} mismatches")
    if "cold_iterations" in report:
        print(f"  warm-started walk  : {report['warm_iterations']} vs "
              f"{report['cold_iterations']} cold iterations")

    # the acceptance bar of the rework
    assert report["ratio"] < 0.10
    # store-backed top-k over ingested terms == from-scratch merged build
    assert report["probe_queries"] >= 1
    assert report["probe_mismatches"] == 0
    # seeding from the pre-ingest fixed point never iterates longer
    if "cold_iterations" in report:
        assert report["warm_iterations"] <= report["cold_iterations"]


def run_smoke(out_path, n_papers=300):
    """CI smoke: small corpus, bit-identity enforced, timings reported.

    The <10 % ratio is NOT asserted here — at a few hundred papers the
    fixed per-ingest costs (graph rebuild, layer write) dominate and the
    ratio is a corpus-size artifact; the full pytest bench covers it.
    """
    report = run(n_papers=n_papers, delta_frac=0.01)
    print(json.dumps(report, indent=2))
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
    print(f"wrote {out_path}")
    ok = (
        report["probe_queries"] >= 1
        and report["probe_mismatches"] == 0
        and report.get("warm_iterations", 0)
        <= report.get("cold_iterations", 0)
    )
    return 0 if ok else 1


def main() -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="small corpus, bit-identity check only",
    )
    parser.add_argument("--papers", type=int, default=None)
    parser.add_argument("--out", default="BENCH_delta_ingest.json")
    args = parser.parse_args()
    if args.smoke:
        return run_smoke(args.out, n_papers=args.papers or 300)
    report = run(n_papers=args.papers or 1200)
    print(json.dumps(report, indent=2))
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
    return 0 if report["ratio"] < 0.10 and not report["probe_mismatches"] \
        else 1


if __name__ == "__main__":
    raise SystemExit(main())
