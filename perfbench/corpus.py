"""Corpora, held-out ingest deltas, store builds and ingest probes.

Both corpora are synthesized from a fixed corpus seed, so every run
serves the same data shape; a run's ``--seed`` picks the held-out
papers and the queries:

* ``medium`` -- the stock experiment scale (``repro.experiments.common
  .SCALES["medium"]``: 1,200 papers, ~500 terms), whose vocabulary fits
  the plan cache's 512-entry term layer;
* ``wide`` -- 400 papers over a wide topic pool (``make_rich_topics(16,
  40)`` of ``benchmarks/bench_delta_ingest.py``, ~760 terms), so the
  vocabulary outgrows the term layer, as real title vocabularies
  outgrow caches; the stock 12-topic pool saturates at a few hundred
  words.
"""

from __future__ import annotations

import random
import shutil
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Sequence, Tuple

from bench_delta_ingest import make_rich_topics
from repro.core.reformulator import ReformulatorConfig
from repro.data.dblp_synth import SynthConfig, dblp_schema, synthesize_dblp
from repro.experiments.common import SCALES
from repro.graph.tat import TATGraph
from repro.index.analyzer import Analyzer
from repro.index.inverted import InvertedIndex
from repro.offline import OfflinePrecomputer, TermRelationStore
from repro.storage.binary import write_store_v3
from repro.storage.database import Database

#: Pipeline configuration of every workload: ``repro serve``'s defaults
#: (15 candidates per keyword, 1,024-entry result LRU).
CONFIG = ReformulatorConfig(n_candidates=15)
#: Suggestions asked for per query.
K = 10
#: Offline-stage defaults, recorded in the store manifest so delta
#: ingests and compaction rebuild with the same parameters.
N_SIMILAR = 20
CLOSENESS_TOP = 200

CORPORA = {
    "medium": SCALES["medium"],
    "wide": SynthConfig(n_authors=100, n_papers=400, n_conferences=30, seed=7),
}

_ANALYZER = Analyzer()

Rows = List[Dict[str, object]]


def synthesize(kind: str) -> Database:
    """The full corpus of one kind."""
    if kind == "wide":
        return synthesize_dblp(
            CORPORA[kind], topics=make_rich_topics(16, 40)
        ).database
    return synthesize_dblp(CORPORA[kind]).database


def hold_out(
    full: Database, n_held: int, seed: int
) -> Tuple[Database, List[Rows]]:
    """Split *full* into a base corpus and seeded one-paper ingest deltas.

    ``split_corpus`` of ``bench_delta_ingest.py`` holds out the last
    papers as one delta; here *seed* picks *n_held* papers, and each
    comes back with its ``writes`` rows as its own delta, a list of
    ``{"table": ..., "row": ...}`` ingest rows.
    """
    papers = list(full.table("papers").scan())
    writes = list(full.table("writes").scan())
    held = random.Random(seed).sample([p["pid"] for p in papers], n_held)
    held_set = set(held)
    by_pid = {p["pid"]: p for p in papers}
    writes_of: Dict[object, List[dict]] = defaultdict(list)
    for write in writes:
        writes_of[write["pid"]].append(write)
    deltas: List[Rows] = [
        [{"table": "papers", "row": dict(by_pid[pid])}]
        + [{"table": "writes", "row": dict(w)} for w in writes_of[pid]]
        for pid in held
    ]
    base = Database(dblp_schema())
    for name in ("conferences", "authors"):
        for row in full.table(name).scan():
            base.insert(name, row)
    for paper in papers:
        if paper["pid"] not in held_set:
            base.insert("papers", paper)
    for write in writes:
        if write["pid"] not in held_set:
            base.insert("writes", write)
    return base, deltas


@dataclass
class Built:
    """One offline build: the base corpus, its v3 store and the deltas."""

    base: Database
    deltas: List[Rows]
    graph: TATGraph
    store: TermRelationStore
    store_path: Path
    #: build_s, terms_per_s, write_s, open_s
    timings: Dict[str, float]
    #: papers, held_out, terms, store_bytes
    shape: Dict[str, int]


def build(kind: str, n_held: int, seed: int, path: Path) -> Built:
    """Synthesize, hold out, run the offline stage, write and open v3."""
    full = synthesize(kind)
    n_papers = len(full.table("papers"))
    base, deltas = hold_out(full, n_held, seed)
    del full
    start = perf_counter()
    graph = TATGraph(base, InvertedIndex(base))
    precomputer = OfflinePrecomputer(
        graph, n_similar=N_SIMILAR, closeness_top=CLOSENESS_TOP
    )
    relations = precomputer.build_store(batch_size=128)
    build_s = perf_counter() - start
    if path.exists():
        shutil.rmtree(path)
    start = perf_counter()
    write_store_v3(
        relations, path,
        build_info={"n_similar": N_SIMILAR, "closeness_top": CLOSENESS_TOP},
    )
    write_s = perf_counter() - start
    start = perf_counter()
    store = TermRelationStore.load(path, graph)
    open_s = perf_counter() - start
    return Built(
        base=base,
        deltas=deltas,
        graph=graph,
        store=store,
        store_path=path,
        timings={
            "build_s": build_s,
            "terms_per_s": precomputer.stats.terms_per_second,
            "write_s": write_s,
            "open_s": open_s,
        },
        shape={
            "papers": n_papers,
            "held_out": n_held,
            "terms": len(relations),
            "store_bytes": sum(
                f.stat().st_size for f in path.rglob("*") if f.is_file()
            ),
        },
    )


def signature(suggestions: Sequence) -> List[tuple]:
    """Comparison key of in-process suggestions, the same shape as
    :func:`repro.server.client.suggestions_signature` of HTTP ones."""
    return [(s.text, s.score, tuple(s.state_path)) for s in suggestions]


def probe_queries(rows: Rows, limit: int = 3) -> List[List[str]]:
    """Two-keyword queries over the title words of an ingest delta."""
    words = list(dict.fromkeys(
        word
        for item in rows if item["table"] == "papers"
        for word in _ANALYZER.tokenize(str(item["row"]["title"]))
    ))
    if not words:
        raise ValueError("ingest delta has no title words to probe")
    pairs = [words[i:i + 2] for i in range(len(words) - 1)]
    return pairs[:limit] or [words]


def ingest_and_probe(live, rows: Rows):
    """Fold one delta in through ``LiveReformulator.ingest`` and serve a
    query over its keywords; returns (seconds from the ingest call until
    the query returned, the ingest's ``DeltaIngestStats``)."""
    start = perf_counter()
    stats = live.ingest(rows)
    live.pipeline()
    live.reformulate_lane(probe_queries(rows)[0], k=K)
    return perf_counter() - start, stats
