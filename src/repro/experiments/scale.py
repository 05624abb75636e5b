"""Offline-stage scalability: cost vs corpus size.

The paper reports offline extraction over 1.3M papers without detailing
its cost; any adopter needs the growth curves.  This experiment sweeps
corpus sizes and measures, per size:

* inverted-index build time;
* TAT-graph build time;
* mean per-term contextual-walk similarity extraction time;
* mean per-term closeness extraction time;
* mean per-term batched store-build time (the production offline path:
  batched walks through the cached direct solver + bulk closeness rows);
* graph size (nodes/edges).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.data.dblp_synth import SynthConfig, synthesize_dblp
from repro.eval.timing import measure
from repro.graph.closeness import ClosenessExtractor
from repro.graph.similarity import SimilarityExtractor
from repro.graph.tat import TATGraph
from repro.index.inverted import InvertedIndex
from repro.offline import OfflinePrecomputer
from repro.experiments.common import format_table


@dataclass(frozen=True)
class ScalePoint:
    """Measurements at one corpus size."""

    n_papers: int
    nodes: int
    edges: int
    index_seconds: float
    graph_seconds: float
    similarity_per_term: float
    closeness_per_term: float
    store_per_term: float
    store_terms: int


@dataclass(frozen=True)
class ScaleReport:
    points: Tuple[ScalePoint, ...]

    def by_papers(self) -> Dict[int, ScalePoint]:
        """Scale points keyed by corpus paper count."""
        return {p.n_papers: p for p in self.points}


def run(
    paper_counts: Sequence[int] = (300, 600, 1200, 2400),
    seed: int = 7,
    terms_sampled: int = 20,
) -> ScaleReport:
    """Offline-stage cost across corpus sizes."""
    points: List[ScalePoint] = []
    for n_papers in paper_counts:
        config = SynthConfig(
            n_authors=max(20, n_papers // 4),
            n_papers=n_papers,
            n_conferences=max(4, n_papers // 50),
            seed=seed,
        )
        corpus = synthesize_dblp(config)
        database = corpus.database

        index_seconds, index = measure(
            lambda db=database: InvertedIndex(db).build()
        )
        graph_seconds, graph = measure(
            lambda db=database, ix=index: TATGraph(db, ix)
        )

        title = ("papers", "title")
        term_ids = [
            graph.term_node_id(t)
            for t in sorted(graph.index.terms(), key=str)
            if t.field == title
        ][:terms_sampled]

        similarity = SimilarityExtractor(graph)
        sim_seconds, _ = measure(
            lambda: [similarity.similar_nodes(t, 15) for t in term_ids]
        )
        closeness = ClosenessExtractor(graph)
        clos_seconds, _ = measure(
            lambda: [closeness.close_terms(t, 15) for t in term_ids]
        )

        precomputer = OfflinePrecomputer(graph, n_similar=15)
        store_seconds, store = measure(
            lambda: precomputer.build_store(fields=[title], batch_size=128)
        )

        stats = graph.stats()
        points.append(ScalePoint(
            n_papers=n_papers,
            nodes=stats["nodes"],
            edges=stats["edges"],
            index_seconds=index_seconds,
            graph_seconds=graph_seconds,
            similarity_per_term=sim_seconds / max(1, len(term_ids)),
            closeness_per_term=clos_seconds / max(1, len(term_ids)),
            store_per_term=store_seconds / max(1, len(store)),
            store_terms=len(store),
        ))
    return ScaleReport(points=tuple(points))


def main() -> None:
    """Print the scalability table."""
    report = run()
    print("Offline-stage scalability\n")
    rows = [
        [
            p.n_papers,
            p.nodes,
            p.edges,
            p.index_seconds * 1000,
            p.graph_seconds * 1000,
            p.similarity_per_term * 1000,
            p.closeness_per_term * 1000,
            p.store_per_term * 1000,
        ]
        for p in report.points
    ]
    print(format_table(
        [
            "papers", "nodes", "edges", "index ms", "graph ms",
            "sim/term ms", "clos/term ms", "store/term ms",
        ],
        rows,
    ))


if __name__ == "__main__":
    main()
