"""Term similarity extraction (Algorithm 1 of the paper).

Runs the contextual-preference random walk from a starting node and reads
off the converged scores of *same-class* nodes as similarity values
(Eq 2).  Also provides the basic individual-walk variant as the ablation
baseline discussed around Figure 4.

Results are cached per starting node: the offline stage of the paper
precomputes the similar-term lists for the whole vocabulary, and the online
stage only reads them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import GraphError
from repro.graph.context import ContextualPreference
from repro.graph.randomwalk import BatchWalkResult, RandomWalkEngine
from repro.graph.tat import TATGraph


@dataclass(frozen=True)
class SimilarNode:
    """One extracted similar node with its walk score."""

    node_id: int
    score: float

    def labelled(self, graph: TATGraph) -> Tuple[str, float]:
        """(human-readable label, score) pair for display."""
        return (str(graph.node(self.node_id)), self.score)


class SimilarityExtractor:
    """Contextual random-walk similarity over a TAT graph.

    Parameters
    ----------
    graph:
        The TAT graph.
    engine:
        A configured :class:`RandomWalkEngine`; defaults to λ=0.85.
    preference:
        The contextual preference builder; defaults to top-10 per field.
    contextual:
        When False, falls back to the basic individual random walk
        (the paper's Figure 4 "basic model" — used by the ablation bench).
    idf_readout:
        When True (default), a term node's walk score is multiplied by its
        idf before ranking.  Part of the TAT graph's "novel weight method":
        ubiquitous filler words accumulate walk mass through sheer degree,
        and the idf factor cancels that advantage so topical terms rank
        first.  Tuple nodes are unaffected.
    """

    def __init__(
        self,
        graph: TATGraph,
        engine: Optional[RandomWalkEngine] = None,
        preference: Optional[ContextualPreference] = None,
        contextual: bool = True,
        idf_readout: bool = True,
    ) -> None:
        self.graph = graph
        self.engine = engine or RandomWalkEngine(graph.adjacency)
        self.preference = preference or ContextualPreference(graph)
        self.contextual = contextual
        self.idf_readout = idf_readout
        self._cache: Dict[int, np.ndarray] = {}
        # Readout tables, valid for one Adjacency.version (add_tuples
        # extends the graph in place and bumps it): the per-node weight
        # array and each node class's id array, built on first use.
        self._tables_version: Optional[int] = None
        self._weights: Optional[np.ndarray] = None
        self._class_ids: Dict[object, np.ndarray] = {}

    # ------------------------------------------------------------------ #
    # core
    # ------------------------------------------------------------------ #

    def walk_scores(self, node_id: int) -> np.ndarray:
        """Converged walk vector for *node_id* (cached)."""
        self._sync()
        cached = self._cache.get(node_id)
        if cached is not None:
            return cached
        if self.contextual:
            weights = self.preference.preference_weights(node_id)
            r = self.engine.weighted_preference(weights)
        else:
            r = self.engine.indicator_preference(node_id)
        scores = self.engine.walk(r).scores
        self._cache[node_id] = scores
        return scores

    def _sync(self) -> None:
        """Drop walk vectors and readout tables of an outgrown graph.

        ``TATGraph.add_tuples`` extends the adjacency in place and bumps
        its version: the cached walks are then too short and the idf
        readout weights stale, so both are rebuilt on next use.
        """
        version = self.graph.adjacency.version
        if version != self._tables_version:
            self._cache.clear()
            self._weights = None
            self._class_ids = {}
            self._tables_version = version

    def _weight_table(self) -> np.ndarray:
        """Per-node readout weight: a term's idf, else 1.0 (cached).

        A walk score times its weight is the Eq 2 similarity value;
        tuple nodes, and every node with ``idf_readout`` off, weigh 1.0.
        """
        self._sync()
        if self._weights is None:
            weights = np.ones(self.graph.n_nodes)
            if self.idf_readout:
                registry = self.graph.registry
                for term_id in registry.term_ids():
                    weights[term_id] = self.graph.index.idf(
                        registry.node_of(term_id).payload
                    )
            self._weights = weights
        return self._weights

    def _ids_of_class(self, node_id: int) -> np.ndarray:
        """Ids of every node in *node_id*'s class, as an array (cached)."""
        self._sync()
        node_class = self.graph.class_of(node_id)
        ids = self._class_ids.get(node_class)
        if ids is None:
            ids = np.asarray(
                self.graph.registry.ids_of_class(node_class), dtype=np.int64
            )
            self._class_ids[node_class] = ids
        return ids

    def similar_nodes(self, node_id: int, top_n: int = 10) -> List[SimilarNode]:
        """Top-*top_n* same-class nodes by walk score, excluding the start.

        This is exactly Algorithm 1 followed by the same-class filter of
        Section IV-B.1: the class's positive scores times their readout
        weights, ranked by (-score, node id).
        """
        if top_n < 1:
            raise GraphError("top_n must be >= 1")
        scores = self.walk_scores(node_id)
        ids = self._ids_of_class(node_id)
        vals = scores[ids]
        keep = (vals > 0.0) & (ids != node_id)
        ids = ids[keep]
        vals = vals[keep] * self._weight_table()[ids]
        order = np.lexsort((ids, -vals))[:top_n]
        return [SimilarNode(int(ids[i]), float(vals[i])) for i in order]

    def similarity(self, node_a: int, node_b: int) -> float:
        """sim(a, b) per Eq 2: b's converged score in a's biased walk."""
        score = float(self.walk_scores(node_a)[node_b])
        if score <= 0.0:
            return score
        return score * float(self._weight_table()[node_b])

    # ------------------------------------------------------------------ #
    # text-level convenience
    # ------------------------------------------------------------------ #

    def similar_terms(self, text: str, top_n: int = 10) -> List[Tuple[str, float]]:
        """Similar terms for a raw keyword, as (text, score) pairs."""
        node_id = self.graph.resolve_text_one(text)
        result = []
        for sim in self.similar_nodes(node_id, top_n):
            node = self.graph.node(sim.node_id)
            result.append((node.text or str(node), sim.score))
        return result

    def batch_walk(
        self, node_ids: List[int], method: str = "iterative"
    ) -> Optional[BatchWalkResult]:
        """Solve one batch of walks, fill the cache, return diagnostics.

        Preference vectors are built as columns (contextual or indicator)
        and solved together — one
        :meth:`~repro.graph.randomwalk.RandomWalkEngine.walk_many_result`
        call per batch.  ``method="direct"`` reuses the engine's cached
        sparse LU factorization, which is how whole-vocabulary offline
        extraction amortizes the solve.  Returns ``None`` when every
        requested node is already cached.
        """
        self._sync()
        pending = [nid for nid in node_ids if nid not in self._cache]
        if not pending:
            return None
        if self.contextual:
            preferences = self.preference.preference_matrix(pending)
        else:
            n = self.graph.adjacency.n_nodes
            preferences = np.zeros((n, len(pending)))
            for col, node_id in enumerate(pending):
                preferences[:, col] = self.engine.indicator_preference(node_id)
        result = self.engine.walk_many_result(preferences, method=method)
        for col, node_id in enumerate(pending):
            self._cache[node_id] = result.scores[:, col].copy()
        return result

    def precompute(
        self,
        node_ids: List[int],
        batch_size: int = 64,
        method: str = "iterative",
    ) -> None:
        """Offline stage: warm the cache for a vocabulary of nodes.

        Walks are solved in batches — one batched solve per *batch_size*
        nodes (see :meth:`batch_walk`) — which is substantially faster
        than node-by-node extraction.
        """
        pending = [nid for nid in node_ids if nid not in self._cache]
        for start in range(0, len(pending), batch_size):
            self.batch_walk(pending[start:start + batch_size], method=method)

    def cache_size(self) -> int:
        """Number of cached walk vectors."""
        return len(self._cache)

    def evict(self, node_id: int) -> None:
        """Drop one cached walk (offline batch memory bound)."""
        self._cache.pop(node_id, None)

    def clear_cache(self) -> None:
        """Drop all cached walks."""
        self._cache.clear()
