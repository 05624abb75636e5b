"""User-feedback adaptation (the paper's future-work direction).

"With the collection of considerable query logs, the user interaction and
feedback analysis on this new kind of query reformulation is another
interesting extension."  (Section VII)

The :class:`FeedbackAdaptor` wraps the offline similarity and closeness
backends with multiplicative boosts learned from accept/reject events:

* accepting a suggestion boosts the (query term → substituted term)
  similarity and the closeness of every adjacent substituted pair;
* rejecting applies the inverse penalty;
* boosts are capped and decay toward 1.0, so a burst of old clicks cannot
  permanently dominate the structural signal.

The adaptor exposes the same ``similar_nodes``/``similarity``/
``closeness`` surface as the live extractors, so a
:class:`~repro.core.reformulator.Reformulator` built on top of it adapts
transparently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.scoring import ScoredQuery
from repro.errors import ReproError
from repro.graph.similarity import SimilarNode
from repro.graph.tat import TATGraph


@dataclass(frozen=True)
class FeedbackEvent:
    """One logged interaction."""

    original: Tuple[str, ...]
    suggestion: Tuple[str, ...]
    accepted: bool


class FeedbackAdaptor:
    """Boost-learning wrapper around similarity + closeness backends.

    Parameters
    ----------
    graph:
        The TAT graph (resolves texts to node ids).
    similarity, closeness:
        The structural backends being wrapped.
    learning_rate:
        Multiplicative step per event (accept → ×(1+rate),
        reject → ÷(1+rate)).
    max_boost:
        Boosts are clamped to [1/max_boost, max_boost].
    decay:
        Per-:meth:`decay_boosts` call multiplier pulling boosts toward 1.
    """

    def __init__(
        self,
        graph: TATGraph,
        similarity,
        closeness,
        learning_rate: float = 0.5,
        max_boost: float = 8.0,
        decay: float = 0.9,
    ) -> None:
        if learning_rate <= 0:
            raise ReproError("learning_rate must be positive")
        if max_boost <= 1:
            raise ReproError("max_boost must exceed 1")
        if not 0 < decay <= 1:
            raise ReproError("decay must be in (0,1]")
        self.graph = graph
        self.base_similarity = similarity
        self.base_closeness = closeness
        self.learning_rate = learning_rate
        self.max_boost = max_boost
        self.decay = decay
        self._sim_boost: Dict[Tuple[int, int], float] = {}
        self._clos_boost: Dict[Tuple[int, int], float] = {}
        self.events: List[FeedbackEvent] = []

    # ------------------------------------------------------------------ #
    # learning
    # ------------------------------------------------------------------ #

    def record(
        self,
        original: Sequence[str],
        suggestion: ScoredQuery,
        accepted: bool,
    ) -> FeedbackEvent:
        """Log one accept/reject event and update the boosts."""
        new_terms = suggestion.keywords
        event = FeedbackEvent(tuple(original), tuple(new_terms), accepted)
        self.events.append(event)

        factor = 1.0 + self.learning_rate
        if not accepted:
            factor = 1.0 / factor

        # similarity boosts: original position term -> substituted term
        for old, new in zip(original, suggestion.terms):
            if new is None or old == new:
                continue
            pair = self._resolve_pair(old, new)
            if pair is not None:
                self._bump(self._sim_boost, pair, factor)
        # closeness boosts: adjacent pairs of the suggested query
        for a, b in zip(new_terms, new_terms[1:]):
            pair = self._resolve_pair(a, b)
            if pair is not None:
                self._bump(self._clos_boost, pair, factor)
                self._bump(self._clos_boost, (pair[1], pair[0]), factor)
        return event

    def decay_boosts(self) -> None:
        """Pull every boost toward 1.0 (call periodically, e.g. daily)."""
        for boosts in (self._sim_boost, self._clos_boost):
            for pair in list(boosts):
                boosted = 1.0 + (boosts[pair] - 1.0) * self.decay
                if abs(boosted - 1.0) < 1e-6:
                    del boosts[pair]
                else:
                    boosts[pair] = boosted

    def _bump(self, boosts, pair: Tuple[int, int], factor: float) -> None:
        value = boosts.get(pair, 1.0) * factor
        value = min(self.max_boost, max(1.0 / self.max_boost, value))
        boosts[pair] = value

    def _resolve_pair(self, a: str, b: str) -> Optional[Tuple[int, int]]:
        from repro.errors import UnknownNodeError

        try:
            return (
                self.graph.resolve_text_one(a),
                self.graph.resolve_text_one(b),
            )
        except UnknownNodeError:
            return None

    # ------------------------------------------------------------------ #
    # backend surface (what the Reformulator consumes)
    # ------------------------------------------------------------------ #

    def similar_nodes(self, node_id: int, top_n: int) -> List[SimilarNode]:
        """Base similar list, re-ranked by the learned boosts.

        Fetches a wider base list so a strongly boosted candidate can
        climb into the top-n even from below the base cut.
        """
        base = self.base_similarity.similar_nodes(node_id, top_n * 2)
        boosted = [
            SimilarNode(
                s.node_id,
                s.score * self._sim_boost.get((node_id, s.node_id), 1.0),
            )
            for s in base
        ]
        boosted.sort(key=lambda s: (-s.score, s.node_id))
        return boosted[:top_n]

    def similarity(self, node_a: int, node_b: int) -> float:
        """Base similarity times the learned pair boost."""
        return self.base_similarity.similarity(node_a, node_b) * (
            self._sim_boost.get((node_a, node_b), 1.0)
        )

    def similar_terms(self, text: str, top_n: int = 10):
        """Boost-re-ranked similar terms for a raw keyword."""
        node_id = self.graph.resolve_text_one(text)
        out = []
        for sim in self.similar_nodes(node_id, top_n):
            node = self.graph.node(sim.node_id)
            out.append((node.text or str(node), sim.score))
        return out

    def closeness(self, node_a: int, node_b: int) -> float:
        """Base closeness times the learned pair boost."""
        return self.base_closeness.closeness(node_a, node_b) * (
            self._clos_boost.get((node_a, node_b), 1.0)
        )

    def closeness_block(
        self, rows: Sequence[int], cols: Sequence[int]
    ) -> np.ndarray:
        """Base closeness block times the learned boost of each pair."""
        boost = np.array(
            [[self._clos_boost.get((a, b), 1.0) for b in cols] for a in rows],
            dtype=np.float64,
        ).reshape(len(rows), len(cols))
        return self.base_closeness.closeness_block(rows, cols) * boost

    def precompute(self, node_ids) -> None:
        """Delegate cache warming to the wrapped backend."""
        if hasattr(self.base_similarity, "precompute"):
            self.base_similarity.precompute(node_ids)

    # ------------------------------------------------------------------ #
    # diagnostics
    # ------------------------------------------------------------------ #

    @property
    def boost_count(self) -> int:
        """Number of learned (pair, boost) entries."""
        return len(self._sim_boost) + len(self._clos_boost)
