"""The ``relaxation`` lane: degrade the query when substitution fails.

The HMM reformulator always answers — its smoothed parameters have no
true zeroes — so a query whose terms simply do not co-occur anywhere in
the corpus still gets a page of low-value substitutions.  Following
Wiese's algebraic query relaxation (PAPERS.md), this lane detects that
case via :func:`~repro.lanes.base.query_cohesion` and, instead of
substituting, **weakens the query semantically**:

* **generalization** — climb each term to its most similar neighbour
  (the store's ``similar_nodes`` list) and keep the climbed query when
  its own best path *is* cohesive;
* **term dropping** — remove terms in **idf-weighted order** (unknown
  terms first, then the least informative, lowest-idf terms) and decode
  the reduced query; a single surviving keyword is trivially cohesive,
  so the descent always terminates with a usable answer.

Relaxed suggestions are marked ``relaxed: true`` and their provenance
lists exactly what was dropped/generalized.  Dropped positions survive
as ``None`` in the suggestion's ``terms`` (with ``-1`` in
``state_path``), keeping positional alignment with the input — the eval
judges already treat ``None`` as a deletion.

On a cohesive query the lane is a pass-through: it returns the plain
HMM suggestions (marked ``relaxed: false``), which is also what lets it
serve as the router's fallback target without double-decoding.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.reformulator import Reformulator
from repro.core.scoring import ScoredQuery
from repro.errors import UnknownNodeError
from repro.lanes.base import Lane, LaneResult, query_cohesion
from repro.lanes.hmm import HmmLane


class RelaxationLane(Lane):
    """Drop/generalize terms when no cohesive substitution exists.

    Parameters
    ----------
    pipeline:
        The shared reformulator (decodes every reduced/climbed query).
    cohesion_threshold:
        Best-path cohesion below which the query counts as incohesive.
    max_decodes:
        Cap on relaxation variants decoded per request (the lane's own
        budget, independent of the wall-clock *budget* argument).
    climb_width:
        How many similar-term neighbours to try per position when
        generalizing.
    """

    name = "relaxation"

    def __init__(
        self,
        pipeline: Reformulator,
        cohesion_threshold: float = 1e-9,
        max_decodes: int = 16,
        climb_width: int = 2,
    ) -> None:
        self.pipeline = pipeline
        self.cohesion_threshold = cohesion_threshold
        self.max_decodes = max_decodes
        self.climb_width = climb_width
        self._hmm = HmmLane(pipeline)

    # ------------------------------------------------------------------ #
    # lane entry point
    # ------------------------------------------------------------------ #

    def reformulate(
        self,
        query: Sequence[str],
        k: int = 10,
        budget: Optional[float] = None,
        algorithm: str = "astar",
    ) -> LaneResult:
        """HMM suggestions when cohesive, relaxed variants otherwise."""
        keywords = list(query)
        base = self._hmm.reformulate(keywords, k=k, algorithm=algorithm)
        if base.cohesion is not None and base.cohesion >= self.cohesion_threshold:
            # Cohesive: substitution works, nothing to relax.
            return LaneResult(
                lane=self.name,
                suggestions=base.suggestions,
                provenance=tuple(
                    {"lane": self.name, "relaxed": False}
                    for _ in base.suggestions
                ),
                relaxed=False,
                cohesion=base.cohesion,
                metadata={"passthrough": "hmm"},
            )
        return self._relax(keywords, k, budget, algorithm, base.cohesion)

    # ------------------------------------------------------------------ #
    # relaxation search
    # ------------------------------------------------------------------ #

    def _relax(
        self,
        keywords: List[str],
        k: int,
        budget: Optional[float],
        algorithm: str,
        base_cohesion: Optional[float],
    ) -> LaneResult:
        deadline = (
            time.monotonic() + budget if budget and budget > 0 else None
        )
        decodes = 0
        suggestions: List[ScoredQuery] = []
        provenance: List[Dict[str, Any]] = []
        seen_texts = set()

        def out_of_budget() -> bool:
            return (
                len(suggestions) >= k
                or decodes >= self.max_decodes
                or (deadline is not None and time.monotonic() >= deadline)
            )

        def admit(
            scored: ScoredQuery, entry: Dict[str, Any]
        ) -> None:
            if scored.text and scored.text not in seen_texts:
                seen_texts.add(scored.text)
                suggestions.append(scored)
                provenance.append(entry)

        # 1. Generalization: similar-term climb, one position at a time.
        #    A climbed query keeps every position, so it is the weakest
        #    relaxation; only kept when the climb actually restores
        #    cohesion.
        for pos, neighbour_text in self._climb_candidates(keywords):
            if out_of_budget():
                break
            climbed = list(keywords)
            climbed[pos] = neighbour_text
            best = self.pipeline.best(climbed)
            decodes += 1
            if query_cohesion(self.pipeline, climbed, best) < self.cohesion_threshold:
                continue
            identity = self._identity_suggestion(climbed)
            if identity is not None:
                admit(identity, {
                    "lane": self.name,
                    "relaxed": True,
                    "dropped": [],
                    "generalized": {keywords[pos]: neighbour_text},
                })

        # 2. Term dropping in idf-weighted order: unknown terms first,
        #    then ascending idf (the least informative go first).  Each
        #    round drops one more term; a one-keyword remainder is
        #    trivially cohesive, so the descent terminates.
        drop_order = self._drop_order(keywords)
        dropped: List[int] = []
        remaining = list(range(len(keywords)))
        for drop_pos in drop_order:
            if out_of_budget() or len(remaining) <= 1:
                break
            dropped.append(drop_pos)
            remaining = [i for i in remaining if i != drop_pos]
            reduced = [keywords[i] for i in remaining]
            best = self.pipeline.best(reduced)
            decodes += 1
            if (
                len(reduced) > 1
                and query_cohesion(self.pipeline, reduced, best)
                < self.cohesion_threshold
            ):
                continue  # still incohesive: drop another term
            dropped_terms = [keywords[i] for i in sorted(dropped)]
            entry = {
                "lane": self.name,
                "relaxed": True,
                "dropped": dropped_terms,
                "generalized": {},
            }
            identity = self._identity_suggestion(reduced)
            if identity is not None:
                admit(self._realign(identity, remaining, len(keywords)),
                      dict(entry))
            if not out_of_budget():
                subs = self.pipeline.reformulate(
                    reduced, k=max(1, k - len(suggestions)),
                    algorithm=algorithm,
                )
                decodes += 1
                for scored in subs:
                    if len(suggestions) >= k:
                        break
                    admit(self._realign(scored, remaining, len(keywords)),
                          dict(entry))

        return LaneResult(
            lane=self.name,
            suggestions=tuple(suggestions),
            provenance=tuple(provenance),
            relaxed=bool(suggestions),
            cohesion=base_cohesion,
            metadata={"decodes": decodes, "input_length": len(keywords)},
        )

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #

    def _drop_order(self, keywords: List[str]) -> List[int]:
        """Positions to drop, least informative first.

        Unknown terms (no corpus node: they are what breaks cohesion and
        cannot be substituted) come first, then known terms by ascending
        idf; position order breaks ties deterministically.
        """
        ranked = []
        for pos, keyword in enumerate(keywords):
            try:
                node_id = self.pipeline.graph.resolve_text_one(keyword)
                term = self.pipeline.graph.node(node_id).payload
                weight = (1, self.pipeline.graph.index.idf(term))
            except UnknownNodeError:
                weight = (0, 0.0)
            ranked.append((weight, pos))
        ranked.sort()
        return [pos for _weight, pos in ranked]

    def _climb_candidates(self, keywords: List[str]):
        """(position, neighbour text) pairs for the generalization climb.

        Follows the drop order so the least informative terms are
        climbed first; each position offers its ``climb_width`` most
        similar neighbours from the store.
        """
        for pos in self._drop_order(keywords):
            try:
                node_id = self.pipeline.graph.resolve_text_one(keywords[pos])
            except UnknownNodeError:
                continue  # nothing to climb to
            neighbours = self.pipeline.similarity.similar_nodes(
                node_id, self.climb_width + 1
            )
            for neighbour in neighbours[: self.climb_width + 1]:
                if neighbour.node_id == node_id:
                    continue
                text = self.pipeline.graph.node(neighbour.node_id).text
                if text and text != keywords[pos]:
                    yield pos, text

    def _identity_suggestion(
        self, keywords: List[str]
    ) -> Optional[ScoredQuery]:
        """The query itself as a scored path of its own HMM.

        The relaxed query *as written* is Wiese's primary answer (the
        normal decode path filters it out as the identity).  Returns
        None when some position lacks an original state (non-default
        ``include_original=False`` configurations).
        """
        hmm = self.pipeline.build_hmm(keywords)
        path = []
        for pos, keyword in enumerate(keywords):
            index = next(
                (
                    i for i, state in enumerate(hmm.states[pos])
                    if not state.is_void and state.text == keyword
                ),
                None,
            )
            if index is None:
                return None
            path.append(index)
        return hmm.scored_query(tuple(path))

    @staticmethod
    def _realign(
        scored: ScoredQuery, remaining: List[int], length: int
    ) -> ScoredQuery:
        """Re-insert dropped positions as ``None`` terms (``-1`` path).

        Keeps suggestions positionally aligned with the *input* query so
        downstream consumers (judges, diffing clients) see exactly which
        input positions were deleted.
        """
        terms: List[Optional[str]] = [None] * length
        path = [-1] * length
        for reduced_pos, original_pos in enumerate(remaining):
            terms[original_pos] = scored.terms[reduced_pos]
            path[original_pos] = scored.state_path[reduced_pos]
        return ScoredQuery(
            terms=tuple(terms), score=scored.score, state_path=tuple(path)
        )
