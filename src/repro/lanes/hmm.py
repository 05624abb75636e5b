"""The ``hmm`` lane: the paper's reformulator behind the lane interface.

A pure wrapper — candidate extraction, HMM parameterization, top-k
decode and post-processing all run through the wrapped
:class:`~repro.core.reformulator.Reformulator`, so the suggestions are
**bit-identical** to calling it directly (an explicit contract, locked
by the equivalence tests).  The only thing the lane adds is
measurement: it stamps each suggestion's provenance and computes the
best path's :func:`~repro.lanes.base.query_cohesion`, which the router
compares against its threshold to decide whether to chain the
relaxation fallback.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.reformulator import Reformulator
from repro.core.scoring import ScoredQuery
from repro.lanes.base import Lane, LaneResult, query_cohesion


class HmmLane(Lane):
    """Substitutive reformulation via the HMM decoder (the default)."""

    name = "hmm"

    def __init__(self, pipeline: Reformulator) -> None:
        self.pipeline = pipeline

    def reformulate(
        self,
        query: Sequence[str],
        k: int = 10,
        budget: Optional[float] = None,
        algorithm: str = "astar",
    ) -> LaneResult:
        """Top-k substitutions, bit-identical to the bare pipeline."""
        del budget  # one decode; the server's deadline machinery governs it
        keywords = list(query)
        suggestions = self.pipeline.reformulate(
            keywords, k=k, algorithm=algorithm
        )
        return self.result_for(keywords, suggestions)

    def reformulate_batch(
        self,
        queries: Sequence[Sequence[str]],
        k: int = 10,
        budget: Optional[float] = None,
        algorithm: str = "astar",
        workers: int = 1,
    ) -> List[LaneResult]:
        """Shared-plan batched decode (``reformulate_many`` fast path)."""
        del budget
        parsed = [list(query) for query in queries]
        batches = self.pipeline.reformulate_many(
            parsed, k=k, algorithm=algorithm, workers=workers
        )
        return [
            self.result_for(keywords, suggestions)
            for keywords, suggestions in zip(parsed, batches)
        ]

    def result_for(
        self, keywords: List[str], suggestions: Sequence[ScoredQuery]
    ) -> LaneResult:
        """Wrap already-decoded suggestions (cohesion measured here).

        Used by both entry points above, so every hmm-lane answer —
        single, batched, cached — carries the same cohesion measurement.
        """
        suggestions = tuple(suggestions)
        best = suggestions[0] if suggestions else None
        cohesion = query_cohesion(self.pipeline, keywords, best)
        provenance: Tuple[Dict[str, Any], ...] = tuple(
            {"lane": self.name, "relaxed": False} for _ in suggestions
        )
        return LaneResult(
            lane=self.name,
            suggestions=suggestions,
            provenance=provenance,
            relaxed=False,
            cohesion=cohesion,
            metadata={"algorithm_family": "hmm"},
        )
