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

from typing import Any, Dict, Optional, Sequence, Tuple

from repro.core.reformulator import Reformulator
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
        suggestions = tuple(
            self.pipeline.reformulate(keywords, k=k, algorithm=algorithm)
        )
        best = suggestions[0] if suggestions else None
        provenance: Tuple[Dict[str, Any], ...] = tuple(
            {"lane": self.name, "relaxed": False} for _ in suggestions
        )
        return LaneResult(
            lane=self.name,
            suggestions=suggestions,
            provenance=provenance,
            relaxed=False,
            cohesion=query_cohesion(self.pipeline, keywords, best),
            metadata={"algorithm_family": "hmm"},
        )
