"""The ``enumeration`` lane: the paper's rank-based baseline.

Combines the per-position similar-term lists by **similarity alone**
(no closeness, no HMM) through
:class:`~repro.core.enumeration.RankBasedReformulator` — the "Rank-based
reformulation" arm of Section VI.  Candidate lists come from the shared
pipeline (plan cache when enabled, the candidate builder otherwise) and
the suggestions run through the same post-processing as the HMM lane,
so the two lanes differ only in the scoring model — exactly what the
A/B eval harness wants to isolate.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.enumeration import RankBasedReformulator
from repro.core.reformulator import Reformulator
from repro.lanes.base import Lane, LaneResult


class EnumerationLane(Lane):
    """Similarity-product top-k enumeration (no cohesion model)."""

    name = "enumeration"

    def __init__(self, pipeline: Reformulator) -> None:
        self.pipeline = pipeline

    def reformulate(
        self,
        query: Sequence[str],
        k: int = 10,
        budget: Optional[float] = None,
        algorithm: str = "astar",
    ) -> LaneResult:
        """Top-k by similarity product (rank-based baseline)."""
        del budget, algorithm  # rank enumeration has a single algorithm
        keywords = list(query)
        states = self._candidate_states(keywords)
        want = k + self.pipeline._slack(keywords)
        raw = RankBasedReformulator(states).topk(want)
        suggestions = tuple(self.pipeline._postprocess(keywords, raw, k))
        provenance: Tuple[Dict[str, Any], ...] = tuple(
            {"lane": self.name, "relaxed": False} for _ in suggestions
        )
        return LaneResult(
            lane=self.name,
            suggestions=suggestions,
            provenance=provenance,
            relaxed=False,
            cohesion=None,  # the baseline has no cohesion notion
            metadata={"algorithm_family": "rank"},
        )

    def _candidate_states(self, keywords: List[str]):
        """Per-position candidate lists, via the shared plan cache."""
        cache = self.pipeline.plan_cache
        if cache is not None:
            return [cache.term_plan(kw).state_list for kw in keywords]
        return self.pipeline.candidates.build(keywords)
