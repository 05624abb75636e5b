"""Lane-vs-lane evaluation: replay one workload through two lanes.

The lane subsystem makes reformulation strategies swappable per request;
this module makes them *comparable*.  A workload is replayed through two
lanes of one :class:`~repro.lanes.router.LaneRouter`, every ranking is
judged by the paper's three-judge panel, and the per-query Precision@k
vectors go through the paired bootstrap of
:mod:`repro.eval.significance` — the same machinery the offline quality
experiments use, so lane A/B deltas are directly comparable to the
paper-replication numbers.

Two extra measurements cover what precision cannot see:

* :func:`fallback_coverage` — of the queries whose hmm best path is
  *incohesive* (below the router's threshold), what fraction does the
  relaxation lane still answer non-emptily?  This is the lane
  subsystem's reason to exist: the acceptance bar is ≥ 95 %.
* relaxed/fallback rates per arm, so a quality win can be attributed to
  substitution or to relaxation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.eval.judge import JudgePanel
from repro.eval.significance import (
    BootstrapResult,
    paired_bootstrap,
    per_query_precision,
)
from repro.lanes.base import LaneResult, Request
from repro.lanes.router import LaneRouter


@dataclass(frozen=True)
class LaneArm:
    """One lane's replay over one workload."""

    lane: str
    results: Tuple[LaneResult, ...]
    #: Per-query Precision@k, aligned with the workload (bootstrap input).
    precision: Tuple[float, ...]
    #: Fraction of queries answered with at least one suggestion.
    answered: float
    #: Fraction of queries answered with relaxed suggestions.
    relaxed: float
    #: Fraction of queries that went through the fallback chain.
    fell_back: float

    @property
    def mean_precision(self) -> float:
        """Macro-averaged Precision@k over the workload."""
        return sum(self.precision) / len(self.precision)


@dataclass(frozen=True)
class LaneComparison:
    """Judged A/B of two lanes on one workload (A is the treatment)."""

    arm_a: LaneArm
    arm_b: LaneArm
    bootstrap: BootstrapResult

    @property
    def delta(self) -> float:
        """Mean Precision@k difference, arm A minus arm B."""
        return self.arm_a.mean_precision - self.arm_b.mean_precision


@dataclass(frozen=True)
class FallbackCoverage:
    """How completely relaxation rescues incohesive queries."""

    n_queries: int
    n_low_cohesion: int
    n_answered: int

    @property
    def coverage(self) -> float:
        """Answered fraction of the low-cohesion queries (1.0 if none)."""
        if self.n_low_cohesion == 0:
            return 1.0
        return self.n_answered / self.n_low_cohesion


def replay_lane(
    router: LaneRouter,
    queries: Sequence[Sequence[str]],
    lane: str,
    k: int = 10,
    algorithm: str = "astar",
) -> List[LaneResult]:
    """Route every query through one lane, preserving workload order."""
    return router.route(
        [Request(query, k, lane, algorithm) for query in queries]
    )


def judge_arm(
    panel: JudgePanel,
    queries: Sequence[Sequence[str]],
    results: Sequence[LaneResult],
    lane: str,
    k: int,
) -> LaneArm:
    """Judge one lane's replay into a :class:`LaneArm`.

    Suggestions whose positional length differs from the input (the
    schema lane decodes with schema tokens removed) are judged against
    the lane's own decoded query, taken from the result metadata.
    """
    verdicts: List[List[bool]] = []
    answered = relaxed = fell_back = 0
    for query, result in zip(queries, results):
        reference = list(query)
        decoded = result.metadata.get("decoded_query")
        if decoded is not None:
            reference = list(decoded)
        judgeable = [
            s for s in result.suggestions if len(s.terms) == len(reference)
        ]
        verdicts.append(panel.judge_ranking(reference, judgeable))
        answered += bool(result.suggestions)
        relaxed += result.relaxed
        fell_back += result.fallback_from is not None
    n = len(verdicts)
    if n == 0:
        raise ReproError("cannot judge an empty workload")
    return LaneArm(
        lane=lane,
        results=tuple(results),
        precision=tuple(per_query_precision(verdicts, k)),
        answered=answered / n,
        relaxed=relaxed / n,
        fell_back=fell_back / n,
    )


def compare_lanes(
    router: LaneRouter,
    panel: JudgePanel,
    queries: Sequence[Sequence[str]],
    lane_a: str,
    lane_b: str,
    k: int = 10,
    algorithm: str = "astar",
    n_resamples: int = 2000,
    seed: int = 0,
) -> LaneComparison:
    """Judged, significance-tested A/B of two lanes on one workload."""
    queries = [list(query) for query in queries]
    arm_a = judge_arm(
        panel, queries, replay_lane(router, queries, lane_a, k, algorithm),
        lane_a, k,
    )
    arm_b = judge_arm(
        panel, queries, replay_lane(router, queries, lane_b, k, algorithm),
        lane_b, k,
    )
    bootstrap = paired_bootstrap(
        arm_a.precision, arm_b.precision,
        n_resamples=n_resamples, seed=seed,
    )
    return LaneComparison(arm_a=arm_a, arm_b=arm_b, bootstrap=bootstrap)


def fallback_coverage(
    router: LaneRouter,
    queries: Sequence[Sequence[str]],
    k: int = 10,
    threshold: Optional[float] = None,
) -> FallbackCoverage:
    """Relaxation coverage of the workload's incohesive queries.

    Each query first runs through the ``hmm`` lane to measure its best
    path's cohesion; queries below *threshold* (default: the router's
    configured one) are then routed through ``relaxation``, and coverage
    is the fraction answered with at least one suggestion.
    """
    if threshold is None:
        threshold = router.config.cohesion_threshold
    probes = router.route([Request(query, k, "hmm") for query in queries])
    low = [
        Request(query, k, "relaxation")
        for query, probe in zip(queries, probes)
        if probe.cohesion is not None and probe.cohesion < threshold
    ]
    answered = sum(bool(result.suggestions) for result in router.route(low))
    return FallbackCoverage(
        n_queries=len(queries), n_low_cohesion=len(low), n_answered=answered
    )


__all__ = [
    "FallbackCoverage",
    "LaneArm",
    "LaneComparison",
    "compare_lanes",
    "fallback_coverage",
    "judge_arm",
    "replay_lane",
]
