"""The lane abstraction: one reformulation strategy behind one interface.

A *lane* is a complete reformulation strategy — the paper's HMM decoder,
the rank-based enumeration baseline, Wiese-style query relaxation, or
the schema-aware variant — exposed behind a single call::

    result = lane.reformulate(keywords, k=5, budget=0.05)

Callers do not reach lanes directly: a query is a :class:`Request` (a
validated, frozen value) and a batch of them goes through
:meth:`~repro.lanes.router.LaneRouter.route`; a single query is a batch
of one.  Every lane returns a :class:`LaneResult`: the ranked suggestions plus
**per-suggestion provenance** (which lane produced it, whether the query
was relaxed, which terms were dropped or generalized) and lane-level
metadata (the cohesion of the best substitution, schema bindings).  The
:class:`~repro.lanes.router.LaneRouter` selects lanes per request,
records per-lane metrics, and chains a relaxation fallback when the
best substitution is not cohesive.

The ``hmm`` lane is a pure wrapper over
:class:`~repro.core.reformulator.Reformulator` — bit-identical output is
a contract, locked by ``tests/test_lanes.py``.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.core.reformulator import ALGORITHMS
from repro.core.scoring import ScoredQuery
from repro.errors import ReproError


class BadRequestError(ReproError):
    """Malformed request (HTTP 400)."""


class UnknownLaneError(ReproError):
    """A request named a lane the router does not serve (HTTP 400)."""


@dataclass(frozen=True)
class Request:
    """One reformulation request, validated when it is built.

    *keywords* must be non-empty strings (stored as a tuple), *k* an
    integer >= 1, *algorithm* one of
    :data:`~repro.core.reformulator.ALGORITHMS`, and *budget* (a lane's
    wall-clock allowance in seconds) ``None`` or > 0.  *lane* ``None``
    means the router's default; whether a named lane is served is the
    router's call (:meth:`~repro.lanes.router.RouterConfig.resolve`).
    Any violation raises :class:`BadRequestError` before any decode.
    """

    keywords: Tuple[str, ...]
    k: int = 10
    lane: Optional[str] = None
    algorithm: str = "astar"
    budget: Optional[float] = None

    def __post_init__(self) -> None:
        keywords = self.keywords
        if (
            not isinstance(keywords, (list, tuple))
            or not keywords
            or not all(isinstance(term, str) and term for term in keywords)
        ):
            raise BadRequestError(
                "keywords must be a non-empty list of strings"
            )
        object.__setattr__(self, "keywords", tuple(keywords))
        k = self.k
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise BadRequestError("k must be an integer >= 1")
        if self.lane is not None and not isinstance(self.lane, str):
            raise BadRequestError("lane must be a string")
        algorithm = self.algorithm
        if not isinstance(algorithm, str) or algorithm not in ALGORITHMS:
            raise BadRequestError(
                f"unknown algorithm {algorithm!r}, "
                f"expected one of {ALGORITHMS}"
            )
        budget = self.budget
        if budget is not None and (
            not isinstance(budget, (int, float))
            or isinstance(budget, bool)
            or not budget > 0
        ):
            raise BadRequestError("budget must be None or a number > 0")


@dataclass(frozen=True)
class LaneResult:
    """What one lane returns for one query.

    ``suggestions[i]`` and ``provenance[i]`` are aligned: the provenance
    dict carries at least ``lane`` and ``relaxed``, plus ``dropped`` /
    ``generalized`` for relaxed suggestions.  ``cohesion`` is the
    minimum raw adjacent-pair closeness along the best substitution's
    path (``None`` when the lane does not measure it); the router
    compares it against the configured threshold to trigger the
    relaxation fallback.  ``requested`` / ``fallback_from`` are stamped
    by the router.  ``degraded`` names the fallback that answered a
    degraded request (``"cached"`` or ``"viterbi_top1"``, see
    :meth:`~repro.live.LiveReformulator.route`); ``None`` for a full
    answer.
    """

    lane: str
    suggestions: Tuple[ScoredQuery, ...]
    provenance: Tuple[Dict[str, Any], ...]
    relaxed: bool = False
    cohesion: Optional[float] = None
    requested: Optional[str] = None
    fallback_from: Optional[str] = None
    metadata: Dict[str, Any] = field(default_factory=dict)
    degraded: Optional[str] = None

    def __post_init__(self) -> None:
        if len(self.suggestions) != len(self.provenance):
            raise ReproError(
                "suggestions and provenance must be aligned "
                f"({len(self.suggestions)} vs {len(self.provenance)})"
            )

    def with_routing(
        self, requested: str, fallback_from: Optional[str] = None
    ) -> "LaneResult":
        """Copy with the router's request bookkeeping stamped on."""
        return replace(
            self, requested=requested, fallback_from=fallback_from
        )


class Lane(abc.ABC):
    """One reformulation strategy.

    Subclasses set :attr:`name` (the routing key) and implement
    :meth:`reformulate`.
    """

    #: Routing key; must be unique within a router.
    name: str = "abstract"

    @abc.abstractmethod
    def reformulate(
        self,
        query: Sequence[str],
        k: int = 10,
        budget: Optional[float] = None,
        algorithm: str = "astar",
    ) -> LaneResult:
        """Top-k suggestions for *query*.

        *budget* is an optional wall-clock allowance in seconds; lanes
        that explore variants (relaxation) stop expanding when it runs
        out.  Lanes that run one decode may ignore it.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"


def query_cohesion(
    pipeline, keywords: Sequence[str], best: Optional[ScoredQuery]
) -> float:
    """Cohesion of the best substitution: min raw adjacent closeness.

    The HMM always emits *some* top-k — its smoothed transition matrix
    has no true zeroes — so a low-quality answer for an incohesive query
    looks just like a good one.  This measures what smoothing hides: the
    **raw** (unsmoothed) closeness between the chosen terms of adjacent
    positions along the best path.  A pair whose closeness is ~0 means
    no tuple path of bounded length connects the two terms; a position
    holding an unknown (unsubstitutable) term counts as 0 outright.
    Single-keyword queries are trivially cohesive (1.0); no decoded
    suggestion at all is maximally incohesive (0.0).  The chosen terms
    are read from the candidate lists the decode used
    (:meth:`~repro.core.reformulator.Reformulator.candidate_states`),
    so no second HMM is assembled.
    """
    if best is None:
        return 0.0
    keywords = list(keywords)
    if len(keywords) < 2:
        return 1.0
    _plans, states = pipeline.candidate_states(keywords)
    worst: Optional[float] = None
    path = best.state_path
    for i in range(1, len(path)):
        a = states[i - 1][path[i - 1]]
        b = states[i][path[i]]
        if a.is_void or b.is_void:
            continue  # deletion carries no adjacency constraint
        if a.node_id is None or b.node_id is None:
            worst = 0.0  # unknown term: no cohesive substitution exists
            continue
        raw = max(0.0, pipeline.closeness.closeness(a.node_id, b.node_id))
        worst = raw if worst is None else min(worst, raw)
    return 1.0 if worst is None else worst


__all__ = [
    "BadRequestError",
    "Lane",
    "LaneResult",
    "Request",
    "UnknownLaneError",
    "query_cohesion",
    "ScoredQuery",
]
