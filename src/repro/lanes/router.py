"""Lane registration, request routing, and the relaxation fallback chain.

The :class:`LaneRouter` is the single entry point the serving stack uses
to reach any reformulation strategy.  It takes a list of requests and
answers each one in turn — a single query is a list of one::

    router = build_router(pipeline, RouterConfig(fallback_lane="relaxation"))
    request = Request(["probabilistic", "xml"], k=5, lane="hmm")
    [result] = router.route([request])

It owns three responsibilities:

* **validation** — an unknown lane name raises
  :class:`~repro.lanes.base.UnknownLaneError`, which the HTTP layer maps
  to a 400 (:meth:`RouterConfig.resolve` is the only place lane names
  are resolved);
* **fallback chaining** — when the routed lane reports a best-path
  cohesion below ``cohesion_threshold`` and a ``fallback_lane`` is
  configured, the router re-runs the query through the fallback and
  stamps ``fallback_from`` on the result (lanes that do not measure
  cohesion, like ``enumeration``, never fall back);
* **measurement** — per-lane request counters and latency histograms
  (``repro_lane_*``), a fallback-transition counter, and the lane name
  annotated onto the active trace so access logs and the flight
  recorder can attribute every request.

Routing state is deliberately tiny (a name → lane dict plus the frozen
config) so each pre-fork worker builds its own router from the shared
:class:`RouterConfig` after the fork.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.core.reformulator import Reformulator
from repro.errors import ReproError
from repro.index.inverted import FieldRef
from repro.lanes.base import Lane, LaneResult, Request, UnknownLaneError
from repro.lanes.enumeration import EnumerationLane
from repro.lanes.hmm import HmmLane
from repro.lanes.relaxation import RelaxationLane
from repro.lanes.schema import SchemaLane, derive_field_vocabulary

#: Lane names :func:`build_router` knows how to construct.
KNOWN_LANES: Tuple[str, ...] = ("hmm", "enumeration", "relaxation", "schema")

#: Latency buckets for the per-lane histogram (seconds).
_LANE_SECONDS_BUCKETS = [
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
]


@dataclass(frozen=True)
class RouterConfig:
    """Everything a worker needs to rebuild its router after a fork.

    ``field_vocabulary`` feeds the schema lane; when ``None`` the
    vocabulary is derived from the pipeline's own schema
    (:func:`~repro.lanes.schema.derive_field_vocabulary`).
    """

    lanes: Tuple[str, ...] = KNOWN_LANES
    default_lane: str = "hmm"
    fallback_lane: Optional[str] = None
    cohesion_threshold: float = 1e-9
    max_relaxation_decodes: int = 16
    climb_width: int = 2
    field_vocabulary: Optional[Dict[str, FieldRef]] = None

    def validate(self) -> None:
        """Raise :class:`ReproError` on an inconsistent configuration."""
        if not self.lanes:
            raise ReproError("router config must enable at least one lane")
        unknown = [name for name in self.lanes if name not in KNOWN_LANES]
        if unknown:
            raise ReproError(
                f"unknown lanes {unknown!r}, expected a subset of {KNOWN_LANES}"
            )
        if len(set(self.lanes)) != len(self.lanes):
            raise ReproError(f"duplicate lanes in {self.lanes!r}")
        if self.default_lane not in self.lanes:
            raise ReproError(
                f"default lane {self.default_lane!r} is not among the "
                f"enabled lanes {self.lanes!r}"
            )
        if self.fallback_lane is not None and self.fallback_lane not in self.lanes:
            raise ReproError(
                f"fallback lane {self.fallback_lane!r} is not among the "
                f"enabled lanes {self.lanes!r}"
            )
        if self.cohesion_threshold < 0:
            raise ReproError(
                f"cohesion threshold must be >= 0, got {self.cohesion_threshold}"
            )
        if self.max_relaxation_decodes < 1:
            raise ReproError("max_relaxation_decodes must be >= 1")
        if self.climb_width < 0:
            raise ReproError("climb_width must be >= 0")

    def resolve(self, name: Optional[str]) -> str:
        """Validated lane name for a request (``None`` → default).

        Config-only, so the live wrapper rejects a bad lane name
        *before* paying for a pipeline build.
        """
        if name is None:
            return self.default_lane
        if name not in self.lanes:
            raise UnknownLaneError(
                f"unknown lane {name!r}, expected one of {sorted(self.lanes)}"
            )
        return name

    def cache_tag(self, requested: str) -> str:
        """The lane component of a result-cache key.

        A lane whose answers can be replaced by the fallback chain must
        not share cache entries with the same lane running chain-free —
        an ``hmm`` request under ``fallback_lane=relaxation`` may return
        relaxed suggestions, which would poison a plain ``hmm`` cache
        line.  The tag therefore encodes the full decision function:
        the requested lane, and the chain + threshold when they apply.
        """
        fallback = self.fallback_lane
        if fallback is None or requested == fallback:
            return requested
        return f"{requested}>{fallback}@{self.cohesion_threshold:g}"


class LaneRouter:
    """Dispatches reformulation requests to registered lanes."""

    def __init__(self, config: Optional[RouterConfig] = None) -> None:
        self.config = config or RouterConfig()
        self.config.validate()
        self._lanes: Dict[str, Lane] = {}

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #

    def register(self, lane: Lane) -> None:
        """Add a lane; its :attr:`~repro.lanes.base.Lane.name` is the key."""
        if lane.name in self._lanes:
            raise ReproError(f"lane {lane.name!r} already registered")
        self._lanes[lane.name] = lane

    @property
    def names(self) -> Tuple[str, ...]:
        """Registered lane names, in registration order."""
        return tuple(self._lanes)

    def lane(self, name: str) -> Lane:
        """Resolve a lane by name (raises :class:`UnknownLaneError`)."""
        try:
            return self._lanes[name]
        except KeyError:
            raise UnknownLaneError(
                f"unknown lane {name!r}, expected one of {sorted(self._lanes)}"
            ) from None

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #

    def route(self, requests: Sequence[Request]) -> List[LaneResult]:
        """Run each request through its lane, results aligned.

        Every lane name is resolved before the first request runs.  Each
        entry then takes the fallback chain on its own, and routing
        provenance (``requested`` / ``fallback_from``) is stamped on
        every result.
        """
        names = [self.config.resolve(request.lane) for request in requests]
        results: List[LaneResult] = []
        for name, request in zip(names, requests):
            result = self._maybe_fallback(
                name, self._timed(name, request), request
            )
            if result.relaxed and obs.is_enabled():
                obs.registry().counter(
                    "repro_lane_relaxed_total",
                    "Responses containing relaxed suggestions, "
                    "by serving lane",
                    lane=result.lane,
                ).inc()
            results.append(result)
        if results:
            obs.annotate_trace("lane", results[0].lane)
        return results

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    def _timed(self, name: str, request: Request) -> LaneResult:
        target = self.lane(name)
        start = time.monotonic()
        result = target.reformulate(
            list(request.keywords),
            k=request.k,
            budget=request.budget,
            algorithm=request.algorithm,
        )
        self._record(name, time.monotonic() - start)
        return result

    def _maybe_fallback(
        self, requested: str, result: LaneResult, request: Request
    ) -> LaneResult:
        fallback = self.config.fallback_lane
        if (
            fallback is not None
            and requested != fallback
            and result.cohesion is not None
            and result.cohesion < self.config.cohesion_threshold
        ):
            if obs.is_enabled():
                obs.registry().counter(
                    "repro_lane_fallback_total",
                    "Requests re-routed through the fallback lane",
                    from_lane=requested,
                    to_lane=fallback,
                ).inc()
            chained = self._timed(fallback, request)
            return chained.with_routing(requested, fallback_from=requested)
        return result.with_routing(requested)

    def _record(self, name: str, elapsed: float) -> None:
        if not obs.is_enabled():
            return
        registry = obs.registry()
        registry.counter(
            "repro_lane_requests_total",
            "Reformulation requests served, by lane",
            lane=name,
        ).inc()
        registry.histogram(
            "repro_lane_seconds",
            "Lane execution latency (seconds)",
            buckets=_LANE_SECONDS_BUCKETS,
            lane=name,
        ).observe(elapsed)


def build_router(
    pipeline: Reformulator, config: Optional[RouterConfig] = None
) -> LaneRouter:
    """A router with every lane named in *config* constructed and wired.

    The schema lane's vocabulary comes from ``config.field_vocabulary``
    when declared, else from the schema itself.
    """
    config = config or RouterConfig()
    router = LaneRouter(config)
    for name in config.lanes:
        if name == "hmm":
            router.register(HmmLane(pipeline))
        elif name == "enumeration":
            router.register(EnumerationLane(pipeline))
        elif name == "relaxation":
            router.register(
                RelaxationLane(
                    pipeline,
                    cohesion_threshold=config.cohesion_threshold,
                    max_decodes=config.max_relaxation_decodes,
                    climb_width=config.climb_width,
                )
            )
        elif name == "schema":
            vocabulary = config.field_vocabulary
            if vocabulary is None:
                vocabulary = derive_field_vocabulary(pipeline.graph.database)
            router.register(SchemaLane(pipeline, vocabulary))
    return router


__all__ = [
    "KNOWN_LANES",
    "LaneRouter",
    "RouterConfig",
    "build_router",
]
