"""Pluggable reformulation lanes over the HMM pipeline.

One *lane* = one complete reformulation strategy behind
:class:`~repro.lanes.base.Lane`; a query is a validated
:class:`~repro.lanes.base.Request`, and the
:class:`~repro.lanes.router.LaneRouter` routes batches of them, applies
the relaxation fallback chain, and records per-lane metrics.  See
``docs/architecture.md`` (Lanes) for the routing diagram.
"""

from repro.lanes.base import (
    BadRequestError,
    Lane,
    LaneResult,
    Request,
    UnknownLaneError,
    query_cohesion,
)
from repro.lanes.enumeration import EnumerationLane
from repro.lanes.hmm import HmmLane
from repro.lanes.relaxation import RelaxationLane
from repro.lanes.router import KNOWN_LANES, LaneRouter, RouterConfig, build_router
from repro.lanes.schema import SchemaLane, derive_field_vocabulary

__all__ = [
    "KNOWN_LANES",
    "BadRequestError",
    "EnumerationLane",
    "HmmLane",
    "Lane",
    "LaneResult",
    "LaneRouter",
    "RelaxationLane",
    "Request",
    "RouterConfig",
    "SchemaLane",
    "UnknownLaneError",
    "build_router",
    "derive_field_vocabulary",
    "query_cohesion",
]
