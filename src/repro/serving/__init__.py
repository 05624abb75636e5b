"""Online serving fast path: the plan cache and the result LRU.

The seed online stage rebuilt candidate lists, smoothed HMM matrices and
the decode heuristic from scratch on every
:meth:`~repro.core.reformulator.Reformulator.reformulate` call, even
when consecutive queries shared terms.  This package memoizes the
per-term artifacts queries recombine:

* :class:`PlanCache` — per-term candidate/frequency/similarity blocks
  and per-term-pair closeness sub-matrices, assembled into bit-identical
  HMMs through :meth:`~repro.core.hmm.ReformulationHMM.assemble`;
* :class:`ResultCache` — complete lane answers keyed on
  ``(keywords, k, algorithm, lane tag)`` with version-aware
  invalidation, read and written only by
  :meth:`~repro.live.LiveReformulator.route`, which also answers each
  distinct query of a batch once (``/reformulate/batch``).

All cache layers report ``repro_plan_cache_*`` / ``repro_result_cache_*``
hit/miss/eviction counters through the gated :mod:`repro.obs` registry.
See ``docs/serving.md`` for keys, invalidation rules and tuning knobs.
"""

from repro.serving.plan_cache import (
    PairPlan,
    PlanCache,
    PlanCacheStats,
    TermPlan,
)
from repro.serving.result_cache import ResultCache, ResultCacheStats

__all__ = [
    "PairPlan",
    "PlanCache",
    "PlanCacheStats",
    "TermPlan",
    "ResultCache",
    "ResultCacheStats",
]
