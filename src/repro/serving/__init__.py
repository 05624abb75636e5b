"""Online serving fast path: plan cache, result LRU, batch helpers.

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
  :meth:`~repro.live.LiveReformulator.route`;
* the batched path (``Reformulator.reformulate_many``, which the hmm
  lane runs for any batch of two or more requests — ``/reformulate/batch``,
  ``repro reformulate --batch``) warms the plan cache once per distinct
  term and fans decode across a thread pool.

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
