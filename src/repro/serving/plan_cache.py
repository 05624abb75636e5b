"""Per-term query-plan cache: the heart of the online serving fast path.

``Reformulator.build_hmm`` spends its time on three things that are pure
functions of a *term* (or an adjacent term *pair*), yet the seed path
recomputed all of them on every query:

* resolving the candidate list ``L(q_i)`` (similarity-backend lookups);
* the Eq 7 frequency column and Eq 9 raw similarity column of that list;
* the Eq 8 pairwise closeness sub-matrix between two adjacent lists,
  ``n²`` values read with one ``closeness_block`` call (one row read
  per candidate, see :func:`repro.core.hmm.pair_closeness_matrix`).

The plan cache memoizes those blocks in two LRU layers:

* **term layer** — ``(term, version, knobs) → TermPlan`` holding the
  candidate states plus frequency/similarity columns;
* **pair layer** — ``(term_a, term_b, version, knobs) → PairPlan``
  holding the raw Eq 8 sub-matrix, its Eq 6 row-smoothed form, and the
  log-transformed smoothed matrix for the log-space decode lane.

Assembly then runs only the per-query work that genuinely cannot be
memoized per term (Eq 5's query-global emission smoothing and the final
normalizations) through :meth:`ReformulationHMM.assemble` — the same
code path the uncached build uses, so cached and uncached HMMs are
bit-identical.

``version`` is a caller-bumped epoch: :meth:`PlanCache.bump_version`
makes every existing entry unreachable (and drops it), which is how a
mutated graph invalidates plans without enumerating terms.  ``knobs``
fingerprints the config values the blocks depend on, so two pipelines
sharing backends never mix plans.

All layers report hit/miss/eviction counters through the gated
``repro.obs`` registry (series ``repro_plan_cache_*``) and keep plain
integer counters for cheap inspection via :meth:`PlanCache.stats`.

Thread safety: every accessor takes one re-entrant lock, misses
included, so concurrent requests (the server's handler threads) may hit
the cache while the underlying extractors (plain-dict caches) are only
ever driven from one thread at a time.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.candidates import CandidateListBuilder, CandidateState
from repro.core.hmm import (
    ClosenessBackend,
    FrequencyBackend,
    ReformulationHMM,
    log_matrix,
    pair_closeness_matrix,
    term_frequencies,
)
from repro.core.scoring import smooth_rows
from repro.errors import ReformulationError


@dataclass(frozen=True)
class TermPlan:
    """Memoized per-term building blocks of the HMM."""

    term: str
    states: Tuple[CandidateState, ...]  # resolved candidate list L(q_i)
    freqs: np.ndarray                   # Eq 7 numerators, aligned with states
    sims: np.ndarray                    # Eq 9 raw similarity column

    @property
    def state_list(self) -> List[CandidateState]:
        """A fresh list view (HMM/state consumers expect lists)."""
        return list(self.states)


@dataclass(frozen=True)
class PairPlan:
    """Memoized Eq 8 sub-matrix between two adjacent candidate lists."""

    raw: np.ndarray            # unsmoothed closeness sub-matrix
    smoothed: np.ndarray       # Eq 6 row-smoothed transition matrix
    log_smoothed: np.ndarray   # log(smoothed), zeros -> -inf


@dataclass(frozen=True)
class PlanCacheStats:
    """Snapshot of the cache counters (also exported via ``repro.obs``)."""

    term_hits: int
    term_misses: int
    term_evictions: int
    pair_hits: int
    pair_misses: int
    pair_evictions: int
    terms_resident: int
    pairs_resident: int

    @property
    def hits(self) -> int:
        """Total hits across both layers."""
        return self.term_hits + self.pair_hits

    @property
    def misses(self) -> int:
        """Total misses across both layers."""
        return self.term_misses + self.pair_misses


def _readonly(array: np.ndarray) -> np.ndarray:
    """Lock an array so shared cached blocks cannot be mutated in place."""
    array.setflags(write=False)
    return array


class PlanCache:
    """Two-layer LRU of per-term and per-term-pair HMM blocks.

    Parameters
    ----------
    candidates:
        The candidate-list builder (resolves terms against the graph and
        similarity backend).
    closeness:
        Eq 8 closeness backend (live extractor or relation store).
    frequency:
        Eq 7 frequency backend.
    smoothing_lambda:
        λ of Eq 5-6; baked into the cached smoothed/log matrices.
    void_closeness:
        Raw closeness of transitions entering a void state.
    max_terms / max_pairs:
        LRU capacities; least-recently-used entries are evicted first.
    knobs:
        Hashable fingerprint of every config value the blocks depend on;
        part of each key.
    version:
        Cache epoch; bump to invalidate everything at once.
    """

    def __init__(
        self,
        candidates: CandidateListBuilder,
        closeness: ClosenessBackend,
        frequency: FrequencyBackend,
        smoothing_lambda: float = 0.8,
        void_closeness: float = 1e-4,
        max_terms: int = 512,
        max_pairs: int = 2048,
        knobs: Tuple = (),
        version: int = 0,
    ) -> None:
        if max_terms < 1:
            raise ReformulationError("plan cache needs max_terms >= 1")
        if max_pairs < 1:
            raise ReformulationError("plan cache needs max_pairs >= 1")
        self.candidates = candidates
        self.closeness = closeness
        self.frequency = frequency
        self.smoothing_lambda = smoothing_lambda
        self.void_closeness = void_closeness
        self.max_terms = max_terms
        self.max_pairs = max_pairs
        self.knobs = tuple(knobs)
        self.version = version
        self._terms: "OrderedDict[Tuple, TermPlan]" = OrderedDict()
        self._pairs: "OrderedDict[Tuple, PairPlan]" = OrderedDict()
        self._lock = threading.RLock()
        self._term_hits = 0
        self._term_misses = 0
        self._term_evictions = 0
        self._pair_hits = 0
        self._pair_misses = 0
        self._pair_evictions = 0

    # ------------------------------------------------------------------ #
    # keys and invalidation
    # ------------------------------------------------------------------ #

    def term_key(self, term: str) -> Tuple:
        """Cache identity of one term's plan."""
        return (term, self.version, self.knobs)

    def pair_key(self, term_a: str, term_b: str) -> Tuple:
        """Cache identity of one ordered adjacent term pair."""
        return (term_a, term_b, self.version, self.knobs)

    def bump_version(self) -> None:
        """Invalidate every cached plan (graph or backend changed)."""
        with self._lock:
            self.version += 1
            dropped = len(self._terms) + len(self._pairs)
            self._terms.clear()
            self._pairs.clear()
            if dropped:
                obs.counter(
                    "repro_plan_cache_evictions_total",
                    "Plan-cache entries dropped",
                    layer="version",
                ).inc(dropped)
            self._update_gauges()

    def clear(self) -> None:
        """Drop all entries without changing the version."""
        with self._lock:
            self._terms.clear()
            self._pairs.clear()
            self._update_gauges()

    # ------------------------------------------------------------------ #
    # the two layers
    # ------------------------------------------------------------------ #

    def term_plan(self, term: str) -> TermPlan:
        """The memoized plan of one term (computed on first request)."""
        key = self.term_key(term)
        with self._lock:
            plan = self._terms.get(key)
            if plan is not None:
                self._terms.move_to_end(key)
                self._term_hits += 1
                self._count_hit("term")
                return plan
            self._term_misses += 1
            self._count_miss("term")
            states = tuple(self.candidates.candidates_for(term))
            plan = TermPlan(
                term=term,
                states=states,
                freqs=_readonly(term_frequencies(states, self.frequency)),
                sims=_readonly(
                    np.array([s.sim for s in states], dtype=np.float64)
                ),
            )
            self._terms[key] = plan
            while len(self._terms) > self.max_terms:
                self._terms.popitem(last=False)
                self._term_evictions += 1
                self._count_eviction("term")
            self._update_gauges()
            return plan

    def pair_plan(self, term_a: str, term_b: str) -> PairPlan:
        """The memoized Eq 8 sub-matrix for one adjacent term pair."""
        key = self.pair_key(term_a, term_b)
        with self._lock:
            plan = self._pairs.get(key)
            if plan is not None:
                self._pairs.move_to_end(key)
                self._pair_hits += 1
                self._count_hit("pair")
                return plan
            self._pair_misses += 1
            self._count_miss("pair")
            prev = self.term_plan(term_a).states
            curr = self.term_plan(term_b).states
            raw = pair_closeness_matrix(
                prev, curr, self.closeness, self.void_closeness
            )
            smoothed = smooth_rows(raw, self.smoothing_lambda)
            plan = PairPlan(
                raw=_readonly(raw),
                smoothed=_readonly(smoothed),
                log_smoothed=_readonly(log_matrix(smoothed)),
            )
            self._pairs[key] = plan
            while len(self._pairs) > self.max_pairs:
                self._pairs.popitem(last=False)
                self._pair_evictions += 1
                self._count_eviction("pair")
            self._update_gauges()
            return plan

    # ------------------------------------------------------------------ #
    # assembly
    # ------------------------------------------------------------------ #

    def build_hmm(
        self,
        keywords: Sequence[str],
        plans: Optional[List[TermPlan]] = None,
    ) -> ReformulationHMM:
        """Assemble one query's HMM from cached blocks.

        *plans*, when the caller already fetched the term plans (the
        candidates stage of ``Reformulator._run`` does), avoids a second
        round of term-layer lookups.
        """
        keywords = list(keywords)
        if plans is None:
            plans = [self.term_plan(kw) for kw in keywords]
        pairs = [
            self.pair_plan(keywords[i - 1], keywords[i])
            for i in range(1, len(keywords))
        ]
        return ReformulationHMM.assemble(
            query=tuple(keywords),
            states=[plan.state_list for plan in plans],
            freqs=plans[0].freqs,
            raw_sims=[plan.sims for plan in plans],
            transitions=[pair.smoothed for pair in pairs],
            smoothing_lambda=self.smoothing_lambda,
            log_transitions=[pair.log_smoothed for pair in pairs],
        )

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    def stats(self) -> PlanCacheStats:
        """Counter snapshot (mirrors the ``repro_plan_cache_*`` series)."""
        with self._lock:
            return PlanCacheStats(
                term_hits=self._term_hits,
                term_misses=self._term_misses,
                term_evictions=self._term_evictions,
                pair_hits=self._pair_hits,
                pair_misses=self._pair_misses,
                pair_evictions=self._pair_evictions,
                terms_resident=len(self._terms),
                pairs_resident=len(self._pairs),
            )

    def __len__(self) -> int:
        return len(self._terms) + len(self._pairs)

    # ------------------------------------------------------------------ #
    # gated metric recording
    # ------------------------------------------------------------------ #

    @staticmethod
    def _count_hit(layer: str) -> None:
        obs.counter(
            "repro_plan_cache_hits_total",
            "Plan-cache lookups served from memory",
            layer=layer,
        ).inc()

    @staticmethod
    def _count_miss(layer: str) -> None:
        obs.counter(
            "repro_plan_cache_misses_total",
            "Plan-cache lookups that had to compute",
            layer=layer,
        ).inc()

    @staticmethod
    def _count_eviction(layer: str, amount: float = 1.0) -> None:
        if amount:
            obs.counter(
                "repro_plan_cache_evictions_total",
                "Plan-cache entries dropped",
                layer=layer,
            ).inc(amount)

    def _update_gauges(self) -> None:
        if obs.is_enabled():
            registry = obs.registry()
            registry.gauge(
                "repro_plan_cache_entries",
                "Resident plan-cache entries",
                layer="term",
            ).set(len(self._terms))
            registry.gauge(
                "repro_plan_cache_entries",
                "Resident plan-cache entries",
                layer="pair",
            ).set(len(self._pairs))
