"""Tests for the online serving fast path (repro.serving).

Three layers under test:

* :class:`PlanCache` — per-term / per-pair memoization assembling HMMs
  through the same float operations as the uncached builder, so cached
  and uncached suggestion lists must be **bit-identical**;
* :class:`ResultCache` — the query-level LRU with version-aware
  invalidation;
* the wiring — the log decode lanes, ``LiveReformulator``'s result
  LRU + staleness bypass counter, and batches through
  ``LiveReformulator.route``.
"""

import dataclasses

import pytest

from repro import obs
from repro.core.hmm import IndexFrequency
from repro.core.reformulator import Reformulator, ReformulatorConfig
from repro.core.scoring import ScoredQuery
from repro.errors import ReformulationError
from repro.lanes import LaneResult, Request
from repro.live import LiveReformulator
from repro.serving import PlanCache, ResultCache

from tests.conftest import build_toy_database


QUERIES = [
    ["probabilistic", "query"],
    ["pattern", "mining"],
    ["probabilistic", "pattern", "discovery"],
    ["uncertain", "data"],
]


def _pair(graph, plan_cache: bool, **knobs):
    """(uncached, cached) reformulators with identical knobs."""
    uncached = Reformulator(
        graph, ReformulatorConfig(enable_plan_cache=False, **knobs)
    )
    cached = Reformulator(
        graph, ReformulatorConfig(enable_plan_cache=plan_cache, **knobs)
    )
    return uncached, cached


# --------------------------------------------------------------------- #
# bit-identical plan-cache serving
# --------------------------------------------------------------------- #

class TestCachedEqualsUncached:
    KNOB_COMBOS = [
        dict(n_candidates=6),
        dict(n_candidates=3),
        dict(n_candidates=6, include_void=True),
        dict(n_candidates=6, include_original=False),
        dict(n_candidates=4, include_void=True, include_original=False),
        dict(n_candidates=6, smoothing_lambda=0.5),
        dict(n_candidates=6, smoothing_lambda=1.0),
    ]

    @pytest.mark.parametrize("knobs", KNOB_COMBOS)
    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_bit_identical_across_knobs(self, toy_graph, knobs, k):
        uncached, cached = _pair(toy_graph, True, **knobs)
        for query in QUERIES:
            assert cached.reformulate(query, k=k) == uncached.reformulate(
                query, k=k
            )

    def test_warm_calls_stay_identical(self, toy_graph):
        """Second and third servings (all plan blocks cached) still match."""
        uncached, cached = _pair(toy_graph, True, n_candidates=6)
        reference = [uncached.reformulate(q, k=5) for q in QUERIES]
        for _round in range(3):
            assert [cached.reformulate(q, k=5) for q in QUERIES] == reference
        stats = cached.plan_cache.stats()
        assert stats.term_hits > 0 and stats.pair_hits > 0

    def test_hmm_identical_matrices(self, toy_graph):
        import numpy as np

        uncached, cached = _pair(toy_graph, True, n_candidates=6)
        query = ["probabilistic", "pattern", "mining"]
        a = uncached.build_hmm(query)
        b = cached.build_hmm(query)
        assert np.array_equal(a.pi, b.pi)
        for x, y in zip(a.emissions, b.emissions):
            assert np.array_equal(x, y)
        for x, y in zip(a.transitions, b.transitions):
            assert np.array_equal(x, y)

    def test_all_algorithms_identical(self, toy_graph):
        uncached, cached = _pair(toy_graph, True, n_candidates=6)
        for algorithm in ("astar", "viterbi_topk", "astar_log",
                          "viterbi_topk_log"):
            for query in QUERIES:
                assert cached.reformulate(
                    query, k=5, algorithm=algorithm
                ) == uncached.reformulate(query, k=5, algorithm=algorithm)


class TestLogLanes:
    def test_log_equals_linear(self, toy_graph):
        r = Reformulator(toy_graph, ReformulatorConfig(n_candidates=6))
        for query in QUERIES:
            astar = r.reformulate(query, k=5, algorithm="astar")
            assert r.reformulate(query, k=5, algorithm="astar_log") == astar
            vtopk = r.reformulate(query, k=5, algorithm="viterbi_topk")
            assert (
                r.reformulate(query, k=5, algorithm="viterbi_topk_log")
                == vtopk
            )

    def test_log_lane_on_uncached_hmm(self, toy_graph):
        """The lazy log matrices work without a plan cache seeding them."""
        from repro.core.viterbi import viterbi_topk

        r = Reformulator(
            toy_graph, ReformulatorConfig(
                enable_plan_cache=False, n_candidates=6
            )
        )
        hmm = r.build_hmm(["probabilistic", "query"])
        assert viterbi_topk(hmm, 1, log_space=True) == viterbi_topk(hmm, 1)


# --------------------------------------------------------------------- #
# PlanCache internals
# --------------------------------------------------------------------- #

class TestPlanCache:
    def _cache(self, reformulator, **kwargs):
        return PlanCache(
            candidates=reformulator.candidates,
            closeness=reformulator.closeness,
            frequency=reformulator.frequency,
            smoothing_lambda=reformulator.config.smoothing_lambda,
            **kwargs,
        )

    def test_hit_miss_counting(self, toy_graph):
        r = Reformulator(toy_graph, ReformulatorConfig(n_candidates=6))
        cache = self._cache(r)
        cache.term_plan("probabilistic")
        cache.term_plan("probabilistic")
        stats = cache.stats()
        assert (stats.term_misses, stats.term_hits) == (1, 1)
        # pair_plan pulls both term plans internally, so only the pair
        # counters are asserted from here on
        cache.pair_plan("probabilistic", "query")
        cache.pair_plan("probabilistic", "query")
        stats = cache.stats()
        assert (stats.pair_misses, stats.pair_hits) == (1, 1)

    def test_lru_eviction(self, toy_graph):
        r = Reformulator(toy_graph, ReformulatorConfig(n_candidates=6))
        cache = self._cache(r, max_terms=2)
        cache.term_plan("probabilistic")
        cache.term_plan("query")
        cache.term_plan("probabilistic")   # refresh LRU position
        cache.term_plan("pattern")         # evicts "query"
        stats = cache.stats()
        assert stats.term_evictions == 1
        assert stats.terms_resident == 2
        before = cache.stats().term_misses
        cache.term_plan("probabilistic")   # survived (was refreshed)
        assert cache.stats().term_misses == before
        cache.term_plan("query")           # was evicted -> recompute
        assert cache.stats().term_misses == before + 1

    def test_bump_version_clears(self, toy_graph):
        r = Reformulator(toy_graph, ReformulatorConfig(n_candidates=6))
        cache = self._cache(r)
        cache.term_plan("probabilistic")
        cache.pair_plan("probabilistic", "query")
        cache.bump_version()
        stats = cache.stats()
        assert stats.terms_resident == 0 and stats.pairs_resident == 0
        before = cache.stats().term_misses
        cache.term_plan("probabilistic")  # version is part of the key
        assert cache.stats().term_misses == before + 1

    def test_plans_are_readonly(self, toy_graph):
        import numpy as np

        r = Reformulator(toy_graph, ReformulatorConfig(n_candidates=6))
        cache = self._cache(r)
        plan = cache.term_plan("probabilistic")
        with pytest.raises(ValueError):
            plan.freqs[0] = 1.0
        pair = cache.pair_plan("probabilistic", "query")
        with pytest.raises(ValueError):
            pair.smoothed[0, 0] = 1.0
        assert isinstance(plan.sims, np.ndarray)


# --------------------------------------------------------------------- #
# ResultCache
# --------------------------------------------------------------------- #

def _fake_results(tag: str) -> LaneResult:
    return LaneResult(
        lane="hmm",
        suggestions=(ScoredQuery(terms=(tag,), score=0.5, state_path=(0,)),),
        provenance=({"lane": "hmm", "relaxed": False},),
    )


class TestResultCache:
    def test_roundtrip_and_copy_isolation(self):
        cache = ResultCache(max_entries=4)
        key = ResultCache.key(["a", "b"], 5, "astar")
        assert cache.get(key, version=1) is None
        cache.put(key, 1, _fake_results("x"))
        got = cache.get(key, version=1)
        assert got == _fake_results("x")
        with pytest.raises(dataclasses.FrozenInstanceError):
            got.suggestions = ()  # stored results are frozen: sharing is safe
        assert cache.get(key, version=1) == _fake_results("x")

    def test_version_mismatch_is_miss_and_evicts(self):
        cache = ResultCache(max_entries=4)
        key = ResultCache.key(["a"], 3, "astar")
        cache.put(key, 1, _fake_results("x"))
        assert cache.get(key, version=2) is None
        assert key not in cache
        stats = cache.stats()
        assert stats.evictions_stale == 1 and stats.misses == 1

    def test_capacity_eviction_is_lru(self):
        cache = ResultCache(max_entries=2)
        k1, k2, k3 = (ResultCache.key([c], 1, "astar") for c in "abc")
        cache.put(k1, 1, _fake_results("1"))
        cache.put(k2, 1, _fake_results("2"))
        cache.get(k1, version=1)           # k1 most recent
        cache.put(k3, 1, _fake_results("3"))
        assert k1 in cache and k3 in cache and k2 not in cache
        assert cache.stats().evictions_capacity == 1

    def test_evict_stale_bulk(self):
        cache = ResultCache(max_entries=8)
        for i in range(3):
            cache.put(ResultCache.key([str(i)], 1, "astar"), 1,
                      _fake_results(str(i)))
        cache.put(ResultCache.key(["new"], 1, "astar"), 2,
                  _fake_results("new"))
        assert cache.evict_stale(version=2) == 3
        assert len(cache) == 1
        assert cache.stats().evictions_stale == 3

    def test_rejects_zero_capacity(self):
        with pytest.raises(ReformulationError):
            ResultCache(max_entries=0)


# --------------------------------------------------------------------- #
# many queries in one batch
# --------------------------------------------------------------------- #

class TestReformulateMany:
    def test_matches_sequential_with_duplicates(self, toy_graph):
        """A duplicate-bearing batch through ``LiveReformulator.route``
        answers each entry as the core reformulator does alone."""
        r = Reformulator(toy_graph, ReformulatorConfig(n_candidates=6))
        log = [QUERIES[0], QUERIES[1], QUERIES[0], QUERIES[2], QUERIES[1]]
        expected = [r.reformulate(q, k=4) for q in log]
        live = LiveReformulator(
            build_toy_database(), ReformulatorConfig(n_candidates=6)
        )
        results = live.route([Request(q, 4) for q in log])
        assert [list(result.suggestions) for result in results] == expected


# --------------------------------------------------------------------- #
# LiveReformulator wiring
# --------------------------------------------------------------------- #

@pytest.fixture()
def live():
    return LiveReformulator(
        build_toy_database(), ReformulatorConfig(n_candidates=6)
    )


class TestLiveServing:
    def test_repeat_query_hits_result_cache(self, live):
        first = list(live.reformulate_lane(["probabilistic", "query"], k=3).suggestions)
        hits_before = live.result_cache.stats().hits
        second = list(live.reformulate_lane(["probabilistic", "query"], k=3).suggestions)
        assert second == first
        assert live.result_cache.stats().hits == hits_before + 1

    def test_insert_evicts_on_rebuild(self, live):
        live.reformulate_lane(["probabilistic", "query"], k=3)
        live.reformulate_lane(["pattern", "mining"], k=3)
        assert len(live.result_cache) == 2
        live.insert("papers", {
            "pid": 70, "title": "probabilistic query streams",
            "cid": 0, "year": 2013,
        })
        live.reformulate_lane(["probabilistic", "query"], k=3)  # rebuilds
        stats = live.result_cache.stats()
        assert stats.evictions_stale == 2
        # only the re-served query is resident, at the new version
        assert len(live.result_cache) == 1

    def test_stale_query_bypasses_cache(self, live):
        live.reformulate_lane(["probabilistic", "query"], k=3)
        assert live.cache_bypasses == 1  # the cold first build counts
        live.invalidate()
        live.reformulate_lane(["probabilistic", "query"], k=3)
        assert live.cache_bypasses == 2
        live.reformulate_lane(["probabilistic", "query"], k=3)  # fresh -> no bump
        assert live.cache_bypasses == 2

    def test_bypass_counter_metric(self, live):
        obs.reset()
        with obs.enabled():
            live.reformulate_lane(["probabilistic", "query"], k=3)
            live.invalidate()
            live.reformulate_lane(["probabilistic", "query"], k=3)
            metric = obs.registry().get(
                "repro_live_result_cache_bypass_total"
            )
            assert metric is not None and metric.value == 2
        obs.reset()

    def test_result_cache_disabled(self):
        live = LiveReformulator(
            build_toy_database(),
            ReformulatorConfig(n_candidates=6, result_cache_size=0),
        )
        assert live.result_cache is None
        first = live.reformulate_lane(["probabilistic", "query"], k=3)
        again = live.reformulate_lane(["probabilistic", "query"], k=3)
        assert list(again.suggestions) == list(first.suggestions)

    def test_reformulate_many_delegates(self, live):
        """A batch through the live router answers as fresh lone requests."""
        results = live.route([Request(q, 3) for q in QUERIES])
        batched = [list(result.suggestions) for result in results]
        fresh = LiveReformulator(
            build_toy_database(), ReformulatorConfig(n_candidates=6)
        )
        assert batched == [
            list(fresh.reformulate_lane(q, k=3).suggestions) for q in QUERIES
        ]

    def test_plan_cache_counters_exported(self, live):
        """Cache counters reach the obs registry (the `repro stats` feed)."""
        obs.reset()
        with obs.enabled():
            live.reformulate_lane(["probabilistic", "query"], k=3)
            live.reformulate_lane(["probabilistic", "pattern"], k=3)
            registry = obs.registry()
            hits = registry.get(
                "repro_plan_cache_hits_total", layer="term"
            )
            assert hits is not None and hits.value > 0
            assert registry.get("repro_result_cache_misses_total") is not None
        obs.reset()


# --------------------------------------------------------------------- #
# satellites
# --------------------------------------------------------------------- #

class TestIndexFrequencyMemo:
    def test_memoized_value_stable(self, toy_graph):
        freq = IndexFrequency(toy_graph)
        node = toy_graph.resolve_text_one("probabilistic")
        first = freq.frequency(node)
        assert node in freq._cache
        freq._cache[node] = first  # cached path returns the stored value
        assert freq.frequency(node) == first
        assert first > 0

    def test_memo_matches_fresh_instance(self, toy_graph):
        warm = IndexFrequency(toy_graph)
        for text in ("probabilistic", "pattern", "query"):
            node = toy_graph.resolve_text_one(text)
            warm.frequency(node)
            assert warm.frequency(node) == IndexFrequency(
                toy_graph
            ).frequency(node)


class TestCandidateBuildDedupe:
    def test_repeated_keyword_shares_list(self, toy_graph):
        r = Reformulator(toy_graph, ReformulatorConfig(n_candidates=6))
        lists = r.candidates.build(["pattern", "mining", "pattern"])
        assert lists[0] is lists[2]
        assert lists[0] is not lists[1]


# --------------------------------------------------------------------- #
# batches through LiveReformulator.route
# --------------------------------------------------------------------- #

#: Five entries, three distinct queries.
BATCH = [QUERIES[0], QUERIES[1], QUERIES[0], QUERIES[2], QUERIES[1]]


def _single_answers(queries, k, **knobs):
    """Each query's answer as a lone request to a fresh, uncached live."""
    fresh = LiveReformulator(
        build_toy_database(),
        ReformulatorConfig(n_candidates=6, result_cache_size=0, **knobs),
    )
    return [fresh.reformulate_lane(q, k=k) for q in queries]


class TestBatchRoute:
    """A batch with duplicates — result cache on or off, fresh or stale —
    answers every entry as its single request would, decoding each
    distinct query once."""

    @pytest.fixture(
        params=[(64, False), (64, True), (0, False), (0, True)],
        ids=["cached", "cached-stale", "uncached", "uncached-stale"],
    )
    def batch_live(self, request):
        size, stale = request.param
        live = LiveReformulator(
            build_toy_database(),
            ReformulatorConfig(n_candidates=6, result_cache_size=size),
        )
        live.pipeline()
        if stale:
            live.invalidate()
            assert live.is_stale
        return live

    def test_matches_single_requests_with_duplicates(self, batch_live):
        results = batch_live.route([Request(q, 4) for q in BATCH])
        assert results == _single_answers(BATCH, k=4)

    def test_duplicates_are_independent_objects(self, batch_live):
        first, second = batch_live.route([Request(QUERIES[0], 3)] * 2)
        assert first == second and first is not second

    def test_each_distinct_query_decoded_once(self, batch_live, monkeypatch):
        decoded = []
        original = Reformulator.reformulate

        def spying(self, keywords, *args, **kwargs):
            decoded.append(tuple(keywords))
            return original(self, keywords, *args, **kwargs)

        monkeypatch.setattr(Reformulator, "reformulate", spying)
        batch_live.route([Request(q, 4) for q in BATCH])
        assert sorted(decoded) == sorted({tuple(q) for q in BATCH})

    def test_plans_built_once_per_distinct_term(self):
        live = LiveReformulator(
            build_toy_database(), ReformulatorConfig(n_candidates=6)
        )
        live.route([Request(q, 4) for q in BATCH])
        stats = live.pipeline().plan_cache.stats()
        terms = {term for q in BATCH for term in q}
        assert stats.term_misses == stats.terms_resident == len(terms)

    def test_matches_without_plan_cache(self):
        live = LiveReformulator(
            build_toy_database(),
            ReformulatorConfig(n_candidates=6, enable_plan_cache=False),
        )
        results = live.route([Request(q, 3) for q in BATCH])
        assert [r.suggestions for r in results] == [
            r.suggestions for r in _single_answers(BATCH, k=3)
        ]
