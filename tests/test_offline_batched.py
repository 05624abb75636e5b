"""Equivalence suite for the batched offline stage.

Whatever the batch size, :meth:`OfflinePrecomputer.build_store` (batched
direct solves) must produce the same relations (within 1e-8) as the
sequential per-term reference path (power-iteration walks), and a v3
store-backed reformulator must return the same top-k suggestions as the
live extractors.
"""

import pytest

from repro.core.reformulator import Reformulator, ReformulatorConfig
from repro.errors import ReproError
from repro.graph.closeness import ClosenessExtractor
from repro.graph.similarity import SimilarityExtractor
from repro.offline import (
    OfflinePrecomputer,
    TermRelationStore,
    _term_key,
)

TOL = 1e-8


def _sequential_reference(graph, n_similar=8, closeness_top=30):
    """The seed path: one term at a time, power-iteration walks."""
    precomputer = OfflinePrecomputer(
        graph,
        similarity=SimilarityExtractor(graph),
        closeness=ClosenessExtractor(graph, beam_width=None),
        n_similar=n_similar,
        closeness_top=closeness_top,
    )
    store = TermRelationStore(graph)
    for term in precomputer.vocabulary():
        store._relations[_term_key(term)] = precomputer.precompute_term(term)
    return store


def _batched(graph, batch_size, n_similar=8, closeness_top=30):
    precomputer = OfflinePrecomputer(
        graph,
        closeness=ClosenessExtractor(graph, beam_width=None),
        n_similar=n_similar,
        closeness_top=closeness_top,
    )
    store = precomputer.build_store(batch_size=batch_size)
    return store, precomputer.stats


def assert_stores_equivalent(reference, candidate, tol=TOL):
    """Same relations within *tol*.

    The direct solver's scores differ from the power-iteration fixed
    point by ~1e-11, so rankings may permute *tied* entries and the
    truncation boundary may swap ties; everything separated by more than
    *tol* must still agree.
    """
    keys = sorted(reference._keys())
    assert sorted(candidate._keys()) == keys
    for key in keys:
        ref = reference._get(key)
        got = candidate._get(key)
        got_scores = dict(got.similar)
        ref_scores = dict(ref.similar)
        # stored list stays sorted descending
        values = [s for _, s in got.similar]
        assert all(a >= b - tol for a, b in zip(values, values[1:])), key
        boundary = min(ref_scores.values(), default=0.0)
        for term in set(ref_scores) | set(got_scores):
            a = ref_scores.get(term)
            b = got_scores.get(term)
            if a is None or b is None:
                # only legal at the truncation boundary, on a tie
                present = b if a is None else a
                assert present == pytest.approx(boundary, abs=tol), key
            else:
                assert b == pytest.approx(a, abs=tol), key
        assert set(got.closeness) == set(ref.closeness), key
        for other, value in ref.closeness.items():
            assert got.closeness[other] == pytest.approx(value, abs=tol)


@pytest.fixture(scope="module")
def reference(toy_graph):
    return _sequential_reference(toy_graph)


class TestBatchedEquivalence:
    @pytest.mark.parametrize(
        "batch_size", [1, 5, 64], ids=lambda size: f"direct-{size}"
    )
    def test_any_batch_size_matches_sequential(
        self, toy_graph, reference, batch_size
    ):
        store, _stats = _batched(toy_graph, batch_size)
        assert_stores_equivalent(reference, store)

    def test_direct_solver_residual_is_tiny(self, toy_graph):
        _store, stats = _batched(toy_graph, 16)
        assert stats.batch_residuals
        assert stats.max_residual < 1e-10

    def test_extractor_caches_stay_bounded(self, toy_graph):
        similarity = SimilarityExtractor(toy_graph)
        closeness = ClosenessExtractor(toy_graph, beam_width=None)
        precomputer = OfflinePrecomputer(
            toy_graph, similarity=similarity, closeness=closeness,
            n_similar=8, closeness_top=30,
        )
        precomputer.build_store(batch_size=8)
        # every term's cache entry is evicted right after its readout
        assert similarity.cache_size() == 0
        assert closeness.cache_size() == 0


class TestStats:
    def test_counters(self, toy_graph, toy_index):
        _store, stats = _batched(toy_graph, 16)
        assert stats.total_terms == toy_index.vocabulary_size()
        assert stats.terms_done == stats.total_terms
        expected_batches = -(-stats.total_terms // 16)
        assert stats.n_batches == expected_batches
        assert len(stats.batch_residuals) == expected_batches
        assert stats.terms_per_second > 0

    def test_progress_callback_fires_per_batch(self, toy_graph):
        precomputer = OfflinePrecomputer(
            toy_graph,
            closeness=ClosenessExtractor(toy_graph, beam_width=None),
            n_similar=4, closeness_top=10,
        )
        seen = []
        precomputer.build_store(
            batch_size=10, progress=lambda done, total: seen.append((done, total))
        )
        total = precomputer.stats.total_terms
        assert seen[-1] == (total, total)
        assert [done for done, _ in seen] == sorted({done for done, _ in seen})

    def test_validation(self, toy_graph):
        precomputer = OfflinePrecomputer(toy_graph)
        with pytest.raises(ReproError):
            precomputer.build_store(batch_size=0)


class TestStoreBackedTopK:
    """The v3 store must serve the same top-k as the live extractors."""

    QUERIES = [
        ["probabilistic", "query"],
        ["pattern", "mining"],
        ["uncertain", "data"],
    ]

    @pytest.fixture(scope="class")
    def binary(self, small_graph, tmp_path_factory):
        from repro.storage.binary import write_store_v3

        precomputer = OfflinePrecomputer(
            small_graph, n_similar=15, closeness_top=200
        )
        store = precomputer.build_store(batch_size=128)
        root = write_store_v3(store, tmp_path_factory.mktemp("store") / "v3")
        return TermRelationStore.load(root, small_graph)

    def test_loads_as_binary(self, binary):
        from repro.storage.binary import BinaryTermRelationStore

        assert isinstance(binary, BinaryTermRelationStore)

    @pytest.mark.parametrize("query", QUERIES, ids=[" ".join(q) for q in QUERIES])
    def test_same_topk_as_live(self, small_graph, binary, query):
        config = ReformulatorConfig(n_candidates=10)
        live = Reformulator(small_graph, config)
        cached = Reformulator(
            small_graph, config, similarity=binary, closeness=binary
        )
        live_out = [(s.text, s.score) for s in live.reformulate(query, k=5)]
        cached_out = [(s.text, s.score) for s in cached.reformulate(query, k=5)]
        assert [t for t, _ in cached_out] == [t for t, _ in live_out]
        for (_, a), (_, b) in zip(cached_out, live_out):
            assert a == pytest.approx(b, rel=1e-6)
