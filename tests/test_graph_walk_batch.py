"""Tests for batched random walks (walk_many_result) and precompute."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph.randomwalk import RandomWalkEngine
from repro.graph.similarity import SimilarityExtractor

from tests.test_graph_randomwalk import line_graph, star_graph


class TestWalkMany:
    def test_matches_single_walks(self):
        engine = RandomWalkEngine(line_graph(9), tol=1e-12)
        sources = [0, 3, 7]
        prefs = np.zeros((9, len(sources)))
        for col, s in enumerate(sources):
            prefs[:, col] = engine.indicator_preference(s)
        batched = engine.walk_many_result(prefs).scores
        for col, s in enumerate(sources):
            single = engine.individual_walk(s).scores
            assert np.allclose(batched[:, col], single, atol=1e-9)

    def test_columns_are_distributions(self):
        engine = RandomWalkEngine(star_graph(6))
        prefs = np.random.RandomState(0).rand(6, 4) + 0.01
        out = engine.walk_many_result(prefs).scores
        assert np.allclose(out.sum(axis=0), 1.0)
        assert (out >= 0).all()

    def test_shape_validation(self):
        engine = RandomWalkEngine(line_graph(5))
        with pytest.raises(GraphError):
            engine.walk_many_result(np.ones(5))  # 1-d
        with pytest.raises(GraphError):
            engine.walk_many_result(np.ones((4, 2)))  # wrong node count

    def test_zero_mass_column_rejected(self):
        engine = RandomWalkEngine(line_graph(5))
        prefs = np.ones((5, 2))
        prefs[:, 1] = 0.0
        with pytest.raises(GraphError):
            engine.walk_many_result(prefs)

    def test_dangling_column_mass_restored(self):
        from repro.graph.adjacency import AdjacencyBuilder

        builder = AdjacencyBuilder()
        builder.add_edge(0, 1)
        adj = builder.freeze(3)  # node 2 isolated
        engine = RandomWalkEngine(adj)
        prefs = np.array([[0.5, 0.2], [0.3, 0.3], [0.2, 0.5]])
        out = engine.walk_many_result(prefs).scores
        assert np.allclose(out.sum(axis=0), 1.0)


class TestBatchedPrecompute:
    def test_equals_lazy_extraction(self, toy_graph):
        lazy = SimilarityExtractor(toy_graph)
        batched = SimilarityExtractor(toy_graph)
        node_ids = list(toy_graph.registry.term_ids())[:6]
        batched.precompute(node_ids, batch_size=2)
        for node_id in node_ids:
            assert np.allclose(
                lazy.walk_scores(node_id),
                batched.walk_scores(node_id),
                atol=1e-8,
            )

    def test_cache_filled(self, toy_graph):
        sim = SimilarityExtractor(toy_graph)
        node_ids = list(toy_graph.registry.term_ids())
        sim.precompute(node_ids)
        assert sim.cache_size() == len(node_ids)

    def test_precompute_idempotent(self, toy_graph):
        sim = SimilarityExtractor(toy_graph)
        node_ids = list(toy_graph.registry.term_ids())[:3]
        sim.precompute(node_ids)
        first = sim.walk_scores(node_ids[0])
        sim.precompute(node_ids)
        assert sim.walk_scores(node_ids[0]) is first

    def test_individual_variant_batched(self, toy_graph):
        sim = SimilarityExtractor(toy_graph, contextual=False)
        node_ids = list(toy_graph.registry.term_ids())[:4]
        sim.precompute(node_ids, batch_size=3)
        reference = SimilarityExtractor(toy_graph, contextual=False)
        for node_id in node_ids:
            assert np.allclose(
                sim.walk_scores(node_id),
                reference.walk_scores(node_id),
                atol=1e-8,
            )
