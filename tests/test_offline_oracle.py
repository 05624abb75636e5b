"""Differential test: the array offline pass against the per-node loops.

``SimilarityExtractor.similar_nodes`` / ``similarity`` and
``ContextualPreference.preference_matrix`` / ``preference_weights`` /
``context_entries`` must give the same ids and the same float bits as
the scalar forms kept in :mod:`tests.offline_oracle`, on the toy and
``small`` corpora, with the idf readout and the contextual walk each on
and off, a ``top_n`` past the class size, a tuple start node, the
isolated-node fallback, ``include_self > 0`` and a graph extended in
place by ``TATGraph.add_tuples``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.context import ContextualPreference
from repro.graph.similarity import SimilarityExtractor
from repro.graph.tat import TATGraph
from repro.index.inverted import FieldTerm, InvertedIndex

from tests.conftest import build_toy_database
from tests.offline_oracle import (
    reference_context_entries,
    reference_diffuse,
    reference_preference_matrix,
    reference_preference_weights,
    reference_similar_nodes,
    reference_similarity,
)
from tests.test_delta_graph import NEW_PAPER, NEW_WRITE

READOUTS = [
    pytest.param(True, True, id="contextual-idf"),
    pytest.param(True, False, id="contextual-plain"),
    pytest.param(False, True, id="indicator-idf"),
    pytest.param(False, False, id="indicator-plain"),
]


def _signature(similar):
    """(id, score bits) per entry: a reordered or re-rounded float fails."""
    return [
        (s.node_id, np.float64(s.score).view(np.uint64).item())
        for s in similar
    ]


def _bits(value: float) -> int:
    return np.float64(value).view(np.uint64).item()


def _start_nodes(graph, limit=None):
    """Every term node (or the first *limit*) plus two tuple nodes."""
    terms = list(graph.registry.term_ids())
    if limit is not None:
        terms = terms[::max(1, len(terms) // limit)]
    tuples = list(graph.registry.tuple_ids())
    return terms + [tuples[0], tuples[len(tuples) // 2]]


@pytest.fixture(params=["toy", "small"])
def graph(request):
    return request.getfixturevalue(f"{request.param}_graph")


class TestSimilarNodes:
    @pytest.mark.parametrize("contextual,idf_readout", READOUTS)
    def test_matches_oracle(self, graph, contextual, idf_readout):
        extractor = SimilarityExtractor(
            graph, contextual=contextual, idf_readout=idf_readout
        )
        nodes = _start_nodes(graph)
        extractor.precompute(nodes, batch_size=128, method="direct")
        whole_class = graph.n_nodes
        for node_id in nodes:
            for top_n in (1, 10, whole_class):
                assert _signature(
                    extractor.similar_nodes(node_id, top_n)
                ) == _signature(
                    reference_similar_nodes(extractor, node_id, top_n)
                ), (node_id, top_n)

    @pytest.mark.parametrize("contextual,idf_readout", READOUTS)
    def test_similarity_matches_oracle(self, graph, contextual, idf_readout):
        extractor = SimilarityExtractor(
            graph, contextual=contextual, idf_readout=idf_readout
        )
        others = range(graph.n_nodes)
        for node_a in _start_nodes(graph, limit=6):
            for node_b in others:
                assert _bits(extractor.similarity(node_a, node_b)) == _bits(
                    reference_similarity(extractor, node_a, node_b)
                ), (node_a, node_b)


class TestPreference:
    @pytest.mark.parametrize("include_self", [0.0, 0.3])
    def test_matrix_columns_bitwise(self, graph, include_self):
        pref = ContextualPreference(graph, include_self=include_self)
        nodes = _start_nodes(graph)
        got = pref.preference_matrix(nodes)
        want = reference_preference_matrix(pref, nodes)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("include_self", [0.0, 0.3])
    def test_weights_and_entries(self, graph, include_self):
        pref = ContextualPreference(graph, include_self=include_self)
        for node_id in _start_nodes(graph, limit=25):
            got = pref.preference_weights(node_id)
            want = reference_preference_weights(pref, node_id)
            assert list(got) == list(want)
            assert [_bits(w) for w in got.values()] == [
                _bits(w) for w in want.values()
            ]
            assert pref.context_entries(node_id) == (
                reference_context_entries(pref, node_id)
            )

    def test_diffusion_dedup(self, graph):
        pref = ContextualPreference(graph, frontier_cap=None)
        capped = ContextualPreference(graph, frontier_cap=3)
        for node_id in _start_nodes(graph, limit=25):
            for p in (pref, capped):
                ids, mass = p._diffuse(node_id)
                ref_ids, ref_mass = reference_diffuse(p, node_id)
                assert np.array_equal(ids, ref_ids)
                assert np.array_equal(
                    mass.view(np.uint64), ref_mass.view(np.uint64)
                )

    @pytest.mark.parametrize("include_self", [0.0, 0.3])
    def test_isolated_node_fallback(self, include_self):
        db = build_toy_database()
        db.insert("authors", {"aid": 9, "name": None})
        graph = TATGraph(db, InvertedIndex(db))
        pref = ContextualPreference(graph, include_self=include_self)
        loner = graph.tuple_node_id(("authors", 9))
        assert pref.preference_weights(loner) == {loner: 1.0}
        nodes = [loner] + _start_nodes(graph, limit=5)
        got = pref.preference_matrix(nodes)
        want = reference_preference_matrix(pref, nodes)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert got[loner, 0] == 1.0


class TestGraphExtendedInPlace:
    def test_live_extractor_sees_new_nodes_and_idf(self):
        db = build_toy_database()
        graph = TATGraph(db, InvertedIndex(db))
        extractor = SimilarityExtractor(graph)
        title = ("papers", "title")
        uncertain = graph.term_node_id(FieldTerm(title, "uncertain"))
        before = extractor.similar_nodes(uncertain, graph.n_nodes)
        idf_before = graph.index.idf(FieldTerm(title, "pattern"))

        refs = [db.insert("papers", dict(NEW_PAPER)),
                db.insert("writes", dict(NEW_WRITE))]
        graph.add_tuples(refs)
        assert graph.index.idf(FieldTerm(title, "pattern")) != idf_before
        answering = graph.term_node_id(FieldTerm(title, "answering"))

        after = extractor.similar_nodes(uncertain, graph.n_nodes)
        assert after != before
        assert answering in {s.node_id for s in after}
        assert _signature(after) == _signature(
            reference_similar_nodes(extractor, uncertain, graph.n_nodes)
        )
        # the same bits as an extractor built on the extended graph
        fresh = SimilarityExtractor(graph)
        for node_id in (uncertain, answering):
            assert _signature(
                extractor.similar_nodes(node_id, 10)
            ) == _signature(fresh.similar_nodes(node_id, 10))
            assert _bits(extractor.similarity(node_id, uncertain)) == _bits(
                fresh.similarity(node_id, uncertain)
            )
