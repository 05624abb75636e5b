"""Graph-layer primitives of the incremental delta-ingest path.

Covers: in-place adjacency extension with exact idf reweighting
(``TATGraph.add_tuples`` / ``add_terms``), batch-composition invariance of
the direct walk solver, warm-started power iteration, adjacency-version
gating of the engine's cached LU, and dirty-set closeness invalidation.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse

from repro.errors import GraphError, IndexError_
from repro.graph.adjacency import Adjacency, AdjacencyBuilder
from repro.graph.closeness import ClosenessExtractor
from repro.graph.nodes import Node
from repro.graph.randomwalk import RandomWalkEngine
from repro.graph.similarity import SimilarityExtractor
from repro.graph.tat import TATGraph
from repro.index.inverted import FieldTerm, InvertedIndex, Posting
from repro.storage.database import Database

from tests.conftest import build_toy_database


NEW_PAPER = {
    "pid": 4, "title": "uncertain pattern answering", "cid": 1, "year": 2012,
}
NEW_WRITE = {"wid": 4, "aid": 2, "pid": 4}


def extended_setup():
    """Toy graph extended in place with one new paper + authorship row."""
    db = build_toy_database()
    graph = TATGraph(db, InvertedIndex(db))
    refs = [db.insert("papers", dict(NEW_PAPER)),
            db.insert("writes", dict(NEW_WRITE))]
    dirty = graph.add_tuples(refs)
    return db, graph, refs, dirty


def rebuilt_graph(db: Database) -> TATGraph:
    """From-scratch graph over the same database contents."""
    return TATGraph(db, InvertedIndex(db))


def permuted_matrix(src: TATGraph, dst: TATGraph) -> sparse.csr_matrix:
    """src's adjacency with node ids mapped into dst's id space."""
    perm = np.empty(src.n_nodes, dtype=np.int64)
    for nid in range(src.n_nodes):
        perm[nid] = dst.registry.id_of(src.registry.node_of(nid))
    coo = src.adjacency.matrix.tocoo()
    return sparse.csr_matrix(
        (coo.data, (perm[coo.row], perm[coo.col])), shape=coo.shape
    )


class TestAdjacencyExtend:
    def build(self):
        builder = AdjacencyBuilder()
        builder.add_edge(0, 1, 2.0)
        builder.add_edge(1, 2, 1.0)
        return builder.freeze(3)

    def test_grows_and_accumulates(self):
        adj = self.build()
        adj.extend(4, [(2, 3, 1.5), (0, 1, 1.0)])
        assert adj.n_nodes == 4
        assert adj.matrix[0, 1] == 3.0  # accumulated onto existing edge
        assert adj.matrix[2, 3] == 1.5
        assert adj.matrix[3, 2] == 1.5  # symmetric

    def test_scale_rescales_existing_entries_only(self):
        adj = self.build()
        adj.extend(4, [(0, 3, 1.0)], scale=np.array([2.0, 1.0, 1.0]))
        assert adj.matrix[0, 1] == 4.0  # scale[0] * scale[1] * 2.0
        assert adj.matrix[1, 2] == 1.0
        assert adj.matrix[0, 3] == 1.0  # new edges land unscaled

    def test_version_bump_and_transition_refresh(self):
        adj = self.build()
        t0 = adj.transition_matrix()
        assert adj.version == 0
        adj.extend(3, [(0, 2, 1.0)])
        assert adj.version == 1
        t1 = adj.transition_matrix()
        assert t1 is not t0
        assert float(t1.sum(axis=0).max()) == pytest.approx(1.0)

    def test_rejects_bad_input(self):
        adj = self.build()
        with pytest.raises(GraphError):
            adj.extend(2, [])  # shrink
        with pytest.raises(GraphError):
            adj.extend(3, [(0, 0, 1.0)])  # self loop
        with pytest.raises(GraphError):
            adj.extend(3, [(0, 5, 1.0)])  # out of range
        with pytest.raises(GraphError):
            adj.extend(3, [(0, 2, -1.0)])  # nonpositive weight
        with pytest.raises(GraphError):
            adj.extend(3, [], scale=np.array([1.0, -1.0, 1.0]))
        with pytest.raises(GraphError):
            adj.extend(3, [], scale=np.ones(2))


class TestAddTuples:
    def test_matches_rebuild_up_to_node_order(self):
        db, graph, _refs, _dirty = extended_setup()
        fresh = rebuilt_graph(db)
        assert graph.stats() == fresh.stats()
        diff = abs(permuted_matrix(graph, fresh) - fresh.adjacency.matrix)
        assert (diff.max() if diff.nnz else 0.0) < 1e-12

    def test_index_statistics_match_fresh_build(self):
        db, graph, _refs, _dirty = extended_setup()
        fresh_index = InvertedIndex(db).build()
        assert graph.index.doc_count == fresh_index.doc_count
        assert set(graph.index.terms()) == set(fresh_index.terms())
        for term in fresh_index.terms():
            assert graph.index.df(term) == fresh_index.df(term)
            assert graph.index.idf(term) == fresh_index.idf(term)
            assert sorted(
                (p.ref, p.tf) for p in graph.index.postings(term)
            ) == sorted((p.ref, p.tf) for p in fresh_index.postings(term))
        for field in fresh_index.fields():
            assert graph.index.field_cardinality(
                field
            ) == fresh_index.field_cardinality(field)

    def test_dirty_set_contents(self):
        db, graph, refs, dirty = extended_setup()
        for ref in refs:
            assert graph.tuple_node_id(ref) in dirty
        # terms of the new title (new or with a new posting) are dirty
        for text in ("uncertain", "pattern", "answering"):
            term = FieldTerm(("papers", "title"), text)
            assert graph.term_node_id(term) in dirty
        # FK partners of the new rows are dirty
        assert graph.tuple_node_id(("conferences", 1)) in dirty
        assert graph.tuple_node_id(("authors", 2)) in dirty
        # an untouched far-away node is not
        assert graph.tuple_node_id(("papers", 0)) not in dirty

    def test_empty_refs_is_noop(self):
        db = build_toy_database()
        graph = TATGraph(db, InvertedIndex(db))
        version = graph.adjacency.version
        assert graph.add_tuples([]) == set()
        assert graph.adjacency.version == version

    def test_double_add_raises(self):
        db, graph, refs, _dirty = extended_setup()
        with pytest.raises((GraphError, IndexError_)):
            graph.add_tuples([refs[0]])

    def test_walks_match_rebuild(self):
        """Walk fixed points on the extended graph equal the rebuilt
        graph's (same node ids looked up through the registry)."""
        db, graph, _refs, _dirty = extended_setup()
        fresh = rebuilt_graph(db)
        sim_ext = SimilarityExtractor(graph)
        sim_fresh = SimilarityExtractor(fresh)
        term = FieldTerm(("papers", "title"), "probabilistic")
        got = {
            str(graph.node(s.node_id)): s.score
            for s in sim_ext.similar_nodes(graph.term_node_id(term), 5)
        }
        want = {
            str(fresh.node(s.node_id)): s.score
            for s in sim_fresh.similar_nodes(fresh.term_node_id(term), 5)
        }
        assert set(got) == set(want)
        for key, score in want.items():
            assert got[key] == pytest.approx(score, rel=1e-9)


class TestAddTerms:
    def test_out_of_band_vocabulary(self):
        db = build_toy_database()
        index = InvertedIndex(db).build()
        graph = TATGraph(db, index)
        # inject a term into the index after the graph was built, with
        # postings on existing tuples (out-of-band vocabulary delta)
        term = FieldTerm(("papers", "title"), "zzznovel")
        index._postings[term] = [
            Posting(("papers", 0), 1), Posting(("papers", 3), 2),
        ]
        dirty = graph.add_terms([term])
        term_id = graph.term_node_id(term)
        assert term_id in dirty
        assert graph.tuple_node_id(("papers", 0)) in dirty
        assert graph.tuple_node_id(("papers", 3)) in dirty
        weights = dict(graph.neighbors(term_id))
        idf = index.idf(term)
        assert weights[graph.tuple_node_id(("papers", 0))] == 1 * idf
        assert weights[graph.tuple_node_id(("papers", 3))] == 2 * idf
        assert graph.resolve_text("zzznovel") == [term_id]

    def test_existing_terms_are_skipped(self):
        db = build_toy_database()
        graph = TATGraph(db, InvertedIndex(db))
        term = FieldTerm(("papers", "title"), "probabilistic")
        version = graph.adjacency.version
        assert graph.add_terms([term]) == set()
        assert graph.adjacency.version == version


class TestDirectSolverBatchInvariance:
    def test_bitwise_independent_of_batch_composition(self, small_graph):
        engine = RandomWalkEngine(small_graph.adjacency)
        sim = SimilarityExtractor(small_graph, engine=engine)
        node_ids = [
            small_graph.term_node_id(t)
            for t in list(small_graph.index.terms())[:12]
        ]
        prefs = sim.preference.preference_matrix(node_ids)
        full = engine.walk_many_result(prefs).scores
        # one column alone
        alone = engine.walk_many_result(prefs[:, 3:4]).scores
        assert np.array_equal(full[:, 3], alone[:, 0])
        # a different batch split
        split = np.hstack([
            engine.walk_many_result(prefs[:, :5]).scores,
            engine.walk_many_result(prefs[:, 5:]).scores,
        ])
        assert np.array_equal(full, split)

    def test_direct_matches_iterative(self, small_graph):
        engine = RandomWalkEngine(small_graph.adjacency)
        sim = SimilarityExtractor(small_graph, engine=engine)
        node_ids = [
            small_graph.term_node_id(t)
            for t in list(small_graph.index.terms())[:4]
        ]
        prefs = sim.preference.preference_matrix(node_ids)
        direct = engine.walk_many_result(prefs)
        assert direct.converged
        for col in range(prefs.shape[1]):
            iterative = engine.walk(prefs[:, col])
            np.testing.assert_allclose(
                direct.scores[:, col], iterative.scores, atol=5e-9
            )


class TestEngineVersionGating:
    def test_lu_kept_while_graph_unchanged(self):
        db = build_toy_database()
        graph = TATGraph(db, InvertedIndex(db))
        engine = RandomWalkEngine(graph.adjacency)
        n = graph.n_nodes
        prefs = np.ones((n, 2)) / n
        engine.walk_many_result(prefs)
        lu_first = engine._lu
        engine.walk_many_result(prefs)
        assert engine._lu is lu_first  # no refactorization without a delta

    def test_refactorizes_after_extend(self):
        db = build_toy_database()
        graph = TATGraph(db, InvertedIndex(db))
        engine = RandomWalkEngine(graph.adjacency)
        n0 = graph.n_nodes
        engine.walk_many_result(np.ones((n0, 1)) / n0)
        lu_first = engine._lu
        db.insert("papers", dict(NEW_PAPER))
        graph.add_tuples([("papers", NEW_PAPER["pid"])])
        n1 = graph.n_nodes
        assert n1 > n0
        result = engine.walk_many_result(np.ones((n1, 1)) / n1)
        assert result.converged
        assert result.scores.shape[0] == n1
        assert engine._lu is not lu_first
        # single-vector path syncs too
        single = engine.walk(np.ones(n1) / n1)
        assert single.scores.shape == (n1,)


class TestClosenessDirtySet:
    def test_clean_rows_bit_identical_after_extend(self):
        db = build_toy_database()
        graph = TATGraph(db, InvertedIndex(db))
        extractor = ClosenessExtractor(graph, max_depth=2, beam_width=None)
        before = {
            nid: extractor.close_terms(nid, 50)
            for nid in graph.registry.term_ids()
        }
        db.insert("papers", dict(NEW_PAPER))
        db.insert("writes", dict(NEW_WRITE))
        dirty = graph.add_tuples([
            ("papers", NEW_PAPER["pid"]), ("writes", NEW_WRITE["wid"]),
        ])
        affected = extractor.invalidate(dirty)
        assert affected  # something is within 2 hops of the new paper
        for nid, row in before.items():
            if nid in affected:
                continue
            assert extractor.close_terms(nid, 50) == row

    def test_affected_rows_match_fresh_extractor(self):
        db = build_toy_database()
        graph = TATGraph(db, InvertedIndex(db))
        extractor = ClosenessExtractor(graph, max_depth=2, beam_width=None)
        for nid in graph.registry.term_ids():
            extractor.close_terms(nid, 50)
        db.insert("papers", dict(NEW_PAPER))
        dirty = graph.add_tuples([("papers", NEW_PAPER["pid"])])
        affected = extractor.invalidate(dirty)
        fresh = ClosenessExtractor(graph, max_depth=2, beam_width=None)
        for nid in affected:
            assert extractor.close_terms(nid, 50) == fresh.close_terms(nid, 50)

    def test_affected_sources_is_ball_restricted(self):
        db = build_toy_database()
        graph = TATGraph(db, InvertedIndex(db))
        extractor = ClosenessExtractor(graph, max_depth=2, beam_width=None)
        pid0 = graph.tuple_node_id(("papers", 0))
        affected = extractor.affected_sources([pid0])
        # depth 2 from p0: its own title terms (distance 1)… plus terms of
        # tuples at distance 1 — but no term of the unrelated icdm papers
        assert graph.term_node_id(
            FieldTerm(("papers", "title"), "query")
        ) in affected
        assert graph.term_node_id(
            FieldTerm(("papers", "title"), "mining")
        ) not in affected
