"""Unit tests for repro.offline: precomputation and the relation store."""

import json

import pytest

from repro.core.reformulator import Reformulator, ReformulatorConfig
from repro.errors import ReproError
from repro.graph.closeness import ClosenessExtractor
from repro.index.inverted import FieldTerm
from repro.offline import (
    OfflinePrecomputer,
    TermRelationStore,
    _parse_term_key,
    _term_key,
)
from repro.storage.binary import write_store_v3

TITLE = ("papers", "title")


@pytest.fixture(scope="module")
def precomputer(toy_graph):
    return OfflinePrecomputer(
        toy_graph,
        closeness=ClosenessExtractor(toy_graph, beam_width=None),
        n_similar=8,
        closeness_top=30,
    )


@pytest.fixture(scope="module")
def store(precomputer):
    return precomputer.build_store()


class TestTermKeys:
    def test_roundtrip(self):
        term = FieldTerm(TITLE, "probabilistic")
        assert _parse_term_key(_term_key(term)) == term

    def test_text_with_separator(self):
        # atomic names may contain anything but '|' is split max twice
        term = FieldTerm(("authors", "name"), "doe, john jr.")
        assert _parse_term_key(_term_key(term)) == term


class TestPrecomputer:
    def test_validation(self, toy_graph):
        with pytest.raises(ReproError):
            OfflinePrecomputer(toy_graph, n_similar=0)

    def test_vocabulary_all_fields(self, precomputer, toy_index):
        assert len(precomputer.vocabulary()) == toy_index.vocabulary_size()

    def test_vocabulary_field_filter(self, precomputer):
        vocab = precomputer.vocabulary(fields=[TITLE])
        assert len(vocab) == 10
        assert all(t.field == TITLE for t in vocab)

    def test_precompute_term_matches_live(self, precomputer, toy_graph):
        term = FieldTerm(TITLE, "probabilistic")
        relations = precomputer.precompute_term(term)
        node_id = toy_graph.term_node_id(term)
        live = precomputer.similarity.similar_nodes(node_id, 8)
        stored_scores = [s for _k, s in relations.similar]
        assert stored_scores == [s.score for s in live]


class TestStore:
    def test_covers_vocabulary(self, store, toy_index):
        assert len(store) == toy_index.vocabulary_size()

    def test_contains(self, store):
        assert FieldTerm(TITLE, "probabilistic") in store
        assert FieldTerm(TITLE, "zzz") not in store

    def test_similar_nodes_match_live(self, store, toy_graph, toy_similarity):
        node_id = toy_graph.term_node_id(FieldTerm(TITLE, "probabilistic"))
        stored = store.similar_nodes(node_id, 5)
        live = toy_similarity.similar_nodes(node_id, 5)
        assert [s.node_id for s in stored] == [s.node_id for s in live]
        assert [s.score for s in stored] == pytest.approx(
            [s.score for s in live]
        )

    def test_similarity_lookup(self, store, toy_graph):
        prob = toy_graph.term_node_id(FieldTerm(TITLE, "probabilistic"))
        query = toy_graph.term_node_id(FieldTerm(TITLE, "query"))
        assert store.similarity(prob, query) > 0

    def test_similarity_unknown_pair_zero(self, store, toy_graph):
        prob = toy_graph.term_node_id(FieldTerm(TITLE, "probabilistic"))
        tuple_id = toy_graph.tuple_node_id(("papers", 0))
        assert store.similarity(prob, tuple_id) == 0.0
        assert store.similarity(tuple_id, prob) == 0.0

    def test_closeness_matches_live(self, store, toy_graph, toy_closeness):
        prob = toy_graph.term_node_id(FieldTerm(TITLE, "probabilistic"))
        query = toy_graph.term_node_id(FieldTerm(TITLE, "query"))
        assert store.closeness(prob, query) == pytest.approx(
            toy_closeness.closeness(prob, query)
        )

    def test_closeness_outside_stored_row_zero(self, toy_graph, precomputer):
        tight = OfflinePrecomputer(
            toy_graph,
            closeness=ClosenessExtractor(toy_graph, beam_width=None),
            n_similar=3,
            closeness_top=1,
        )
        store = tight.build_store(fields=[TITLE])
        prob = toy_graph.term_node_id(FieldTerm(TITLE, "probabilistic"))
        # only the single closest term kept; everything else reads 0
        row = [
            other
            for other in toy_graph.same_class_ids(prob)
            if other != prob and store.closeness(prob, other) > 0
        ]
        assert len(row) <= 1

    def test_similar_terms_text_interface(self, store):
        terms = store.similar_terms("probabilistic", 3)
        assert len(terms) == 3


class TestSerialization:
    def test_roundtrip(self, store, toy_graph, tmp_path):
        path = write_store_v3(store, tmp_path / "relations")
        loaded = TermRelationStore.load(path, toy_graph)
        assert len(loaded) == len(store)
        prob = toy_graph.term_node_id(FieldTerm(TITLE, "probabilistic"))
        assert [s.node_id for s in loaded.similar_nodes(prob, 5)] == [
            s.node_id for s in store.similar_nodes(prob, 5)
        ]

    def test_load_missing_file(self, toy_graph, tmp_path):
        with pytest.raises(ReproError):
            TermRelationStore.load(tmp_path / "nope.json", toy_graph)

    def test_load_bad_json(self, toy_graph, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ReproError):
            TermRelationStore.load(path, toy_graph)

    def test_load_wrong_version(self, toy_graph, tmp_path):
        path = tmp_path / "v99.json"
        path.write_text(
            json.dumps({"format_version": 99, "terms": {}}), encoding="utf-8"
        )
        with pytest.raises(ReproError):
            TermRelationStore.load(path, toy_graph)


class TestStoreBackedReformulator:
    def test_same_suggestions_as_live(self, toy_graph, store):
        config = ReformulatorConfig(n_candidates=5)
        live = Reformulator(toy_graph, config)
        # align the live closeness with what was stored (exact extractor)
        live_exact = Reformulator(
            toy_graph,
            config,
            closeness=ClosenessExtractor(toy_graph, beam_width=None),
        )
        cached = Reformulator(
            toy_graph, config, similarity=store, closeness=store
        )
        q = ["probabilistic", "query"]
        live_out = [s.text for s in live_exact.reformulate(q, k=5)]
        cached_out = [s.text for s in cached.reformulate(q, k=5)]
        assert cached_out == live_out
        # and the default live pipeline is consistent too (pruning wide
        # enough on the toy graph)
        assert [s.text for s in live.reformulate(q, k=5)] == live_out

    def test_store_reformulator_is_fast_path(self, toy_graph, store):
        cached = Reformulator(
            toy_graph,
            ReformulatorConfig(n_candidates=5),
            similarity=store,
            closeness=store,
        )
        out = cached.reformulate(["pattern", "mining"], k=3)
        assert out
