"""End-to-end tests for repro.core.reformulator on the toy corpus."""

import pytest

from repro.core.reformulator import (
    ALGORITHMS,
    METHODS,
    Reformulator,
    ReformulatorConfig,
    decode_topk,
)
from repro.errors import ReformulationError


@pytest.fixture(scope="module")
def reformulator(toy_graph) -> Reformulator:
    return Reformulator(toy_graph, ReformulatorConfig(n_candidates=5))


class TestConfig:
    def test_unknown_method(self, toy_graph):
        with pytest.raises(ReformulationError):
            Reformulator(toy_graph, ReformulatorConfig(method="bogus"))

    def test_n_candidates_validated(self, toy_graph):
        with pytest.raises(ReformulationError):
            Reformulator(toy_graph, ReformulatorConfig(n_candidates=0))

    def test_methods_constant(self):
        assert set(METHODS) == {"tat", "cooccurrence", "rank"}

    def test_unknown_algorithm(self, reformulator):
        with pytest.raises(ReformulationError):
            reformulator.reformulate(["query"], algorithm="bogus")


class TestReformulate:
    def test_returns_at_most_k(self, reformulator):
        out = reformulator.reformulate(["probabilistic", "query"], k=3)
        assert 0 < len(out) <= 3

    def test_scores_descending(self, reformulator):
        out = reformulator.reformulate(["probabilistic", "query"], k=5)
        scores = [q.score for q in out]
        assert scores == sorted(scores, reverse=True)

    def test_identity_dropped(self, reformulator):
        out = reformulator.reformulate(["probabilistic", "query"], k=10)
        assert "probabilistic query" not in {q.text for q in out}

    def test_no_duplicate_texts(self, reformulator):
        out = reformulator.reformulate(["probabilistic", "query"], k=10)
        texts = [q.text for q in out]
        assert len(texts) == len(set(texts))

    def test_no_repeated_terms_within_query(self, reformulator):
        out = reformulator.reformulate(["probabilistic", "pattern"], k=10)
        for q in out:
            assert len(set(q.keywords)) == len(q.keywords)

    def test_algorithms_agree_on_scores(self, reformulator):
        query = ["probabilistic", "query"]
        outputs = {
            alg: [q.score for q in reformulator.reformulate(query, k=4, algorithm=alg)]
            for alg in ALGORITHMS
        }
        assert outputs["astar"] == pytest.approx(outputs["viterbi_topk"])
        assert outputs["astar"] == pytest.approx(outputs["brute_force"])

    def test_single_keyword_query(self, reformulator):
        out = reformulator.reformulate(["probabilistic"], k=3)
        assert out
        assert all(len(q.keywords) == 1 for q in out)

    def test_unknown_keyword_passes_through(self, reformulator):
        out = reformulator.reformulate(["zzzunknown", "query"], k=3)
        for q in out:
            assert q.terms[0] == "zzzunknown"

    def test_best_returns_single(self, reformulator):
        best = reformulator.best(["probabilistic", "query"])
        assert best.state_path
        assert best.score > 0

    def test_with_timing(self, reformulator):
        _queries, outcome = decode_topk(
            reformulator.build_hmm(["probabilistic", "query"]), 3, "astar"
        )
        assert outcome.queries
        assert outcome.total_seconds >= 0


class TestMethods:
    def test_from_database_constructor(self, toy_db):
        r = Reformulator.from_database(toy_db)
        assert r.reformulate(["probabilistic", "query"], k=2)

    def test_cooccurrence_method(self, toy_graph):
        r = Reformulator(
            toy_graph,
            ReformulatorConfig(method="cooccurrence", n_candidates=5),
        )
        out = r.reformulate(["probabilistic", "query"], k=3)
        assert out

    def test_rank_method(self, toy_graph):
        r = Reformulator(
            toy_graph, ReformulatorConfig(method="rank", n_candidates=5)
        )
        out = r.reformulate(["probabilistic", "query"], k=3)
        assert out
        scores = [q.score for q in out]
        assert scores == sorted(scores, reverse=True)

    def test_tat_finds_synonym_substitution(self, toy_graph):
        """With enough suggestions, venue-mates get substituted in —
        something co-occurrence candidates can never produce."""
        r = Reformulator(toy_graph, ReformulatorConfig(n_candidates=8))
        candidate_texts = {
            s.text for s in r.candidates.candidates_for("probabilistic")
        }
        assert "uncertain" in candidate_texts
        out = r.reformulate(["probabilistic", "query"], k=30)
        all_terms = {t for q in out for t in q.keywords}
        assert all_terms & {"uncertain", "data", "management"}

    def test_keep_identity_when_configured(self, toy_graph):
        r = Reformulator(
            toy_graph,
            ReformulatorConfig(n_candidates=5, drop_identity=False),
        )
        out = r.reformulate(["probabilistic", "query"], k=10)
        assert "probabilistic query" in {q.text for q in out}

    def test_void_states_render_shorter_query(self, toy_graph):
        r = Reformulator(
            toy_graph,
            ReformulatorConfig(
                n_candidates=5, include_void=True, drop_repeated_terms=False
            ),
        )
        out = r.reformulate(["probabilistic", "query"], k=20)
        assert out  # void machinery must not break decoding


class TestHmmConstruction:
    def test_build_hmm_exposed(self, reformulator):
        hmm = reformulator.build_hmm(["probabilistic", "query"])
        assert hmm.length == 2
        assert hmm.query == ("probabilistic", "query")
