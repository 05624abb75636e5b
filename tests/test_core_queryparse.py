"""Unit tests for repro.core.queryparse."""

import pytest

from repro.core.queryparse import QueryParser
from repro.errors import ReproError

from tests.conftest import build_toy_database


@pytest.fixture(scope="module")
def parser_with_names():
    """Toy graph extended with a multi-word author name."""
    from repro.graph.tat import TATGraph
    from repro.index.inverted import InvertedIndex

    db = build_toy_database()
    db.insert("authors", {"aid": 9, "name": "christian s. jensen"})
    db.insert("papers", {
        "pid": 9, "title": "spatio temporal indexing", "cid": 0, "year": 2005,
    })
    db.insert("writes", {"wid": 9, "aid": 9, "pid": 9})
    graph = TATGraph(db, InvertedIndex(db))
    return QueryParser(graph), graph


class TestParsing:
    def test_plain_words(self, toy_graph):
        parser = QueryParser(toy_graph)
        parsed = parser.parse("probabilistic query")
        assert parsed.keywords == ("probabilistic", "query")
        assert parsed.multiword == ()

    def test_author_name_kept_whole(self, parser_with_names):
        parser, _graph = parser_with_names
        parsed = parser.parse("spatio temporal christian s. jensen")
        assert parsed.keywords == (
            "spatio", "temporal", "christian s. jensen",
        )
        assert parsed.multiword == ("christian s. jensen",)

    def test_name_in_the_middle(self, parser_with_names):
        parser, _graph = parser_with_names
        parsed = parser.parse("christian s. jensen indexing")
        assert parsed.keywords == ("christian s. jensen", "indexing")

    def test_case_insensitive(self, parser_with_names):
        parser, _graph = parser_with_names
        parsed = parser.parse("Christian S. Jensen SPATIO")
        assert parsed.keywords[0] == "christian s. jensen"

    def test_unknown_words_pass_through(self, toy_graph):
        parser = QueryParser(toy_graph)
        parsed = parser.parse("zzzmystery query")
        assert parsed.keywords == ("zzzmystery", "query")

    def test_duplicates_removed(self, toy_graph):
        parser = QueryParser(toy_graph)
        parsed = parser.parse("query query pattern")
        assert parsed.keywords == ("query", "pattern")

    def test_empty_string(self, toy_graph):
        parser = QueryParser(toy_graph)
        assert parser.parse("   ").keywords == ()

    def test_stopwords_dropped_from_singles(self, toy_graph):
        parser = QueryParser(toy_graph)
        parsed = parser.parse("the probabilistic of query")
        assert parsed.keywords == ("probabilistic", "query")

    def test_no_greedy_overreach(self, parser_with_names):
        """A prefix of a known name must not swallow following words."""
        parser, _graph = parser_with_names
        parsed = parser.parse("christian mining")
        assert parsed.keywords == ("christian", "mining")

    def test_validation(self, toy_graph):
        with pytest.raises(ReproError):
            QueryParser(toy_graph, max_term_tokens=0)

    def test_multiword_vocabulary_counted(self, parser_with_names):
        parser, _graph = parser_with_names
        assert parser.multiword_vocabulary_size >= 1


class TestReformulatorIntegration:
    def test_reformulate_text(self, parser_with_names):
        from repro.core.reformulator import Reformulator, ReformulatorConfig

        _parser, graph = parser_with_names
        reformulator = Reformulator(
            graph, ReformulatorConfig(n_candidates=5)
        )
        parsed = reformulator.parser.parse(
            "spatio temporal christian s. jensen"
        )
        out = reformulator.reformulate(list(parsed.keywords), k=3)
        assert out
        # the author position stays an author (same-class candidates)
        for suggestion in out:
            assert len(suggestion.terms) == 3

    def test_reformulate_text_empty_raises(self, toy_graph):
        from repro.core.reformulator import Reformulator, ReformulatorConfig
        from repro.errors import ReformulationError

        reformulator = Reformulator(
            toy_graph, ReformulatorConfig(n_candidates=5)
        )
        with pytest.raises(ReformulationError):
            reformulator.explain("   ")
