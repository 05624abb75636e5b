"""Unit tests for repro.live (mutable-corpus reformulation)."""

import pytest

from repro.core.reformulator import ReformulatorConfig
from repro.live import LiveReformulator
from repro.storage.binary import write_store_v3

from tests.conftest import build_toy_database


@pytest.fixture()
def live():
    return LiveReformulator(
        build_toy_database(), ReformulatorConfig(n_candidates=6)
    )


class TestLifecycle:
    def test_starts_stale(self, live):
        assert live.is_stale
        assert live.version == 0

    def test_first_query_builds(self, live):
        live.reformulate(["probabilistic", "query"], k=2)
        assert live.version == 1
        assert not live.is_stale

    def test_queries_without_mutation_reuse_pipeline(self, live):
        live.reformulate(["probabilistic", "query"], k=2)
        pipeline = live.pipeline()
        live.reformulate(["pattern", "mining"], k=2)
        assert live.pipeline() is pipeline
        assert live.version == 1

    def test_insert_marks_stale(self, live):
        live.reformulate(["probabilistic", "query"], k=2)
        live.insert("papers", {
            "pid": 50, "title": "probabilistic mining study",
            "cid": 1, "year": 2012,
        })
        assert live.is_stale
        live.reformulate(["probabilistic", "query"], k=2)
        assert live.version == 2

    def test_insert_many(self, live):
        n = live.insert_many("authors", [
            {"aid": 50, "name": "new one"},
            {"aid": 51, "name": "new two"},
        ])
        assert n == 2 and live.is_stale

    def test_empty_insert_many_not_stale(self, live):
        live.pipeline()
        live.insert_many("authors", [])
        assert not live.is_stale

    def test_invalidate_after_oob_mutation(self, live):
        live.pipeline()
        live.database.insert("authors", {"aid": 60, "name": "oob"})
        assert not live.is_stale  # wrapper cannot see it...
        live.invalidate()
        assert live.is_stale


class TestFreshness:
    def test_new_vocabulary_becomes_suggestible(self, live):
        """Inserting papers that co-locate two previously unrelated terms
        must change the similar lists after rebuild."""
        before = {t for t, _s in live.similar_terms("probabilistic", 10)}
        assert "stream" not in before
        for pid in range(60, 64):
            live.insert("papers", {
                "pid": pid,
                "title": "probabilistic stream processing",
                "cid": 0,
                "year": 2012,
            })
        after = {t for t, _s in live.similar_terms("probabilistic", 10)}
        assert "stream" in after

    def test_fk_violations_still_enforced(self, live):
        from repro.errors import IntegrityError

        with pytest.raises(IntegrityError):
            live.insert("papers", {
                "pid": 70, "title": "x", "cid": 404, "year": 1,
            })

    def test_best_delegates(self, live):
        best = live.best(["probabilistic", "query"])
        assert best.score > 0


class TestStoreBackedServing:
    def test_relations_path_serves_from_store(self, tmp_path):
        from repro.graph.tat import TATGraph
        from repro.index.inverted import InvertedIndex
        from repro.offline import OfflinePrecomputer, TermRelationStore

        database = build_toy_database()
        graph = TATGraph(database, InvertedIndex(database).build())
        store = OfflinePrecomputer(graph, n_similar=8).build_store()
        root = write_store_v3(store, tmp_path / "v3")

        live = LiveReformulator(
            database,
            ReformulatorConfig(n_candidates=5),
            relations=root,
        )
        backend = live.pipeline().similarity
        assert isinstance(backend, TermRelationStore)
        out = live.reformulate(["probabilistic", "query"], k=3)
        assert out and all(s.score > 0 for s in out)

    def test_rebuild_keeps_store_for_known_terms(self, tmp_path):
        from repro.graph.tat import TATGraph
        from repro.index.inverted import InvertedIndex
        from repro.offline import OfflinePrecomputer

        database = build_toy_database()
        graph = TATGraph(database, InvertedIndex(database).build())
        store = OfflinePrecomputer(graph, n_similar=8).build_store()
        root = write_store_v3(store, tmp_path / "v3")

        live = LiveReformulator(
            database, ReformulatorConfig(n_candidates=5), relations=root
        )
        before = live.reformulate(["probabilistic", "query"], k=3)
        version = live.version
        live.insert("papers", {
            "pid": 80, "title": "probabilistic stream processing",
            "cid": 0, "year": 2013,
        })
        after = live.reformulate(["probabilistic", "query"], k=3)
        assert live.version == version + 1  # pipeline rebuilt...
        # ...but stored relations for the old vocabulary still serve
        assert [s.text for s in after] == [s.text for s in before]


def _build_store_live(tmp_path, n_candidates=5):
    from repro.graph.tat import TATGraph
    from repro.index.inverted import InvertedIndex
    from repro.offline import OfflinePrecomputer

    database = build_toy_database()
    graph = TATGraph(database, InvertedIndex(database).build())
    store = OfflinePrecomputer(graph, n_similar=8).build_store()
    root = write_store_v3(store, tmp_path / "v3")
    return LiveReformulator(
        database, ReformulatorConfig(n_candidates=n_candidates),
        relations=root,
    )


class TestStoreCache:
    def test_store_loaded_once_across_rebuilds(self, tmp_path):
        """Rebuilds reuse the loaded store (rebound to the new graph)
        instead of reopening the store from disk every time."""
        live = _build_store_live(tmp_path)
        live.reformulate(["probabilistic", "query"], k=2)
        store_before = live.pipeline().similarity
        live.insert("papers", {
            "pid": 90, "title": "probabilistic stream processing",
            "cid": 0, "year": 2013,
        })
        live.reformulate(["probabilistic", "query"], k=2)
        store_after = live.pipeline().similarity
        assert store_after is store_before
        assert store_after.graph is live.pipeline().graph

    def test_reload_relations_rereads_from_disk(self, tmp_path):
        live = _build_store_live(tmp_path)
        live.reformulate(["probabilistic", "query"], k=2)
        store_before = live.pipeline().similarity
        version = live.version
        live.reload_relations()
        assert live.is_stale
        live.reformulate(["probabilistic", "query"], k=2)
        assert live.version == version + 1
        assert live.pipeline().similarity is not store_before

    def test_cached_store_still_serves_correctly(self, tmp_path):
        live = _build_store_live(tmp_path)
        before = live.reformulate(["probabilistic", "query"], k=3)
        live.invalidate()
        after = live.reformulate(["probabilistic", "query"], k=3)
        assert [s.text for s in after] == [s.text for s in before]
        assert [s.score for s in after] == [s.score for s in before]


class TestServingMetrics:
    def test_rebuild_and_staleness_metrics(self, tmp_path):
        from repro import obs

        live = _build_store_live(tmp_path)
        obs.reset()
        with obs.enabled():
            live.reformulate(["probabilistic", "query"], k=2)
            live.insert("papers", {
                "pid": 91, "title": "probabilistic stream processing",
                "cid": 0, "year": 2013,
            })
            live.invalidate()
            live.reformulate(["probabilistic", "query"], k=2)
        registry = obs.registry()
        assert registry.get("repro_live_rebuilds_total").value == 2.0
        assert registry.get("repro_live_rebuild_seconds").count == 2
        # second query arrived with two pending mutations
        assert registry.get("repro_live_staleness_at_query").value == 2.0
        obs.reset()

    def test_no_metrics_recorded_when_disabled(self, tmp_path):
        from repro import obs

        live = _build_store_live(tmp_path)
        obs.reset()
        assert not obs.is_enabled()
        live.reformulate(["probabilistic", "query"], k=2)
        assert obs.registry().get("repro_live_rebuilds_total") is None
        obs.reset()
