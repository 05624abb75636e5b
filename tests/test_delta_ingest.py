"""Delta ingest: layered stores, DeltaIngestor exactness, compaction.

The load-bearing claim under test: after a ``DeltaIngestor.ingest`` run,
the layered store serves rows that a from-scratch offline build on the
merged corpus would have produced — bit for bit for every recomputed
similar list and for *every* closeness row (stored, ball-invalidated and
lazily recomputed alike).  Similar rows outside the ingested term set
keep their stored bits (documented idf-drift staleness) until
``compact()`` folds the chain into a fresh base.
"""

import json

import pytest

from repro.data.dblp_synth import SynthConfig, dblp_schema, synthesize_dblp
from repro.errors import ReproError
from repro.graph.tat import TATGraph
from repro.index.inverted import InvertedIndex
from repro.offline import (
    DeltaIngestor,
    OfflinePrecomputer,
    TermRelationStore,
)
from repro.storage import layers as layer_io
from repro.storage.binary import BinaryTermRelationStore, write_store_v3
from repro.storage.database import Database
from repro.storage.layers import LayeredTermRelationStore


N_SIMILAR = 8
CLOSENESS_TOP = 30


def _split_corpus(n_held=2, seed=13):
    """Synthesize a corpus and hold out the last *n_held* papers.

    Returns (base_database, delta_rows) where *delta_rows* are the
    ``{"table", "row"}`` ingest payloads for the held-out papers and
    their writes rows.
    """
    full = synthesize_dblp(
        SynthConfig(n_authors=40, n_papers=120, n_conferences=6, seed=seed)
    ).database
    papers = list(full.table("papers").scan())
    writes = list(full.table("writes").scan())
    held = {p["pid"] for p in papers[-n_held:]}
    delta_rows = [
        {"table": "papers", "row": p} for p in papers if p["pid"] in held
    ] + [
        {"table": "writes", "row": w} for w in writes if w["pid"] in held
    ]
    base = Database(dblp_schema())
    for name in ("conferences", "authors"):
        for row in full.table(name).scan():
            base.insert(name, row)
    for paper in papers:
        if paper["pid"] not in held:
            base.insert("papers", paper)
    for write in writes:
        if write["pid"] not in held:
            base.insert("writes", write)
    return base, delta_rows


def _build_base_store(database, path):
    graph = TATGraph(database, InvertedIndex(database))
    store = OfflinePrecomputer(
        graph, n_similar=N_SIMILAR, closeness_top=CLOSENESS_TOP
    ).build_store(walk_method="direct")
    return write_store_v3(
        store,
        path,
        build_info={"n_similar": N_SIMILAR, "closeness_top": CLOSENESS_TOP},
    )


def _oracle_store(database):
    """From-scratch build over the database's *current* contents."""
    graph = TATGraph(database, InvertedIndex(database))
    return graph, OfflinePrecomputer(
        graph, n_similar=N_SIMILAR, closeness_top=CLOSENESS_TOP
    ).build_store(walk_method="direct")


@pytest.fixture(scope="module")
def ingested(tmp_path_factory):
    """One base build + one ingest, shared by the equivalence tests."""
    base_db, delta_rows = _split_corpus()
    root = _build_base_store(base_db, tmp_path_factory.mktemp("store") / "s")
    ingestor = DeltaIngestor(base_db, root)
    stats = ingestor.ingest(delta_rows)
    graph, oracle = _oracle_store(base_db)  # base_db now holds all rows
    layered = TermRelationStore.load(root, graph)
    return {
        "db": base_db,
        "root": root,
        "stats": stats,
        "oracle": oracle,
        "layered": layered,
        "ingestor": ingestor,
        "delta_rows": delta_rows,
    }


class TestLayersModule:
    def test_read_chain_absent_is_empty(self, tmp_path):
        chain = layer_io.read_chain(tmp_path)
        assert chain == {"format": layer_io.LAYER_FORMAT, "layers": []}
        assert layer_io.latest_epoch(tmp_path) == 0

    def test_read_chain_corrupt_names_path(self, tmp_path):
        path = layer_io.chain_path(tmp_path)
        path.parent.mkdir(parents=True)
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ReproError, match=str(path)):
            layer_io.read_chain(tmp_path)

    def test_read_chain_rejects_unknown_format(self, tmp_path):
        path = layer_io.chain_path(tmp_path)
        path.parent.mkdir(parents=True)
        path.write_text(
            json.dumps({"format": "delta-layers-v9", "layers": []}),
            encoding="utf-8",
        )
        with pytest.raises(ReproError, match="delta-layers-v9"):
            layer_io.read_chain(tmp_path)

    def test_write_layer_enforces_epoch_monotonicity(
        self, tmp_path, toy_graph
    ):
        delta = TermRelationStore(toy_graph)
        layer_io.write_layer(
            tmp_path, delta, epoch=3, rows=[], invalidated=[], params={}
        )
        with pytest.raises(ReproError, match="not newer"):
            layer_io.write_layer(
                tmp_path, delta, epoch=3, rows=[], invalidated=[], params={}
            )
        assert layer_io.latest_epoch(tmp_path) == 3

    def test_pending_rows_replay_feed(self, tmp_path, toy_graph):
        delta = TermRelationStore(toy_graph)
        rows_a = [{"table": "papers", "row": {"pid": 90}}]
        rows_b = [{"table": "papers", "row": {"pid": 91}}]
        layer_io.write_layer(
            tmp_path, delta, epoch=1, rows=rows_a, invalidated=[], params={}
        )
        layer_io.write_layer(
            tmp_path, delta, epoch=2, rows=rows_b, invalidated=[], params={}
        )
        assert layer_io.pending_rows(tmp_path, 0) == [
            (1, rows_a), (2, rows_b)
        ]
        assert layer_io.pending_rows(tmp_path, 1) == [(2, rows_b)]
        assert layer_io.pending_rows(tmp_path, 2) == []

    def test_clear_layers(self, tmp_path, toy_graph):
        delta = TermRelationStore(toy_graph)
        layer_io.write_layer(
            tmp_path, delta, epoch=1, rows=[], invalidated=[], params={}
        )
        layer_io.clear_layers(tmp_path)
        assert not layer_io.layers_root(tmp_path).exists()
        assert layer_io.latest_epoch(tmp_path) == 0


class TestLoadErrors:
    """Satellite: TermRelationStore.load must not swallow manifest errors."""

    def test_corrupt_v2_manifest_raises_naming_path(
        self, tmp_path, toy_graph
    ):
        root = tmp_path / "store"
        root.mkdir()
        manifest = root / "manifest.json"
        manifest.write_text("{broken", encoding="utf-8")
        with pytest.raises(ReproError, match=str(manifest)):
            TermRelationStore.load(root, toy_graph)

    def test_missing_manifest_still_reports_not_a_store(
        self, tmp_path, toy_graph
    ):
        root = tmp_path / "empty"
        root.mkdir()
        with pytest.raises(ReproError):
            TermRelationStore.load(root, toy_graph)


class TestDeltaIngestor:
    def test_stats_shape(self, ingested):
        stats = ingested["stats"]
        assert stats.epoch == 1
        assert stats.n_rows == len(ingested["delta_rows"])
        assert stats.n_recomputed > 0
        assert stats.elapsed_seconds > 0

    def test_load_wraps_layered(self, ingested):
        layered = ingested["layered"]
        assert isinstance(layered, LayeredTermRelationStore)
        assert layered.epoch == 1
        assert layered.n_layers == 1
        assert isinstance(layered.base, BinaryTermRelationStore)
        assert isinstance(layered._layers[0].store, BinaryTermRelationStore)

    def test_vocabulary_matches_oracle(self, ingested):
        assert set(ingested["layered"]._keys()) == set(
            ingested["oracle"]._keys()
        )

    def test_recomputed_rows_bit_identical(self, ingested):
        layered, oracle = ingested["layered"], ingested["oracle"]
        recomputed = set(layered._layers[0].store._keys())
        assert recomputed
        for key in recomputed:
            got, want = layered._get(key), oracle._get(key)
            assert got.similar == want.similar, key
            assert got.closeness == want.closeness, key

    def test_every_closeness_row_bit_identical(self, ingested):
        """Stored (ball argument) and lazy (re-BFS) rows are both exact."""
        layered, oracle = ingested["layered"], ingested["oracle"]
        for key in oracle._keys():
            assert layered._get(key).closeness == oracle._get(key).closeness, key

    def test_invalidated_rows_served_lazily(self, ingested):
        layered = ingested["layered"]
        invalidated = layered._layers[0].invalidated
        recomputed = set(layered._layers[0].store._keys())
        assert invalidated
        assert not (invalidated & recomputed)
        probe = sorted(invalidated)[0]
        layered._get(probe)
        assert probe in layered._closeness_cache

    def test_layered_store_is_read_only(self, ingested):
        with pytest.raises(ReproError, match="read-only"):
            ingested["layered"].put(("papers", "title", "x"), [], {})
        with pytest.raises(ReproError, match="read-only"):
            ingested["layered"].put_rows({}, 0, [], [])

    def test_rejects_bad_rows(self, ingested):
        ingestor = ingested["ingestor"]
        with pytest.raises(ReproError, match="at least one row"):
            ingestor.ingest([])
        with pytest.raises(ReproError, match="table"):
            ingestor.ingest([{"row": {"pid": 1}}])

    def test_rejects_file_backed_store(self, tmp_path, toy_db):
        v1 = tmp_path / "store.json"
        v1.write_text("{}", encoding="utf-8")
        with pytest.raises(ReproError, match="directory-backed"):
            DeltaIngestor(toy_db, v1)

    def test_param_precedence_layer_over_base(self, ingested, tmp_path):
        # the layer recorded n_similar=8; a fresh ingestor picks it up
        ingestor = DeltaIngestor(ingested["db"], ingested["root"])
        assert ingestor.n_similar == N_SIMILAR
        assert ingestor.closeness_top == CLOSENESS_TOP
        explicit = DeltaIngestor(
            ingested["db"], ingested["root"], n_similar=3
        )
        assert explicit.n_similar == 3


class TestFailedIngest:
    def test_failed_layer_write_does_not_block_the_next_ingest(
        self, tmp_path, monkeypatch
    ):
        """A layer write that fails must leave nothing the next ingest
        trips over, and the next ingest must stay exact."""
        base_db, delta_rows = _split_corpus(n_held=2, seed=144)
        root = _build_base_store(base_db, tmp_path / "store")

        def broken_items(self):
            raise OSError("disk full")

        with monkeypatch.context() as patch:
            patch.setattr(TermRelationStore, "_items", broken_items)
            with pytest.raises(OSError, match="disk full"):
                DeltaIngestor(base_db, root).ingest(delta_rows)
        assert layer_io.latest_epoch(root) == 0

        # the next run starts from the corpus on disk, like `repro ingest`
        fresh_db, _ = _split_corpus(n_held=2, seed=144)
        assert DeltaIngestor(fresh_db, root).ingest(delta_rows).epoch == 1
        graph, oracle = _oracle_store(fresh_db)
        layered = TermRelationStore.load(root, graph)
        assert layered.n_layers == 1
        assert set(layered._keys()) == set(oracle._keys())
        for key in oracle._keys():
            got, want = layered._get(key), oracle._get(key)
            assert got.closeness == want.closeness, key
        for key in layered._layers[0].store._keys():
            assert layered._get(key).similar == oracle._get(key).similar, key

    def test_legacy_layer_names_compact(self, ingested, tmp_path):
        import shutil

        root = tmp_path / "store"
        shutil.copytree(ingested["root"], root)
        manifest = root / "layers" / "delta-0001" / "store" / "manifest.json"
        manifest.write_text(json.dumps({"format_version": 2, "shards": []}))
        graph = ingested["layered"].graph
        with pytest.raises(ReproError, match="repro store compact"):
            TermRelationStore.load(root, graph)
        # compact needs only layer.json params and the database
        DeltaIngestor(ingested["db"], root).compact()
        store = TermRelationStore.load(root, graph)
        assert isinstance(store, BinaryTermRelationStore)
        assert set(store._keys()) == set(ingested["oracle"]._keys())


class TestMultiLayer:
    def test_two_ingests_stack_and_stay_exact(self, tmp_path):
        base_db, delta_rows = _split_corpus(n_held=4, seed=21)
        first, second = delta_rows[: len(delta_rows) // 2], delta_rows[
            len(delta_rows) // 2:
        ]
        # writes rows in `second` may reference papers in `second`
        first = [r for r in first if r["table"] == "papers"]
        second = [r for r in delta_rows if r not in first]
        root = _build_base_store(base_db, tmp_path / "store")
        ingestor = DeltaIngestor(base_db, root)
        assert ingestor.ingest(first).epoch == 1
        assert ingestor.ingest(second).epoch == 2
        graph, oracle = _oracle_store(base_db)
        layered = TermRelationStore.load(root, graph)
        assert layered.n_layers == 2
        assert layered.epoch == 2
        assert set(layered._keys()) == set(oracle._keys())
        for key in oracle._keys():
            assert (
                layered._get(key).closeness == oracle._get(key).closeness
            ), key
        recomputed_last = set(layered._layers[-1].store._keys())
        for key in recomputed_last:
            assert layered._get(key).similar == oracle._get(key).similar, key

    def test_compact_erases_staleness(self, tmp_path):
        base_db, delta_rows = _split_corpus(n_held=2, seed=34)
        root = _build_base_store(base_db, tmp_path / "store")
        ingestor = DeltaIngestor(base_db, root)
        ingestor.ingest(delta_rows)
        ingestor.compact()
        graph, oracle = _oracle_store(base_db)
        store = TermRelationStore.load(root, graph)
        # chain gone: plain v3 base again
        assert isinstance(store, BinaryTermRelationStore)
        assert not isinstance(store, LayeredTermRelationStore)
        assert layer_io.latest_epoch(root) == 0
        assert set(store._keys()) == set(oracle._keys())
        for key in oracle._keys():
            got, want = store._get(key), oracle._get(key)
            assert got.similar == want.similar, key
            assert got.closeness == want.closeness, key
        assert store.build_info().get("compacted") is True


class TestGraphRebind:
    def test_setter_fans_out_and_clears_lazy_cache(self, ingested):
        layered = ingested["layered"]
        probe = sorted(layered._layers[0].invalidated)[0]
        layered._get(probe)
        assert layered._closeness_cache
        graph = layered.graph
        layered.graph = graph  # rebind (live layer does this every rebuild)
        assert not layered._closeness_cache
        assert layered.base.graph is graph
        assert layered._layers[0].store.graph is graph


class TestLiveIngest:
    """LiveReformulator.ingest / sync_ingest over the layer chain."""

    def _probe_keywords(self, delta_rows):
        title = next(
            r["row"]["title"] for r in delta_rows if r["table"] == "papers"
        )
        return title.split()[:2]

    def test_ingest_then_query_matches_full_rebuild(self, tmp_path):
        from repro.core.reformulator import ReformulatorConfig
        from repro.live import LiveReformulator
        from repro.server.app import scored_to_dict

        base_db, delta_rows = _split_corpus(n_held=2, seed=55)
        root = _build_base_store(base_db, tmp_path / "store")
        live = LiveReformulator(
            base_db, ReformulatorConfig(), relations=root
        )
        stats = live.ingest(delta_rows)
        assert stats.epoch == 1
        assert live.ingest_epoch == 1
        assert live.is_stale

        # oracle: same merged corpus, from-scratch offline build
        graph, _ = _oracle_store(base_db)
        oracle_root = _build_base_store(base_db, tmp_path / "oracle")
        oracle = LiveReformulator(
            base_db, ReformulatorConfig(), relations=oracle_root
        )
        keywords = self._probe_keywords(delta_rows)
        got = [
            scored_to_dict(s)
            for s in live.reformulate_lane(keywords, k=5).suggestions
        ]
        want = [
            scored_to_dict(s)
            for s in oracle.reformulate_lane(keywords, k=5).suggestions
        ]
        assert got == want

    def test_sync_ingest_replays_chain(self, tmp_path):
        from repro.core.reformulator import ReformulatorConfig
        from repro.live import LiveReformulator
        from repro.server.app import scored_to_dict

        base_db, delta_rows = _split_corpus(n_held=2, seed=89)
        root = _build_base_store(base_db, tmp_path / "store")
        live_a = LiveReformulator(
            base_db, ReformulatorConfig(), relations=root
        )
        live_a.ingest(delta_rows)
        # ingesting process is already at the tip: nothing to replay
        assert live_a.sync_ingest() == 0

        # a sibling process: same base corpus, fresh database copy
        sibling_db, _ = _split_corpus(n_held=2, seed=89)
        live_b = LiveReformulator(
            sibling_db, ReformulatorConfig(), relations=root
        )
        assert live_b.ingest_epoch == 0
        assert live_b.sync_ingest() == 1
        assert live_b.ingest_epoch == 1
        assert live_b.sync_ingest() == 0  # idempotent at the tip

        keywords = self._probe_keywords(delta_rows)
        got_a = [
            scored_to_dict(s)
            for s in live_a.reformulate_lane(keywords, k=5).suggestions
        ]
        got_b = [
            scored_to_dict(s)
            for s in live_b.reformulate_lane(keywords, k=5).suggestions
        ]
        assert got_a == got_b

    def test_ingest_requires_relations(self, toy_db):
        from repro.live import LiveReformulator

        live = LiveReformulator(toy_db)
        with pytest.raises(ReproError, match="relation store"):
            live.ingest([{"table": "papers", "row": {"pid": 99}}])

    def test_sync_ingest_noop_without_relations_or_layers(
        self, toy_db, tmp_path
    ):
        from repro.live import LiveReformulator

        assert LiveReformulator(toy_db).sync_ingest() == 0

