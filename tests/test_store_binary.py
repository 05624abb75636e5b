"""Tests for the v3 binary memmap store (`repro.storage.binary`).

Covers the format roundtrip (including adversarial term keys), legacy
(v1/v2) → v3 migration down to bit-identical store-backed
reformulations, corruption/checksum rejection, concurrent multi-process
opens over one physical store, and migration entry points.
"""

from __future__ import annotations

import json
import multiprocessing
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.reformulator import Reformulator, ReformulatorConfig
from repro.errors import ReproError
from repro.graph.closeness import ClosenessExtractor
from repro.offline import OfflinePrecomputer, TermRelationStore
from repro.storage.binary import (
    BLOCK_FILES,
    BinaryTermRelationStore,
    write_store_v3,
)
from repro.storage.legacy import migrate_to_v3

from tests.strategies import field_terms  # noqa: F401  (used via strategy)
from tests.test_property_store import (
    _populate,
    relation_stores,
    write_v1,
    write_v2,
)

store_settings = settings(
    deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@pytest.fixture(scope="module")
def toy_store(toy_graph):
    """A full precomputed store over the toy graph."""
    precomputer = OfflinePrecomputer(
        toy_graph,
        closeness=ClosenessExtractor(toy_graph, beam_width=None),
        n_similar=10,
        closeness_top=50,
    )
    return precomputer.build_store(batch_size=16)


@pytest.fixture(scope="module")
def toy_v3(toy_store, toy_graph, tmp_path_factory):
    root = write_store_v3(
        toy_store, tmp_path_factory.mktemp("v3") / "store-v3"
    )
    return BinaryTermRelationStore.load(root, toy_graph)


class TestRoundtrip:
    @given(rows=relation_stores())
    @store_settings
    def test_items_identity_any_keys(self, toy_graph, tmp_path_factory, rows):
        # pipes, backslashes, unicode in keys all survive the byte-sorted
        # string table and come back exactly
        store = _populate(toy_graph, rows)
        root = write_store_v3(store, tmp_path_factory.mktemp("prop") / "v3")
        loaded = BinaryTermRelationStore.load(root, toy_graph)
        assert len(loaded) == len(store)
        assert dict(loaded._items()) == store._relations
        for term, _similar, _closeness in rows:
            assert term in loaded

    def test_full_store_items_match_v2(
        self, toy_store, toy_graph, toy_v3, tmp_path
    ):
        from_v2 = migrate_to_v3(
            write_v2(toy_store, tmp_path / "v2"), tmp_path / "v3", toy_graph
        )
        assert dict(toy_v3._items()) == dict(from_v2._items())
        assert sorted(map(repr, toy_v3.terms())) == sorted(
            map(repr, from_v2.terms())
        )

    def test_load_dispatch_picks_binary(self, toy_v3, toy_graph):
        loaded = TermRelationStore.load(toy_v3.root, toy_graph)
        assert isinstance(loaded, BinaryTermRelationStore)
        # a manifest path works too
        loaded = TermRelationStore.load(
            toy_v3.root / "manifest.json", toy_graph
        )
        assert isinstance(loaded, BinaryTermRelationStore)

    def test_empty_store(self, toy_graph, tmp_path):
        root = write_store_v3(TermRelationStore(toy_graph), tmp_path / "v3")
        loaded = BinaryTermRelationStore.load(root, toy_graph)
        assert len(loaded) == 0
        assert loaded._keys() == []

    def test_put_raises_read_only(self, toy_v3):
        with pytest.raises(ReproError, match="read-only"):
            toy_v3.put(None, [], {})
        with pytest.raises(ReproError, match="read-only"):
            toy_v3.put_rows({}, 0, [], [])

    def test_build_info_and_blocks(self, toy_store, toy_graph, tmp_path):
        root = write_store_v3(
            toy_store, tmp_path / "v3", build_info={"source": "toy"}
        )
        loaded = BinaryTermRelationStore.load(root, toy_graph)
        assert loaded.build_info() == {"source": "toy"}
        roles = {block["role"] for block in loaded.blocks_info()}
        assert roles == set(BLOCK_FILES)


    def test_write_replaces_a_store_and_refuses_other_dirs(
        self, toy_store, toy_graph, tmp_path
    ):
        root = write_store_v3(TermRelationStore(toy_graph), tmp_path / "v3")
        write_store_v3(toy_store, root)
        assert len(BinaryTermRelationStore.load(root, toy_graph)) == len(
            toy_store
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["v3"]
        precious = tmp_path / "data"
        precious.mkdir()
        (precious / "notes.txt").write_text("keep me")
        with pytest.raises(ReproError, match="refusing to replace"):
            write_store_v3(toy_store, precious)
        assert (precious / "notes.txt").read_text() == "keep me"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "v3"]


class TestOnlineInterfaces:
    def test_point_lookups_match_dict_store(self, toy_store, toy_v3):
        # every stored pair answers identically through the memmap paths
        node_ids = [
            toy_store.graph.resolve_text_one(text)
            for text in ("probabilistic", "pattern", "uncertain", "vldb")
        ]
        for a in node_ids:
            for b in node_ids:
                assert toy_v3.closeness(a, b) == toy_store.closeness(a, b)
                assert toy_v3.similarity(a, b) == toy_store.similarity(a, b)

    def test_similar_nodes_match(self, toy_store, toy_v3):
        for text in ("probabilistic", "pattern", "mining"):
            node_id = toy_store.graph.resolve_text_one(text)
            for top_n in (1, 3, 100):
                assert [
                    (s.node_id, s.score)
                    for s in toy_v3.similar_nodes(node_id, top_n)
                ] == [
                    (s.node_id, s.score)
                    for s in toy_store.similar_nodes(node_id, top_n)
                ]

    def test_reformulation_bit_identical_across_formats(
        self, toy_store, toy_graph, toy_v3, tmp_path
    ):
        # the acceptance bar: store-backed top-k identical to the digit,
        # between the in-memory store, its v3 write and a v2 migration
        v2 = migrate_to_v3(
            write_v2(toy_store, tmp_path / "v2"), tmp_path / "v3", toy_graph
        )
        config = ReformulatorConfig(n_candidates=5)
        queries = [
            ["probabilistic", "query"],
            ["pattern", "mining"],
            ["uncertain", "data", "management"],
        ]
        for query in queries:
            expected = [
                (sq.terms, sq.score)
                for sq in Reformulator(
                    toy_graph, config, similarity=v2, closeness=v2
                ).reformulate(query, k=5)
            ]
            for store in (toy_v3, toy_store):
                got = [
                    (sq.terms, sq.score)
                    for sq in Reformulator(
                        toy_graph, config, similarity=store, closeness=store
                    ).reformulate(query, k=5)
                ]
                assert got == expected


class TestCorruptionRejection:
    def _copy_store(self, toy_v3, tmp_path):
        import shutil

        dest = tmp_path / "copy"
        shutil.copytree(toy_v3.root, dest)
        return dest

    @pytest.mark.parametrize(
        "victim", ["close_scores.npy", "keys.bin", "similar_cols.npy"]
    )
    def test_flipped_byte_rejected(self, toy_v3, toy_graph, tmp_path, victim):
        root = self._copy_store(toy_v3, tmp_path)
        path = root / victim
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ReproError, match="checksum mismatch"):
            BinaryTermRelationStore.load(root, toy_graph)

    def test_missing_block_rejected(self, toy_v3, toy_graph, tmp_path):
        root = self._copy_store(toy_v3, tmp_path)
        (root / "similar_scores.npy").unlink()
        with pytest.raises(ReproError):
            BinaryTermRelationStore.load(root, toy_graph)

    def test_truncated_block_fails_even_unverified(
        self, toy_v3, toy_graph, tmp_path
    ):
        # verify=False skips hashing, but the structural boundary checks
        # still catch a block whose shape disagrees with its siblings
        root = self._copy_store(toy_v3, tmp_path)
        path = root / "key_offsets.npy"
        np.save(path, np.load(path)[:-2])
        with pytest.raises(ReproError):
            BinaryTermRelationStore.load(root, toy_graph, verify=False)

    def test_manifest_tampered_version(self, toy_v3, toy_graph, tmp_path):
        root = self._copy_store(toy_v3, tmp_path)
        manifest = json.loads((root / "manifest.json").read_text())
        manifest["format_version"] = 9
        (root / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ReproError, match="format version"):
            BinaryTermRelationStore.load(root, toy_graph)

    def test_verify_false_skips_hashing(self, toy_v3, toy_graph, tmp_path):
        # flip a byte *without* breaking npy structure: unverified open
        # succeeds (trusted-store fast path), verified open refuses
        root = self._copy_store(toy_v3, tmp_path)
        path = root / "close_scores.npy"
        blob = bytearray(path.read_bytes())
        if len(blob) > 128:  # corrupt a data byte, not the npy header
            blob[-1] ^= 0x01
            path.write_bytes(bytes(blob))
            BinaryTermRelationStore.load(root, toy_graph, verify=False)
            with pytest.raises(ReproError, match="checksum mismatch"):
                BinaryTermRelationStore.load(root, toy_graph, verify=True)


class TestMigration:
    def test_migrate_from_v1(self, toy_store, toy_graph, tmp_path):
        migrated = migrate_to_v3(
            write_v1(toy_store, tmp_path / "v1.json"), tmp_path / "v3",
            toy_graph,
        )
        assert isinstance(migrated, BinaryTermRelationStore)
        assert dict(migrated._items()) == dict(toy_store._items())
        info = migrated.build_info()
        assert info["migrated_from_version"] == 1

    def test_migrate_from_v2(self, toy_store, toy_graph, tmp_path):
        write_v2(toy_store, tmp_path / "v2")
        migrated = migrate_to_v3(tmp_path / "v2", tmp_path / "v3", toy_graph)
        assert dict(migrated._items()) == dict(toy_store._items())
        assert migrated.build_info()["migrated_from_version"] == 2

    def test_migrate_v3_to_v3_rejected(self, toy_v3, toy_graph, tmp_path):
        with pytest.raises(ReproError, match="already a binary"):
            migrate_to_v3(toy_v3.root, tmp_path / "again", toy_graph)


def _child_probe(root, conn):
    """Open the shared store in a forked child and report a lookup."""
    try:
        from repro.index.inverted import InvertedIndex
        from repro.graph.tat import TATGraph
        from tests.conftest import build_toy_database

        db = build_toy_database()
        graph = TATGraph(db, InvertedIndex(db).build())
        store = BinaryTermRelationStore.load(root, graph)
        a = graph.resolve_text_one("probabilistic")
        b = graph.resolve_text_one("pattern")
        conn.send(("ok", os.getpid(), store.closeness(a, b), len(store)))
    except BaseException as exc:  # pragma: no cover - failure reporting
        conn.send(("error", repr(exc), None, None))
    finally:
        conn.close()


class TestConcurrentOpen:
    def test_multi_process_open_same_answers(self, toy_store, toy_v3):
        # N processes mmap the same physical blocks and answer identically
        ctx = multiprocessing.get_context("fork")
        procs, pipes = [], []
        for _ in range(3):
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=_child_probe, args=(str(toy_v3.root), child)
            )
            proc.start()
            procs.append(proc)
            pipes.append(parent)
        results = [pipe.recv() for pipe in pipes]
        for proc in procs:
            proc.join(timeout=60)
        a = toy_store.graph.resolve_text_one("probabilistic")
        b = toy_store.graph.resolve_text_one("pattern")
        expected = toy_store.closeness(a, b)
        pids = set()
        for status, pid, closeness, n_terms in results:
            assert status == "ok", pid
            pids.add(pid)
            assert closeness == expected
            assert n_terms == len(toy_store)
        assert len(pids) == 3  # genuinely distinct processes
