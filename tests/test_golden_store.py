"""Golden regression tests for the relation store formats.

``tests/golden/relations_v1.json`` is a checked-in format-version-1 store
built from the toy corpus (plus one legacy raw-piped key, the
pre-escaping v1 idiom); ``expected_topk.json`` pins the store-backed
top-k suggestions for ten queries.  Together they freeze

* the v1 input format and its migration to v3,
* the store-backed reformulation output end to end, and
* the :class:`ReproError` messages of every load failure mode.
"""

import json
from pathlib import Path

import pytest

from repro.core.reformulator import Reformulator, ReformulatorConfig
from repro.errors import ReproError
from repro.graph.closeness import ClosenessExtractor
from repro.index.inverted import FieldTerm
from repro.offline import OfflinePrecomputer, TermRelationStore
from repro.storage.binary import BinaryTermRelationStore
from repro.storage.legacy import migrate_to_v3, read_legacy_store

from tests.test_property_store import write_v2

GOLDEN = Path(__file__).parent / "golden"
V1_FIXTURE = GOLDEN / "relations_v1.json"
EXPECTED = json.loads((GOLDEN / "expected_topk.json").read_text())


@pytest.fixture(scope="module")
def golden_store(toy_graph, tmp_path_factory):
    root = tmp_path_factory.mktemp("golden") / "v3"
    migrate_to_v3(V1_FIXTURE, root, toy_graph)
    return TermRelationStore.load(root, toy_graph)


@pytest.fixture(scope="module")
def golden_reformulator(toy_graph, golden_store):
    return Reformulator(
        toy_graph,
        ReformulatorConfig(n_candidates=5),
        similarity=golden_store,
        closeness=golden_store,
    )


def _golden_v2(toy_graph, root):
    """The golden fixture rewritten as a v2 shard directory."""
    return write_v2(read_legacy_store(V1_FIXTURE, toy_graph), root, 2)


class TestV1BackCompat:
    def test_loads(self, golden_store, toy_index):
        # vocabulary terms + the injected legacy key
        assert isinstance(golden_store, BinaryTermRelationStore)
        assert len(golden_store) == toy_index.vocabulary_size() + 1

    def test_legacy_raw_piped_key_parses(self, golden_store):
        legacy = FieldTerm(("papers", "title"), "odd|piped term")
        assert legacy in golden_store
        assert any(t == legacy for t in golden_store.terms())

    def test_migrates_to_v3(self, golden_store):
        assert golden_store.build_info() == {
            "migrated_from": str(V1_FIXTURE),
            "migrated_from_version": 1,
        }

    def test_v2_input_migrates_to_identical_relations(
        self, toy_graph, golden_store, tmp_path
    ):
        migrated = migrate_to_v3(
            _golden_v2(toy_graph, tmp_path / "v2"), tmp_path / "v3", toy_graph
        )
        assert migrated.build_info()["migrated_from_version"] == 2
        assert dict(migrated._items()) == dict(golden_store._items())


class TestGoldenTopK:
    @pytest.mark.parametrize("query", sorted(EXPECTED), ids=str)
    def test_fixture_backed_topk(self, golden_reformulator, query):
        got = [
            (s.text, s.score)
            for s in golden_reformulator.reformulate(query.split(), k=5)
        ]
        # the migrated v3 store answers the pinned output bit for bit
        assert got == [tuple(pair) for pair in EXPECTED[query]]

    def test_freshly_built_store_matches_golden(self, toy_graph):
        """The current batched pipeline reproduces the pinned output."""
        precomputer = OfflinePrecomputer(
            toy_graph,
            closeness=ClosenessExtractor(toy_graph, beam_width=None),
            n_similar=8,
            closeness_top=30,
        )
        store = precomputer.build_store(batch_size=16)
        reformulator = Reformulator(
            toy_graph,
            ReformulatorConfig(n_candidates=5),
            similarity=store,
            closeness=store,
        )
        for query, expected in EXPECTED.items():
            got = [s.text for s in reformulator.reformulate(query.split(), k=5)]
            assert got == [t for t, _ in expected], query


class TestErrorMessages:
    """The load and migrate failure modes keep their actionable messages."""

    def test_missing_file(self, toy_graph, tmp_path):
        with pytest.raises(ReproError, match="cannot load term relations"):
            TermRelationStore.load(tmp_path / "nope.json", toy_graph)
        with pytest.raises(ReproError, match="cannot load term relations"):
            migrate_to_v3(tmp_path / "nope.json", tmp_path / "v3", toy_graph)

    def test_missing_manifest(self, toy_graph, tmp_path):
        empty = tmp_path / "empty-store"
        empty.mkdir()
        with pytest.raises(ReproError, match="cannot load term relations"):
            TermRelationStore.load(empty, toy_graph)

    def test_unsupported_version(self, toy_graph, tmp_path):
        path = tmp_path / "v99.json"
        path.write_text(json.dumps({"format_version": 99, "terms": {}}))
        with pytest.raises(
            ReproError, match="unsupported format version 99"
        ):
            migrate_to_v3(path, tmp_path / "v3", toy_graph)
        root = tmp_path / "v99"
        root.mkdir()
        (root / "manifest.json").write_text(json.dumps({"format_version": 99}))
        with pytest.raises(
            ReproError, match="unsupported format version 99"
        ):
            TermRelationStore.load(root, toy_graph)

    def test_load_names_migrate_for_legacy_inputs(self, toy_graph, tmp_path):
        with pytest.raises(ReproError, match="repro store migrate"):
            TermRelationStore.load(V1_FIXTURE, toy_graph)
        root = _golden_v2(toy_graph, tmp_path / "v2")
        with pytest.raises(ReproError, match="repro store migrate"):
            TermRelationStore.load(root, toy_graph)

    def test_manifest_missing_shard_table(self, toy_graph, tmp_path):
        root = tmp_path / "broken"
        root.mkdir()
        (root / "manifest.json").write_text(
            json.dumps({"format_version": 2, "n_terms": 0})
        )
        with pytest.raises(ReproError, match="shard table"):
            migrate_to_v3(root, tmp_path / "v3", toy_graph)

    def test_shard_checksum_mismatch(self, toy_graph, tmp_path):
        root = _golden_v2(toy_graph, tmp_path / "v2")
        shard = root / "shard-0000.json"
        shard.write_bytes(shard.read_bytes() + b" ")
        with pytest.raises(ReproError, match="checksum mismatch"):
            migrate_to_v3(root, tmp_path / "v3", toy_graph)
        assert not (tmp_path / "v3").exists()

    def test_missing_shard_file(self, toy_graph, tmp_path):
        root = _golden_v2(toy_graph, tmp_path / "v2")
        (root / "shard-0001.json").unlink()
        with pytest.raises(ReproError, match="cannot load term relations"):
            migrate_to_v3(root, tmp_path / "v3", toy_graph)
