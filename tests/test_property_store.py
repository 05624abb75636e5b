"""Property-based tests for term keys and the relation stores.

Hypothesis drives arbitrary term keys — pipes, backslashes, unicode —
through the key codec, the v3 writer and the legacy (v1/v2) migration
path, and checks the structural invariants of the stored relation lists
(truncation length, descending order).
"""

import hashlib
import json
import zlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.graph.closeness import ClosenessExtractor
from repro.offline import (
    OfflinePrecomputer,
    TermRelationStore,
    _parse_term_key,
    _term_key,
)
from repro.storage.legacy import migrate_to_v3

from tests.strategies import field_terms

store_settings = settings(
    deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


class TestTermKeyCodec:
    @given(term=field_terms())
    @store_settings
    def test_roundtrip_any_term(self, term):
        assert _parse_term_key(_term_key(term)) == term

    @given(a=field_terms(), b=field_terms())
    @store_settings
    def test_injective(self, a, b):
        # distinct terms never collide on their serialized key
        if a != b:
            assert _term_key(a) != _term_key(b)

    def test_legacy_unescaped_key_still_parses(self):
        # v1 files wrote text raw; the historical split-at-first-two-pipes
        # reading must survive for them
        parsed = _parse_term_key("papers|title|a|b|c")
        assert parsed.field == ("papers", "title")
        assert parsed.text == "a|b|c"

    def test_malformed_key_raises(self):
        with pytest.raises(ReproError):
            _parse_term_key("just-one-part")


@st.composite
def relation_stores(draw):
    """(terms, similar lists, closeness rows) for an arbitrary store."""
    terms = draw(
        st.lists(field_terms(), min_size=1, max_size=6, unique=True)
    )
    score = st.floats(
        min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False
    )
    rows = []
    for term in terms:
        others = draw(
            st.lists(field_terms(), min_size=0, max_size=4, unique=True)
        )
        similar = [(other, draw(score)) for other in others]
        closeness = {other: draw(score) for other in others}
        rows.append((term, similar, closeness))
    return rows


def _populate(graph, rows):
    store = TermRelationStore(graph)
    for term, similar, closeness in rows:
        store.put(term, similar, closeness)
    return store


def _entry(relations):
    return {"similar": relations.similar, "closeness": relations.closeness}


def write_v1(store, path):
    """A format-v1 JSON file, as older releases wrote it."""
    terms = {key: _entry(rel) for key, rel in store._items()}
    path.write_text(
        json.dumps({"format_version": 1, "terms": terms}), encoding="utf-8"
    )
    return path


def write_v2(store, root, n_shards=4):
    """A format-v2 shard directory, as older releases wrote it."""
    buckets = [{} for _ in range(n_shards)]
    for key, rel in store._items():
        buckets[zlib.crc32(key.encode("utf-8")) % n_shards][key] = _entry(rel)
    root.mkdir(parents=True)
    shards = []
    for index, bucket in enumerate(buckets):
        blob = json.dumps({"terms": bucket}).encode("utf-8")
        name = f"shard-{index:04d}.json"
        (root / name).write_bytes(blob)
        shards.append({"file": name, "sha256": hashlib.sha256(blob).hexdigest()})
    manifest = {"format_version": 2, "n_shards": n_shards, "shards": shards}
    (root / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    return root


class TestStoreRoundtrip:
    @given(rows=relation_stores())
    @store_settings
    def test_v1_roundtrip_identity(self, toy_graph, tmp_path_factory, rows):
        store = _populate(toy_graph, rows)
        tmp = tmp_path_factory.mktemp("prop")
        migrated = migrate_to_v3(
            write_v1(store, tmp / "store.json"), tmp / "v3", toy_graph
        )
        assert dict(migrated._items()) == store._relations

    @given(rows=relation_stores(), n_shards=st.integers(min_value=1, max_value=9))
    @store_settings
    def test_v2_roundtrip_identity(
        self, toy_graph, tmp_path_factory, rows, n_shards
    ):
        store = _populate(toy_graph, rows)
        tmp = tmp_path_factory.mktemp("prop")
        migrated = migrate_to_v3(
            write_v2(store, tmp / "v2", n_shards), tmp / "v3", toy_graph
        )
        assert len(migrated) == len(store)
        assert dict(migrated._items()) == store._relations

    @given(rows=relation_stores())
    @store_settings
    def test_terms_survive_both_formats(
        self, toy_graph, tmp_path_factory, rows
    ):
        store = _populate(toy_graph, rows)
        tmp = tmp_path_factory.mktemp("prop")
        v1 = migrate_to_v3(
            write_v1(store, tmp / "v1.json"), tmp / "from-v1", toy_graph
        )
        v2 = migrate_to_v3(write_v2(store, tmp / "v2"), tmp / "from-v2", toy_graph)
        expected = sorted(map(repr, store.terms()))
        assert sorted(map(repr, v1.terms())) == expected
        assert sorted(map(repr, v2.terms())) == expected


class TestTruncationInvariants:
    @pytest.mark.parametrize("n_similar,closeness_top", [(1, 1), (3, 5), (50, 500)])
    def test_lists_truncated_and_descending(
        self, toy_graph, n_similar, closeness_top
    ):
        precomputer = OfflinePrecomputer(
            toy_graph,
            closeness=ClosenessExtractor(toy_graph, beam_width=None),
            n_similar=n_similar,
            closeness_top=closeness_top,
        )
        store = precomputer.build_store(batch_size=16)
        assert len(store) > 0
        for key in store._keys():
            relations = store._get(key)
            scores = [s for _, s in relations.similar]
            assert len(scores) <= n_similar
            assert scores == sorted(scores, reverse=True)
            assert len(relations.closeness) <= closeness_top
            assert all(v > 0 for v in relations.closeness.values())
