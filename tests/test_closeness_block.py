"""Differential test: the Eq 8 block read against the per-cell loop.

``pair_closeness_matrix`` reads every known state pair of two adjacent
candidate lists with one ``closeness_block`` call and masks the rest; the
oracle (:mod:`tests.closeness_oracle`) makes one ``closeness(a, b)`` call
per cell.  Both must give the same bytes (``tobytes()``, so a ``-0.0``
or a reordered float fails) on every closeness backend: the v3 store,
the in-memory store, a layered store with a shadowing delta layer and
invalidated rows, the live BFS extractor and the feedback adaptor.

Candidate lists mix void states, unknown originals (``node_id=None``),
the same node in both lists, nodes missing from the key table, keys
with no stored row and stored rows with an empty closeness row.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.candidates import CandidateState, StateKind
from repro.core.hmm import pair_closeness_matrix
from repro.extensions.feedback import FeedbackAdaptor
from repro.graph.closeness import ClosenessExtractor
from repro.graph.nodes import Node
from repro.index.inverted import FieldTerm
from repro.offline import DeltaIngestor, TermRelationStore, _parse_term_key
from repro.storage.binary import BinaryTermRelationStore, write_store_v3

from tests.closeness_oracle import reference_pair_closeness_matrix
from tests.test_delta_ingest import (
    _build_base_store,
    _oracle_store,
    _split_corpus,
)

block_settings = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

VOID = CandidateState(StateKind.VOID, None, None, 1e-4)
UNKNOWN = CandidateState(StateKind.ORIGINAL, None, "mystery", 1.0)
VOID_CLOSENESS = 1e-3

#: keys a store may hold that no graph node resolves to
PHANTOMS = [FieldTerm(("papers", "title"), f"phantom{i}") for i in range(3)]

#: any float64, with signed zeros, a subnormal, infinities, NaN and a
#: negative value drawn often
SCORES = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 5e-324, -1.0, float("inf"), float("-inf"), float("nan")]
    ),
    st.floats(width=64),
)


def _node_state(node_id):
    return CandidateState(StateKind.SIMILAR, node_id, f"n{node_id}", 0.5)


def _states(pool):
    node = st.sampled_from(pool).map(_node_state)
    return st.one_of(node, node, node, st.sampled_from([VOID, UNKNOWN]))


@st.composite
def list_pairs(draw, pool):
    """Two adjacent candidate lists; the second may reuse the first's
    nodes, so same-node cells occur."""
    prev = draw(st.lists(_states(pool), min_size=1, max_size=6))
    shared = sorted({s.node_id for s in prev if s.node_id is not None})
    curr = draw(st.lists(_states(pool + shared * 4), min_size=1, max_size=6))
    return prev, curr


def assert_block_matches(prev, curr, backend, *oracles):
    """Block read == per-cell loop over *backend* and every oracle."""
    got = pair_closeness_matrix(prev, curr, backend, VOID_CLOSENESS)
    assert got.dtype == np.float64
    assert got.shape == (len(prev), len(curr))
    for oracle in (backend,) + oracles:
        want = reference_pair_closeness_matrix(
            prev, curr, oracle, VOID_CLOSENESS
        )
        assert got.tobytes() == want.tobytes(), (got, want)


def _term_ids(graph):
    return sorted(graph.registry.term_ids())


@st.composite
def stores(draw, graph):
    """(store, node pool): a random in-memory store over a few of
    *graph*'s terms plus phantom keys, and the nodes to draw states from.

    The pool holds the store's terms, a term outside the key table and a
    non-term node.  Terms named only as columns are keys with no stored
    row; a stored row may be empty.
    """
    term_ids = _term_ids(graph)
    universe = draw(st.lists(
        st.sampled_from(term_ids), min_size=2, max_size=8, unique=True
    ))
    keys = [graph.node(i).payload for i in universe] + PHANTOMS
    store = TermRelationStore(graph)
    for term in keys:
        if draw(st.booleans()):
            store.put(term, [], {
                col: draw(SCORES) for col in keys if draw(st.booleans())
            })
    outside = [i for i in term_ids if i not in universe][:1]
    non_term = min(set(range(len(graph.registry))) - set(term_ids))
    return store, universe + outside + [non_term]


class TestBlockEqualsLoop:
    @given(data=st.data())
    @block_settings
    def test_v3_store(self, toy_graph, tmp_path_factory, data):
        source, pool = data.draw(stores(toy_graph))
        root = write_store_v3(source, tmp_path_factory.mktemp("v3") / "s")
        v3 = BinaryTermRelationStore.load(root, toy_graph)
        prev, curr = data.draw(list_pairs(pool))
        assert_block_matches(prev, curr, v3, source)

    @given(data=st.data())
    @block_settings
    def test_in_memory_store(self, toy_graph, data):
        store, pool = data.draw(stores(toy_graph))
        prev, curr = data.draw(list_pairs(pool))
        assert_block_matches(prev, curr, store)

    @given(data=st.data())
    @block_settings
    def test_closeness_extractor(self, toy_graph, data):
        extractor = ClosenessExtractor(toy_graph, beam_width=None)
        pool = list(range(len(toy_graph.registry)))
        prev, curr = data.draw(list_pairs(pool))
        assert_block_matches(prev, curr, extractor)

    @given(data=st.data())
    @block_settings
    def test_feedback_adaptor(self, toy_graph, toy_similarity, data):
        adaptor = FeedbackAdaptor(
            toy_graph,
            toy_similarity,
            ClosenessExtractor(toy_graph, beam_width=None),
        )
        pool = list(range(len(toy_graph.registry)))
        pairs = st.tuples(st.sampled_from(pool), st.sampled_from(pool))
        adaptor._clos_boost.update(data.draw(st.dictionaries(
            pairs, st.floats(min_value=1 / 8, max_value=8.0), max_size=20
        )))
        prev, curr = data.draw(list_pairs(pool))
        assert_block_matches(prev, curr, adaptor)


@pytest.fixture(scope="module")
def layered(tmp_path_factory):
    """A v3 base plus one ingest — a delta layer that shadows recomputed
    rows and invalidates others — beside a from-scratch merged build.

    The node pool is biased toward the shadowed and invalidated rows,
    which a uniform draw over the vocabulary would rarely reach.
    """
    base_db, delta_rows = _split_corpus()
    root = _build_base_store(base_db, tmp_path_factory.mktemp("store") / "s")
    DeltaIngestor(base_db, root).ingest(delta_rows)
    graph, merged = _oracle_store(base_db)
    store = TermRelationStore.load(root, graph)
    layer = store._layers[0]
    assert layer.invalidated and len(layer.store)
    focus = sorted(layer.invalidated)[:8] + sorted(layer.store._keys())[:8]
    pool = sorted({
        graph.registry.get_id(Node.for_term(_parse_term_key(key)))
        for key in focus
    })
    return store, merged, pool + _term_ids(graph)[:12]


@given(data=st.data())
@block_settings
def test_layered_store(layered, data):
    store, merged, pool = layered
    prev, curr = data.draw(list_pairs(pool))
    assert_block_matches(prev, curr, store, merged)


class CountingCloseness:
    """Records how the matrix builder reads its backend and answers with
    a fixed block."""

    def __init__(self, block):
        self.block = np.array(block, dtype=np.float64)
        self.calls = []

    def closeness(self, a, b):
        raise AssertionError("point lookup on the block path")

    def closeness_block(self, rows, cols):
        self.calls.append((list(rows), list(cols)))
        return self.block.copy()


def test_one_block_call_then_masks_and_clamp():
    prev = [VOID, UNKNOWN, _node_state(1), _node_state(2)]
    curr = [_node_state(2), VOID, _node_state(3)]
    # raw values for (1,2) (1,3) / (2,2) (2,3): NaN and -0.0 clamp to
    # +0.0, the same-node cell (2,2) reads 0 whatever is stored
    backend = CountingCloseness([[float("nan"), 2.5], [5.0, -0.0]])
    raw = pair_closeness_matrix(prev, curr, backend, VOID_CLOSENESS)
    assert backend.calls == [([1, 2], [2, 3])]
    vc = VOID_CLOSENESS
    want = np.array([
        [vc, vc, vc],
        [0.0, vc, 0.0],
        [0.0, vc, 2.5],
        [0.0, vc, 0.0],
    ])
    assert raw.tobytes() == want.tobytes()
