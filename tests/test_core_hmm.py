"""Unit tests for repro.core.hmm."""

import numpy as np
import pytest

from repro.core.candidates import CandidateListBuilder, CandidateState, StateKind
from repro.core.hmm import IndexFrequency, ReformulationHMM
from repro.errors import ReformulationError


class DictCloseness:
    """Closeness stub driven by an explicit pair dict."""

    def __init__(self, pairs):
        self.pairs = pairs

    def closeness(self, a, b):
        return self.pairs.get((a, b), self.pairs.get((b, a), 0.0))

    def closeness_block(self, rows, cols):
        return np.array(
            [[self.closeness(a, b) for b in cols] for a in rows],
            dtype=np.float64,
        ).reshape(len(rows), len(cols))


class ConstFrequency:
    def __init__(self, freqs=None):
        self.freqs = freqs or {}

    def frequency(self, node_id):
        return self.freqs.get(node_id, 1.0)


def sim_state(node_id, text, sim):
    return CandidateState(StateKind.SIMILAR, node_id, text, sim)


def tiny_states():
    return [
        [sim_state(0, "a0", 0.6), sim_state(1, "a1", 0.4)],
        [sim_state(2, "b0", 0.9), sim_state(3, "b1", 0.1)],
    ]


def build_tiny(lam=1.0, closeness=None, freqs=None):
    return ReformulationHMM.build(
        query=["qa", "qb"],
        states=tiny_states(),
        closeness=closeness or DictCloseness({
            (0, 2): 1.0, (0, 3): 0.5, (1, 2): 0.25, (1, 3): 0.0,
        }),
        frequency=ConstFrequency(freqs),
        smoothing_lambda=lam,
    )


class TestBuild:
    def test_shapes(self):
        hmm = build_tiny()
        assert hmm.length == 2
        assert hmm.pi.shape == (2,)
        assert [e.shape for e in hmm.emissions] == [(2,), (2,)]
        assert hmm.transitions[0].shape == (2, 2)

    def test_pi_frequency_proportional(self):
        hmm = build_tiny(freqs={0: 3.0, 1: 1.0})
        assert hmm.pi.tolist() == [0.75, 0.25]

    def test_emissions_normalized(self):
        hmm = build_tiny()
        for e in hmm.emissions:
            assert e.sum() == pytest.approx(1.0)

    def test_emissions_proportional_to_sim(self):
        hmm = build_tiny(lam=1.0)
        assert hmm.emissions[0][0] == pytest.approx(0.6)
        assert hmm.emissions[1][0] == pytest.approx(0.9)

    def test_transitions_from_closeness(self):
        hmm = build_tiny(lam=1.0)
        assert hmm.transitions[0][0, 0] == pytest.approx(1.0)
        assert hmm.transitions[0][1, 1] == pytest.approx(0.0)

    def test_smoothing_lifts_zero_transition(self):
        hmm = build_tiny(lam=0.8)
        assert hmm.transitions[0][1, 1] > 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ReformulationError):
            ReformulationHMM.build(
                query=["one"],
                states=tiny_states(),
                closeness=DictCloseness({}),
                frequency=ConstFrequency(),
            )

    def test_empty_position_rejected(self):
        with pytest.raises(ReformulationError):
            ReformulationHMM.build(
                query=["a", "b"],
                states=[tiny_states()[0], []],
                closeness=DictCloseness({}),
                frequency=ConstFrequency(),
            )

    def test_search_space(self):
        assert build_tiny().search_space == 4

    def test_repeated_node_transition_zero(self):
        """The same term in adjacent positions gets closeness 0."""
        states = [
            [sim_state(0, "x", 1.0)],
            [sim_state(0, "x", 1.0)],
        ]
        hmm = ReformulationHMM.build(
            query=["qa", "qb"],
            states=states,
            closeness=DictCloseness({(0, 0): 9.0}),
            frequency=ConstFrequency(),
            smoothing_lambda=1.0,
        )
        assert hmm.transitions[0][0, 0] == 0.0

    def test_void_transition_gets_floor(self):
        states = [
            [sim_state(0, "x", 1.0)],
            [CandidateState(StateKind.VOID, None, None, 1e-4)],
        ]
        hmm = ReformulationHMM.build(
            query=["qa", "qb"],
            states=states,
            closeness=DictCloseness({}),
            frequency=ConstFrequency(),
            smoothing_lambda=1.0,
            void_closeness=0.001,
        )
        assert hmm.transitions[0][0, 0] == pytest.approx(0.001)

    def test_unknown_term_transition_zero_raw(self):
        states = [
            [sim_state(None, "mystery", 1.0)],
            [sim_state(2, "b0", 1.0)],
        ]
        hmm = ReformulationHMM.build(
            query=["qa", "qb"],
            states=states,
            closeness=DictCloseness({}),
            frequency=ConstFrequency(),
            smoothing_lambda=1.0,
        )
        assert hmm.transitions[0][0, 0] == 0.0


class TestScoring:
    def test_path_score_eq10(self):
        hmm = build_tiny(lam=1.0, freqs={0: 1.0, 1: 1.0})
        # path (0, 0): pi=0.5, B0=0.6, A=1.0, B1=0.9
        assert hmm.path_score([0, 0]) == pytest.approx(0.5 * 0.6 * 1.0 * 0.9)

    def test_path_length_validated(self):
        with pytest.raises(ReformulationError):
            build_tiny().path_score([0])

    def test_scored_query_materialization(self):
        hmm = build_tiny()
        q = hmm.scored_query([0, 1])
        assert q.terms == ("a0", "b1")
        assert q.state_path == (0, 1)
        assert q.score == pytest.approx(hmm.path_score([0, 1]))

    def test_identity_path_detection(self):
        states = [
            [sim_state(0, "qa", 1.0), sim_state(1, "other", 0.5)],
            [sim_state(2, "qb", 1.0)],
        ]
        hmm = ReformulationHMM.build(
            query=["qa", "qb"],
            states=states,
            closeness=DictCloseness({}),
            frequency=ConstFrequency(),
        )
        assert hmm.is_identity_path([0, 0])
        assert not hmm.is_identity_path([1, 0])


class TestIndexFrequency:
    def test_uses_collection_tf(self, toy_graph):
        freq = IndexFrequency(toy_graph)
        node_id = toy_graph.resolve_text_one("probabilistic")
        assert freq.frequency(node_id) == 2.0

    def test_tuple_node_gets_one(self, toy_graph):
        freq = IndexFrequency(toy_graph)
        node_id = toy_graph.tuple_node_id(("papers", 0))
        assert freq.frequency(node_id) == 1.0

    def test_single_position_query(self):
        hmm = ReformulationHMM.build(
            query=["solo"],
            states=[tiny_states()[0]],
            closeness=DictCloseness({}),
            frequency=ConstFrequency(),
        )
        assert hmm.length == 1
        assert hmm.transitions == []
        assert hmm.path_score([1]) == pytest.approx(
            float(hmm.pi[1] * hmm.emissions[0][1])
        )
