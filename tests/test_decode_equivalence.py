"""Differential decode-oracle suite: every lane pair, adversarial HMMs.

Hypothesis drives :mod:`tests.decode_oracle` with adversarial instances
(exact ties, zeros, magnitude skew, single-candidate positions,
1-keyword queries, k beyond the lattice) — over 500 generated instances
per run, derandomized so CI is deterministic.  The explicit constructions
at the bottom pin the tie-break contract on hand-built tied scores, and
``TestStreamedPipeline`` checks that the serving pipeline's streamed A*
answers exactly as a fixed-size decode of its ceiling would.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.astar import AStarSearch, astar_topk
from repro.core.candidates import CandidateState, StateKind
from repro.core.enumeration import brute_force_topk
from repro.core.hmm import ReformulationHMM
from repro.core.reformulator import ALGORITHMS, Reformulator, ReformulatorConfig

from tests.decode_oracle import (
    TOPK_LANES,
    TWINNED,
    check_topk_equivalence,
    run_topk_lanes,
    signature,
)
from tests.strategies import (
    hmm_instances,
    hmms,
    labelled_instances,
    topk_values,
)


class TestDifferentialOracle:
    """≥500 generated instances through every decode lane pair."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(hmm_instances(), topk_values)
    def test_topk_contract_adversarial(self, hmm, k):
        check_topk_equivalence(hmm, k)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(hmms(), st.integers(min_value=1, max_value=8))
    def test_topk_contract_baseline(self, hmm, k):
        check_topk_equivalence(hmm, k)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(hmm_instances())
    def test_topk_k_beyond_lattice(self, hmm):
        """k > path count: every lane returns the whole (sorted) space."""
        check_topk_equivalence(hmm, hmm.search_space + 7)

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(hmm_instances())
    def test_top1_contract(self, hmm):
        """The single best reformulation is contract 4 at k=1."""
        check_topk_equivalence(hmm, 1)


def build_hmm(pi, emissions, transitions) -> ReformulationHMM:
    """Hand-built HMM over synthetic candidate states."""
    states = [
        [
            CandidateState(StateKind.SIMILAR, i * 16 + j, f"t{i}_{j}", 1.0)
            for j in range(len(e))
        ]
        for i, e in enumerate(emissions)
    ]
    return ReformulationHMM(
        query=tuple(f"q{i}" for i in range(len(emissions))),
        states=states,
        pi=np.asarray(pi, dtype=np.float64),
        emissions=[np.asarray(e, dtype=np.float64) for e in emissions],
        transitions=[np.asarray(t, dtype=np.float64) for t in transitions],
    )


def lex_paths(sizes, count):
    """First *count* paths of the product space in lexicographic order."""
    paths = [()]
    for n in sizes:
        paths = [p + (j,) for p in paths for j in range(n)]
    return paths[:count]


class TestDeliberateTies:
    """Regression tests for tie-breaking drift: hand-built tied scores."""

    def test_uniform_hmm_every_lane_returns_lex_order(self):
        """All 27 paths tie exactly → top-5 is the lex-first 5, everywhere."""
        third = 1.0 / 3.0
        hmm = build_hmm(
            pi=[third] * 3,
            emissions=[[third] * 3] * 3,
            transitions=[np.ones((3, 3))] * 2,
        )
        expected = lex_paths([3, 3, 3], 5)
        for name, res in run_topk_lanes(hmm, 5).items():
            assert [q.state_path for q in res] == expected, name
            assert len({q.score for q in res}) == 1, name

    def test_uniform_hmm_top1_is_all_zeros(self):
        third = 1.0 / 3.0
        hmm = build_hmm(
            pi=[third] * 3,
            emissions=[[third] * 3] * 3,
            transitions=[np.ones((3, 3))] * 2,
        )
        for name, res in run_topk_lanes(hmm, 1).items():
            assert res[0].state_path == (0, 0, 0), name

    def test_twin_states_tie_to_lower_index(self):
        """States 1 and 2 of the middle position are exact twins: every
        lane must order the twin paths lower-index-first."""
        hmm = build_hmm(
            pi=[0.7, 0.3],
            emissions=[[0.6, 0.4], [0.2, 0.4, 0.4], [1.0]],
            transitions=[
                np.array([[0.5, 0.25, 0.25], [0.9, 0.05, 0.05]]),
                np.array([[0.8], [0.6], [0.6]]),
            ],
        )
        for name, res in run_topk_lanes(hmm, hmm.search_space).items():
            paths = [q.state_path for q in res]
            scores = [q.score for q in res]
            for (pa, sa), (pb, sb) in zip(
                zip(paths, scores), zip(paths[1:], scores[1:])
            ):
                if sa == sb:
                    assert pa < pb, f"{name}: tie out of lex order"
            # The twin of every returned path scores identically, so the
            # twin pair must be adjacent, lower middle-index first.
            for (pa, sa), (pb, sb) in zip(
                zip(paths, scores), zip(paths[1:], scores[1:])
            ):
                if pa[0] == pb[0] and pa[2] == pb[2] and {pa[1], pb[1]} == {1, 2}:
                    assert sa == sb, f"{name}: twins must tie exactly"
                    assert pa[1] == 1, f"{name}: twin tie not lower-first"

    def test_cross_multiset_tie_is_lex_ordered_per_lane(self):
        """1.0·0.25 == 0.5·0.5 exactly: ties built from *different* factor
        multisets still come out lex-ordered within every lane, and each
        reference loop agrees with its production decoder bit-for-bit (the
        cross-family guarantee is score-level only — see the oracle
        docstring)."""
        hmm = build_hmm(
            pi=[0.5, 0.5],
            emissions=[[0.5, 0.5], [0.5, 0.5]],
            # path (0,0): 0.25·1.0… arrange t so (0,·) and (1,·) collide
            transitions=[np.array([[1.0, 0.25], [0.5, 0.5]])],
        )
        results = run_topk_lanes(hmm, 4)
        for name, res in results.items():
            scores = [q.score for q in res]
            paths = [q.state_path for q in res]
            for (pa, sa), (pb, sb) in zip(
                zip(paths, scores), zip(paths[1:], scores[1:])
            ):
                if sa == sb:
                    assert pa < pb, f"{name}: tie out of lex order"
        for algorithm in TWINNED:
            assert signature(results[f"{algorithm}/reference"]) == signature(
                results[f"{algorithm}/production"]
            ), algorithm
        check_topk_equivalence(hmm, 4)

    def test_tied_top1_prefers_lex_smallest(self):
        """Two exactly tied maxima (twin construction): top-1 must pick
        the lexicographically smaller one in every lane."""
        hmm = build_hmm(
            pi=[0.5, 0.5],
            emissions=[[0.5, 0.5], [0.5, 0.5]],
            transitions=[np.array([[1.0, 1.0], [0.25, 0.25]])],
        )
        # Paths (0,0) and (0,1) tie at the top with identical factors.
        oracle = brute_force_topk(hmm, 2)
        assert oracle[0].score == oracle[1].score
        assert oracle[0].state_path == (0, 0)
        for name, res in run_topk_lanes(hmm, 1).items():
            assert res[0].state_path == (0, 0), name

    def test_zero_probability_lattice_stays_consistent(self):
        """An all-zero transition row makes whole path families score 0;
        the oracle contract must hold through the zero tail."""
        hmm = build_hmm(
            pi=[0.5, 0.5],
            emissions=[[0.5, 0.5], [0.25, 0.75]],
            transitions=[np.array([[0.0, 0.0], [0.4, 0.6]])],
        )
        check_topk_equivalence(hmm, 3)
        check_topk_equivalence(hmm, hmm.search_space + 2)
        check_topk_equivalence(hmm, 1)

    def test_single_candidate_and_single_keyword(self):
        """Degenerate lattices: 1×1×1 and a 1-keyword query."""
        chain = build_hmm(
            pi=[1.0],
            emissions=[[1.0], [1.0], [1.0]],
            transitions=[np.array([[0.5]]), np.array([[0.25]])],
        )
        check_topk_equivalence(chain, 4)
        check_topk_equivalence(chain, 1)
        single = build_hmm(
            pi=[0.25, 0.25, 0.5],
            emissions=[[0.5, 0.25, 0.25]],
            transitions=[],
        )
        check_topk_equivalence(single, 2)
        check_topk_equivalence(single, 10)
        check_topk_equivalence(single, 1)

    def test_lane_registry_is_complete(self):
        """Every algorithm in both spaces has its production decoder in
        the registry, and every algorithm but the brute-force oracle also
        has a reference loop — a decoder without oracle coverage fails."""
        lanes = {lane.name: lane for lane in TOPK_LANES}
        for base in ("astar", "viterbi_topk"):
            for space, algorithm in (("linear", base), ("log", f"{base}_log")):
                assert algorithm in ALGORITHMS
                for impl in ("production", "reference"):
                    assert lanes[f"{algorithm}/{impl}"].space == space
        assert set(TWINNED) == set(ALGORITHMS) - {"brute_force"}
        assert {name.split("/")[0] for name in lanes} == set(ALGORITHMS)


@pytest.fixture(scope="module")
def pipelines(toy_graph):
    """One pipeline per MMR setting; decoding reads only its config."""
    return {
        trade_off: Reformulator(toy_graph, ReformulatorConfig(
            diversify_trade_off=trade_off, enable_plan_cache=False,
        ))
        for trade_off in (None, 0.5)
    }


def fixed_size_answer(pipeline, keywords, hmm, k, algorithm):
    """The answer of a decode of all ``k + _slack`` paths up front."""
    ceiling = k + pipeline._slack(keywords)
    decoded = astar_topk(hmm, ceiling, log_space=algorithm == "astar_log")
    return pipeline._postprocess(keywords, decoded.queries, k)


# A later pop ties an earlier complete path's score exactly and has the
# smaller path: its ancestor's priority sat an ulp *below* that score.
ULP_TIE = build_hmm(
    pi=[0.35, 0.35],
    emissions=[[0.1, 0.2], [0.35, 0.2]],
    transitions=[[[1.0 / 3.0, 0.7], [0.9, 0.35]]],
)
# A later pop scores an ulp *above* an earlier complete path, while its
# ancestor's priority equalled that path's score.
ULP_ABOVE = build_hmm(
    pi=[0.3, 0.35],
    emissions=[[0.2, 0.3], [0.6, 1.0 / 3.0]],
    transitions=[[[0.35, 0.3], [0.2, 0.35]]],
)


class TestStreamedPipeline:
    """The pipeline pulls A* completions only until k survive; its
    answer must equal ``_postprocess(astar_topk(hmm, k + _slack), k)``."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        labelled_instances(),
        st.integers(min_value=1, max_value=8),
        st.sampled_from(["astar", "astar_log"]),
        st.sampled_from([None, 0.5]),
    )
    def test_streamed_answer_equals_fixed_size_decode(
        self, pipelines, instance, k, algorithm, trade_off
    ):
        keywords, hmm = instance
        pipeline = pipelines[trade_off]
        got, n_raw, search = pipeline._decode(keywords, hmm, k, algorithm)
        assert got == fixed_size_answer(pipeline, keywords, hmm, k, algorithm)
        assert n_raw == search.completed <= k + pipeline._slack(keywords)

    @pytest.mark.parametrize("hmm", [ULP_TIE, ULP_ABOVE], ids=["tie", "above"])
    def test_pop_order_inversions_are_released_in_order(self, pipelines, hmm):
        """Both instances pop a complete path before one that sorts
        ahead of it; the released order must still be the contract's."""
        search = AStarSearch(hmm)
        pops = [(-q.score, q.state_path) for q in search.completions()]
        assert pops != sorted(pops)
        pipeline = pipelines[None]
        keywords = list(hmm.query)
        for k in range(1, hmm.search_space + 1):
            got = pipeline._decode(keywords, hmm, k, "astar")[0]
            assert got == fixed_size_answer(pipeline, keywords, hmm, k, "astar")
