"""Unit tests for repro.core.viterbi, cross-checked against brute force.

The property-based tests are the heart: on random HMMs, Algorithm 2
(extended top-k Viterbi), its k=1 top-1 and the exhaustive oracle must
agree on scores.
"""

from typing import Sequence

import pytest
from hypothesis import given, settings

from repro.core.enumeration import brute_force_topk
from repro.core.hmm import ReformulationHMM
from repro.core.scoring import ScoredQuery
from repro.core.viterbi import viterbi_topk
from repro.errors import ReformulationError

from tests.decode_oracle import reference_viterbi_topk
from tests.strategies import hmms


def path_scores_consistent(
    hmm: ReformulationHMM, queries: Sequence[ScoredQuery], tol: float = 1e-12
) -> bool:
    """Recompute every score from Eq 10."""
    return all(
        abs(q.score - hmm.path_score(q.state_path)) <= tol * max(1.0, q.score)
        for q in queries
    )


def top1(hmm: ReformulationHMM) -> ScoredQuery:
    """The single best reformulation, as the serving path decodes it."""
    return viterbi_topk(hmm, 1)[0]


class TestTop1:
    @settings(max_examples=60, deadline=None)
    @given(hmms())
    def test_matches_brute_force_score(self, hmm):
        best = top1(hmm)
        oracle = brute_force_topk(hmm, 1)[0]
        assert best.score == pytest.approx(oracle.score, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(hmms(allow_zeros=False))
    def test_matches_brute_force_path_when_unique(self, hmm):
        """With strictly positive weights ties are measure-zero, so the
        paths themselves almost always agree; compare scores to stay
        robust to exact ties."""
        best = top1(hmm)
        oracle = brute_force_topk(hmm, 1)[0]
        assert best.score == pytest.approx(oracle.score, rel=1e-9)

    def test_score_consistent_with_eq10(self):
        from tests.test_core_hmm import build_tiny

        hmm = build_tiny()
        best = top1(hmm)
        assert best.score == pytest.approx(hmm.path_score(best.state_path))


class TestTopK:
    @settings(max_examples=60, deadline=None)
    @given(hmms())
    def test_matches_brute_force_scores(self, hmm):
        k = 5
        ours = viterbi_topk(hmm, k)
        oracle = brute_force_topk(hmm, k)
        assert len(ours) == len(oracle)
        for a, b in zip(ours, oracle):
            assert a.score == pytest.approx(b.score, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(hmms())
    def test_sorted_descending(self, hmm):
        results = viterbi_topk(hmm, 6)
        scores = [r.score for r in results]
        assert scores == sorted(scores, reverse=True)

    @settings(max_examples=40, deadline=None)
    @given(hmms())
    def test_no_duplicate_paths(self, hmm):
        results = viterbi_topk(hmm, 8)
        paths = [r.state_path for r in results]
        assert len(paths) == len(set(paths))

    @settings(max_examples=40, deadline=None)
    @given(hmms())
    def test_scores_recomputable(self, hmm):
        results = viterbi_topk(hmm, 5)
        assert path_scores_consistent(hmm, results)

    @settings(max_examples=30, deadline=None)
    @given(hmms())
    def test_k1_equals_top1(self, hmm):
        """Top-1 scores as rank 1 of a larger k and is bit-identical to
        the reference loop at k=1."""
        best = top1(hmm)
        assert viterbi_topk(hmm, 5)[0].score == best.score
        assert reference_viterbi_topk(hmm, 1) == [best]

    @settings(max_examples=30, deadline=None)
    @given(hmms())
    def test_k_larger_than_space(self, hmm):
        results = viterbi_topk(hmm, hmm.search_space + 10)
        assert len(results) == hmm.search_space

    def test_k_validation(self):
        from tests.test_core_hmm import build_tiny

        with pytest.raises(ReformulationError):
            viterbi_topk(build_tiny(), 0)
