"""The server's degradation fallbacks against the full top-k decoders.

Two agreement properties lock the degraded path to the cold path:

* the single-best Viterbi fallback (``DEGRADE_VITERBI``) must return the
  rank-1 result of every *full* top-k algorithm when run on the same
  assembled plan — top-1 is ``viterbi_topk(hmm, 1)[0]``, the same DP,
  not a separate approximation;
* the cached fallback (``DEGRADE_CACHED``) must return the identical
  full answer the cold path produced, bit for bit.

The HTTP-free handler methods are exercised directly (no sockets), so
deadline expiry is simulated with zero-budget :class:`Deadline` objects
and the tests stay deterministic.
"""

import pytest

from repro.core import ALGORITHMS, astar_topk, decode_topk, viterbi_topk
from repro.core.reformulator import ReformulatorConfig
from repro.lanes import Request
from repro.live import LiveReformulator
from repro.server import (
    Deadline,
    DEGRADE_CACHED,
    DEGRADE_VITERBI,
    ReformulationServer,
    ServerConfig,
)

from tests.conftest import build_toy_database

QUERIES = [
    ["probabilistic", "query"],
    ["uncertain", "data"],
    ["pattern", "mining"],
    ["probabilistic"],
]


@pytest.fixture(scope="module")
def live():
    return LiveReformulator(
        build_toy_database(), ReformulatorConfig(n_candidates=6)
    )


@pytest.fixture()
def server(live):
    # No .start(): handle_reformulate is a plain method, sockets stay out.
    return ReformulationServer(live, ServerConfig(port=0))


class TestFallbackAgreesWithTopkRank1:
    """The single-best fallback is rank-1 of every full algorithm, same plan."""

    @pytest.mark.parametrize("keywords", QUERIES, ids="-".join)
    def test_top1_is_rank1_of_every_topk_lane(self, live, keywords):
        hmm = live.pipeline().build_hmm(keywords)
        expected = viterbi_topk(hmm, 1)[0]
        assert live.pipeline().best(keywords) == expected
        for algorithm in ALGORITHMS:
            first = decode_topk(hmm, 5, algorithm)[0][0]
            assert first.state_path == expected.state_path, algorithm
            assert first.score == expected.score, algorithm

    @pytest.mark.parametrize("keywords", QUERIES, ids="-".join)
    def test_degraded_single_matches_raw_decode(self, server, live, keywords):
        """A degraded ``route`` with a cold cache == the raw top-1 decode
        == rank-1 of the full A* lane on the same assembled plan."""
        [result] = live.route([Request(keywords, 4, "hmm")], degrade=True)
        mode = result.degraded
        assert mode == DEGRADE_VITERBI
        suggestions = list(result.suggestions)
        assert len(suggestions) == 1
        hmm = live.pipeline().build_hmm(keywords)
        top1 = viterbi_topk(hmm, 1)[0]
        assert suggestions[0].state_path == top1.state_path
        assert suggestions[0].score == top1.score
        full = astar_topk(hmm, 4).queries
        assert suggestions[0].state_path == full[0].state_path
        assert suggestions[0].score == full[0].score


class TestDegradedHandler:
    """handle_reformulate under expired deadlines (no sockets)."""

    def test_expired_deadline_serves_viterbi_fallback(self, server, live):
        response = server.handle_reformulate(
            {"keywords": ["probabilistic", "query"], "k": 3}, Deadline(0.0)
        )
        assert response["degraded"] is True
        assert response["degraded_mode"] == DEGRADE_VITERBI
        assert len(response["suggestions"]) == 1
        best = live.pipeline().best(["probabilistic", "query"])
        got = response["suggestions"][0]
        assert tuple(got["state_path"]) == best.state_path
        assert got["score"] == best.score
        assert got["terms"] == list(best.terms)

    def test_cached_degrade_returns_identical_full_answer(self, server):
        payload = {"keywords": ["pattern", "mining"], "k": 3}
        warm = server.handle_reformulate(payload, Deadline(None))
        assert warm["degraded"] is False and warm["degraded_mode"] is None
        degraded = server.handle_reformulate(payload, Deadline(0.0))
        assert degraded["degraded"] is True
        assert degraded["degraded_mode"] == DEGRADE_CACHED
        # The cached fallback is the full cold answer, bit for bit.
        assert degraded["suggestions"] == warm["suggestions"]
        assert degraded["version"] == warm["version"]

    def test_cache_key_is_parameter_sensitive(self, server):
        """A warm cache for (q, k=3) must not satisfy (q, k=2): the
        fallback drops to single-best instead of serving the wrong k."""
        payload = {"keywords": ["uncertain", "data"], "k": 3}
        server.handle_reformulate(payload, Deadline(None))
        response = server.handle_reformulate(
            {"keywords": ["uncertain", "data"], "k": 2}, Deadline(0.0)
        )
        assert response["degraded_mode"] == DEGRADE_VITERBI

    def test_stale_pipeline_skips_result_cache(self, server, live):
        """After a mutation the cached full answer is unreachable — the
        fallback must re-decode (top-1) rather than serve stale results."""
        payload = {"keywords": ["probabilistic", "pattern"], "k": 3}
        server.handle_reformulate(payload, Deadline(None))
        live.insert(
            "papers",
            {"pid": 90, "title": "stale probe", "cid": 0, "year": 2013},
        )
        assert live.is_stale
        response = server.handle_reformulate(payload, Deadline(0.0))
        assert response["degraded_mode"] == DEGRADE_VITERBI

    def test_stale_degraded_request_counts_a_bypass(self, server, live):
        """A degraded request on a stale pipeline skips the cache like
        any other query, and is counted as a bypass."""
        payload = {"keywords": ["uncertain", "query"], "k": 3}
        server.handle_reformulate(payload, Deadline(None))
        live.insert(
            "papers",
            {"pid": 91, "title": "bypass probe", "cid": 0, "year": 2013},
        )
        before = live.cache_bypasses
        response = server.handle_reformulate(payload, Deadline(0.0))
        assert response["degraded_mode"] == DEGRADE_VITERBI
        assert live.cache_bypasses == before + 1

    def test_degraded_counter_increments(self, server):
        before = server.degraded_served
        server.handle_reformulate(
            {"keywords": ["probabilistic"], "k": 2}, Deadline(0.0)
        )
        assert server.degraded_served == before + 1


class TestDeadlineEdgeCases:
    """Admission-time deadline/estimator edges for the degrade decision."""

    def test_zero_budget_deadline_expired_at_admission(self):
        deadline = Deadline(0.0)
        assert not deadline.unlimited
        assert deadline.expired()
        assert deadline.remaining() <= 0.0

    def test_expired_deadline_always_degrades(self, server):
        # Even the floor estimate exceeds a spent budget.
        from repro.server import LatencyEstimator, should_degrade

        estimator = LatencyEstimator(floor_s=0.001)
        assert should_degrade(Deadline(0.0), estimator, safety=1.0)

    def test_fast_cold_path_observations_floor_the_estimate(self):
        """Timings far below the floor never talk the estimator into
        admitting sub-floor deadlines: the floor wins."""
        from repro.server import LatencyEstimator, should_degrade

        estimator = LatencyEstimator(floor_s=0.005, alpha=0.2)
        for _ in range(50):
            estimator.observe(1e-6)
        assert estimator.samples == 50
        assert estimator.estimate() == 0.005
        assert should_degrade(Deadline(0.001), estimator, safety=1.5)
        assert not should_degrade(Deadline(1.0), estimator, safety=1.5)

    def test_estimator_zero_samples_uses_floor(self):
        from repro.server import LatencyEstimator

        estimator = LatencyEstimator(floor_s=0.25)
        assert estimator.samples == 0
        assert estimator.estimate() == 0.25
