"""Lane selection over HTTP: validation, fallback, cache isolation, metrics.

Runs real daemons over two corpora: the toy database (cohesive queries,
all four lanes) and the two-island database from ``tests.test_lanes``
(engineered so cross-island queries have no cohesive substitution and
must trip the ``hmm`` → ``relaxation`` fallback chain end to end).
"""

import pytest

from repro import obs
from repro.core.reformulator import ReformulatorConfig
from repro.lanes import KNOWN_LANES, Request
from repro.live import LiveReformulator
from repro.server import (
    DEGRADE_CACHED,
    DEGRADE_VITERBI,
    ReformulationServer,
    ServerClient,
    ServerConfig,
    ServerConfigError,
)

from tests.conftest import build_toy_database
from tests.test_lanes import build_islands_database

INCOHESIVE = ["skyline", "crowdsourcing"]
COHESIVE = ["skyline", "ranking"]
QUERIES = [["pattern", "mining"], ["probabilistic", "query"], ["skyline"]]


def _make_server(database=None, **config_kwargs) -> ReformulationServer:
    defaults = dict(port=0, keepalive_timeout_s=1.0)
    defaults.update(config_kwargs)
    live = LiveReformulator(
        database if database is not None else build_toy_database(),
        ReformulatorConfig(n_candidates=6),
    )
    return ReformulationServer(live, ServerConfig(**defaults)).start()


@pytest.fixture(scope="module")
def server():
    srv = _make_server()
    yield srv
    srv.shutdown()


@pytest.fixture()
def client(server):
    with ServerClient(port=server.port) as c:
        yield c


@pytest.fixture(scope="module")
def fallback_server():
    """Two-island corpus with the hmm → relaxation chain enabled."""
    srv = _make_server(
        database=build_islands_database(),
        lanes=("hmm", "relaxation"),
        fallback_lane="relaxation",
    )
    yield srv
    srv.shutdown()


@pytest.fixture()
def fallback_client(fallback_server):
    with ServerClient(port=fallback_server.port) as c:
        yield c


class TestLaneValidation:
    """Unknown lanes 400 before any decode; missing lanes take the default."""

    def test_unknown_lane_400_with_error_body(self, client):
        response = client.reformulate(["pattern", "mining"], lane="warp")
        assert response.status == 400
        assert "lane" in response.json["error"]
        assert "warp" in response.json["error"]

    def test_non_string_lane_400(self, client):
        response = client.request(
            "POST", "/reformulate",
            {"keywords": ["pattern"], "lane": 7},
        )
        assert response.status == 400

    def test_missing_lane_takes_default(self, client):
        response = client.reformulate(["pattern", "mining"], k=3)
        assert response.status == 200
        assert response.json["lane"] == "hmm"
        assert response.json["lane_requested"] == "hmm"
        assert response.json["relaxed"] is False
        assert response.json["fallback_from"] is None

    def test_disabled_lane_400(self):
        server = _make_server(lanes=("hmm",))
        try:
            with ServerClient(port=server.port) as client:
                response = client.reformulate(["pattern"], lane="relaxation")
                assert response.status == 400
                assert "relaxation" in response.json["error"]
        finally:
            server.shutdown()

    def test_batch_unknown_lane_400(self, client):
        response = client.batch([["pattern"]], lane="warp")
        assert response.status == 400

    def test_inconsistent_lane_config_rejected(self):
        with pytest.raises(ServerConfigError):
            ServerConfig(port=0, lanes=("hmm",), default_lane="schema").validate()
        with pytest.raises(ServerConfigError):
            ServerConfig(port=0, lanes=("hmm", "warp")).validate()


class TestLaneSelection:
    """Explicit lane names reach the named lane, single and batch."""

    def test_explicit_lanes_are_honored(self, client):
        for lane in ("hmm", "enumeration", "relaxation", "schema"):
            response = client.reformulate(
                ["pattern", "mining"], k=3, lane=lane
            )
            assert response.status == 200, lane
            assert response.json["lane"] == lane
            assert response.json["lane_requested"] == lane

    def test_suggestions_match_direct_lane(self, client, server):
        response = client.reformulate(
            ["probabilistic", "pattern"], k=3, lane="enumeration"
        )
        direct = server.live.reformulate_lane(
            ["probabilistic", "pattern"], k=3, lane="enumeration"
        )
        got = [
            (s["text"], s["score"], tuple(s["state_path"]))
            for s in response.json["suggestions"]
        ]
        assert got == [
            (s.text, s.score, s.state_path) for s in direct.suggestions
        ]

    def test_schema_lane_reports_bindings(self, client):
        response = client.reformulate(
            ["author", "ann", "pattern"], k=3, lane="schema"
        )
        assert response.status == 200
        payload = response.json
        assert payload["lane"] == "schema"
        for suggestion in payload["suggestions"]:
            assert suggestion["bindings"] == {"ann": ["authors", "name"]}

    def test_batch_carries_per_entry_lane(self, client):
        response = client.batch(
            [["pattern", "mining"], ["probabilistic", "query"]],
            k=2, lane="relaxation",
        )
        assert response.status == 200
        payload = response.json
        assert payload["lane_requested"] == "relaxation"
        for entry in payload["results"]:
            assert entry["lane"] == "relaxation"
            assert entry["relaxed"] is False  # toy corpus: all cohesive


class TestFallbackChain:
    """hmm → relaxation over HTTP on the engineered two-island corpus."""

    def test_incohesive_query_returns_relaxed(self, fallback_client):
        response = fallback_client.reformulate(INCOHESIVE, k=5, lane="hmm")
        assert response.status == 200
        payload = response.json
        assert payload["lane"] == "relaxation"
        assert payload["lane_requested"] == "hmm"
        assert payload["fallback_from"] == "hmm"
        assert payload["relaxed"] is True
        assert len(payload["suggestions"]) > 0
        for suggestion in payload["suggestions"]:
            assert suggestion["relaxed"] is True
            assert suggestion["dropped"] or suggestion["generalized"]

    def test_cohesive_query_stays_on_hmm(self, fallback_client):
        response = fallback_client.reformulate(COHESIVE, k=5, lane="hmm")
        assert response.status == 200
        payload = response.json
        assert payload["lane"] == "hmm"
        assert payload["fallback_from"] is None
        assert payload["relaxed"] is False

    def test_batch_falls_back_per_entry(self, fallback_client):
        response = fallback_client.batch(
            [INCOHESIVE, COHESIVE], k=5
        )
        assert response.status == 200
        entries = response.json["results"]
        assert [e["lane"] for e in entries] == ["relaxation", "hmm"]
        assert [e["fallback_from"] for e in entries] == ["hmm", None]


class TestCacheLaneIsolation:
    """A cached answer from one lane must never serve another lane."""

    def test_lanes_do_not_cross_serve(self):
        server = _make_server(
            database=build_islands_database(),
            lanes=("hmm", "relaxation"),
        )
        try:
            with ServerClient(port=server.port) as client:
                plain = client.reformulate(INCOHESIVE, k=5, lane="hmm")
                assert plain.json["relaxed"] is False
                relaxed = client.reformulate(
                    INCOHESIVE, k=5, lane="relaxation"
                )
                # same keywords, same k: a shared key would replay the
                # (unrelaxed) hmm answer here
                assert relaxed.json["lane"] == "relaxation"
                assert relaxed.json["relaxed"] is True
                again = client.reformulate(INCOHESIVE, k=5, lane="hmm")
                assert again.json["lane"] == "hmm"
                assert again.json["relaxed"] is False
                assert again.json["suggestions"] == plain.json["suggestions"]
        finally:
            server.shutdown()

    def test_degraded_lookup_is_lane_keyed(self):
        """A warm relaxation answer must not satisfy a degraded hmm
        request (it would serve relaxed suggestions to a caller that
        asked for plain substitutions) — the fallback drops to
        single-best instead."""
        server = _make_server(
            database=build_islands_database(),
            lanes=("hmm", "relaxation"),
        )
        try:
            with ServerClient(port=server.port) as client:
                warm = client.reformulate(INCOHESIVE, k=3, lane="relaxation")
                assert warm.json["relaxed"] is True
                degraded_hmm = client.reformulate(
                    INCOHESIVE, k=3, lane="hmm", deadline_ms=1
                )
                assert degraded_hmm.json["degraded"] is True
                assert degraded_hmm.json["degraded_mode"] == DEGRADE_VITERBI
                assert degraded_hmm.json["lane"] == "hmm"
                degraded_relax = client.reformulate(
                    INCOHESIVE, k=3, lane="relaxation", deadline_ms=1
                )
                assert degraded_relax.json["degraded"] is True
                assert degraded_relax.json["degraded_mode"] == DEGRADE_CACHED
                assert (
                    degraded_relax.json["suggestions"]
                    == warm.json["suggestions"]
                )
        finally:
            server.shutdown()


class TestLaneObservability:
    """Per-lane series on /metrics; lane names in logs and traces."""

    def test_per_lane_metrics_series(self):
        server = _make_server(
            database=build_islands_database(),
            lanes=("hmm", "relaxation"),
            fallback_lane="relaxation",
        )
        obs.reset()
        try:
            with obs.enabled():
                with ServerClient(port=server.port) as client:
                    assert client.reformulate(
                        COHESIVE, k=3, lane="hmm"
                    ).status == 200
                    assert client.reformulate(
                        INCOHESIVE, k=3, lane="hmm"
                    ).status == 200
                    metrics_text = client.metrics().text
            registry = obs.registry()
            hmm_requests = registry.get(
                "repro_lane_requests_total", lane="hmm"
            )
            assert hmm_requests is not None and hmm_requests.value == 2.0
            # the incohesive query chained into relaxation
            relax_requests = registry.get(
                "repro_lane_requests_total", lane="relaxation"
            )
            assert relax_requests is not None and relax_requests.value == 1.0
            fallback = registry.get(
                "repro_lane_fallback_total",
                from_lane="hmm", to_lane="relaxation",
            )
            assert fallback is not None and fallback.value == 1.0
            relaxed = registry.get(
                "repro_lane_relaxed_total", lane="relaxation"
            )
            assert relaxed is not None and relaxed.value == 1.0
            seconds = registry.get("repro_lane_seconds", lane="hmm")
            assert seconds is not None and seconds.count == 2
            for name in (
                "repro_lane_requests_total",
                "repro_lane_seconds",
                "repro_lane_fallback_total",
                "repro_lane_relaxed_total",
            ):
                assert name in metrics_text
        finally:
            obs.reset()
            server.shutdown()

    def test_access_log_carries_lane(self, tmp_path):
        import json as _json

        log_path = tmp_path / "access.jsonl"
        server = _make_server(
            database=build_islands_database(),
            lanes=("hmm", "relaxation"),
            fallback_lane="relaxation",
            access_log_path=str(log_path),
            trace_sample_rate=1.0,
        )
        try:
            with ServerClient(port=server.port) as client:
                client.reformulate(COHESIVE, k=2, lane="hmm")
                client.reformulate(INCOHESIVE, k=2, lane="hmm")
        finally:
            server.shutdown()
        lanes = [
            _json.loads(line)["lane"]
            for line in log_path.read_text().splitlines()
        ]
        # the fallback chain rewrites the serving lane on the second one
        assert lanes == ["hmm", "relaxation"]

    def test_flight_recorder_trace_carries_lane(self):
        server = _make_server(trace_sample_rate=1.0)
        obs.reset()
        try:
            with obs.enabled():
                with ServerClient(port=server.port) as client:
                    assert client.reformulate(
                        ["pattern", "mining"], k=2, lane="enumeration"
                    ).status == 200
                    traces = client.debug_traces().json["traces"]
            mine = [
                r for r in traces if r.get("route") == "/reformulate"
            ]
            assert mine and mine[0]["lane"] == "enumeration"
        finally:
            obs.reset()
            server.shutdown()


class TestRequestValidation:
    """An unknown algorithm 400s on every path, before any cache lookup."""

    @pytest.mark.parametrize("deadline_ms", [None, 1], ids=["full", "degraded"])
    @pytest.mark.parametrize("lane", (None,) + KNOWN_LANES)
    def test_unknown_algorithm_400_everywhere(
        self, client, server, lane, deadline_ms
    ):
        extra = {"algorithm": "bogus"}
        if lane is not None:
            extra["lane"] = lane
        if deadline_ms is not None:
            extra["deadline_ms"] = deadline_ms
        before = server.live.result_cache.stats()
        single = client.request(
            "POST", "/reformulate", {"keywords": ["pattern"], **extra}
        )
        batch = client.request(
            "POST", "/reformulate/batch",
            {"queries": [["pattern"], ["mining"]], **extra},
        )
        for response in (single, batch):
            assert response.status == 400
            assert "algorithm" in response.json["error"]
        assert server.live.result_cache.stats() == before


class TestHttpMatchesInProcess:
    """HTTP answers equal an independent in-process ``LiveReformulator``
    with the same config — not the server's own cached instance."""

    @staticmethod
    def _independent(srv, database):
        live = LiveReformulator(database, ReformulatorConfig(n_candidates=6))
        live.configure_router(srv.config.router_config())
        return live

    @staticmethod
    def _entry(result):
        return {
            "lane": result.lane,
            "relaxed": result.relaxed,
            "fallback_from": result.fallback_from,
            "suggestions": [
                (s.text, s.score, list(s.state_path))
                for s in result.suggestions
            ],
        }

    @staticmethod
    def _wire(entry):
        return {
            "lane": entry["lane"],
            "relaxed": entry["relaxed"],
            "fallback_from": entry["fallback_from"],
            "suggestions": [
                (s["text"], s["score"], s["state_path"])
                for s in entry["suggestions"]
            ],
        }

    @pytest.mark.parametrize("lane", KNOWN_LANES)
    def test_every_lane_single_and_batch(self, client, server, lane):
        direct = self._independent(server, build_toy_database())
        for query in QUERIES:
            response = client.reformulate(query, k=3, lane=lane)
            assert response.status == 200
            want = direct.reformulate_lane(query, k=3, lane=lane)
            assert self._wire(response.json) == self._entry(want)
        response = client.batch(QUERIES, k=3, lane=lane)
        assert response.status == 200
        want = direct.route([Request(q, 3, lane) for q in QUERIES])
        assert [self._wire(e) for e in response.json["results"]] == [
            self._entry(result) for result in want
        ]

    def test_fallback_chain(self, fallback_client, fallback_server):
        direct = self._independent(fallback_server, build_islands_database())
        for query in (INCOHESIVE, COHESIVE):
            response = fallback_client.reformulate(query, k=5)
            want = direct.reformulate_lane(query, k=5)
            assert self._wire(response.json) == self._entry(want)
        response = fallback_client.batch(
            [INCOHESIVE, COHESIVE], k=5, lane="relaxation"
        )
        want = direct.route(
            [Request(q, 5, "relaxation") for q in (INCOHESIVE, COHESIVE)]
        )
        assert [self._wire(e) for e in response.json["results"]] == [
            self._entry(result) for result in want
        ]
