"""HTTP-level tests for the serving daemon (repro.server).

A module-scoped daemon over the toy corpus covers the endpoint surface;
dedicated per-test daemons (tiny capacity, short timeouts) cover the
overload, deadline-degradation and drain paths.
"""

import threading
import time

import pytest

from repro import obs
from repro.core.reformulator import ReformulatorConfig
from repro.live import LiveReformulator
from repro.server import (
    DEGRADE_CACHED,
    DEGRADE_VITERBI,
    ReformulationServer,
    ServerClient,
    ServerClientError,
    ServerConfig,
    suggestions_signature,
)

from tests.conftest import build_toy_database


def _make_server(**config_kwargs) -> ReformulationServer:
    defaults = dict(port=0, keepalive_timeout_s=1.0)
    defaults.update(config_kwargs)
    live = LiveReformulator(
        build_toy_database(), ReformulatorConfig(n_candidates=6)
    )
    return ReformulationServer(live, ServerConfig(**defaults)).start()


def _signature(results):
    return [(s.text, s.score, s.state_path) for s in results]


@pytest.fixture(scope="module")
def server():
    srv = _make_server()
    yield srv
    srv.shutdown()


@pytest.fixture()
def client(server):
    with ServerClient(port=server.port) as c:
        yield c


class TestHealth:
    def test_healthz(self, client):
        response = client.healthz()
        assert response.status == 200
        assert response.json == {
            "status": "ok", "draining": False, "ingest_epoch": 0,
        }

    def test_readyz_after_warm_start(self, client, server):
        response = client.readyz()
        assert response.status == 200
        assert response.json["version"] == server.live.version >= 1

    def test_unknown_route_404(self, client):
        assert client.request("GET", "/nope").status == 404

    def test_wrong_verb_405(self, client):
        assert client.request("GET", "/reformulate").status == 405
        assert client.request("POST", "/similar", {}).status == 405


class TestReformulate:
    def test_matches_direct_bit_identical(self, client, server):
        for keywords, k in (
            (["probabilistic", "query"], 3),
            (["pattern", "mining"], 2),
        ):
            response = client.reformulate(keywords, k=k)
            assert response.status == 200
            payload = response.json
            assert payload["degraded"] is False
            assert payload["degraded_mode"] is None
            direct = list(server.live.reformulate_lane(keywords, k=k).suggestions)
            assert suggestions_signature(
                payload["suggestions"]
            ) == _signature(direct)

    def test_algorithm_passthrough(self, client, server):
        response = client.reformulate(
            ["probabilistic", "query"], k=3, algorithm="viterbi_topk"
        )
        assert response.status == 200
        direct = list(server.live.reformulate_lane(
            ["probabilistic", "query"], k=3, algorithm="viterbi_topk"
        ).suggestions)
        assert suggestions_signature(
            response.json["suggestions"]
        ) == _signature(direct)

    def test_raw_query_string_is_parsed(self, client):
        response = client.reformulate(query="Probabilistic Query")
        assert response.status == 200
        assert response.json["keywords"] == ["probabilistic", "query"]

    def test_bad_algorithm_400(self, client):
        response = client.reformulate(
            ["probabilistic", "query"], algorithm="quantum"
        )
        assert response.status == 400
        assert "algorithm" in response.json["error"]

    @pytest.mark.parametrize("payload", [
        {},
        {"keywords": []},
        {"keywords": "probabilistic"},
        {"keywords": ["probabilistic", 7]},
        {"keywords": ["probabilistic"], "k": 0},
        {"keywords": ["probabilistic"], "k": "three"},
        {"keywords": ["probabilistic"], "deadline_ms": "soon"},
        {"query": "   "},
    ])
    def test_invalid_payloads_400(self, client, payload):
        assert client.request("POST", "/reformulate", payload).status == 400

    def test_non_json_body_400(self, client):
        connection = client._connection()
        connection.request(
            "POST", "/reformulate", body=b"not json",
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        body = response.read()
        assert response.status == 400
        assert b"JSON" in body


class TestBatch:
    def test_matches_direct(self, client, server):
        queries = [
            ["probabilistic", "query"],
            ["pattern", "mining"],
            ["probabilistic", "query"],  # duplicate: dedup must not reorder
        ]
        response = client.batch(queries, k=2)
        assert response.status == 200
        payload = response.json
        assert payload["degraded"] is False
        assert len(payload["results"]) == 3
        for query, entry in zip(queries, payload["results"]):
            assert entry["keywords"] == query
            direct = list(server.live.reformulate_lane(query, k=2).suggestions)
            assert suggestions_signature(
                entry["suggestions"]
            ) == _signature(direct)

    @pytest.mark.parametrize("payload", [
        {},
        {"queries": []},
        {"queries": "probabilistic"},
        {"queries": [["probabilistic"], []]},
    ])
    def test_invalid_payloads_400(self, client, payload):
        response = client.request("POST", "/reformulate/batch", payload)
        assert response.status == 400


class TestSimilar:
    def test_similar_terms(self, client, server):
        response = client.similar("probabilistic", n=5)
        assert response.status == 200
        payload = response.json
        assert payload["term"] == "probabilistic"
        direct = server.live.similar_terms("probabilistic", 5)
        assert [
            (entry["term"], entry["score"]) for entry in payload["similar"]
        ] == [(term, score) for term, score in direct]

    def test_missing_term_400(self, client):
        assert client.request("GET", "/similar").status == 400

    def test_bad_n_400(self, client):
        assert client.request("GET", "/similar?term=x&n=zero").status == 400
        assert client.request("GET", "/similar?term=x&n=0").status == 400


class TestAdminReload:
    def test_reload_marks_stale_and_rebuilds_on_next_query(self):
        server = _make_server()
        try:
            with ServerClient(port=server.port) as client:
                assert client.reformulate(
                    ["probabilistic", "query"], k=2
                ).status == 200
                version = server.live.version
                response = client.admin_reload()
                assert response.status == 200
                assert response.json["reloaded"] is True
                assert response.json["stale"] is True
                after = client.reformulate(["probabilistic", "query"], k=2)
                assert after.status == 200
                assert after.json["version"] == version + 1
        finally:
            server.shutdown()


class TestOverload:
    def test_saturated_server_sheds_with_retry_after(self):
        server = _make_server(max_concurrency=1, queue_depth=0)
        try:
            with ServerClient(port=server.port) as client:
                with server.admission.admit():  # hold the only permit
                    response = client.reformulate(
                        ["probabilistic", "query"], k=2
                    )
                    assert response.status == 429
                    assert response.retry_after >= 1
                    assert "overloaded" in response.json["error"]
                # permit released: the same request now succeeds
                assert client.reformulate(
                    ["probabilistic", "query"], k=2
                ).status == 200
            assert server.admission.stats().shed == 1
        finally:
            server.shutdown()

    def test_queue_timeout_sheds(self):
        server = _make_server(
            max_concurrency=1, queue_depth=4, queue_timeout_s=0.05
        )
        try:
            with ServerClient(port=server.port) as client:
                with server.admission.admit():
                    start = time.perf_counter()
                    response = client.reformulate(
                        ["probabilistic", "query"], k=2
                    )
                    assert response.status == 429
                    assert time.perf_counter() - start >= 0.04
            assert server.admission.stats().shed_timeout == 1
        finally:
            server.shutdown()

    def test_concurrent_overload_every_request_answered(self):
        """2x capacity: every request gets 200 or 429, nothing dropped,
        and the shed metric equals the number of 429s."""
        server = _make_server(max_concurrency=1, queue_depth=1)
        obs.reset()
        statuses = []
        lock = threading.Lock()

        def fire():
            with ServerClient(port=server.port) as c:
                response = c.reformulate(["probabilistic", "query"], k=2)
                with lock:
                    statuses.append(response.status)

        try:
            with obs.enabled():
                with ServerClient(port=server.port) as warm:
                    assert warm.reformulate(
                        ["probabilistic", "pattern"], k=2
                    ).status == 200
                with server.admission.admit():  # force sheds deterministically
                    threads = [
                        threading.Thread(target=fire) for _ in range(6)
                    ]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join(timeout=10.0)
            assert len(statuses) == 6
            assert set(statuses) <= {200, 429}
            n_shed = statuses.count(429)
            assert n_shed >= 1
            shed_metric = obs.registry().get("repro_server_shed_total")
            assert shed_metric is not None
            assert shed_metric.value == server.admission.stats().shed
            assert server.admission.stats().shed >= n_shed
        finally:
            obs.reset()
            server.shutdown()


class TestDeadlineDegradation:
    def test_tight_deadline_falls_back_to_viterbi(self):
        server = _make_server()
        try:
            with ServerClient(port=server.port) as client:
                response = client.reformulate(
                    ["pattern", "mining"], k=3, deadline_ms=1
                )
                assert response.status == 200
                payload = response.json
                assert payload["degraded"] is True
                assert payload["degraded_mode"] == DEGRADE_VITERBI
                # still a well-formed scored suggestion
                assert len(payload["suggestions"]) == 1
                best = payload["suggestions"][0]
                assert best["text"] and best["score"] > 0
                assert len(best["state_path"]) == 2
                direct = server.live.pipeline().best(["pattern", "mining"])
                assert suggestions_signature(
                    payload["suggestions"]
                ) == _signature([direct])
        finally:
            server.shutdown()

    def test_tight_deadline_serves_cached_full_answer(self):
        server = _make_server()
        try:
            with ServerClient(port=server.port) as client:
                full = client.reformulate(["probabilistic", "query"], k=3)
                assert full.json["degraded"] is False
                degraded = client.reformulate(
                    ["probabilistic", "query"], k=3, deadline_ms=1
                )
                payload = degraded.json
                assert payload["degraded"] is True
                assert payload["degraded_mode"] == DEGRADE_CACHED
                # the cached fallback is the full top-k, not a top-1
                assert suggestions_signature(
                    payload["suggestions"]
                ) == suggestions_signature(full.json["suggestions"])
        finally:
            server.shutdown()

    def test_batch_deadline_degrades_every_entry(self):
        server = _make_server()
        try:
            with ServerClient(port=server.port) as client:
                response = client.batch(
                    [["probabilistic", "query"], ["pattern", "mining"]],
                    k=2, deadline_ms=1,
                )
                payload = response.json
                assert payload["degraded"] is True
                assert payload["degraded_mode"] in (
                    DEGRADE_CACHED, DEGRADE_VITERBI
                )
                for entry in payload["results"]:
                    assert entry["suggestions"]
                    assert entry["suggestions"][0]["score"] > 0
        finally:
            server.shutdown()

    def test_roomy_deadline_takes_full_path(self):
        server = _make_server()
        try:
            with ServerClient(port=server.port) as client:
                response = client.reformulate(
                    ["probabilistic", "query"], k=3, deadline_ms=60_000
                )
                assert response.json["degraded"] is False
        finally:
            server.shutdown()

    def test_degraded_counter(self):
        server = _make_server()
        obs.reset()
        try:
            with obs.enabled():
                with ServerClient(port=server.port) as client:
                    client.reformulate(
                        ["probabilistic", "query"], k=2, deadline_ms=1
                    )
            counter = obs.registry().get("repro_server_degraded_total")
            assert counter is not None and counter.value == 1.0
            assert server.degraded_served == 1
        finally:
            obs.reset()
            server.shutdown()


class TestMetrics:
    def test_request_series_and_exposition(self):
        server = _make_server(max_concurrency=1, queue_depth=0)
        obs.reset()
        try:
            with obs.enabled():
                with ServerClient(port=server.port) as client:
                    assert client.reformulate(
                        ["probabilistic", "query"], k=2
                    ).status == 200
                    with server.admission.admit():
                        assert client.reformulate(
                            ["probabilistic", "query"], k=2
                        ).status == 429
                    metrics_text = client.metrics().text
            registry = obs.registry()
            ok_counter = registry.get(
                "repro_server_requests_total",
                route="/reformulate", status="200",
            )
            shed_counter = registry.get(
                "repro_server_requests_total",
                route="/reformulate", status="429",
            )
            assert ok_counter is not None and ok_counter.value == 1.0
            assert shed_counter is not None and shed_counter.value == 1.0
            assert registry.get("repro_server_shed_total").value == 1.0
            histogram = registry.get(
                "repro_server_request_seconds", route="/reformulate"
            )
            assert histogram is not None and histogram.count == 2
            for name in (
                "repro_server_requests_total",
                "repro_server_shed_total",
                "repro_server_request_seconds",
                "repro_server_inflight",
            ):
                assert name in metrics_text
        finally:
            obs.reset()
            server.shutdown()

    def test_no_series_when_disabled(self):
        server = _make_server()
        obs.reset()
        try:
            assert not obs.is_enabled()
            with ServerClient(port=server.port) as client:
                assert client.reformulate(
                    ["probabilistic", "query"], k=2
                ).status == 200
            assert obs.registry().get("repro_server_requests_total") is None
        finally:
            obs.reset()
            server.shutdown()


class TestShutdown:
    def test_shutdown_stops_serving(self):
        server = _make_server()
        with ServerClient(port=server.port) as client:
            assert client.healthz().status == 200
        server.shutdown()
        with pytest.raises(ServerClientError):
            ServerClient(port=server.port, timeout_s=0.5).healthz()

    def test_shutdown_is_idempotent(self):
        server = _make_server()
        server.shutdown()
        server.shutdown()

    def test_shutdown_drains_in_flight_request(self):
        """A request executing when shutdown starts must complete 200."""
        server = _make_server(keepalive_timeout_s=0.5)
        live = server.live
        started = threading.Event()
        release = threading.Event()
        original = live.route

        def slow_reformulate(*args, **kwargs):
            started.set()
            assert release.wait(timeout=10.0)
            return original(*args, **kwargs)

        live.route = slow_reformulate
        responses = []

        def fire():
            with ServerClient(port=server.port) as c:
                responses.append(
                    c.reformulate(["probabilistic", "query"], k=2)
                )

        request_thread = threading.Thread(target=fire)
        request_thread.start()
        assert started.wait(timeout=10.0)
        drain_thread = threading.Thread(target=server.shutdown)
        drain_thread.start()
        time.sleep(0.1)
        assert server.draining and not server.ready
        assert drain_thread.is_alive()  # still waiting on the request
        release.set()
        request_thread.join(timeout=10.0)
        drain_thread.join(timeout=10.0)
        assert not drain_thread.is_alive()
        assert len(responses) == 1 and responses[0].status == 200


class TestRequestId:
    def test_client_id_echoed_on_200(self, client):
        response = client.request(
            "POST", "/reformulate",
            {"keywords": ["probabilistic", "query"], "k": 2},
            request_id="my-request-7",
        )
        assert response.status == 200
        assert response.request_id == "my-request-7"

    def test_generated_when_absent(self, client):
        response = client.healthz()
        assert response.request_id
        assert len(response.request_id) == 16
        int(response.request_id, 16)
        # health body unchanged: the id rides the header only
        assert response.json == {
            "status": "ok", "draining": False, "ingest_epoch": 0,
        }

    def test_unsafe_id_sanitized(self, client):
        response = client.request(
            "GET", "/healthz", request_id="a b!\tc" + "x" * 100
        )
        assert response.request_id == ("abcx" + "x" * 60)  # 64 chars max

    def test_present_on_400(self, client):
        response = client.request("POST", "/reformulate", {"keywords": []})
        assert response.status == 400
        assert response.request_id

    def test_present_on_404_and_405(self, client):
        assert client.request("GET", "/nope").request_id
        assert client.request("GET", "/reformulate").request_id

    def test_present_and_echoed_on_429_shed(self):
        server = _make_server(max_concurrency=1, queue_depth=0)
        try:
            with ServerClient(port=server.port) as client:
                with server.admission.admit():  # hold the only permit
                    response = client.request(
                        "POST", "/reformulate",
                        {"keywords": ["probabilistic", "query"]},
                        request_id="shed-me",
                    )
                    assert response.status == 429
                    assert response.request_id == "shed-me"
        finally:
            server.shutdown()


class TestDebugTraces:
    def test_trace_retrievable_with_span_tree_and_stages(self):
        server = _make_server(trace_sample_rate=1.0)
        obs.reset()
        try:
            with obs.enabled():
                with ServerClient(port=server.port) as client:
                    assert client.request(
                        "POST", "/reformulate",
                        {"keywords": ["probabilistic", "query"], "k": 2},
                        request_id="trace-me",
                    ).status == 200
                    payload = client.debug_traces().json
            assert payload["workers"] == [0]
            mine = [
                r for r in payload["traces"]
                if r["trace_id"] == "trace-me"
            ]
            assert len(mine) == 1
            record = mine[0]
            assert record["route"] == "/reformulate"
            assert record["status"] == 200
            assert record["cache"] == "miss"
            assert record["algorithm"] == "astar"
            assert record["keywords"] == ["probabilistic", "query"]
            for stage in ("parse", "queue_wait", "serialize",
                          "assemble", "decode"):
                assert stage in record["stages"], record["stages"]
            tree = record["span_tree"]
            assert tree["name"] == "http.request"
            assert tree["attributes"]["trace_id"] == "trace-me"
            names = {child["name"] for child in tree["children"]}
            assert {"admission", "handle"} <= names
        finally:
            obs.reset()
            server.shutdown()

    def test_unsampled_fast_request_not_retained(self):
        server = _make_server(trace_sample_rate=0.0, slow_trace_ms=60000)
        try:
            with ServerClient(port=server.port) as client:
                client.reformulate(["probabilistic", "query"], k=2)
                traces = client.debug_traces().json["traces"]
            # the /debug/traces request itself is also unsampled
            assert all(
                r["route"] != "/reformulate" for r in traces
            )
        finally:
            server.shutdown()

    def test_shed_request_always_captured(self):
        server = _make_server(
            max_concurrency=1, queue_depth=0, trace_sample_rate=0.0
        )
        try:
            with ServerClient(port=server.port) as client:
                with server.admission.admit():
                    client.request(
                        "POST", "/reformulate",
                        {"keywords": ["probabilistic", "query"]},
                        request_id="shed-trace",
                    )
                payload = client.debug_traces().json
            shed = [
                r for r in payload["traces"]
                if r["trace_id"] == "shed-trace"
            ]
            assert len(shed) == 1
            assert shed[0]["shed"] is True
            assert shed[0]["notable"] is True
            assert shed[0]["status"] == 429
            assert "queue_wait" in shed[0]["stages"]
        finally:
            server.shutdown()

    def test_degraded_request_always_captured(self):
        server = _make_server(trace_sample_rate=0.0)
        try:
            with ServerClient(port=server.port) as client:
                response = client.reformulate(
                    ["probabilistic", "query"], k=2, deadline_ms=1
                )
                assert response.json["degraded"] is True
                payload = client.debug_traces().json
            degraded = [
                r for r in payload["traces"] if r.get("degraded")
            ]
            assert degraded
            assert degraded[0]["degraded_mode"] == DEGRADE_VITERBI
        finally:
            server.shutdown()

    def test_n_param_limits_and_validates(self, client):
        assert client.debug_traces(n=1).status == 200
        assert len(client.debug_traces(n=1).json["traces"]) <= 1
        assert client.request("GET", "/debug/traces?n=zzz").status == 400


class TestAccessLog:
    def test_one_json_line_per_request_joinable_on_trace_id(self, tmp_path):
        log_path = tmp_path / "access.jsonl"
        server = _make_server(
            access_log_path=str(log_path), trace_sample_rate=1.0
        )
        try:
            with ServerClient(port=server.port) as client:
                client.request(
                    "POST", "/reformulate",
                    {"keywords": ["probabilistic", "query"], "k": 2},
                    request_id="logged-1",
                )
                client.healthz()
                client.request("POST", "/reformulate", {"keywords": []})
        finally:
            server.shutdown()
        import json as _json

        lines = [
            _json.loads(line)
            for line in log_path.read_text().splitlines()
        ]
        assert len(lines) == 3
        by_id = {line["trace_id"]: line for line in lines}
        record = by_id["logged-1"]
        assert record["route"] == "/reformulate"
        assert record["status"] == 200
        assert "span_tree" not in record  # bulky: flight recorder only
        assert record["stages"]["queue_wait"] == 0.0
        statuses = sorted(line["status"] for line in lines)
        assert statuses == [200, 200, 400]

    def test_no_log_file_when_disabled(self, server):
        assert server.access_log is None
