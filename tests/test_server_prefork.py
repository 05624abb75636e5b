"""Tests for the SO_REUSEPORT pre-fork worker pool.

Boots real multi-process pools over the toy corpus: READY handshake,
kernel-balanced accepts across distinct worker pids, bit-identical
responses vs the in-process pipeline, aggregated metrics convergence,
worker-crash-and-respawn, and drain-under-load.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import pytest

from repro.core.reformulator import ReformulatorConfig
from repro.errors import ReproError
from repro.live import LiveReformulator
from repro.server import (
    PreforkServer,
    ServerClient,
    ServerClientError,
    ServerConfig,
    suggestions_signature,
)

from tests.conftest import build_toy_database

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="pre-fork pool requires os.fork"
)


@pytest.fixture(scope="module")
def warm_live():
    """A warmed pipeline, built once — forked workers share it CoW."""
    live = LiveReformulator(
        build_toy_database(), ReformulatorConfig(n_candidates=8)
    )
    live.pipeline()
    return live


def _config(**overrides) -> ServerConfig:
    defaults = dict(
        port=0,
        max_concurrency=4,
        queue_depth=8,
        metrics_flush_interval_s=0.2,
    )
    defaults.update(overrides)
    return ServerConfig(**defaults)


@pytest.fixture()
def pool(warm_live):
    pool = PreforkServer(
        lambda: warm_live, _config(), workers=2, drain_timeout_s=10.0
    )
    pool.start(ready_timeout_s=60.0)
    yield pool
    pool.shutdown()


def _fresh_request(port, method, *args, **kwargs):
    """One request on a fresh connection (a new source port each time,
    so the kernel's REUSEPORT hash can land on any worker)."""
    with ServerClient(port=port, timeout_s=10.0) as client:
        return getattr(client, method)(*args, **kwargs)


class TestPoolBoot:
    def test_workers_alive_and_ready(self, pool):
        assert len(pool.worker_pids) == 2
        assert len(set(pool.worker_pids)) == 2
        response = _fresh_request(pool.port, "readyz")
        assert response.status == 200

    def test_distinct_pids_answer(self, pool):
        # fresh connections hash to different workers; healthz reports
        # the answering worker's identity in pool mode
        seen = set()
        deadline = time.monotonic() + 30.0
        while len(seen) < 2 and time.monotonic() < deadline:
            response = _fresh_request(pool.port, "healthz")
            assert response.status == 200
            body = response.json
            assert body["status"] == "ok"
            assert "worker" in body and "pid" in body
            seen.add(body["pid"])
        assert seen <= set(pool.worker_pids)
        assert len(seen) == 2, "accepts never balanced across workers"

    def test_responses_bit_identical_to_inprocess(self, pool, warm_live):
        queries = [["probabilistic", "query"], ["pattern", "mining"]]
        for keywords in queries:
            expected = [
                (s.text, s.score, tuple(s.state_path))
                for s in warm_live.reformulate(keywords, k=5)
            ]
            for _ in range(4):  # hit both workers
                response = _fresh_request(
                    pool.port, "reformulate", keywords, k=5
                )
                assert response.status == 200
                got = suggestions_signature(
                    response.json["suggestions"]
                )
                assert got == expected

    def test_port_zero_resolves_once_for_all_workers(self, pool):
        assert pool.port != 0
        # every worker accepted on the same resolved port (the requests
        # above all used pool.port); nothing else to assert beyond that
        assert _fresh_request(pool.port, "healthz").status == 200


class TestAggregatedMetrics:
    def test_per_worker_and_aggregate_views(self, pool):
        n_requests = 6
        for _ in range(n_requests):
            response = _fresh_request(
                pool.port, "reformulate", ["probabilistic", "query"], k=3
            )
            assert response.status == 200
        # per-worker view exists on whichever worker answers
        text = _fresh_request(pool.port, "metrics").text
        assert "repro_server_requests_total" in text
        # the aggregate merges all spooled snapshots; totals converge to
        # at least the requests this test issued (spool flushes lag by
        # up to metrics_flush_interval_s, so poll)
        deadline = time.monotonic() + 30.0
        total = 0.0
        while time.monotonic() < deadline:
            aggregate = _fresh_request(pool.port, "metrics_aggregate").text
            total = sum(
                float(line.rsplit(" ", 1)[1])
                for line in aggregate.splitlines()
                if line.startswith("repro_server_requests_total")
                and 'route="/reformulate"' in line
                and 'status="200"' in line
            )
            if total >= n_requests:
                break
            time.sleep(0.2)
        assert total >= n_requests

    def test_per_lane_series_aggregate_across_workers(self, pool):
        """repro_lane_requests_total merges per lane across the pool.

        Every query is distinct: the counter tracks lane *executions*,
        and a repeat query would be served from each worker's result
        cache without touching the lane.
        """
        hmm_queries = [
            ["probabilistic", "query"], ["uncertain", "data"],
            ["pattern", "mining"], ["probabilistic", "pattern"],
        ]
        enum_queries = [
            ["frequent", "pattern"], ["uncertain", "query"], ["mining"],
        ]
        for keywords in hmm_queries:
            assert _fresh_request(
                pool.port, "reformulate", keywords, k=3, lane="hmm",
            ).status == 200
        for keywords in enum_queries:
            assert _fresh_request(
                pool.port, "reformulate", keywords, k=3, lane="enumeration",
            ).status == 200
        n_hmm, n_enum = len(hmm_queries), len(enum_queries)

        def lane_total(text, lane):
            return sum(
                float(line.rsplit(" ", 1)[1])
                for line in text.splitlines()
                if line.startswith("repro_lane_requests_total")
                and f'lane="{lane}"' in line
            )

        deadline = time.monotonic() + 30.0
        totals = (0.0, 0.0)
        while time.monotonic() < deadline:
            aggregate = _fresh_request(pool.port, "metrics_aggregate").text
            totals = (
                lane_total(aggregate, "hmm"),
                lane_total(aggregate, "enumeration"),
            )
            if totals[0] >= n_hmm and totals[1] >= n_enum:
                break
            time.sleep(0.2)
        assert totals[0] >= n_hmm
        assert totals[1] >= n_enum

    def test_worker_up_series(self, pool):
        _fresh_request(pool.port, "reformulate", ["pattern"], k=2)
        deadline = time.monotonic() + 30.0
        workers_up = 0
        while time.monotonic() < deadline:
            aggregate = _fresh_request(pool.port, "metrics_aggregate").text
            workers_up = sum(
                1
                for line in aggregate.splitlines()
                if line.startswith("repro_server_worker_up{")
                and line.rstrip().endswith(" 1")
            )
            if workers_up >= 2:
                break
            time.sleep(0.2)
        assert workers_up == 2


class TestCrashRespawn:
    def test_killed_worker_is_respawned(self, warm_live):
        pool = PreforkServer(
            lambda: warm_live, _config(), workers=2, drain_timeout_s=10.0
        )
        pool.start(ready_timeout_s=60.0)
        try:
            original = set(pool.worker_pids)
            victim = pool.worker_pids[0]
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                pids = set(pool.worker_pids)
                if len(pids) == 2 and victim not in pids:
                    break
                time.sleep(0.1)
            pids = set(pool.worker_pids)
            assert victim not in pids
            assert len(pids) == 2, "crashed worker was not respawned"
            assert pids != original
            # the pool still serves correct answers after the respawn
            for _ in range(4):
                response = _fresh_request(
                    pool.port, "reformulate", ["probabilistic"], k=3
                )
                assert response.status == 200
                assert response.json["suggestions"]
        finally:
            pool.shutdown()

    def test_respawn_cap_abandons_slot(self, warm_live):
        pool = PreforkServer(
            lambda: warm_live, _config(), workers=2,
            max_respawns=0, drain_timeout_s=10.0,
        )
        pool.start(ready_timeout_s=60.0)
        try:
            victim = pool.worker_pids[0]
            survivor = pool.worker_pids[1]
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 30.0
            while victim in pool.worker_pids and time.monotonic() < deadline:
                time.sleep(0.1)
            assert pool.worker_pids == [survivor]
            # the surviving worker still answers
            response = _fresh_request(pool.port, "healthz")
            assert response.status == 200
        finally:
            pool.shutdown()


class TestDrain:
    def test_drain_under_load(self, warm_live):
        pool = PreforkServer(
            lambda: warm_live, _config(), workers=2, drain_timeout_s=15.0
        )
        pool.start(ready_timeout_s=60.0)
        statuses: list = []
        errors: list = []
        stop = threading.Event()

        def hammer() -> None:
            while not stop.is_set():
                try:
                    response = _fresh_request(
                        pool.port, "reformulate",
                        ["probabilistic", "query"], k=5,
                    )
                    statuses.append(response.status)
                except ServerClientError:
                    # refused/reset while the pool winds down is the
                    # expected fate of requests racing the close
                    errors.append(1)
                    if stop.is_set():
                        return

        threads = [
            threading.Thread(target=hammer, daemon=True) for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 10.0
        while len(statuses) < 8 and time.monotonic() < deadline:
            time.sleep(0.05)
        assert len(statuses) >= 8, "load never reached the pool"
        pool.shutdown()
        stop.set()
        for thread in threads:
            thread.join(timeout=10.0)
        # every accepted request was answered, never half-dropped
        assert set(statuses) <= {200, 429}
        assert statuses.count(200) >= 8
        # and the port is actually released
        with pytest.raises(ServerClientError):
            ServerClient(port=pool.port, timeout_s=0.5).healthz()

    def test_shutdown_idempotent_and_start_once(self, warm_live):
        pool = PreforkServer(lambda: warm_live, _config(), workers=1)
        pool.start(ready_timeout_s=60.0)
        with pytest.raises(ReproError, match="already started"):
            pool.start()
        pool.shutdown()
        pool.shutdown()  # second call returns immediately
        assert pool.worker_pids == []


class TestAdminReloadSemantics:
    """/admin/reload is per-worker: only the accepting worker refreshes.

    The response names the worker that served it, so operators can tell
    which copy was reloaded and repeat until every index answered (or
    use /admin/ingest, whose layer chain fans out automatically).
    """

    def test_reload_names_exactly_one_worker_per_call(self, pool):
        seen = set()
        deadline = time.monotonic() + 30.0
        while len(seen) < 2 and time.monotonic() < deadline:
            response = _fresh_request(
                pool.port, "request", "POST", "/admin/reload", {}
            )
            assert response.status == 200
            body = response.json
            assert body["reloaded"] is True
            assert body["worker"] in (0, 1)
            assert body["pid"] in pool.worker_pids
            seen.add(body["worker"])
        assert seen == {0, 1}, "reload never reached both workers"


NEW_ROWS = [
    {
        "table": "papers",
        "row": {
            "pid": 4, "title": "uncertain stream mining",
            "cid": 1, "year": 2012,
        },
    },
    {"table": "writes", "row": {"wid": 4, "aid": 2, "pid": 4}},
]


class TestPoolIngest:
    """POST /admin/ingest converges every worker via the layer chain."""

    @pytest.fixture()
    def ingest_pool(self, tmp_path_factory):
        from repro.graph.tat import TATGraph
        from repro.index.inverted import InvertedIndex
        from repro.offline import OfflinePrecomputer
        from repro.storage.binary import write_store_v3

        database = build_toy_database()
        graph = TATGraph(database, InvertedIndex(database))
        store = OfflinePrecomputer(
            graph, n_similar=8, closeness_top=30
        ).build_store(walk_method="direct")
        root = write_store_v3(
            store,
            tmp_path_factory.mktemp("pool-store") / "store",
            build_info={"n_similar": 8, "closeness_top": 30},
        )
        live = LiveReformulator(
            build_toy_database(),
            ReformulatorConfig(n_candidates=8),
            relations=root,
        )
        live.pipeline()
        pool = PreforkServer(
            lambda: live, _config(), workers=2, drain_timeout_s=10.0
        )
        pool.start(ready_timeout_s=60.0)
        yield pool
        pool.shutdown()

    def test_ingest_converges_all_workers_without_errors(self, ingest_pool):
        pool = ingest_pool
        statuses: list = []
        errors: list = []
        stop = threading.Event()

        def hammer() -> None:
            while not stop.is_set():
                try:
                    response = _fresh_request(
                        pool.port, "reformulate",
                        ["probabilistic", "query"], k=3,
                    )
                    statuses.append(response.status)
                except ServerClientError as exc:
                    if not stop.is_set():
                        errors.append(exc)

        threads = [
            threading.Thread(target=hammer, daemon=True) for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        try:
            response = _fresh_request(
                pool.port, "request", "POST", "/admin/ingest",
                {"rows": NEW_ROWS},
            )
            assert response.status == 200
            body = response.json
            assert body["ingested"] is True
            assert body["stats"]["epoch"] == 1
            assert body["stats"]["n_rows"] == len(NEW_ROWS)
            assert body["worker"] in (0, 1)

            # the sibling replays the layer on its flush tick; poll the
            # health probe until every worker pid reports the new epoch
            epochs: dict = {}
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                probe = _fresh_request(pool.port, "healthz")
                assert probe.status == 200
                epochs[probe.json["pid"]] = probe.json["ingest_epoch"]
                if len(epochs) == 2 and set(epochs.values()) == {1}:
                    break
                time.sleep(0.05)
            assert len(epochs) == 2, "never heard from both workers"
            assert set(epochs.values()) == {1}, epochs
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10.0)
        # zero non-{200,429} responses during the swap
        assert errors == []
        assert set(statuses) <= {200, 429}
        assert statuses.count(200) >= 1

    def test_all_workers_serve_ingested_terms_identically(
        self, ingest_pool
    ):
        pool = ingest_pool
        response = _fresh_request(
            pool.port, "request", "POST", "/admin/ingest",
            {"rows": NEW_ROWS},
        )
        assert response.status == 200
        deadline = time.monotonic() + 30.0
        epochs: dict = {}
        while time.monotonic() < deadline:
            probe = _fresh_request(pool.port, "healthz")
            epochs[probe.json["pid"]] = probe.json["ingest_epoch"]
            if len(epochs) == 2 and set(epochs.values()) == {1}:
                break
            time.sleep(0.05)
        assert set(epochs.values()) == {1}
        # the ingested title's terms answer identically from fresh
        # connections (which hash across both workers)
        signatures = set()
        for _ in range(8):
            result = _fresh_request(
                pool.port, "reformulate", ["uncertain", "stream"], k=3
            )
            assert result.status == 200
            assert result.json["suggestions"]
            signatures.add(
                tuple(suggestions_signature(result.json["suggestions"]))
            )
        assert len(signatures) == 1

    def test_ingest_rejects_bad_rows(self, ingest_pool):
        response = _fresh_request(
            ingest_pool.port, "request", "POST", "/admin/ingest",
            {"rows": []},
        )
        assert response.status == 400


class TestPoolTracing:
    @pytest.fixture()
    def tracing_pool(self, warm_live):
        pool = PreforkServer(
            lambda: warm_live,
            _config(trace_sample_rate=1.0, slow_trace_ms=0.0),
            workers=2,
            drain_timeout_s=10.0,
        )
        pool.start(ready_timeout_s=60.0)
        yield pool
        pool.shutdown()

    def test_every_worker_response_carries_request_id(self, tracing_pool):
        for i in range(8):
            response = _fresh_request(
                tracing_pool.port, "request", "POST", "/reformulate",
                {"keywords": ["probabilistic", "query"], "k": 2},
                request_id=f"pool-req-{i}",
            )
            assert response.status == 200
            assert response.request_id == f"pool-req-{i}"
        # generated ids on requests that do not send one
        assert _fresh_request(tracing_pool.port, "healthz").request_id

    def test_debug_traces_aggregates_across_workers(self, tracing_pool):
        """The acceptance path: a slow/degraded request's span tree is
        retrievable via GET /debug/traces from any worker of a 2-worker
        pool (snapshots spool on the flush cadence, so poll)."""
        ids = {f"agg-{i}" for i in range(6)}
        for trace_id in sorted(ids):
            response = _fresh_request(
                tracing_pool.port, "request", "POST", "/reformulate",
                {"keywords": ["probabilistic", "query"], "k": 2},
                request_id=trace_id,
            )
            assert response.status == 200
        degraded = _fresh_request(
            tracing_pool.port, "request", "POST", "/reformulate",
            {"keywords": ["probabilistic", "query"], "deadline_ms": 1},
            request_id="agg-degraded",
        )
        assert degraded.status == 200
        assert degraded.json["degraded"] is True
        wanted = ids | {"agg-degraded"}
        deadline = time.monotonic() + 30.0
        seen = set()
        payload = {}
        while time.monotonic() < deadline:
            payload = _fresh_request(
                tracing_pool.port, "debug_traces"
            ).json
            seen = {r["trace_id"] for r in payload["traces"]}
            if wanted <= seen and payload["workers"] == [0, 1]:
                break
            time.sleep(0.2)
        assert wanted <= seen
        assert payload["workers"] == [0, 1]
        by_id = {r["trace_id"]: r for r in payload["traces"]}
        record = by_id[sorted(ids)[0]]
        assert record["span_tree"]["name"] == "http.request"
        assert record["span_tree"]["attributes"]["trace_id"] == (
            record["trace_id"]
        )
        for stage in ("queue_wait", "decode", "serialize"):
            assert stage in record["stages"], record["stages"]
        assert record["worker"] in (0, 1)
        deg = by_id["agg-degraded"]
        assert deg["degraded"] is True and deg["notable"] is True
        assert deg["degraded_mode"] is not None
