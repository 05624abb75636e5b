"""Bench: the HTTP serving daemon vs the in-process pipeline.

The daemon (:mod:`repro.server`) adds a network hop, JSON codec, and
admission control on top of :meth:`LiveReformulator.route`.
This bench quantifies that tax and proves the overload story.

Acceptance bars (asserted below):

* **QPS within 20%** of an in-process ``route`` batch — 8 closed-loop
  keep-alive clients vs one batch (answered on the calling thread)
  over the same distinct query set, both lanes decode-bound (plan
  cache off, result LRUs dropped before timing) so the comparison
  measures the serving tax on real decodes, not HTTP overhead against
  a cache hit;
* **zero dropped requests at 2x capacity** — every request against a
  deliberately undersized daemon resolves to 200 or a clean 429 (with
  ``Retry-After``), nothing hangs or errors, and the 429s equal
  ``repro_server_shed_total``;
* **bit-identical suggestions** — every HTTP response equals the
  direct :meth:`LiveReformulator.reformulate_lane` answer on
  ``(text, score, state_path)``; JSON floats round-trip exactly.
* **pre-fork pool >= 2.5x QPS at 4 workers vs 1** on decode-bound
  traffic (asserted where >= 4 cores exist; reported everywhere).

Script mode (used by the CI server smoke job) boots a daemon over the
small synthetic corpus, exercises every endpoint plus a forced shed and
a degraded request, boots a 2-worker pre-fork pool (healthz /
reformulate / aggregated metrics / drain), and dumps the metrics
registry as JSON::

    PYTHONPATH=src python benchmarks/bench_server_qps.py \
        --smoke --metrics-out BENCH_server.json
"""

import os
import threading
import time

import pytest

from repro.core.reformulator import Reformulator, ReformulatorConfig
from repro.lanes import Request

K = 10
N_CANDIDATES = 25
N_DISTINCT = 48
QUERY_LENGTH = 4
CONCURRENCY = 8
ROUNDS = 3


def _config() -> ReformulatorConfig:
    # Plan cache off in BOTH lanes: with it warm, a "decode" is a
    # sub-millisecond cache assembly and the comparison would measure
    # HTTP overhead against a no-op.  The serving tax is meaningful
    # relative to the real per-query decode, which is what production
    # traffic (unbounded vocabulary, finite cache) actually pays.
    return ReformulatorConfig(
        n_candidates=N_CANDIDATES, enable_plan_cache=False
    )


def _distinct_queries(context, n=N_DISTINCT, length=QUERY_LENGTH):
    out = []
    seen = set()
    for wq in context.workloads.queries_of_length(length, 2 * n):
        key = tuple(wq.keywords)
        if key not in seen:
            seen.add(key)
            out.append(list(wq.keywords))
        if len(out) == n:
            break
    return out


def _make_live(context):
    """A LiveReformulator sharing the context's prebuilt graph."""
    from repro.live import LiveReformulator

    live = LiveReformulator(context.database, _config())
    live._pipeline = Reformulator(context.graph, _config())
    live._dirty = False
    live._version = 1
    return live


def _make_server(context, **config_kwargs):
    from repro.server import ReformulationServer, ServerConfig

    defaults = dict(
        port=0, max_concurrency=CONCURRENCY, queue_depth=4 * CONCURRENCY,
        warm_on_start=False,
    )
    defaults.update(config_kwargs)
    return ReformulationServer(
        _make_live(context), ServerConfig(**defaults)
    ).start()


def _signature(results):
    return [(q.text, q.score, q.state_path) for q in results]


def _closed_loop(port, queries, n_clients=CONCURRENCY, deadline_ms=None):
    """Drive *queries* through *n_clients* keep-alive connections.

    Returns (wall_seconds, responses) with responses in query order.
    Closed-loop: each client immediately issues its next query when the
    previous response lands — the standard saturation load shape.
    """
    from repro.server import ServerClient

    responses = [None] * len(queries)
    cursor = {"next": 0}
    lock = threading.Lock()
    errors = []

    def worker():
        try:
            with ServerClient(port=port) as client:
                while True:
                    with lock:
                        i = cursor["next"]
                        if i >= len(queries):
                            return
                        cursor["next"] = i + 1
                    responses[i] = client.reformulate(
                        queries[i], k=K, deadline_ms=deadline_ms
                    )
        except Exception as exc:  # noqa: BLE001 - a drop fails the bench
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(n_clients)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    seconds = time.perf_counter() - start
    if errors:
        raise AssertionError(f"dropped requests: {errors[:3]}")
    return seconds, responses


def test_server_qps_within_20pct_of_inprocess(benchmark, small_context):
    """Primary bar: the HTTP hop costs at most 20% QPS at concurrency 8."""
    from repro.server import suggestions_signature

    queries = _distinct_queries(small_context)
    server = _make_server(small_context)
    try:
        live = _make_live(small_context)

        def run():
            # Warm extractor-internal caches on both lanes once; the
            # measured rounds then drop the result LRUs so every pass
            # decodes every query.  Best-of-ROUNDS per lane irons out
            # scheduler noise — the bar compares capability, not one
            # lucky or unlucky scheduling of 16 threads.
            requests = [Request(query, K, "hmm") for query in queries]
            live.route(requests)
            server.live.route(requests)
            inprocess_times, server_times = [], []
            expected = responses = None
            for _ in range(ROUNDS):
                live.result_cache.clear()
                start = time.perf_counter()
                expected = [
                    result.suggestions
                    for result in live.route(requests)
                ]
                inprocess_times.append(time.perf_counter() - start)

                server.live.result_cache.clear()
                seconds, responses = _closed_loop(server.port, queries)
                server_times.append(seconds)
            return min(inprocess_times), min(server_times), \
                expected, responses

        inprocess_s, server_s, expected, responses = benchmark.pedantic(
            run, rounds=1, iterations=1
        )
        qps_inprocess = len(queries) / inprocess_s
        qps_server = len(queries) / server_s
        ratio = qps_server / qps_inprocess
        print("\n" + "=" * 60)
        print(f"{len(queries)} distinct queries, concurrency {CONCURRENCY}")
        print(f"  in-process batch : {inprocess_s:6.2f} s "
              f"({qps_inprocess:7.1f} QPS)")
        print(f"  HTTP closed-loop : {server_s:6.2f} s "
              f"({qps_server:7.1f} QPS)")
        print(f"  server/in-process: {ratio:6.2f}x")

        for response, reference in zip(responses, expected):
            assert response.status == 200
            assert not response.json["degraded"]
            assert suggestions_signature(
                response.json["suggestions"]
            ) == _signature(reference)
        assert ratio >= 0.8
    finally:
        server.shutdown()


def test_overload_2x_capacity_sheds_cleanly(small_context):
    """At 2x capacity nothing is dropped: every request resolves to 200
    or an accounted-for 429, and the shed counter matches exactly."""
    from repro import obs

    queries = _distinct_queries(small_context)
    capacity = 2  # 2 executing + 2 queued...
    server = _make_server(
        small_context, max_concurrency=capacity, queue_depth=capacity,
        queue_timeout_s=0.05,
    )
    obs.reset()
    try:
        # ...driven by 2x (executing + queued) closed-loop clients.
        n_clients = 2 * (capacity + capacity)
        log = [queries[i % len(queries)] for i in range(6 * n_clients)]
        with obs.enabled():
            server.live.result_cache.clear()
            _, responses = _closed_loop(
                server.port, log, n_clients=n_clients
            )
        statuses = [response.status for response in responses]
        n_ok = statuses.count(200)
        n_shed = statuses.count(429)
        print(f"\noverload: {len(log)} requests -> "
              f"{n_ok} served, {n_shed} shed")
        assert n_ok + n_shed == len(log)  # nothing dropped or 5xx
        assert n_ok >= 1
        for response in responses:
            if response.status == 429:
                assert response.retry_after >= 1
        shed_counter = obs.registry().get("repro_server_shed_total")
        stats = server.admission.stats()
        assert stats.admitted == n_ok
        assert stats.shed == n_shed
        if n_shed:
            assert shed_counter is not None
            assert shed_counter.value == n_shed
    finally:
        obs.reset()
        server.shutdown()


# --------------------------------------------------------------------- #
# pre-fork scaling leg
# --------------------------------------------------------------------- #

PREFORK_MIN_RATIO = 2.5
PREFORK_WORKERS = 4


def _make_live_nocache(context):
    """Decode-bound pipeline: plan cache off AND result LRU off, so the
    pre-fork scaling leg measures per-request decode throughput rather
    than per-worker cache hit rates."""
    from repro.live import LiveReformulator

    config = ReformulatorConfig(
        n_candidates=N_CANDIDATES, enable_plan_cache=False,
        result_cache_size=0,
    )
    live = LiveReformulator(context.database, config)
    live._pipeline = Reformulator(context.graph, config)
    live._dirty = False
    live._version = 1
    return live


def _prefork_qps(context, queries, n_workers):
    from repro.server import PreforkServer, ServerConfig

    live = _make_live_nocache(context)  # built pre-fork: workers share CoW
    pool = PreforkServer(
        lambda: live,
        ServerConfig(
            port=0, max_concurrency=CONCURRENCY,
            queue_depth=4 * CONCURRENCY, warm_on_start=False,
        ),
        workers=n_workers,
        enable_metrics=False,
    )
    pool.start(ready_timeout_s=120.0)
    try:
        _closed_loop(pool.port, queries)  # warm connections + extractors
        best = min(
            _closed_loop(pool.port, queries)[0] for _ in range(ROUNDS)
        )
    finally:
        pool.shutdown()
    return len(queries) / best


@pytest.mark.skipif(
    not hasattr(os, "fork"), reason="pre-fork pool requires os.fork"
)
def test_prefork_4_workers_scales_qps(small_context):
    """Scaling bar: >= 2.5x QPS at 4 workers vs 1 on decode-bound load.

    The ratio is only asserted where >= 4 cores exist (CI runners);
    on smaller machines the leg still runs both pools end to end and
    reports the measured ratio, proving the multi-worker path works.
    """
    queries = _distinct_queries(small_context)
    qps_1 = _prefork_qps(small_context, queries, 1)
    qps_4 = _prefork_qps(small_context, queries, PREFORK_WORKERS)
    ratio = qps_4 / qps_1
    print("\n" + "=" * 60)
    print(f"{len(queries)} distinct queries, {CONCURRENCY} clients")
    print(f"  1 worker : {qps_1:7.1f} QPS")
    print(f"  {PREFORK_WORKERS} workers: {qps_4:7.1f} QPS")
    print(f"  scaling  : {ratio:6.2f}x")
    if (os.cpu_count() or 1) < PREFORK_WORKERS:
        pytest.skip(
            f"{os.cpu_count()} cores < {PREFORK_WORKERS}; "
            f"measured {ratio:.2f}x, ratio not asserted"
        )
    assert ratio >= PREFORK_MIN_RATIO


def run_smoke(metrics_out: str, scale: str = "small") -> int:
    """Boot the daemon, exercise every endpoint, export the registry.

    The CI server smoke job runs this after the curl-based liveness
    checks: it proves the in-process client, bit-identical responses,
    a forced shed, a degraded answer, and the metrics series end to end.
    """
    from repro import obs
    from repro.experiments import build_context
    from repro.obs.export import registry_to_json
    from repro.server import ServerClient, suggestions_signature

    obs.reset()
    context = build_context(scale=scale, seed=7)
    queries = _distinct_queries(context, n=6)
    failures = []

    def check(name, condition):
        print(f"  {'ok' if condition else 'FAIL'}: {name}")
        if not condition:
            failures.append(name)

    with obs.enabled():
        server = _make_server(context, max_concurrency=2, queue_depth=2)
        try:
            with ServerClient(port=server.port) as client:
                check("healthz", client.healthz().status == 200)
                check("readyz", client.readyz().status == 200)

                response = client.reformulate(queries[0], k=K)
                direct = server.live.reformulate_lane(queries[0], k=K)
                check("reformulate 200", response.status == 200)
                check(
                    "bit-identical vs in-process",
                    suggestions_signature(response.json["suggestions"])
                    == _signature(direct.suggestions),
                )

                batch = client.batch(queries, k=K)
                check(
                    "batch 200 with all entries",
                    batch.status == 200
                    and len(batch.json["results"]) == len(queries),
                )

                term = queries[0][0]
                check("similar 200", client.similar(term).status == 200)

                degraded = client.reformulate(
                    queries[1], k=K, deadline_ms=1
                )
                check(
                    "tight deadline degrades",
                    degraded.status == 200
                    and degraded.json["degraded"] is True
                    and degraded.json["suggestions"],
                )

                with server.admission.admit(), server.admission.admit():
                    shed = client.reformulate(queries[2], k=K)
                check(
                    "saturated daemon sheds 429 + Retry-After",
                    shed.status == 429 and shed.retry_after >= 1,
                )

                check(
                    "admin reload",
                    client.admin_reload().json.get("reloaded") is True,
                )
                metrics_text = client.metrics().text
                for series in (
                    "repro_server_requests_total",
                    "repro_server_request_seconds",
                    "repro_server_shed_total",
                    "repro_server_degraded_total",
                ):
                    check(f"metrics exports {series}",
                          series in metrics_text)
        finally:
            server.shutdown()
        check("daemon drained", server.draining)

    # pre-fork pool leg: 2 workers over the same corpus — boot, serve,
    # aggregate metrics, drain.  Mirrors `repro serve --workers 2`.
    if hasattr(os, "fork"):
        from repro.server import PreforkServer, ServerConfig

        live = _make_live(context)  # built pre-fork: workers share CoW
        pool = PreforkServer(
            lambda: live,
            ServerConfig(
                port=0, max_concurrency=4, queue_depth=8,
                warm_on_start=False, metrics_flush_interval_s=0.2,
            ),
            workers=2,
        )
        pool.start(ready_timeout_s=120.0)
        try:
            check("pool boots 2 workers", len(pool.worker_pids) == 2)
            with ServerClient(port=pool.port) as client:
                check("pool healthz", client.healthz().status == 200)
                response = client.reformulate(queries[0], k=K)
                check(
                    "pool reformulate bit-identical",
                    response.status == 200
                    and suggestions_signature(response.json["suggestions"])
                    == _signature(
                        live.reformulate_lane(queries[0], k=K).suggestions
                    ),
                )
                deadline = time.monotonic() + 15.0
                aggregated = ""
                while time.monotonic() < deadline:
                    aggregated = client.metrics_aggregate().text
                    if "repro_server_requests_total" in aggregated:
                        break
                    time.sleep(0.2)
                check(
                    "pool aggregate metrics",
                    "repro_server_requests_total" in aggregated,
                )
        finally:
            pool.shutdown()
        check("pool drained", pool.worker_pids == [])
    else:  # pragma: no cover - non-posix fallback
        print("  skip: pre-fork pool (no os.fork)")

    with open(metrics_out, "w", encoding="utf-8") as handle:
        handle.write(registry_to_json(obs.registry()))
    print(f"wrote metrics export to {metrics_out}")
    obs.reset()
    if failures:
        print(f"smoke FAILED: {failures}")
        return 1
    print("smoke passed")
    return 0


def main() -> int:
    """Script entry point: ``--smoke`` plus export/scale knobs."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="endpoint walk + shed + degrade on a tiny corpus (CI)",
    )
    parser.add_argument(
        "--metrics-out", default="BENCH_server.json",
        help="where to write the JSON metrics export",
    )
    parser.add_argument(
        "--scale", default="small", choices=("small", "medium", "large"),
    )
    args = parser.parse_args()
    if not args.smoke:
        parser.error("script mode currently only implements --smoke; "
                     "run the full comparison through pytest")
    return run_smoke(args.metrics_out, scale=args.scale)


if __name__ == "__main__":
    raise SystemExit(main())
