"""Thread-safety and batch cache-routing regressions for LiveReformulator.

Covers the serving-daemon requirements on the in-process wrapper:

* ``pipeline()`` check-then-rebuild is serialized — concurrent queries
  racing a mutation trigger exactly one rebuild;
* ``insert``/``reformulate`` hammered from threads never corrupts the
  version counter or returns through a half-built pipeline;
* a batch through ``LiveReformulator.route`` sends every entry through
  the version-aware result LRU, sharing entries with the single-query
  path and counting staleness bypasses per entry.
"""

import threading

import pytest

from repro import obs
from repro.core.reformulator import ReformulatorConfig
from repro.lanes import Request
from repro.live import LiveReformulator

from tests.conftest import build_toy_database


QUERY = ["probabilistic", "query"]
OTHER = ["pattern", "mining"]


def batch(live, queries, k, algorithm="astar"):
    """Suggestion lists of one batch through ``LiveReformulator.route``."""
    requests = [Request(query, k, "hmm", algorithm) for query in queries]
    return [list(result.suggestions) for result in live.route(requests)]


def make_live(result_cache_size: int = 64) -> LiveReformulator:
    return LiveReformulator(
        build_toy_database(),
        ReformulatorConfig(
            n_candidates=6, result_cache_size=result_cache_size
        ),
    )


def paper_row(i: int) -> dict:
    return {
        "pid": 9000 + i,
        "title": f"streaming threads paper {i}",
        "cid": 1,
        "year": 2012,
    }


class TestPipelineRebuildRace:
    def test_concurrent_pipelines_after_mutation_rebuild_once(self):
        live = make_live()
        live.pipeline()
        version = live.version
        live.insert("papers", paper_row(0))
        barrier = threading.Barrier(8)
        pipelines = []
        lock = threading.Lock()
        errors = []

        def query():
            try:
                barrier.wait(timeout=10.0)
                pipeline = live.pipeline()
                with lock:
                    pipelines.append(pipeline)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=query) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not errors
        # exactly one rebuild: one version bump, one shared pipeline
        assert live.version == version + 1
        assert len({id(pipeline) for pipeline in pipelines}) == 1
        assert not live.is_stale

    def test_hammer_insert_and_reformulate(self):
        """The regression this subsystem exists for: writers inserting
        while readers reformulate must never crash or skew the version."""
        live = make_live()
        live.pipeline()
        n_writers, n_readers, rounds = 2, 4, 6
        start_version = live.version
        errors = []
        go = threading.Event()

        def writer(worker: int):
            try:
                go.wait(timeout=10.0)
                for round_no in range(rounds):
                    live.insert(
                        "papers", paper_row(100 * worker + round_no)
                    )
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        def reader():
            try:
                go.wait(timeout=10.0)
                for _ in range(rounds):
                    suggestions = list(live.reformulate_lane(QUERY, k=3).suggestions)
                    assert suggestions and suggestions[0].score > 0
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(i,))
            for i in range(n_writers)
        ] + [threading.Thread(target=reader) for _ in range(n_readers)]
        for thread in threads:
            thread.start()
        go.set()
        for thread in threads:
            thread.join(timeout=120.0)
        assert not errors
        # every insert eventually lands: a final query sees all rows
        live.reformulate_lane(QUERY, k=3)
        assert not live.is_stale
        n_rows = len(live.database.table("papers"))
        assert n_rows >= 4 + n_writers * rounds
        # versions moved monotonically and boundedly: at most one rebuild
        # per query round plus the final refresh
        assert start_version < live.version <= start_version + (
            n_writers * rounds + 1
        )


class TestReformulateManyCacheRouting:
    """Batches through ``LiveReformulator.route`` and its result cache."""

    def test_batch_populates_and_hits_the_result_cache(self):
        live = make_live()
        live.pipeline()  # build now: a stale batch would bypass the lookup
        cache = live.result_cache
        first = batch(live, [QUERY, OTHER], k=3)
        stats = cache.stats()
        assert stats.hits == 0 and stats.misses == 2
        assert len(cache) == 2
        again = batch(live, [QUERY, OTHER], k=3)
        stats = cache.stats()
        assert stats.hits == 2 and stats.misses == 2
        assert again == first

    def test_batch_and_single_share_entries(self):
        live = make_live()
        single = list(live.reformulate_lane(QUERY, k=3).suggestions)
        hits_before = live.result_cache.stats().hits
        batched = batch(live, [QUERY, OTHER], k=3)
        assert live.result_cache.stats().hits == hits_before + 1
        assert batched[0] == single
        # and the batch-decoded entry now serves the single-query path
        assert list(live.reformulate_lane(OTHER, k=3).suggestions) == (
            batched[1]
        )

    def test_partial_batch_hit_decodes_only_misses(self):
        live = make_live()
        batch(live, [QUERY], k=3)
        decoded = []
        pipeline = live.pipeline()
        original = pipeline.reformulate

        def spying(keywords, **kwargs):
            decoded.append(list(keywords))
            return original(keywords, **kwargs)

        pipeline.reformulate = spying
        try:
            batch(live, [QUERY, OTHER], k=3)
        finally:
            del pipeline.reformulate
        assert decoded == [OTHER]

    def test_distinct_parameters_do_not_collide(self):
        live = make_live()
        top2 = batch(live, [QUERY], k=2)[0]
        top3 = batch(live, [QUERY], k=3)[0]
        assert len(top2) <= 2
        assert len(top3) >= len(top2)
        viterbi = batch(live, 
            [QUERY], k=2, algorithm="viterbi_topk"
        )[0]
        assert [s.text for s in viterbi]  # decoded, not top2 served back

    def test_stale_batch_bypasses_and_counts_per_entry(self):
        live = make_live()
        batch(live, [QUERY, OTHER], k=3)
        bypasses = live.cache_bypasses
        live.insert("papers", paper_row(0))
        assert live.is_stale
        obs.reset()
        with obs.enabled():
            batch(live, [QUERY, OTHER], k=3)
        try:
            assert live.cache_bypasses == bypasses + 2
            counter = obs.registry().get(
                "repro_live_result_cache_bypass_total"
            )
            assert counter is not None and counter.value == 2.0
        finally:
            obs.reset()
        # the rebuild re-populated the cache at the new version
        hits_before = live.result_cache.stats().hits
        batch(live, [QUERY, OTHER], k=3)
        assert live.result_cache.stats().hits == hits_before + 2

    def test_matches_single_query_results_exactly(self):
        live = make_live()
        batched = batch(live, [QUERY, OTHER], k=4)
        fresh = make_live()
        for query, suggestions in zip([QUERY, OTHER], batched):
            expected = fresh.reformulate_lane(query, k=4).suggestions
            assert [
                (s.text, s.score, s.state_path) for s in suggestions
            ] == [(s.text, s.score, s.state_path) for s in expected]

    def test_cache_disabled_still_batches(self):
        live = make_live(result_cache_size=0)
        assert live.result_cache is None
        results = batch(live, [QUERY, OTHER], k=3)
        assert len(results) == 2 and all(results)

    def test_concurrent_batches_share_cache_without_errors(self):
        live = make_live()
        live.pipeline()
        errors = []
        go = threading.Event()

        def worker():
            try:
                go.wait(timeout=10.0)
                for _ in range(5):
                    results = batch(live, [QUERY, OTHER], k=3)
                    assert len(results) == 2
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for thread in threads:
            thread.start()
        go.set()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not errors
        stats = live.result_cache.stats()
        assert stats.hits + stats.misses == 6 * 5 * 2
