"""Tests for the command-line interface (repro.cli)."""

import io
from pathlib import Path

import pytest

from repro.cli import main
from repro.storage.schemaspec import save_database

from tests.conftest import build_toy_database


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    """A small synthesized corpus written by the synth subcommand."""
    directory = tmp_path_factory.mktemp("corpus")
    out = io.StringIO()
    code = main([
        "synth", "--out", str(directory),
        "--authors", "40", "--papers", "150", "--conferences", "6",
        "--seed", "3",
    ], out=out)
    assert code == 0
    return directory


@pytest.fixture(scope="module")
def toy_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("toy")
    save_database(build_toy_database(), directory)
    return directory


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestSynthAndDescribe:
    def test_synth_writes_schema_and_csvs(self, corpus_dir):
        assert (corpus_dir / "schema.json").exists()
        assert (corpus_dir / "papers.csv").exists()

    def test_describe(self, corpus_dir):
        code, text = run(["describe", "--data", str(corpus_dir)])
        assert code == 0
        assert "papers: 150 rows" in text
        assert "TAT graph" in text


class TestReformulate:
    def test_basic(self, toy_dir):
        code, text = run([
            "reformulate", "--data", str(toy_dir),
            "probabilistic", "query", "-k", "3", "--candidates", "5",
        ])
        assert code == 0
        assert "input: probabilistic | query" in text
        assert len(text.strip().splitlines()) >= 2

    def test_methods(self, toy_dir):
        for method in ("tat", "cooccurrence", "rank"):
            code, text = run([
                "reformulate", "--data", str(toy_dir),
                "probabilistic", "query", "--method", method,
                "--candidates", "5", "-k", "2",
            ])
            assert code == 0, method

    def test_uppercase_keywords_normalized(self, toy_dir):
        code, text = run([
            "reformulate", "--data", str(toy_dir),
            "PROBABILISTIC", "Query", "-k", "2", "--candidates", "5",
        ])
        assert code == 0
        assert "input: probabilistic | query" in text

    def test_log_algorithm_matches_linear(self, toy_dir):
        base = [
            "reformulate", "--data", str(toy_dir),
            "probabilistic", "query", "-k", "3", "--candidates", "5",
        ]
        _code, linear = run(base + ["--algorithm", "astar"])
        code, logged = run(base + ["--algorithm", "astar_log"])
        assert code == 0
        assert logged == linear

    def test_batch_file(self, toy_dir, tmp_path):
        batch = tmp_path / "queries.txt"
        batch.write_text(
            "probabilistic query\npattern mining\nprobabilistic query\n",
            encoding="utf-8",
        )
        code, text = run([
            "reformulate", "--data", str(toy_dir),
            "--batch", str(batch), "--workers", "2",
            "-k", "2", "--candidates", "5",
        ])
        assert code == 0
        assert text.count("input: probabilistic | query") == 2
        assert text.count("input: pattern | mining") == 1
        # duplicate queries print identical suggestion blocks
        blocks = text.split("input: ")
        dupes = [b for b in blocks if b.startswith("probabilistic | query")]
        assert dupes[0] == dupes[1]

    def test_batch_matches_single_queries(self, toy_dir, tmp_path):
        batch = tmp_path / "queries.txt"
        batch.write_text("probabilistic query\n", encoding="utf-8")
        _code, single = run([
            "reformulate", "--data", str(toy_dir),
            "probabilistic", "query", "-k", "3", "--candidates", "5",
        ])
        code, batched = run([
            "reformulate", "--data", str(toy_dir),
            "--batch", str(batch), "-k", "3", "--candidates", "5",
        ])
        assert code == 0
        assert batched == single

    def test_batch_and_keywords_conflict(self, toy_dir, tmp_path):
        batch = tmp_path / "queries.txt"
        batch.write_text("probabilistic query\n", encoding="utf-8")
        code, _text = run([
            "reformulate", "--data", str(toy_dir),
            "probabilistic", "--batch", str(batch),
        ])
        assert code == 1

    def test_no_keywords_and_no_batch_errors(self, toy_dir):
        code, _text = run(["reformulate", "--data", str(toy_dir)])
        assert code == 1

    def test_missing_batch_file(self, toy_dir):
        code, _text = run([
            "reformulate", "--data", str(toy_dir),
            "--batch", "/nonexistent/queries.txt",
        ])
        assert code == 1

    def test_no_plan_cache_flag_identical(self, toy_dir):
        base = [
            "reformulate", "--data", str(toy_dir),
            "probabilistic", "query", "-k", "3", "--candidates", "5",
        ]
        _code, cached = run(base)
        code, uncached = run(base + ["--no-plan-cache"])
        assert code == 0
        assert uncached == cached


class TestSimilarAndClose:
    def test_similar_walk(self, toy_dir):
        code, text = run([
            "similar", "--data", str(toy_dir), "probabilistic", "-n", "4",
        ])
        assert code == 0
        assert len(text.strip().splitlines()) == 4

    def test_similar_cooccurrence(self, toy_dir):
        code, text = run([
            "similar", "--data", str(toy_dir), "probabilistic",
            "--method", "cooccurrence",
        ])
        assert code == 0

    def test_similar_unknown_term_fails_cleanly(self, toy_dir):
        code, _text = run(["similar", "--data", str(toy_dir), "zzzz"])
        assert code == 1

    def test_close(self, toy_dir):
        code, text = run([
            "close", "--data", str(toy_dir), "probabilistic", "-n", "3",
        ])
        assert code == 0
        assert len(text.strip().splitlines()) == 3


class TestSearch:
    def test_search(self, toy_dir):
        code, text = run([
            "search", "--data", str(toy_dir), "probabilistic", "query",
        ])
        assert code == 0
        assert "results" in text
        assert "papers#0" in text


class TestPrecompute:
    def test_precompute_then_serve(self, toy_dir, tmp_path):
        relations = tmp_path / "store"
        code, text = run([
            "precompute", "--data", str(toy_dir),
            "--out", str(relations), "--similar", "6",
        ])
        assert code == 0
        assert relations.exists()
        code, text = run([
            "reformulate", "--data", str(toy_dir),
            "--relations", str(relations),
            "probabilistic", "query", "-k", "3", "--candidates", "5",
        ])
        assert code == 0
        assert "probabilistic" in text

    def test_precompute_sharded_then_serve(self, toy_dir, tmp_path):
        store_dir = tmp_path / "store"
        code, text = run([
            "precompute", "--data", str(toy_dir),
            "--out", str(store_dir),
            "--batch-size", "8", "--workers", "2",
            "--progress-every", "5",
        ])
        assert code == 0
        assert "(v3, " in text
        assert "terms/s" in text
        assert "precomputed 8/15 terms" in text  # per-batch progress
        assert (store_dir / "manifest.json").exists()
        code, text = run([
            "reformulate", "--data", str(toy_dir),
            "--relations", str(store_dir),
            "probabilistic", "query", "-k", "3", "--candidates", "5",
        ])
        assert code == 0
        assert "probabilistic" in text

    def test_store_info(self, toy_dir, tmp_path):
        store_dir = tmp_path / "store"
        code, _ = run([
            "precompute", "--data", str(toy_dir), "--out", str(store_dir),
        ])
        assert code == 0
        code, text = run([
            "store", "info", "--data", str(toy_dir),
            "--store", str(store_dir),
        ])
        assert code == 0
        assert "format version: 3" in text
        assert "block.close_scores: close_scores.npy" in text
        assert "build.batch_size: 64" in text

    def test_store_migrate(self, toy_dir, tmp_path):
        v1 = Path(__file__).parent / "golden" / "relations_v1.json"
        dest = tmp_path / "v3"
        code, text = run([
            "store", "migrate", "--data", str(toy_dir),
            "--src", str(v1), "--dest", str(dest),
        ])
        assert code == 0
        assert "migrated" in text and "v3 binary" in text
        code, text = run([
            "store", "info", "--data", str(toy_dir), "--store", str(dest),
        ])
        assert code == 0
        assert "build.migrated_from" in text

    def test_legacy_store_is_migration_input_only(self, toy_dir, capsys):
        v1 = Path(__file__).parent / "golden" / "relations_v1.json"
        code = main([
            "reformulate", "--data", str(toy_dir), "--relations", str(v1),
            "probabilistic", "query",
        ], out=io.StringIO())
        assert code == 1
        assert "repro store migrate" in capsys.readouterr().err

    def test_store_info_missing_is_error(self, toy_dir, tmp_path):
        code = main([
            "store", "info", "--data", str(toy_dir),
            "--store", str(tmp_path / "nope.json"),
        ], out=io.StringIO())
        assert code == 1


class TestExplain:
    def test_explain_emits_trace_and_decomposition(self, toy_dir):
        code, text = run([
            "explain", "--data", str(toy_dir),
            "probabilistic", "query", "-k", "2", "--candidates", "5",
        ])
        assert code == 0
        # span tree covering the pipeline stages...
        assert "trace:" in text
        for stage in ("reformulate", "parse", "candidates", "hmm_build",
                      "decode", "postprocess"):
            assert stage in text
        # ...plus the per-position factor table for each suggestion
        assert "[1]" in text
        assert "emission" in text and "transition" in text
        assert "recombined" in text

    def test_explain_rank_method(self, toy_dir):
        code, text = run([
            "explain", "--data", str(toy_dir),
            "probabilistic", "query", "--method", "rank",
            "-k", "2", "--candidates", "5",
        ])
        assert code == 0
        assert "suggestions (rank/rank):" in text


class TestStats:
    def test_stats_json_after_precompute(self, toy_dir, tmp_path):
        # Same process: the precompute run records into the global
        # registry, which `stats` then exports.
        import json

        from repro import obs

        obs.reset()
        code, _ = run([
            "precompute", "--data", str(toy_dir),
            "--out", str(tmp_path / "store"),
        ])
        assert code == 0
        code, text = run(["stats", "--format", "json"])
        assert code == 0
        snapshot = json.loads(text)
        names = {m["name"] for m in snapshot["metrics"]}
        assert "repro_offline_terms_total" in names
        assert "repro_offline_batches_total" in names
        obs.reset()

    def test_stats_prometheus_format(self, toy_dir, tmp_path):
        from repro import obs

        obs.reset()
        code, _ = run([
            "precompute", "--data", str(toy_dir),
            "--out", str(tmp_path / "store"),
        ])
        assert code == 0
        code, text = run(["stats", "--format", "prometheus"])
        assert code == 0
        assert "# TYPE repro_offline_terms_total counter" in text
        assert "# HELP repro_offline_terms_total" in text
        assert 'repro_offline_walk_residual_bucket{le="+Inf"}' in text
        obs.reset()

    def test_metrics_out_roundtrip(self, toy_dir, tmp_path):
        from repro import obs

        obs.reset()
        metrics_file = tmp_path / "metrics.json"
        code, _ = run([
            "precompute", "--data", str(toy_dir),
            "--out", str(tmp_path / "store"),
            "--metrics-out", str(metrics_file),
        ])
        assert code == 0
        assert metrics_file.exists()
        code, text = run([
            "stats", "--from-json", str(metrics_file),
            "--format", "prometheus",
        ])
        assert code == 0
        assert "repro_offline_terms_total 15" in text
        obs.reset()

    def test_stats_missing_snapshot_is_error(self, tmp_path):
        code = main(
            ["stats", "--from-json", str(tmp_path / "nope.json")],
            out=io.StringIO(),
        )
        assert code == 1


class TestTraceFlag:
    def test_reformulate_trace_prints_span_tree(self, toy_dir):
        from repro import obs

        obs.reset()
        code, text = run([
            "reformulate", "--data", str(toy_dir),
            "probabilistic", "query", "-k", "2", "--candidates", "5",
            "--trace",
        ])
        assert code == 0
        assert "input: probabilistic | query" in text
        assert "reformulate" in text and "decode" in text
        assert not obs.is_enabled()  # switch restored after the command
        obs.reset()

    def test_precompute_trace_prints_batches(self, toy_dir, tmp_path):
        from repro import obs

        obs.reset()
        code, text = run([
            "precompute", "--data", str(toy_dir),
            "--out", str(tmp_path / "store"),
            "--batch-size", "8", "--trace",
        ])
        assert code == 0
        assert "precompute.build_store" in text
        assert "precompute.batch" in text
        assert not obs.is_enabled()
        obs.reset()


class TestVerbosity:
    def test_quiet_suppresses_diagnostics_keeps_payload(self, toy_dir):
        code, text = run([
            "--quiet", "reformulate", "--data", str(toy_dir),
            "probabilistic", "query", "-k", "2", "--candidates", "5",
        ])
        assert code == 0
        assert "input: probabilistic | query" in text

    def test_quiet_precompute_drops_progress(self, toy_dir, tmp_path):
        code, text = run([
            "--quiet", "precompute", "--data", str(toy_dir),
            "--out", str(tmp_path / "store"),
            "--batch-size", "8", "--progress-every", "5",
        ])
        assert code == 0
        assert "precomputed" not in text

    def test_verbose_and_quiet_are_exclusive(self, toy_dir):
        with pytest.raises(SystemExit):
            main(
                ["--verbose", "--quiet", "describe", "--data", str(toy_dir)],
                out=io.StringIO(),
            )

    def test_logging_handler_removed_after_main(self, toy_dir):
        import logging

        before = list(logging.getLogger("repro").handlers)
        run(["describe", "--data", str(toy_dir)])
        assert logging.getLogger("repro").handlers == before


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestServe:
    """End-to-end ``repro serve``: READY line, live endpoints, drain."""

    def test_serve_announces_port_and_answers(self, toy_dir, monkeypatch):
        import threading
        import time

        from repro.server import ServerClient
        from repro.server.app import ReformulationServer

        # signal handlers belong to the real daemon, not the test process
        monkeypatch.setattr(
            ReformulationServer, "install_signal_handlers",
            lambda self: None,
        )
        captured = {}
        original = ReformulationServer.serve_forever

        def capturing_serve_forever(self):
            captured["server"] = self
            original(self)

        monkeypatch.setattr(
            ReformulationServer, "serve_forever", capturing_serve_forever
        )
        out = io.StringIO()
        thread = threading.Thread(
            target=main,
            args=([
                "serve", "--data", str(toy_dir), "--port", "0",
                "--candidates", "5", "--no-metrics",
            ],),
            kwargs={"out": out},
            daemon=True,
        )
        thread.start()
        deadline = time.time() + 60
        while time.time() < deadline and "READY" not in out.getvalue():
            time.sleep(0.05)
        ready_lines = [
            line for line in out.getvalue().splitlines()
            if line.startswith("READY ")
        ]
        assert ready_lines and ready_lines[0].startswith(
            "READY http://127.0.0.1:"
        )
        port = int(ready_lines[0].rsplit(":", 1)[1])
        assert port != 0  # --port 0 resolved to the real ephemeral port
        try:
            with ServerClient(port=port) as client:
                assert client.readyz().status == 200
                response = client.reformulate(
                    ["probabilistic", "query"], k=2
                )
                assert response.status == 200
                assert response.json["suggestions"]
        finally:
            captured["server"].shutdown()
            thread.join(timeout=30.0)
        assert not thread.is_alive()

    def test_serve_rejects_bad_config(self, toy_dir):
        code, _text = run([
            "serve", "--data", str(toy_dir), "--port", "0",
            "--max-concurrency", "0", "--no-metrics",
        ])
        assert code != 0


class TestTraceVerb:
    @pytest.fixture()
    def trace_document(self, tmp_path):
        """A /debug/traces-shaped document, as the daemon would serve."""
        import json

        payload = {
            "count": 2,
            "workers": [0],
            "traces": [
                {
                    "trace_id": "fast-1", "ts": 1.0, "verb": "POST",
                    "route": "/reformulate", "status": 200,
                    "duration_s": 0.002, "worker": 0,
                    "slow": False, "notable": False,
                    "stages": {"decode": 0.001},
                    "keywords": ["probabilistic", "query"],
                    "algorithm": "astar",
                },
                {
                    "trace_id": "slow-1", "ts": 2.0, "verb": "POST",
                    "route": "/reformulate", "status": 200,
                    "duration_s": 0.9, "worker": 1,
                    "slow": True, "notable": True, "cache": "miss",
                    "stages": {"queue_wait": 0.1, "decode": 0.7},
                    "keywords": ["probabilistic", "query"],
                    "algorithm": "astar",
                    "span_tree": {
                        "name": "http.request",
                        "duration_seconds": 0.9,
                        "attributes": {"trace_id": "slow-1"},
                        "children": [],
                    },
                },
            ],
        }
        path = tmp_path / "traces.json"
        path.write_text(json.dumps(payload))
        return path

    def test_renders_all_records(self, trace_document):
        code, text = run(["trace", "--from-json", str(trace_document)])
        assert code == 0
        assert "trace fast-1" in text
        assert "trace slow-1" in text
        assert "http.request" in text
        assert "[slow]" in text

    def test_id_filter(self, trace_document):
        code, text = run([
            "trace", "--from-json", str(trace_document), "--id", "slow-1",
        ])
        assert code == 0
        assert "slow-1" in text and "fast-1" not in text

    def test_slow_only_filter(self, trace_document):
        code, text = run([
            "trace", "--from-json", str(trace_document), "--slow-only",
        ])
        assert code == 0
        assert "slow-1" in text and "fast-1" not in text

    def test_no_match_is_clean(self, trace_document):
        code, text = run([
            "trace", "--from-json", str(trace_document), "--id", "nope",
        ])
        assert code == 0
        assert "no recorded traces match" in text

    def test_explain_joins_score_decomposition(self, toy_dir, trace_document):
        code, text = run([
            "trace", "--from-json", str(trace_document),
            "--id", "slow-1", "--explain", "--data", str(toy_dir),
            "--candidates", "5",
        ])
        assert code == 0
        assert "trace slow-1" in text
        assert "suggestions (tat/astar)" in text
        assert "contribution" in text  # per-position score table

    def test_explain_without_data_errors(self, trace_document):
        code, _ = run([
            "trace", "--from-json", str(trace_document), "--explain",
        ])
        assert code == 1

    def test_requires_exactly_one_source(self, trace_document):
        code, _ = run(["trace"])
        assert code == 1
        code, _ = run([
            "trace", "--from-json", str(trace_document),
            "--url", "http://127.0.0.1:1",
        ])
        assert code == 1

    def test_missing_file_is_error(self, tmp_path):
        code, _ = run(["trace", "--from-json", str(tmp_path / "nope.json")])
        assert code == 1

    def test_url_source_against_live_daemon(self, toy_dir):
        from repro.core.reformulator import ReformulatorConfig
        from repro.live import LiveReformulator
        from repro.server import ReformulationServer, ServerClient, ServerConfig

        from tests.conftest import build_toy_database

        server = ReformulationServer(
            LiveReformulator(
                build_toy_database(), ReformulatorConfig(n_candidates=6)
            ),
            ServerConfig(port=0, trace_sample_rate=1.0),
        ).start()
        try:
            with ServerClient(port=server.port) as client:
                client.request(
                    "POST", "/reformulate",
                    {"keywords": ["probabilistic", "query"], "k": 2},
                    request_id="via-url",
                )
            code, text = run([
                "trace", "--url", f"http://127.0.0.1:{server.port}",
                "--id", "via-url",
            ])
        finally:
            server.shutdown()
        assert code == 0
        assert "trace via-url" in text
