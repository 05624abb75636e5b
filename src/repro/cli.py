"""Command-line interface.

One entry point with subcommands covering the full lifecycle::

    python -m repro.cli synth --out corpus/ --papers 800 --seed 7
    python -m repro.cli describe --data corpus/
    python -m repro.cli reformulate --data corpus/ probabilistic query -k 8
    python -m repro.cli similar --data corpus/ probabilistic
    python -m repro.cli close --data corpus/ probabilistic
    python -m repro.cli search --data corpus/ probabilistic query
    python -m repro.cli precompute --data corpus/ --out store/ --batch-size 128 --workers 2
    python -m repro.cli store migrate --data corpus/ --src relations.json --dest store/
    python -m repro.cli store info --data corpus/ --store store/
    python -m repro.cli reformulate --data corpus/ --relations store/ probabilistic query
    python -m repro.cli reformulate --data corpus/ --batch queries.txt --workers 4
    python -m repro.cli explain --data corpus/ probabilistic query
    python -m repro.cli --verbose precompute --data corpus/ --out store/ --trace
    python -m repro.cli stats --format prometheus
    python -m repro.cli serve --data corpus/ --port 8080 --relations store/
    python -m repro.cli serve --data corpus/ --workers 4 --access-log access.jsonl
    python -m repro.cli trace --url http://127.0.0.1:8080 --slow-only

``--data`` is a directory holding ``schema.json`` + per-table CSVs (any
schema, not just the bibliographic one); ``synth`` writes such a
directory from the generator.

Result payloads (suggestions, search trees, exports) are printed to the
*out* stream; progress and bookkeeping diagnostics go through
:mod:`logging` (logger ``repro.*``) with a handler on the same stream,
so ``--quiet`` silences them and ``--verbose`` adds debug detail without
disturbing anything that parses the payload.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from typing import List, Optional

from repro import obs
from repro.core.reformulator import Reformulator, ReformulatorConfig
from repro.data.dblp_synth import SynthConfig, synthesize_dblp
from repro.errors import ReproError
from repro.graph.tat import TATGraph
from repro.index.inverted import InvertedIndex
from repro.offline import OfflinePrecomputer, TermRelationStore
from repro.search.keyword import KeywordSearchEngine
from repro.search.ranking import ResultRanker
from repro.storage.binary import write_store_v3
from repro.storage.database import Database
from repro.storage.schemaspec import load_database, save_database
from repro.storage.tuplegraph import TupleGraph

# Fixed name (not __name__): under ``python -m repro.cli`` this module is
# "__main__", which would fall outside the "repro" logger that main()
# attaches the diagnostics handler to.
logger = logging.getLogger("repro.cli")


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse parser with every subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Keyword query reformulation on structured data "
                    "(ICDE 2012 reproduction)",
    )
    volume = parser.add_mutually_exclusive_group()
    volume.add_argument(
        "-v", "--verbose", action="store_true",
        help="show debug-level diagnostics",
    )
    volume.add_argument(
        "-q", "--quiet", action="store_true",
        help="suppress progress and bookkeeping diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="generate a synthetic corpus")
    synth.add_argument("--out", required=True, help="output directory")
    synth.add_argument("--authors", type=int, default=300)
    synth.add_argument("--papers", type=int, default=1200)
    synth.add_argument("--conferences", type=int, default=24)
    synth.add_argument("--seed", type=int, default=7)

    def add_data(p):
        p.add_argument(
            "--data", required=True,
            help="corpus directory (schema.json + CSVs)",
        )

    describe = sub.add_parser("describe", help="summarize a corpus")
    add_data(describe)

    reformulate = sub.add_parser(
        "reformulate", help="suggest substitutive queries"
    )
    add_data(reformulate)
    reformulate.add_argument("keywords", nargs="*")
    reformulate.add_argument("-k", type=int, default=10)
    reformulate.add_argument(
        "--method", choices=("tat", "cooccurrence", "rank"), default="tat"
    )
    reformulate.add_argument(
        "--algorithm",
        choices=("astar", "viterbi_topk", "brute_force",
                 "astar_log", "viterbi_topk_log"),
        default="astar",
    )
    reformulate.add_argument("--candidates", type=int, default=15)
    reformulate.add_argument(
        "--batch", default=None, metavar="FILE",
        help="serve every query in FILE (one per line) through the "
             "batched fast path instead of the positional keywords",
    )
    reformulate.add_argument(
        "--workers", type=int, default=1,
        help="threads fanning batched decode (only with --batch)",
    )
    reformulate.add_argument(
        "--no-plan-cache", action="store_true",
        help="disable the per-term plan cache (uncached reference path)",
    )
    reformulate.add_argument(
        "--relations", default=None,
        help="precomputed term-relation store to serve from "
             "(v1 JSON file or v2 shard directory)",
    )
    reformulate.add_argument(
        "--trace", action="store_true",
        help="record spans/metrics for this run and print the span tree",
    )
    reformulate.add_argument(
        "--metrics-out", default=None,
        help="write a JSON metrics-registry export to this file",
    )
    reformulate.add_argument(
        "--lane", choices=("hmm", "enumeration", "relaxation", "schema"),
        default="hmm",
        help="reformulation lane: the HMM decoder (default), the "
             "rank-based enumeration baseline, Wiese-style relaxation "
             "(drops/generalizes terms when no cohesive substitution "
             "exists), or the schema-aware lane (keywords like 'author' "
             "bind the next keyword to that field)",
    )

    explain = sub.add_parser(
        "explain",
        help="reformulate plus a span trace and per-position score "
             "decomposition of every suggestion",
    )
    add_data(explain)
    explain.add_argument("keywords", nargs="+")
    explain.add_argument("-k", type=int, default=5)
    explain.add_argument(
        "--method", choices=("tat", "cooccurrence", "rank"), default="tat"
    )
    explain.add_argument(
        "--algorithm",
        choices=("astar", "viterbi_topk", "brute_force",
                 "astar_log", "viterbi_topk_log"),
        default="astar",
    )
    explain.add_argument("--candidates", type=int, default=15)
    explain.add_argument(
        "--relations", default=None,
        help="precomputed term-relation store to serve from",
    )

    similar = sub.add_parser("similar", help="similar terms of one keyword")
    add_data(similar)
    similar.add_argument("term")
    similar.add_argument("-n", type=int, default=10)
    similar.add_argument(
        "--method", choices=("walk", "cooccurrence"), default="walk"
    )

    close = sub.add_parser("close", help="close terms of one keyword")
    add_data(close)
    close.add_argument("term")
    close.add_argument("-n", type=int, default=10)

    search = sub.add_parser("search", help="keyword search")
    add_data(search)
    search.add_argument("keywords", nargs="+")
    search.add_argument("-n", type=int, default=5)

    precompute = sub.add_parser(
        "precompute", help="materialize the offline stage to a relation store"
    )
    add_data(precompute)
    precompute.add_argument(
        "--out", required=True, help="v3 store directory to write"
    )
    precompute.add_argument("--similar", type=int, default=20)
    precompute.add_argument("--closeness-top", type=int, default=200)
    precompute.add_argument(
        "--batch-size", type=int, default=64,
        help="vocabulary terms solved per batched walk (default 64)",
    )
    precompute.add_argument(
        "--workers", type=int, default=1,
        help="threads fanning the closeness BFS within a batch",
    )
    precompute.add_argument(
        "--walk-method", choices=("direct", "iterative"), default="direct",
        help="batched walk solver (direct = cached sparse LU)",
    )
    precompute.add_argument(
        "--progress-every", type=int, default=0,
        help="print progress every N terms (0 = silent)",
    )
    precompute.add_argument(
        "--trace", action="store_true",
        help="print the offline stage's span tree after the run",
    )
    precompute.add_argument(
        "--metrics-out", default=None,
        help="write a JSON metrics-registry export to this file",
    )

    ingest = sub.add_parser(
        "ingest",
        help="fold new rows into an existing relation store as one "
             "delta layer (incremental offline stage)",
    )
    add_data(ingest)
    ingest.add_argument(
        "--store", required=True,
        help="v3 relation store directory",
    )
    ingest.add_argument(
        "--rows", required=True,
        help='JSON file: [{"table": ..., "row": {...}}, ...] — the rows '
             "are also persisted in the layer for worker replay",
    )
    ingest.add_argument(
        "--similar", type=int, default=None,
        help="similar-list length (default: inherited from the store)",
    )
    ingest.add_argument(
        "--closeness-top", type=int, default=None,
        help="closeness row length (default: inherited from the store)",
    )
    ingest.add_argument("--batch-size", type=int, default=64)
    ingest.add_argument(
        "--trace", action="store_true",
        help="print the ingest's span tree after the run",
    )

    stats = sub.add_parser(
        "stats", help="export the in-process observability metrics"
    )
    stats.add_argument(
        "--format", choices=("json", "prometheus"), default="json"
    )
    stats.add_argument(
        "--from-json", default=None,
        help="re-export a JSON snapshot written by --metrics-out instead "
             "of the live in-process registry",
    )

    serve = sub.add_parser(
        "serve", help="run the HTTP serving daemon over a corpus"
    )
    add_data(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8080,
        help="listen port (0 = pick an ephemeral port)",
    )
    serve.add_argument(
        "--relations", default=None,
        help="precomputed term-relation store to serve from "
             "(v1 JSON file, v2 shard directory, or v3 binary directory)",
    )
    serve.add_argument(
        "--workers", type=int, default=0,
        help="pre-fork worker processes sharing the port via "
             "SO_REUSEPORT (0 = classic single-process daemon); warm "
             "the pipeline once, fork N times, kernel balances accepts",
    )
    serve.add_argument(
        "--method", choices=("tat", "cooccurrence", "rank"), default="tat"
    )
    serve.add_argument("--candidates", type=int, default=15)
    serve.add_argument(
        "--max-concurrency", type=int, default=8,
        help="requests decoded at once (admission semaphore permits)",
    )
    serve.add_argument(
        "--queue-depth", type=int, default=16,
        help="requests allowed to wait for a permit before shedding",
    )
    serve.add_argument(
        "--queue-timeout-ms", type=int, default=1000,
        help="longest a queued request waits before a 429",
    )
    serve.add_argument(
        "--deadline-ms", type=int, default=0,
        help="default per-request deadline (0 = none; requests may "
             "still send their own deadline_ms)",
    )
    serve.add_argument(
        "--result-cache", type=int, default=1024,
        help="query-level result LRU capacity (0 disables)",
    )
    serve.add_argument(
        "--no-metrics", action="store_true",
        help="leave the observability switch off (no /metrics series)",
    )
    serve.add_argument(
        "--access-log", default=None, metavar="FILE",
        help="append one JSON line per request (trace id, route, status, "
             "stage latencies); safe to share across pre-fork workers",
    )
    serve.add_argument(
        "--trace-sample", type=float, default=0.1, metavar="RATE",
        help="head-sampling rate of request traces kept in the flight "
             "recorder (slow/degraded/shed requests are always kept)",
    )
    serve.add_argument(
        "--slow-ms", type=float, default=500.0,
        help="requests slower than this are always captured by the "
             "flight recorder, whatever the sampling decision",
    )
    serve.add_argument(
        "--flight-recorder", type=int, default=64, metavar="N",
        help="per-ring capacity of the in-memory flight recorder "
             "(served at GET /debug/traces)",
    )
    serve.add_argument(
        "--lanes", default="hmm,enumeration,relaxation,schema",
        metavar="NAMES",
        help="comma-separated reformulation lanes to serve; request "
             "bodies naming any other lane get a 400",
    )
    serve.add_argument(
        "--default-lane", default="hmm",
        help="lane used when a request does not name one",
    )
    serve.add_argument(
        "--fallback-lane", default=None,
        help="lane to re-route through when the routed lane's best-path "
             "cohesion falls below the threshold (typically 'relaxation'; "
             "default: no fallback chain)",
    )
    serve.add_argument(
        "--cohesion-threshold", type=float, default=1e-9,
        help="best-path cohesion below which the fallback chain (and "
             "the relaxation lane itself) triggers",
    )

    trace = sub.add_parser(
        "trace",
        help="render request traces recorded by the serving daemon's "
             "flight recorder",
    )
    trace.add_argument(
        "--url", default=None,
        help="base URL of a running daemon, e.g. http://127.0.0.1:8080 "
             "(fetches GET /debug/traces, pool-wide)",
    )
    trace.add_argument(
        "--from-json", default=None, metavar="FILE",
        help="render a saved /debug/traces document or a spooled "
             "traces-worker-*.json instead of contacting a daemon",
    )
    trace.add_argument(
        "--id", default=None, metavar="TRACE_ID",
        help="only the trace(s) with this request id",
    )
    trace.add_argument(
        "--slow-only", action="store_true",
        help="only notable requests (slow, degraded, shed, or errored)",
    )
    trace.add_argument(
        "-n", type=int, default=0,
        help="newest N traces (0 = all retained)",
    )
    trace.add_argument(
        "--explain", action="store_true",
        help="re-decode each rendered query with the explain-mode score "
             "decomposition joined under the trace (needs --data)",
    )
    trace.add_argument(
        "--data", default=None,
        help="corpus directory (schema.json + CSVs); required by --explain",
    )
    trace.add_argument(
        "--method", choices=("tat", "cooccurrence", "rank"), default="tat"
    )
    trace.add_argument("--candidates", type=int, default=15)
    trace.add_argument(
        "--relations", default=None,
        help="precomputed term-relation store for --explain",
    )

    store = sub.add_parser("store", help="inspect or migrate relation stores")
    store_sub = store.add_subparsers(dest="store_command", required=True)
    migrate = store_sub.add_parser(
        "migrate",
        help="convert a legacy store (v1 JSON file or v2 shard directory) "
             "into a v3 binary store",
    )
    add_data(migrate)
    migrate.add_argument(
        "--src", required=True, help="legacy store (v1 file or v2 directory)"
    )
    migrate.add_argument("--dest", required=True, help="v3 output directory")
    info = store_sub.add_parser(
        "info", help="print a store's format, size and build metadata"
    )
    add_data(info)
    info.add_argument("--store", required=True, help="store file or directory")
    compact = store_sub.add_parser(
        "compact",
        help="fold a store's delta layers back into a fresh base build",
    )
    add_data(compact)
    compact.add_argument(
        "--store", required=True, help="store directory with delta layers"
    )
    compact.add_argument("--batch-size", type=int, default=64)

    return parser


# --------------------------------------------------------------------- #
# subcommand implementations
# --------------------------------------------------------------------- #

def _load(args) -> Database:
    return load_database(args.data)


def _print_trace(out) -> None:
    """Render the most recent root span to *out* (no-op without one)."""
    root = obs.tracer().last_root()
    if root is not None:
        print(obs.export.render_span_tree(root).rstrip("\n"), file=out)


def _write_metrics(path: str) -> None:
    """Dump the global metrics registry as JSON to *path*."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(obs.export.registry_to_json(obs.registry()))
    logger.info("wrote metrics export to %s", path)


def cmd_synth(args, out) -> int:
    """``synth``: generate a corpus and write schema.json + CSVs."""
    corpus = synthesize_dblp(SynthConfig(
        n_authors=args.authors,
        n_papers=args.papers,
        n_conferences=args.conferences,
        seed=args.seed,
    ))
    save_database(corpus.database, args.out)
    logger.info("wrote corpus to %s", args.out)
    print(corpus.database.describe(), file=out)
    return 0


def cmd_describe(args, out) -> int:
    """``describe``: print table counts and TAT graph statistics."""
    database = _load(args)
    print(database.describe(), file=out)
    index = InvertedIndex(database).build()
    graph = TATGraph(database, index)
    print(f"TAT graph: {graph.stats()}", file=out)
    return 0


def _build_reformulator(args, database: Database) -> Reformulator:
    """Shared pipeline construction for reformulate/explain."""
    if args.relations:
        # A layered store's journal carries rows the base CSVs don't
        # have; replay it so the graph matches the store's chain tip
        # (same reconstruction `repro serve` performs at startup).
        replayed = _replay_layers(database, args.relations)
        if replayed:
            logger.info(
                "replayed %d delta layer(s) from %s",
                replayed, args.relations,
            )
    graph = TATGraph(database, InvertedIndex(database))
    config = ReformulatorConfig(
        method=args.method,
        n_candidates=args.candidates,
        enable_plan_cache=not getattr(args, "no_plan_cache", False),
    )
    if args.relations:
        store = TermRelationStore.load(args.relations, graph)
        return Reformulator(graph, config, similarity=store, closeness=store)
    return Reformulator(graph, config)


def _read_batch_file(path: str) -> List[str]:
    """Non-empty lines of a batch query file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return [line.strip() for line in handle if line.strip()]
    except OSError as exc:
        raise ReproError(f"cannot read batch file {path}: {exc}")


def cmd_reformulate(args, out) -> int:
    """``reformulate``: print top-k substitutive queries.

    With ``--batch FILE`` every line of FILE is one query; the whole set
    is served through ``reformulate_many`` (shared-term plan warmup +
    optional thread fan-out) and results are printed per query.
    """
    if bool(args.batch) == bool(args.keywords):
        raise ReproError(
            "provide either positional keywords or --batch FILE (not both)"
        )
    reformulator = _build_reformulator(args, _load(args))
    from repro.lanes import build_router

    router = build_router(reformulator)

    def print_result(result) -> None:
        for suggestion, prov in zip(result.suggestions, result.provenance):
            note = ""
            if prov.get("relaxed"):
                parts = []
                if prov.get("dropped"):
                    parts.append(f"dropped: {', '.join(prov['dropped'])}")
                for was, now in (prov.get("generalized") or {}).items():
                    parts.append(f"{was} -> {now}")
                note = f"  [relaxed; {'; '.join(parts)}]" if parts else "  [relaxed]"
            print(f"  {suggestion.score:.3e}  {suggestion.text}{note}", file=out)

    # Segment against the corpus vocabulary so multi-word names survive:
    # `reformulate --data d christian s. jensen spatial` is one name +
    # one word, not four keywords.
    with obs.enabled(args.trace or obs.is_enabled()):
        if args.batch:
            parsed_queries = [
                list(reformulator.parser.parse(line.lower()).keywords)
                for line in _read_batch_file(args.batch)
            ]
            batches = router.route_many(
                parsed_queries, k=args.k, lane=args.lane,
                algorithm=args.algorithm, workers=args.workers,
            )
            for keywords, result in zip(parsed_queries, batches):
                print(f"input: {' | '.join(keywords)}", file=out)
                print_result(result)
        else:
            raw_query = " ".join(args.keywords).lower()
            parsed = reformulator.parser.parse(raw_query)
            print(f"input: {' | '.join(parsed.keywords)}", file=out)
            result = router.route(
                list(parsed.keywords), k=args.k, lane=args.lane,
                algorithm=args.algorithm,
            )
            print_result(result)
        if args.trace:
            _print_trace(out)
    if args.metrics_out:
        _write_metrics(args.metrics_out)
    return 0


def cmd_explain(args, out) -> int:
    """``explain``: trace one reformulation and decompose every score."""
    reformulator = _build_reformulator(args, _load(args))
    result = reformulator.explain(
        " ".join(args.keywords).lower(), k=args.k, algorithm=args.algorithm
    )
    print(result.render(), file=out)
    return 0


def cmd_stats(args, out) -> int:
    """``stats``: export metrics as JSON or Prometheus text format."""
    if args.from_json:
        try:
            with open(args.from_json, "r", encoding="utf-8") as handle:
                snapshot = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise ReproError(f"cannot read snapshot {args.from_json}: {exc}")
    else:
        snapshot = obs.export.registry_to_dict(obs.registry())
    if args.format == "prometheus":
        print(obs.export.prometheus_from_dict(snapshot).rstrip("\n"), file=out)
    else:
        print(json.dumps(snapshot, indent=2), file=out)
    return 0


def cmd_similar(args, out) -> int:
    """``similar``: print one keyword's similar-term list."""
    database = _load(args)
    graph = TATGraph(database, InvertedIndex(database))
    if args.method == "walk":
        from repro.graph.similarity import SimilarityExtractor

        backend = SimilarityExtractor(graph)
    else:
        from repro.graph.cooccurrence import CooccurrenceSimilarity

        backend = CooccurrenceSimilarity(graph)
    for term, score in backend.similar_terms(args.term.lower(), args.n):
        print(f"  {score:.5f}  {term}", file=out)
    return 0


def cmd_close(args, out) -> int:
    """``close``: print one keyword's closest terms (Eq 3)."""
    from repro.graph.closeness import ClosenessExtractor

    database = _load(args)
    graph = TATGraph(database, InvertedIndex(database))
    extractor = ClosenessExtractor(graph)
    node_id = graph.resolve_text_one(args.term.lower())
    for other, score in extractor.close_terms(node_id, args.n):
        print(f"  {score:.5f}  {graph.node(other)}", file=out)
    return 0


def cmd_search(args, out) -> int:
    """``search``: run keyword search and render result trees."""
    database = _load(args)
    index = InvertedIndex(database).build()
    engine = KeywordSearchEngine(TupleGraph(database), index)
    ranker = ResultRanker(index)
    keywords = [kw.lower() for kw in args.keywords]
    results = ranker.rank(engine.search(keywords))
    print(f"{results.size} results", file=out)
    for i, result in enumerate(results.top(args.n), 1):
        print(f"[{i}] tree of {result.size} tuple(s)", file=out)
        print(result.render(database), file=out)
    return 0


def cmd_precompute(args, out) -> int:
    """``precompute``: run the batched offline stage and persist it."""
    database = _load(args)
    graph = TATGraph(database, InvertedIndex(database))
    precomputer = OfflinePrecomputer(
        graph, n_similar=args.similar, closeness_top=args.closeness_top
    )

    last_reported = 0

    def report(done: int, total: int) -> None:
        nonlocal last_reported
        every = args.progress_every
        if every and done // every > last_reported // every:
            logger.info("precomputed %d/%d terms", done, total)
            last_reported = done

    with obs.enabled(args.trace or obs.is_enabled()):
        store = precomputer.build_store(
            batch_size=args.batch_size,
            workers=args.workers,
            walk_method=args.walk_method,
            progress=report,
        )
        if args.trace:
            _print_trace(out)
    stats = precomputer.stats
    write_store_v3(
        store,
        args.out,
        build_info={
            "batch_size": stats.batch_size,
            "workers": stats.workers,
            "walk_method": stats.walk_method,
            "terms_per_second": round(stats.terms_per_second, 1),
            "n_similar": args.similar,
            "closeness_top": args.closeness_top,
        },
    )
    logger.info(
        "precomputed %d terms -> %s (v3, %.0f terms/s, max residual %.2e)",
        len(store), args.out, stats.terms_per_second, stats.max_residual,
    )
    if args.metrics_out:
        _write_metrics(args.metrics_out)
    return 0


def cmd_serve(args, out) -> int:
    """``serve``: run the HTTP daemon until SIGTERM/SIGINT.

    The pipeline is built before the listening socket accepts queries,
    so ``/readyz`` is green from the first connection; a ``READY``
    line with the bound address is printed to *out* once serving (CI
    and scripts poll for it).  SIGTERM drains in-flight requests
    before the process exits.

    With ``--workers N`` the warmed pipeline is forked into N worker
    processes sharing the port via SO_REUSEPORT (one daemon per core;
    the TAT graph — and, with a v3 store, the memmapped relation blocks
    — stay one physical copy).  SIGTERM on the master fans the drain
    out to every worker.
    """
    from repro.live import LiveReformulator
    from repro.server import PreforkServer, ReformulationServer, ServerConfig

    database = _load(args)
    live = LiveReformulator(
        database,
        ReformulatorConfig(
            method=args.method,
            n_candidates=args.candidates,
            result_cache_size=args.result_cache,
        ),
        relations=args.relations,
    )
    lanes = tuple(
        name.strip() for name in args.lanes.split(",") if name.strip()
    )
    config = ServerConfig(
        host=args.host,
        port=args.port,
        max_concurrency=args.max_concurrency,
        queue_depth=args.queue_depth,
        queue_timeout_s=args.queue_timeout_ms / 1000.0,
        default_deadline_ms=args.deadline_ms,
        trace_sample_rate=args.trace_sample,
        slow_trace_ms=args.slow_ms,
        flight_recorder_size=args.flight_recorder,
        access_log_path=args.access_log,
        lanes=lanes,
        default_lane=args.default_lane,
        fallback_lane=args.fallback_lane,
        cohesion_threshold=args.cohesion_threshold,
    )
    logger.info(
        "pipeline warming (relations=%s)...", args.relations or "live"
    )
    # A store that accumulated delta layers persists the ingested rows in
    # its chain; replay them into the freshly loaded corpus so serving
    # starts at the chain tip (the same path respawned workers take).
    replayed = live.sync_ingest()
    if replayed:
        logger.info(
            "replayed %d delta layer(s) from %s (ingest epoch %d)",
            replayed, args.relations, live.ingest_epoch,
        )
    live.pipeline()  # before any fork: workers share this copy-on-write
    if args.workers > 0:
        pool = PreforkServer(
            lambda: live,
            config,
            workers=args.workers,
            enable_metrics=not args.no_metrics,
        )
        pool.start()
        pool.install_signal_handlers()
        host, port = pool.address
        print(
            f"READY http://{host}:{port} workers={args.workers}",
            file=out, flush=True,
        )
        pool.serve_forever()
        logger.info("worker pool drained; exiting")
        return 0
    server = ReformulationServer(live, config)
    if not args.no_metrics:
        obs.enable()
    server.install_signal_handlers()
    host, port = server.bind()
    print(f"READY http://{host}:{port}", file=out, flush=True)
    server.serve_forever()
    logger.info("server drained; exiting")
    return 0


def _load_trace_records(args) -> List[dict]:
    """Trace records from a live daemon (--url) or a JSON file."""
    if bool(args.url) == bool(args.from_json):
        raise ReproError("provide exactly one of --url or --from-json")
    if args.url:
        from urllib.parse import urlsplit

        from repro.server.client import ServerClient

        parts = urlsplit(args.url if "//" in args.url else f"//{args.url}")
        with ServerClient(
            host=parts.hostname or "127.0.0.1", port=parts.port or 8080
        ) as client:
            response = client.debug_traces(n=args.n or None)
            if not response.ok:
                raise ReproError(
                    f"GET /debug/traces returned {response.status}"
                )
            payload = response.json
    else:
        try:
            with open(args.from_json, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise ReproError(f"cannot read {args.from_json}: {exc}")
    if not isinstance(payload, dict) or "traces" not in payload:
        raise ReproError("document has no 'traces' key")
    return list(payload["traces"])


def cmd_trace(args, out) -> int:
    """``trace``: render recorded span trees from the flight recorder.

    Joins the serving-side view (per-stage latencies, queue wait,
    degraded/shed flags, the span tree) with — under ``--explain`` —
    a fresh explain-mode decode of the same keywords, so a slow query's
    trace and its score decomposition read as one document.
    """
    records = _load_trace_records(args)
    if args.id:
        records = [r for r in records if r.get("trace_id") == args.id]
    if args.slow_only:
        records = [r for r in records if r.get("notable")]
    if args.n and len(records) > args.n:
        records = records[-args.n:]
    if not records:
        print("no recorded traces match", file=out)
        return 0
    reformulator = None
    if args.explain:
        if not args.data:
            raise ReproError("--explain needs --data to rebuild the pipeline")
        reformulator = _build_reformulator(args, _load(args))
    for record in records:
        print(obs.export.render_trace_record(record).rstrip("\n"), file=out)
        keywords = record.get("keywords")
        if (
            reformulator is not None
            and isinstance(keywords, list)
            and keywords
            and all(isinstance(k, str) and not k.startswith("<") for k in keywords)
        ):
            result = reformulator.explain(
                [k.lower() for k in keywords],
                algorithm=record.get("algorithm") or "astar",
            )
            for line in result.render().splitlines():
                print(f"    {line}", file=out)
        print(file=out)
    return 0


def _replay_layers(database, store_path) -> int:
    """Apply a store's persisted delta-layer rows to *database*.

    CLI commands load the corpus from its CSVs, which stay at the base
    build; the layer chain carries every ingested row, so replaying it
    reconstructs the merged corpus exactly (the same feed pre-fork
    workers use).  Returns the number of layers applied.
    """
    from repro.storage import layers as layer_io

    applied = 0
    for _epoch, rows in layer_io.pending_rows(store_path, 0):
        for item in rows:
            database.insert(item["table"], dict(item["row"]))
        applied += 1
    return applied


def cmd_ingest(args, out) -> int:
    """``ingest``: run the incremental offline stage over new rows."""
    from repro.offline import DeltaIngestor

    try:
        with open(args.rows, "r", encoding="utf-8") as handle:
            rows = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ReproError(f"cannot read rows file {args.rows}: {exc}")
    if not isinstance(rows, list):
        raise ReproError(f"{args.rows}: expected a JSON list of rows")
    database = _load(args)
    replayed = _replay_layers(database, args.store)
    if replayed:
        logger.info(
            "replayed %d existing delta layer(s) before ingesting", replayed
        )
    ingestor = DeltaIngestor(
        database,
        args.store,
        n_similar=args.similar,
        closeness_top=args.closeness_top,
        batch_size=args.batch_size,
    )
    stats = ingestor.ingest(rows)
    logger.info(
        "ingested %d rows as layer epoch %d "
        "(%d terms recomputed, %d new, %d closeness rows invalidated) "
        "in %.3fs",
        stats.n_rows, stats.epoch, stats.n_recomputed,
        stats.n_new_terms, stats.n_invalidated, stats.elapsed_seconds,
    )
    print(json.dumps(stats.to_dict(), indent=2), file=out)
    if args.trace:
        _print_trace(out)
    return 0


def cmd_store(args, out) -> int:
    """``store``: relation-store maintenance subcommands."""
    database = _load(args)
    if args.store_command == "compact":
        from repro.offline import DeltaIngestor

        replayed = _replay_layers(database, args.store)
        ingestor = DeltaIngestor(
            database, args.store, batch_size=args.batch_size
        )
        if replayed == 0:
            logger.info("no delta layers; rebuilding the base in place")
        ingestor.compact()
        logger.info(
            "compacted %d delta layer(s) into %s", replayed, args.store
        )
        return 0
    graph = TATGraph(database, InvertedIndex(database))
    if args.store_command == "migrate":
        from repro.storage.legacy import migrate_to_v3

        migrated = migrate_to_v3(args.src, args.dest, graph)
        total = sum(b["bytes"] for b in migrated.blocks_info())
        logger.info(
            "migrated %d terms: %s -> %s (v3 binary, %d keys, %d bytes)",
            len(migrated), args.src, args.dest, migrated.n_keys, total,
        )
        return 0
    store = TermRelationStore.load(args.store, graph)
    layered = hasattr(store, "layers_info")
    inner = store.base if layered else store
    if layered:
        print(
            f"format version: {inner.FORMAT_VERSION} "
            f"+ {store.n_layers} delta layer(s)",
            file=out,
        )
        print(f"layer epoch: {store.epoch}", file=out)
    else:
        print(f"format version: {inner.FORMAT_VERSION}", file=out)
    print(f"terms: {len(store)}", file=out)
    print(f"keys: {inner.n_keys}", file=out)
    for block in inner.blocks_info():
        print(
            f"block.{block['role']}: {block['file']} "
            f"({block['bytes']} bytes)",
            file=out,
        )
    if layered:
        for layer in store.layers_info():
            print(
                f"layer.{layer['epoch']}: {layer['dir']} "
                f"({layer['n_terms']} terms, {layer['n_rows']} rows, "
                f"{layer['n_invalidated']} invalidated)",
                file=out,
            )
    for key, value in sorted(store.build_info().items()):
        print(f"build.{key}: {value}", file=out)
    return 0


COMMANDS = {
    "synth": cmd_synth,
    "describe": cmd_describe,
    "reformulate": cmd_reformulate,
    "explain": cmd_explain,
    "similar": cmd_similar,
    "close": cmd_close,
    "search": cmd_search,
    "precompute": cmd_precompute,
    "ingest": cmd_ingest,
    "stats": cmd_stats,
    "store": cmd_store,
    "serve": cmd_serve,
    "trace": cmd_trace,
}


def _diagnostics_level(args) -> int:
    """Logging threshold implied by --verbose/--quiet."""
    if args.quiet:
        return logging.WARNING
    if args.verbose:
        return logging.DEBUG
    return logging.INFO


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """CLI entry point; returns a process exit code.

    Diagnostics from any ``repro.*`` logger are routed to the same *out*
    stream as the result payload for the duration of the call (and only
    for the duration — the handler and previous level are restored on
    exit, so embedding callers keep their own logging configuration).
    """
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    package_logger = logging.getLogger("repro")
    handler = logging.StreamHandler(out)
    handler.setFormatter(logging.Formatter("%(message)s"))
    previous_level = package_logger.level
    package_logger.addHandler(handler)
    package_logger.setLevel(_diagnostics_level(args))
    try:
        return COMMANDS[args.command](args, out)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        package_logger.removeHandler(handler)
        package_logger.setLevel(previous_level)


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except BrokenPipeError:
        # downstream pipe closed early (e.g. `repro trace ... | head`);
        # detach stdout so the interpreter's shutdown flush stays quiet
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise SystemExit(1)
