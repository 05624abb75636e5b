"""zipf_http: Zipf-sampled short queries against a one-worker server.

The server is forked from the benchmark and serves the way ``repro
serve`` does.  Queries are 1-4 keywords, drawn by Zipf's law from a
universe four times the size of the server's 1,024-entry result LRU,
over the ``wide`` corpus whose ~760 terms outgrow the plan cache's
512-entry term layer.  Most requests hit the result cache, so the
server and its HTTP transport make the median; the misses (plan-cache
misses and store lookups) set the tail; decode is a small share.

One caller sends the stream on one keep-alive connection, waiting for
each answer (closed loop): after a warm-up that fills the caches, in
rounds of ``ROUND`` requests until ``--seconds`` are up.  After the
timed stretch, ``N_TAIL`` held-out papers go in through ``POST
/admin/ingest``, each followed by a query over its keywords
(``live.fresh_p50_s``).
"""

from __future__ import annotations

import json
import random
import types
from time import perf_counter

from repro.data.workloads import WorkloadGenerator
from repro.live import LiveReformulator
from repro.server.client import ServerClient, suggestions_signature

import corpus
import harness
import loadgen
from server_proc import ServerProcess

#: Held-out papers ingested after the timed stretch, one per ingest.
N_TAIL = 8
#: Distinct queries, 4x the server's result LRU.
UNIVERSE = 4096
#: Zipf's law proper.  Query popularity in search-engine logs is
#: Zipf-like (Xie and O'Hallaron, "Locality in search engine queries
#: and its implications for caching", INFOCOM 2002); there is no query
#: log of this system to fit an exponent to.
ZIPF_EXPONENT = 1.0
#: Requests that fill the caches before timing starts.
WARMUP = 1000
#: Requests per round (``harness.Record.rounds``).
ROUND = 200
#: Every KEEP_EVERY-th answer is compared with the in-process answer.
KEEP_EVERY = 25


def _universe(built, seed: int):
    generator = WorkloadGenerator(
        types.SimpleNamespace(database=built.base), seed=seed
    )
    distinct = list(dict.fromkeys(
        query.keywords
        for query in generator.length_varied_queries(
            3 * UNIVERSE, min_len=1, max_len=4
        )
    ))
    random.Random(seed).shuffle(distinct)  # a random popularity rank
    return [list(query) for query in distinct[:UNIVERSE]]


def make(seed: int, work):
    start = perf_counter()
    built = corpus.build("wide", N_TAIL, seed, work / "store")
    server = ServerProcess.start(built.base, built.store_path)
    return (built, server), {"setup_s": perf_counter() - start, **built.timings}


def dispose(state) -> None:
    state[1].kill()


def run(seed: int, seconds: float, trace: bool, work) -> harness.Record:
    (built, server), setup = make(seed, work)
    try:
        rec = harness.Record(
            entry="server.handle_reformulate", setups=[setup],
            corpus=built.shape,
        )
        _measure(rec, built, server, seed, seconds, trace)
        return rec
    finally:
        server.kill()


def _measure(rec, built, server, seed, seconds, trace) -> None:
    universe = _universe(built, seed)
    rng = random.Random(f"{seed}-stream")
    kept = []

    def send(client, n: int) -> list:
        durations, failed, answers = loadgen.closed_loop(
            client, loadgen.zipf_stream(universe, n, ZIPF_EXPONENT, rng),
            KEEP_EVERY,
        )
        rec.attempted += len(durations) + failed
        rec.failed += failed
        kept.extend(answers)
        return durations

    with ServerClient(port=server.port) as client:
        send(client, WARMUP)
        server.mark()
        start = perf_counter()
        # with tracing, the rounds that start after half the time are
        # traced and the earlier ones are the untraced baseline
        tracing = False
        while (perf_counter() < start + seconds or len(rec.rounds) < 2
               or trace and not tracing):
            if trace and not tracing and perf_counter() >= start + seconds / 2:
                server.mark()
                server.trace_on()
                tracing = True
            times = send(client, ROUND)
            rec.rounds.append(times)
            if trace:
                (rec.traced if tracing else rec.untraced).extend(times)
        server.mark()

        check = LiveReformulator(
            built.base, corpus.CONFIG, relations=str(built.store_path)
        )
        answers = {}
        sampled = []
        for query, body in kept:
            key = tuple(query)
            if key not in answers:
                answers[key] = corpus.signature(
                    check.reformulate_lane(query, k=corpus.K).suggestions
                )
            got = suggestions_signature(json.loads(body)["suggestions"])
            sampled.append([query, got])
            if got != answers[key]:
                rec.mismatches.append(f"{query}: HTTP answer differs from in-process")
        rec.digest = harness.digest(sampled)

        for rows in built.deltas:
            begin = perf_counter()
            ingest = client.request("POST", "/admin/ingest", {"rows": rows})
            answer = client.reformulate(corpus.probe_queries(rows)[0], k=corpus.K)
            rec.fresh.append(perf_counter() - begin)
            rec.attempted += 2
            rec.failed += (ingest.status != 200) + (answer.status != 200)
            if ingest.status == 200:
                rec.ingests.append(ingest.json["stats"])
    summary = server.stop()

    marks = summary["marks"]
    timed = harness.CacheCounts()
    timed.add(marks[0]["caches"], marks[-1]["caches"])
    rec.samples = {
        "checked": len(sampled),
        "result_hit_ratio": harness.hit_ratio(
            timed.totals, "result_hits", "result_misses"
        ),
    }
    if trace:
        counts = harness.CacheCounts()
        counts.add(marks[-2]["caches"], marks[-1]["caches"])
        rec.counts = dict(counts.totals)
        rec.query_summary = marks[-1]["spans"]
        rec.summary = summary["spans"]
        rec.rebuilds = summary["version"] - marks[-2]["version"]
        rec.shed = summary["shed"]
        rec.degraded = summary["degraded"]
