"""Stateful oracle: ``LiveReformulator`` against a from-scratch rebuild.

A hypothesis state machine interleaves the mutations a serving process
sees — ``insert``, delta ``ingest``, ``reload_relations`` and
``compact`` (``DeltaIngestor.compact`` followed by the documented
``reload_relations``) — with queries through
:meth:`LiveReformulator.route`.  A query draws its lane, ``k``,
algorithm, single or batch, degraded or not, and a router config with
or without the ``hmm`` → ``relaxation`` fallback chain.

Every answer is checked against a *fresh* ``LiveReformulator`` with no
result cache, over a database holding the same rows in the same order
and the same store path: scores bit for bit (``float.hex``) plus text,
``state_path``, ``lane``, ``relaxed`` and ``fallback_from``.  A degraded
answer must equal either the fresh full answer (a resident cache entry)
or the fresh pipeline's ``best`` (the single-best fallback).  Whatever
the system under test keeps between queries — result LRU, plan cache,
loaded store, router — must never change an answer.
"""

import shutil

import hypothesis.strategies as st
from hypothesis import HealthCheck, settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.core.reformulator import ALGORITHMS, ReformulatorConfig
from repro.data.dblp_synth import dblp_schema
from repro.lanes import KNOWN_LANES, Request, RouterConfig
from repro.lanes.schema import derive_field_vocabulary
from repro.live import DEGRADE_CACHED, DEGRADE_VITERBI, LiveReformulator
from repro.offline import DeltaIngestor
from repro.storage.database import Database

from tests.test_delta_ingest import _build_base_store, _split_corpus

N_HELD = 3
CONFIG = ReformulatorConfig(n_candidates=6)
FRESH_CONFIG = ReformulatorConfig(n_candidates=6, result_cache_size=0)
ROUTER_CONFIGS = (RouterConfig(), RouterConfig(fallback_lane="relaxation"))
TABLES = ("conferences", "authors", "papers", "writes")


def _vocabulary(database, n=10):
    """The *n* most frequent title words that are not schema keywords."""
    counts = {}
    for paper in database.table("papers").scan():
        for word in paper["title"].lower().split():
            counts[word] = counts.get(word, 0) + 1
    schema_words = set(derive_field_vocabulary(database))
    ranked = sorted(counts, key=lambda word: (-counts[word], word))
    return [word for word in ranked if word not in schema_words][:n]


_BASE_DB, _DELTA_ROWS = _split_corpus(n_held=N_HELD)
TERMS = _vocabulary(_BASE_DB)
# one delta per held-out paper: the paper row plus its writes rows
_DELTAS = [
    [item for item in _DELTA_ROWS
     if item["row"]["pid"] == paper["row"]["pid"]]
    for paper in _DELTA_ROWS
    if paper["table"] == "papers"
]

words = st.lists(st.sampled_from(TERMS), min_size=1, max_size=3, unique=True)
# a small pool, so draws share keywords and differ in k, lane, algorithm
# or chain — the parts of a cache key that keep their answers apart.  An
# unknown term makes a query incohesive, so the fallback chain fires.
QUERIES = ([TERMS[0]], [TERMS[0], TERMS[1]], [TERMS[2], TERMS[3]],
           [TERMS[1], TERMS[4], TERMS[5]], [TERMS[2], "qqqunseen"])


def _copy_base():
    """A fresh database holding the base rows, in build order."""
    database = Database(dblp_schema())
    for name in TABLES:
        for row in _BASE_DB.table(name).scan():
            database.insert(name, dict(row))
    return database


def _signature(result):
    return (
        result.lane,
        result.relaxed,
        result.fallback_from,
        tuple(
            (s.text, s.score.hex(), tuple(s.state_path))
            for s in result.suggestions
        ),
    )


def _outcome(fn):
    try:
        return "ok", fn()
    except Exception as exc:  # noqa: BLE001 - compared by type below
        return "error", type(exc)


class LiveMachine(RuleBasedStateMachine):
    """One ``LiveReformulator`` over a private copy of the base store."""

    def __init__(self, base_store, scratch):
        super().__init__()
        self.store = scratch / "store"
        shutil.copytree(base_store, self.store)
        self.live = LiveReformulator(
            _copy_base(), CONFIG, relations=str(self.store)
        )
        self.appended = []  # (table, row) after the base, in order
        self.next_delta = 0
        self.next_pid = 10_000
        self.history = []  # every query draw, re-checked by `query`
        self.layers = 0  # delta layers since the last compaction
        self._fresh = None

    def fresh(self, router_config):
        """The model: a cache-free rebuild over the same rows and store."""
        if self._fresh is None:
            database = _copy_base()
            for table, row in self.appended:
                database.insert(table, dict(row))
            self._fresh = LiveReformulator(
                database, FRESH_CONFIG, relations=str(self.store)
            )
        self._fresh.configure_router(router_config)
        return self._fresh

    def mutated(self):
        self._fresh = None

    # ------------------------------------------------------------------ #
    # mutations
    # ------------------------------------------------------------------ #

    @rule(title=words, cid=st.integers(0, 5))
    def insert(self, title, cid):
        row = {
            "pid": self.next_pid, "title": " ".join(title),
            "cid": cid, "year": 2014,
        }
        self.next_pid += 1
        self.live.insert("papers", row)
        self.appended.append(("papers", row))
        self.mutated()

    @precondition(lambda self: self.next_delta < len(_DELTAS))
    @rule()
    def ingest(self):
        rows = _DELTAS[self.next_delta]
        self.next_delta += 1
        self.live.ingest([dict(item) for item in rows])
        self.layers += 1
        self.appended.extend((item["table"], item["row"]) for item in rows)
        self.mutated()

    @rule()
    def reload_relations(self):
        self.live.reload_relations()

    @precondition(lambda self: self.layers > 0)
    @rule()
    def compact(self):
        DeltaIngestor(self.live.database, self.store).compact()
        self.layers = 0
        self.live.reload_relations()
        self.mutated()

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    @rule(
        batch=st.lists(st.sampled_from(QUERIES), min_size=1, max_size=3),
        lane=st.sampled_from((None,) + KNOWN_LANES),
        k=st.integers(1, 3),
        algorithm=st.sampled_from(ALGORITHMS),
        degrade=st.booleans(),
        chain=st.sampled_from(ROUTER_CONFIGS),
    )
    def query(self, batch, lane, k, algorithm, degrade, chain):
        """Answer a new draw, then every earlier one again under this
        step's router config: a resident cache entry must still equal
        what a rebuild answers now, with or without the chain."""
        self.history.append((batch, lane, k, algorithm))
        for draw in reversed(self.history):
            self.check(*draw, chain=chain, degrade=degrade)

    def check(self, batch, lane, k, algorithm, chain, degrade):
        self.live.configure_router(chain)
        requests = [Request(query, k, lane, algorithm) for query in batch]
        got = _outcome(lambda: self.live.route(requests, degrade=degrade))
        fresh = self.fresh(chain)
        want = _outcome(lambda: fresh.route(requests))
        if not degrade:
            assert got[0] == want[0], (got, want)
            if got[0] == "ok":
                assert [_signature(r) for r in got[1]] == [
                    _signature(r) for r in want[1]
                ]
            else:
                assert got[1] is want[1]
            return
        assert got[0] == "ok", got
        for i, (request, result) in enumerate(zip(requests, got[1])):
            if result.degraded == DEGRADE_CACHED:
                assert want[0] == "ok", want
                assert _signature(result) == _signature(want[1][i])
            else:
                assert result.degraded == DEGRADE_VITERBI
                best = fresh.pipeline().best(request.keywords)
                assert result.lane == "hmm"
                assert not result.relaxed and result.fallback_from is None
                assert _signature(result)[3] == (
                    (best.text, best.score.hex(), tuple(best.state_path)),
                )


def test_live_matches_fresh_rebuild(tmp_path_factory):
    base_store = _build_base_store(
        _copy_base(), tmp_path_factory.mktemp("base") / "store"
    )
    run_state_machine_as_test(
        lambda: LiveMachine(base_store, tmp_path_factory.mktemp("example")),
        settings=settings(
            max_examples=20,
            stateful_step_count=12,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        ),
    )
