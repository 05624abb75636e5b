"""Live reformulation over a mutable database.

The offline structures (index, TAT graph, walk caches) are derived data:
once the database changes they are stale.  :class:`LiveReformulator`
owns the database-to-pipeline derivation, queues inserts, and rebuilds
lazily on the next query — the simplest correct maintenance policy, and
the right one for corpora updated in batches (nightly crawls, imports).

For per-insert freshness at scale a real deployment would maintain the
graph incrementally; the rebuild policy here is O(corpus) per refresh but
always exact, and the `version` counter lets callers see when a rebuild
happened.

The wrapper is safe under concurrent callers (the serving daemon fans
requests across threads): mutation bookkeeping and the check-then-rebuild
in :meth:`LiveReformulator.pipeline` are serialized by one rebuild lock,
so exactly one thread rebuilds after a mutation while the others wait and
then share the fresh pipeline.
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace
from typing import Dict, List, Optional, Sequence

from repro import obs
from repro.core.reformulator import Reformulator, ReformulatorConfig
from repro.errors import ReproError
from repro.index.analyzer import Analyzer
from repro.lanes.base import LaneResult, Request
from repro.lanes.router import LaneRouter, RouterConfig, build_router
from repro.serving.result_cache import ResultCache
from repro.storage.database import Database, TupleRef
from repro.storage.table import Row

#: ``LaneResult.degraded`` values of a degraded answer: the resident
#: full answer, or the single best hmm path.
DEGRADE_CACHED = "cached"
DEGRADE_VITERBI = "viterbi_top1"


class LiveReformulator:
    """A reformulation pipeline that follows database mutations.

    Parameters
    ----------
    database:
        The mutable database (inserts go through this wrapper OR directly
        to the database followed by :meth:`invalidate`).
    config:
        Pipeline configuration applied on every rebuild.
    analyzer:
        Analyzer for the rebuilt index.
    relations:
        Optional path to a precomputed term-relation store (a v3
        directory, possibly with delta layers).  When set, every rebuilt
        pipeline serves similarity/closeness from the store instead of
        live extractors;
        terms inserted after the store was built simply have no stored
        relations until the offline stage is rerun.
    router_config:
        Lane routing configuration (enabled lanes, default, fallback
        chain).  The default serves every lane with ``hmm`` as default
        and no fallback, which keeps the hmm lane bit-identical to the
        bare pipeline.  Replaceable per worker via
        :meth:`configure_router` (the server does this post-fork).
    """

    def __init__(
        self,
        database: Database,
        config: Optional[ReformulatorConfig] = None,
        analyzer: Optional[Analyzer] = None,
        relations=None,
        router_config: Optional[RouterConfig] = None,
    ) -> None:
        self.database = database
        self.config = config or ReformulatorConfig()
        self.analyzer = analyzer
        self.relations = relations
        self._router_config = router_config or RouterConfig()
        self._router_config.validate()
        self._router: Optional[LaneRouter] = None
        self._router_version = -1
        self._pipeline: Optional[Reformulator] = None
        self._version = 0
        self._dirty = True
        # Serializes the dirty-check-then-rebuild in pipeline() and the
        # mutation bookkeeping: without it two threads could both see
        # _dirty and rebuild twice (or read a half-updated version).
        # RLock so a locked caller may call pipeline() again.
        self._rebuild_lock = threading.RLock()
        # Relation stores loaded from disk, keyed on path: the store data
        # is keyed on term strings and independent of any one graph, so a
        # rebuild only needs to rebind the store to the fresh graph rather
        # than re-reading (and re-checksumming) the files.
        self._store_cache: Dict[str, "TermRelationStore"] = {}
        self._mutations_since_build = 0
        # Newest delta-layer epoch already folded into self.database.
        # The ingesting process advances it in ingest(); sibling pre-fork
        # workers advance it by replaying layers in sync_ingest().
        self._applied_epoch = 0
        # Query-level result LRU: entries are tagged with the pipeline
        # version, so every rebuild makes the resident set unreachable
        # (and pipeline() sweeps it).  Size 0 disables the layer.
        self.result_cache: Optional[ResultCache] = (
            ResultCache(self.config.result_cache_size)
            if self.config.result_cache_size > 0
            else None
        )
        self._cache_bypasses = 0

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #

    def insert(self, table_name: str, row: Row) -> TupleRef:
        """Insert a row and mark the derived structures stale."""
        ref = self.database.insert(table_name, row)
        with self._rebuild_lock:
            self._dirty = True
            self._mutations_since_build += 1
        return ref

    def insert_many(self, table_name: str, rows: List[Row]) -> int:
        """Insert rows; mark stale when any were inserted."""
        count = self.database.insert_many(table_name, rows)
        if count:
            with self._rebuild_lock:
                self._dirty = True
                self._mutations_since_build += count
        return count

    def invalidate(self) -> None:
        """Mark stale after out-of-band database mutations."""
        with self._rebuild_lock:
            self._dirty = True
            self._mutations_since_build += 1

    def reload_relations(self) -> None:
        """Drop the cached relation store so the next rebuild re-reads it.

        Use after the offline stage rewrote the store files in place —
        the path-keyed cache in :meth:`pipeline` would otherwise keep
        serving the previously loaded contents.
        """
        with self._rebuild_lock:
            self._store_cache.clear()
            self._dirty = True

    # ------------------------------------------------------------------ #
    # delta ingest
    # ------------------------------------------------------------------ #

    @property
    def ingest_epoch(self) -> int:
        """Newest delta-layer epoch folded into this process's database."""
        return self._applied_epoch

    def ingest(self, rows: List[Dict[str, object]], **ingest_options):
        """Fold *rows* into the corpus as one delta layer (incremental).

        Unlike :meth:`insert` + a full offline rerun, this recomputes
        only the terms occurring in *rows* and writes them as a delta
        layer beside the configured relation store (see
        :class:`repro.offline.DeltaIngestor`); the next query rebuilds
        the serving graph and picks the layer up through the layered
        store.  Keyword options are forwarded to the ingestor
        (``n_similar``, ``closeness_top``).  A rejected row leaves the
        database and the layer chain unchanged.  Returns the run's
        :class:`~repro.offline.DeltaIngestStats`.
        """
        if self.relations is None:
            raise ReproError(
                "delta ingest needs a relation store (relations=... path)"
            )
        from repro.offline import DeltaIngestor

        with self._rebuild_lock:
            ingestor = DeltaIngestor(
                self.database, self.relations, **ingest_options
            )
            stats = ingestor.ingest(rows)
            self._applied_epoch = stats.epoch
            self._store_cache.clear()
            self._dirty = True
            self._mutations_since_build += stats.n_rows
        if obs.is_enabled():
            obs.gauge(
                "repro_live_ingest_epoch",
                "Delta-layer epoch applied to this process",
            ).set(self._applied_epoch)
        return stats

    def sync_ingest(self) -> int:
        """Catch up with delta layers written by another process.

        The relation store's layer chain doubles as the ingest journal:
        each layer persists the rows it folded in.  A process whose
        database copy is behind the chain tip (a sibling pre-fork worker,
        or a worker respawned from the master's pre-ingest image) replays
        exactly the pending layers' rows into its own database and marks
        the pipeline stale so the next query rebuilds against the merged
        corpus plus the layered store.  Returns the number of layers
        applied (0 when already at the tip — one small JSON read, cheap
        enough to poll on the metrics-flusher tick).
        """
        if self.relations is None:
            return 0
        from repro.storage import layers as layer_io

        if layer_io.latest_epoch(self.relations) <= self._applied_epoch:
            return 0
        applied = 0
        with self._rebuild_lock:
            pending = layer_io.pending_rows(
                self.relations, self._applied_epoch
            )
            for epoch, rows in pending:
                for item in rows:
                    self.database.insert(item["table"], dict(item["row"]))
                    self._mutations_since_build += 1
                self._applied_epoch = epoch
                applied += 1
            if applied:
                self._store_cache.clear()
                self._dirty = True
        if applied and obs.is_enabled():
            obs.counter(
                "repro_live_ingest_syncs_total",
                "Delta layers replayed from the chain by this process",
            ).inc(applied)
            obs.gauge(
                "repro_live_ingest_epoch",
                "Delta-layer epoch applied to this process",
            ).set(self._applied_epoch)
        return applied

    # ------------------------------------------------------------------ #
    # derived pipeline
    # ------------------------------------------------------------------ #

    @property
    def version(self) -> int:
        """Incremented on every rebuild (0 before the first build)."""
        return self._version

    @property
    def is_stale(self) -> bool:
        """True when the pipeline lags the database."""
        return self._dirty

    def pipeline(self) -> Reformulator:
        """The current pipeline, rebuilt if the database changed.

        Thread-safe: the whole check-then-rebuild runs under the rebuild
        lock, so concurrent callers racing a mutation get exactly one
        rebuild (one version bump) and then share the same pipeline.
        """
        with self._rebuild_lock:
            return self._pipeline_locked()

    def _pipeline_locked(self) -> Reformulator:
        if self._dirty or self._pipeline is None:
            start = time.perf_counter()
            with obs.span(
                "live.rebuild",
                version=self._version + 1,
                mutations=self._mutations_since_build,
            ):
                if self.relations is None:
                    self._pipeline = Reformulator.from_database(
                        self.database, self.config, analyzer=self.analyzer
                    )
                else:
                    from repro.graph.tat import TATGraph
                    from repro.index.inverted import InvertedIndex
                    from repro.offline import TermRelationStore

                    index = InvertedIndex(
                        self.database, analyzer=self.analyzer
                    ).build()
                    graph = TATGraph(self.database, index)
                    key = str(self.relations)
                    store = self._store_cache.get(key)
                    if store is None:
                        store = TermRelationStore.load(self.relations, graph)
                        self._store_cache[key] = store
                    else:
                        # store contents are term-keyed and graph-agnostic;
                        # only the node-id resolver needs the fresh graph
                        store.graph = graph
                    self._pipeline = Reformulator(
                        graph, self.config, similarity=store, closeness=store
                    )
            self._version += 1
            self._dirty = False
            self._mutations_since_build = 0
            if self.result_cache is not None:
                self.result_cache.evict_stale(self._version)
            if obs.is_enabled():
                registry = obs.registry()
                registry.counter(
                    "repro_live_rebuilds_total",
                    "LiveReformulator pipeline rebuilds",
                ).inc()
                registry.histogram(
                    "repro_live_rebuild_seconds",
                    "Wall-clock seconds per pipeline rebuild",
                ).observe(time.perf_counter() - start)
        return self._pipeline

    # ------------------------------------------------------------------ #
    # lane routing
    # ------------------------------------------------------------------ #

    def configure_router(self, router_config: RouterConfig) -> None:
        """Replace the routing configuration (next query rebuilds the router).

        Cheap — validates the config and drops the current router; the
        pipeline itself is untouched.  The server calls this per worker
        after the fork so every worker routes with the served config.
        """
        router_config.validate()
        with self._rebuild_lock:
            self._router_config = router_config
            self._router = None
            self._router_version = -1

    @property
    def router_config(self) -> RouterConfig:
        """The active routing configuration."""
        return self._router_config

    def lane_names(self) -> tuple:
        """Enabled lane names, from config alone (no pipeline build)."""
        return tuple(self._router_config.lanes)

    def router(self) -> LaneRouter:
        """The lane router over the current pipeline (rebuilt with it).

        Lanes hold a reference to the pipeline they wrap, so a pipeline
        rebuild (version bump) invalidates the router too; both are
        refreshed under the same lock.
        """
        with self._rebuild_lock:
            self._pipeline_locked()
            if self._router is None or self._router_version != self._version:
                self._router = build_router(self._pipeline, self._router_config)
                self._router_version = self._version
            return self._router

    # ------------------------------------------------------------------ #
    # delegation
    # ------------------------------------------------------------------ #

    @property
    def cache_bypasses(self) -> int:
        """Queries that arrived while stale and so bypassed the result LRU."""
        return self._cache_bypasses

    def reformulate_lane(
        self,
        keywords: Sequence[str],
        k: int = 10,
        lane: Optional[str] = None,
        algorithm: str = "astar",
        budget: Optional[float] = None,
    ) -> LaneResult:
        """One query through :meth:`route` (a batch of one)."""
        return self.route([Request(keywords, k, lane, algorithm, budget)])[0]

    def route(
        self, requests: Sequence[Request], degrade: bool = False
    ) -> List[LaneResult]:
        """Answer a batch of requests through the router, results aligned.

        The only reader and writer of the result LRU.  Each request is
        keyed on ``(keywords, k, algorithm, lane tag)`` — the tag is
        :meth:`RouterConfig.cache_tag`, so a lane under an active
        fallback chain never shares entries with the same lane running
        chain-free.  Entries sharing ``(key, budget)`` are answered
        together: one lookup, served from memory when resident at the
        current pipeline version, else solved once — every distinct miss
        goes through one :meth:`LaneRouter.route` call, also when the
        cache is bypassed or disabled — and the answer goes to each
        entry (a copy per duplicate).  Answers are cached except those
        decoded under a ``budget``: a wall-clock allowance makes the
        relaxation lane's output timing-dependent.  A batch arriving
        while :attr:`is_stale` cannot hit — the resident entries predate
        the pending mutations — so it bypasses the lookup (counted per
        request in ``repro_live_result_cache_bypass_total``), triggers
        the rebuild, and repopulates the cache at the new version.

        With ``degrade=True`` (the server's deadline fallback) a hit is
        served as is, marked ``degraded="cached"``, and a miss gets the
        single best hmm path (``Reformulator.best``, labelled ``hmm``,
        ``degraded="viterbi_top1"``), which is not cached.

        Every lane name is resolved before any pipeline build, so an
        unknown lane raises :class:`~repro.lanes.base.UnknownLaneError`
        first.
        """
        requests = list(requests)
        config = self._router_config
        lanes = [config.resolve(request.lane) for request in requests]
        keys = [
            ResultCache.key(
                request.keywords, request.k, request.algorithm,
                lane=config.cache_tag(lane),
            )
            for request, lane in zip(requests, lanes)
        ]
        if obs.is_enabled():
            obs.registry().gauge(
                "repro_live_staleness_at_query",
                "Mutations pending against the pipeline when a query arrived",
            ).set(self._mutations_since_build)
        stale = self.is_stale
        if stale and requests:
            self._cache_bypasses += len(requests)
            obs.annotate_trace("result_cache", "bypass")
            obs.counter(
                "repro_live_result_cache_bypass_total",
                "Queries that bypassed the result cache due to staleness",
            ).inc(len(requests))
        with self._rebuild_lock:
            router = self.router()  # may rebuild and bump the version
            pipeline, version = self._pipeline, self._version
        cache = None if stale else self.result_cache
        groups: Dict[tuple, List[int]] = {}
        for i, key in enumerate(keys):
            groups.setdefault((key, requests[i].budget), []).append(i)
        results: List[Optional[LaneResult]] = [None] * len(requests)
        misses: List[int] = []  # the first entry of each missed group
        for (key, _budget), members in groups.items():
            cached = None if cache is None else cache.get(key, version)
            if cached is None:
                misses.append(members[0])
            else:
                results[members[0]] = (
                    replace(cached, degraded=DEGRADE_CACHED) if degrade
                    else cached
                )
        if cache is not None:
            hits = len(requests) - sum(
                len(groups[keys[i], requests[i].budget]) for i in misses
            )
            obs.annotate_trace(
                "result_cache",
                ("hit" if hits else "miss") if len(requests) == 1
                else f"{hits}/{len(requests)} hits",
            )
        if degrade:
            for i in misses:
                results[i] = LaneResult(
                    lane="hmm",
                    suggestions=(pipeline.best(requests[i].keywords),),
                    provenance=({"lane": "hmm", "relaxed": False},),
                    requested=lanes[i],
                    degraded=DEGRADE_VITERBI,
                )
        elif misses:
            solved = router.route([requests[i] for i in misses])
            store = self.result_cache
            for i, result in zip(misses, solved):
                results[i] = result
                if store is not None and requests[i].budget is None:
                    store.put(keys[i], version, result)
        for first, *duplicates in groups.values():
            for i in duplicates:
                results[i] = replace(results[first])
        if results:
            obs.annotate_trace("lane", results[0].lane)
        return results  # type: ignore[return-value]

    def similar_terms(self, text: str, top_n: int = 10):
        """Similar terms over the (possibly rebuilt) pipeline."""
        return self.pipeline().similarity.similar_terms(text, top_n)
