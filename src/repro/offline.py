"""Offline-stage persistence: precompute and store term relations.

The paper splits the system into an offline stage (term relation
extraction over the whole vocabulary) and an online stage that only reads
the precomputed relations.  This module is that boundary as a downstream
user would deploy it:

* :class:`OfflinePrecomputer` walks the vocabulary in **batches** —
  contextual preference vectors are built as columns and solved together
  (one cached sparse-LU factorization amortized over the vocabulary),
  closeness BFS rows are fanned across a thread pool — and materializes
  each term's similar-term list and closeness row;
* :class:`TermRelationStore` holds the materialized relations and
  serves them behind the same ``similar_nodes`` / ``closeness``
  interfaces the online stage consumes; it is persisted as a v3 binary
  store (:func:`repro.storage.binary.write_store_v3`) and reopened with
  :meth:`TermRelationStore.load`.

A store-backed :class:`~repro.core.reformulator.Reformulator` never runs
a random walk or a BFS at query time.
"""

from __future__ import annotations

import json
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro import obs
from repro.errors import ReproError
from repro.graph.closeness import ClosenessExtractor
from repro.graph.nodes import Node
from repro.graph.similarity import SimilarNode
from repro.graph.tat import TATGraph
from repro.index.inverted import FieldTerm

logger = logging.getLogger(__name__)

PathLike = Union[str, Path]

#: Solver passed through to the batched walk; "direct" reuses one cached
#: sparse-LU factorization across every batch of the vocabulary.
DEFAULT_WALK_METHOD = "direct"


def _escape_part(part: str) -> str:
    return part.replace("\\", "\\\\").replace("|", "\\|")


def _term_key(term: FieldTerm) -> str:
    """Serialized term key ``table|field|text`` with ``\\``/``|`` escaped.

    Escaping makes the key a lossless encoding for *any* term text —
    including pipes and backslashes — where the historical raw
    ``f"{table}|{column}|{text}"`` form was ambiguous.
    """
    table, column = term.field
    return "|".join(
        _escape_part(part) for part in (table, column, term.text)
    )


def _split_key(key: str) -> List[str]:
    """Split a term key on unescaped pipes, undoing the escapes."""
    parts: List[str] = []
    buf: List[str] = []
    escaped = False
    for ch in key:
        if escaped:
            buf.append(ch)
            escaped = False
        elif ch == "\\":
            escaped = True
        elif ch == "|":
            parts.append("".join(buf))
            buf = []
        else:
            buf.append(ch)
    if escaped:  # lone trailing backslash: keep it literal
        buf.append("\\")
    parts.append("".join(buf))
    return parts


def _parse_term_key(key: str) -> FieldTerm:
    """Inverse of :func:`_term_key`, tolerant of legacy unescaped keys.

    Format-version-1 files wrote the text unescaped; a legacy key whose
    text contains pipes splits into more than three parts, and falls back
    to the historical "split at the first two pipes" reading.
    """
    parts = _split_key(key)
    if len(parts) == 3:
        return FieldTerm((parts[0], parts[1]), parts[2])
    pieces = key.split("|", 2)
    if len(pieces) != 3:
        raise ReproError(f"malformed term key {key!r}")
    return FieldTerm((pieces[0], pieces[1]), pieces[2])


@dataclass
class TermRelations:
    """Materialized relations of one term."""

    similar: List[Tuple[str, float]] = field(default_factory=list)
    closeness: Dict[str, float] = field(default_factory=dict)


class TermRelationStore:
    """Precomputed similarity/closeness, detached from the graph.

    The store speaks term *keys* internally but exposes the node-id
    interface of the live extractors, so it drops into
    :class:`~repro.core.candidates.CandidateListBuilder` and
    :class:`~repro.core.hmm.ReformulationHMM` unchanged.

    All reads route through the :meth:`_get` / :meth:`_keys` /
    :meth:`_items` accessors; the memmapped v3 store
    (:class:`repro.storage.binary.BinaryTermRelationStore`) and the
    layered store (:class:`repro.storage.layers.LayeredTermRelationStore`)
    override them to serve the same interface from disk.
    """

    def __init__(self, graph: TATGraph) -> None:
        self.graph = graph
        self._relations: Dict[str, TermRelations] = {}

    # ------------------------------------------------------------------ #
    # storage accessors (the override surface of the on-disk stores)
    # ------------------------------------------------------------------ #

    def _get(self, key: str) -> Optional[TermRelations]:
        """Relations of one term key, or None when absent."""
        return self._relations.get(key)

    def _keys(self) -> List[str]:
        """All stored term keys."""
        return list(self._relations)

    def _items(self) -> Iterator[Tuple[str, TermRelations]]:
        """All (key, relations) pairs."""
        return iter(self._relations.items())

    # ------------------------------------------------------------------ #
    # population
    # ------------------------------------------------------------------ #

    def put(
        self,
        term: FieldTerm,
        similar: List[Tuple[FieldTerm, float]],
        closeness: Dict[FieldTerm, float],
    ) -> None:
        """Store one term's similar list and closeness row."""
        self._relations[_term_key(term)] = TermRelations(
            similar=[(_term_key(t), s) for t, s in similar],
            closeness={_term_key(t): c for t, c in closeness.items()},
        )

    def __len__(self) -> int:
        return len(self._relations)

    def __contains__(self, term: FieldTerm) -> bool:
        return self._get(_term_key(term)) is not None

    def terms(self) -> List[FieldTerm]:
        """All terms with stored relations."""
        return [_parse_term_key(k) for k in self._keys()]

    # ------------------------------------------------------------------ #
    # online interfaces (same surface as the live extractors)
    # ------------------------------------------------------------------ #

    def _term_of_node(self, node_id: int) -> Optional[FieldTerm]:
        node = self.graph.node(node_id)
        if node.text is None:
            return None
        return node.payload

    def similar_nodes(self, node_id: int, top_n: int) -> List[SimilarNode]:
        """Stored similar-term list, resolved back to node ids."""
        term = self._term_of_node(node_id)
        if term is None:
            return []
        relations = self._get(_term_key(term))
        if relations is None:
            return []
        out: List[SimilarNode] = []
        for key, score in relations.similar[:top_n]:
            other_id = self.graph.registry.get_id(
                Node.for_term(_parse_term_key(key))
            )
            if other_id is not None:
                out.append(SimilarNode(other_id, score))
        return out

    def similarity(self, node_a: int, node_b: int) -> float:
        """Stored sim(a, b); 0 when outside a's stored list."""
        term_a = self._term_of_node(node_a)
        term_b = self._term_of_node(node_b)
        if term_a is None or term_b is None:
            return 0.0
        relations = self._get(_term_key(term_a))
        if relations is None:
            return 0.0
        key_b = _term_key(term_b)
        for key, score in relations.similar:
            if key == key_b:
                return score
        return 0.0

    def similar_terms(self, text: str, top_n: int = 10) -> List[Tuple[str, float]]:
        """Stored similar terms for a raw keyword."""
        node_id = self.graph.resolve_text_one(text)
        out = []
        for sim in self.similar_nodes(node_id, top_n):
            node = self.graph.node(sim.node_id)
            out.append((node.text or str(node), sim.score))
        return out

    def closeness(self, node_a: int, node_b: int) -> float:
        """Stored clos(a, b); 0 when outside a's stored row."""
        term_a = self._term_of_node(node_a)
        term_b = self._term_of_node(node_b)
        if term_a is None or term_b is None:
            return 0.0
        relations = self._get(_term_key(term_a))
        if relations is None:
            return 0.0
        return relations.closeness.get(_term_key(term_b), 0.0)

    def precompute(self, node_ids: Iterable[int]) -> None:
        """No-op: the store *is* the precomputation (interface parity)."""

    @classmethod
    def load(cls, path: PathLike, graph: TATGraph) -> "TermRelationStore":
        """Open a v3 store directory (or its ``manifest.json``).

        A store carrying a ``layers/layers.json`` delta chain comes back
        wrapped in a :class:`~repro.storage.layers.LayeredTermRelationStore`.
        A publish that a crash interrupted is rolled forward first
        (:func:`~repro.storage.binary.roll_forward`).  Legacy v1 files
        and v2 directories raise :class:`ReproError` naming
        ``repro store migrate``.
        """
        from repro.storage import layers as layer_io
        from repro.storage.binary import (
            MANIFEST_NAME,
            BinaryTermRelationStore,
            LegacyStoreError,
            roll_forward,
        )

        root = Path(path)
        if root.name == MANIFEST_NAME and not root.is_dir():
            root = root.parent
        roll_forward(root)
        if root.is_file():
            raise LegacyStoreError(
                f"{root}: single-file (v1) stores are migration input "
                f"only; convert it with `repro store migrate --src {root} "
                "--dest DIR`"
            )
        base = BinaryTermRelationStore.load(root, graph)
        if layer_io.chain_path(root).exists():
            return layer_io.LayeredTermRelationStore.load(root, base, graph)
        return base


@dataclass
class PrecomputeStats:
    """Per-run snapshot of one :meth:`OfflinePrecomputer.build_store` run.

    The same numbers are recorded into the :mod:`repro.obs` metrics
    registry as the run progresses (``repro_offline_*`` series — see
    ``docs/observability.md``); this dataclass is the cumulative view of
    one run, kept for programmatic access and CLI summaries.  Both are
    written from a single update site in :meth:`~OfflinePrecomputer.build_store`.
    """

    total_terms: int = 0
    terms_done: int = 0
    n_batches: int = 0
    batch_size: int = 0
    workers: int = 0
    walk_method: str = DEFAULT_WALK_METHOD
    elapsed_seconds: float = 0.0
    walk_iterations: int = 0
    #: verified per-batch walk residuals (max over the batch's columns)
    batch_residuals: List[float] = field(default_factory=list)

    @property
    def terms_per_second(self) -> float:
        """Throughput of the run so far."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.terms_done / self.elapsed_seconds

    @property
    def max_residual(self) -> float:
        """Worst verified walk residual across all batches."""
        return max(self.batch_residuals) if self.batch_residuals else 0.0


class OfflinePrecomputer:
    """Materializes the offline stage for a vocabulary of terms.

    Parameters
    ----------
    graph:
        The TAT graph.
    similarity:
        A live similarity backend (contextual walk by default).
    closeness:
        A live closeness extractor.
    n_similar:
        How many similar terms to store per term (the online candidate
        lists can only be as long as this).
    closeness_top:
        How many closeness entries to store per term (its closest term
        nodes); pairs outside the stored row read as 0.
    """

    def __init__(
        self,
        graph: TATGraph,
        similarity=None,
        closeness: Optional[ClosenessExtractor] = None,
        n_similar: int = 20,
        closeness_top: int = 200,
    ) -> None:
        if n_similar < 1 or closeness_top < 1:
            raise ReproError("n_similar and closeness_top must be >= 1")
        from repro.graph.similarity import SimilarityExtractor

        self.graph = graph
        self.similarity = similarity or SimilarityExtractor(graph)
        self.closeness = closeness or ClosenessExtractor(graph)
        self.n_similar = n_similar
        self.closeness_top = closeness_top
        self.stats = PrecomputeStats()

    def vocabulary(self, fields: Optional[List[Tuple[str, str]]] = None) -> List[FieldTerm]:
        """The terms to precompute: all indexed terms, or chosen fields."""
        return [
            term
            for term in self.graph.index.terms()
            if fields is None or term.field in fields
        ]

    def precompute_term(self, term: FieldTerm) -> TermRelations:
        """Materialize one term's relations (the sequential unit of work)."""
        node_id = self.graph.term_node_id(term)
        similar = [
            (self.graph.node(s.node_id).payload, s.score)
            for s in self.similarity.similar_nodes(node_id, self.n_similar)
        ]
        closeness = {
            self.graph.node(other).payload: score
            for other, score in self.closeness.close_terms(
                node_id, self.closeness_top
            )
        }
        return TermRelations(
            similar=[(_term_key(t), s) for t, s in similar],
            closeness={_term_key(t): c for t, c in closeness.items()},
        )

    def _close_rows(
        self, node_ids: List[int], workers: int
    ) -> Dict[int, List[Tuple[int, float]]]:
        """Closeness rows for one batch, fanned across a thread pool.

        Each worker's chunk touches disjoint per-source cache entries, so
        the extractor's dict caches stay consistent under the pool.
        """
        if not hasattr(self.closeness, "close_rows"):
            return {
                nid: self.closeness.close_terms(nid, self.closeness_top)
                for nid in node_ids
            }
        if workers <= 1 or len(node_ids) <= 1:
            return self.closeness.close_rows(node_ids, self.closeness_top)
        chunks = [c for c in (node_ids[i::workers] for i in range(workers)) if c]
        rows: Dict[int, List[Tuple[int, float]]] = {}
        with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
            futures = [
                pool.submit(self.closeness.close_rows, chunk, self.closeness_top)
                for chunk in chunks
            ]
            for future in futures:
                rows.update(future.result())
        return rows

    def build_store(
        self,
        fields: Optional[List[Tuple[str, str]]] = None,
        progress_every: int = 0,
        batch_size: int = 64,
        workers: int = 1,
        walk_method: str = DEFAULT_WALK_METHOD,
        progress: Optional[Callable[[int, int], None]] = None,
    ) -> TermRelationStore:
        """Run the full offline stage and return the populated store.

        The vocabulary is processed in batches of *batch_size* terms:
        each batch's contextual walks are solved together (see
        :meth:`~repro.graph.similarity.SimilarityExtractor.batch_walk`)
        and its closeness BFS rows are fanned across *workers* threads.
        Extractor caches are evicted as soon as a term's relations are
        read, so memory stays O(batch), not O(vocabulary).

        *progress* is called as ``progress(done, total)`` after every
        batch; *progress_every* additionally logs every that-many terms
        through the module logger.
        """
        if batch_size < 1:
            raise ReproError("batch_size must be >= 1")
        if workers < 1:
            raise ReproError("workers must be >= 1")
        store = TermRelationStore(self.graph)
        vocabulary = self.vocabulary(fields)
        stats = PrecomputeStats(
            total_terms=len(vocabulary),
            batch_size=batch_size,
            workers=workers,
            walk_method=walk_method,
        )
        self.stats = stats

        # The registry mirror of this run's counters: the offline stage
        # always records (it runs for seconds; the updates are per-batch,
        # not per-term), so `repro stats` sees precompute activity even
        # without the tracing switch.
        registry = obs.registry()
        terms_counter = registry.counter(
            "repro_offline_terms_total", "Vocabulary terms precomputed"
        )
        batches_counter = registry.counter(
            "repro_offline_batches_total", "Precompute batches processed"
        )
        iterations_counter = registry.counter(
            "repro_offline_walk_iterations_total",
            "Batched-walk solver iterations",
        )
        residual_hist = registry.histogram(
            "repro_offline_walk_residual",
            "Verified max walk residual per batch",
            buckets=[10.0 ** e for e in range(-16, -2)],
        )
        batch_seconds_hist = registry.histogram(
            "repro_offline_batch_seconds",
            "Wall-clock seconds per precompute batch",
        )

        start = time.perf_counter()
        batched = hasattr(self.similarity, "batch_walk")
        done = 0
        with obs.span(
            "precompute.build_store",
            terms=len(vocabulary),
            batch_size=batch_size,
            workers=workers,
            walk_method=walk_method,
        ):
            for lo in range(0, len(vocabulary), batch_size):
                batch = vocabulary[lo:lo + batch_size]
                batch_start = time.perf_counter()
                with obs.span(
                    "precompute.batch", index=stats.n_batches, size=len(batch)
                ) as batch_span:
                    node_ids = [
                        self.graph.term_node_id(term) for term in batch
                    ]
                    if batched:
                        result = self.similarity.batch_walk(
                            node_ids, method=walk_method
                        )
                        if result is not None:
                            stats.batch_residuals.append(result.residual)
                            stats.walk_iterations += result.iterations
                            iterations_counter.inc(result.iterations)
                            residual_hist.observe(result.residual)
                            batch_span.set_attribute(
                                "residual", result.residual
                            )
                            batch_span.set_attribute(
                                "iterations", result.iterations
                            )
                    close_rows = self._close_rows(node_ids, workers)
                    for term, node_id in zip(batch, node_ids):
                        similar = [
                            (self.graph.node(s.node_id).payload, s.score)
                            for s in self.similarity.similar_nodes(
                                node_id, self.n_similar
                            )
                        ]
                        closeness = {
                            self.graph.node(other).payload: score
                            for other, score in close_rows[node_id]
                        }
                        store.put(term, similar, closeness)
                        if hasattr(self.similarity, "evict"):
                            self.similarity.evict(node_id)
                        if hasattr(self.closeness, "evict"):
                            self.closeness.evict(node_id)
                        done += 1
                        if progress_every and done % progress_every == 0:
                            logger.info(
                                "precomputed %d/%d terms",
                                done, len(vocabulary),
                            )
                stats.n_batches += 1
                stats.terms_done = done
                stats.elapsed_seconds = time.perf_counter() - start
                terms_counter.inc(len(batch))
                batches_counter.inc()
                batch_seconds_hist.observe(
                    time.perf_counter() - batch_start
                )
                if progress is not None:
                    progress(done, len(vocabulary))
        return store


@dataclass
class DeltaIngestStats:
    """Per-run snapshot of one :meth:`DeltaIngestor.ingest` call."""

    epoch: int = 0
    n_rows: int = 0
    n_recomputed: int = 0
    n_new_terms: int = 0
    n_invalidated: int = 0
    elapsed_seconds: float = 0.0
    graph_seconds: float = 0.0
    walk_seconds: float = 0.0
    closeness_seconds: float = 0.0
    write_seconds: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly view (CLI/HTTP responses)."""
        return {
            "epoch": self.epoch,
            "n_rows": self.n_rows,
            "n_recomputed": self.n_recomputed,
            "n_new_terms": self.n_new_terms,
            "n_invalidated": self.n_invalidated,
            "elapsed_seconds": self.elapsed_seconds,
            "graph_seconds": self.graph_seconds,
            "walk_seconds": self.walk_seconds,
            "closeness_seconds": self.closeness_seconds,
            "write_seconds": self.write_seconds,
        }


class DeltaIngestor:
    """Incrementally folds new rows into a directory-backed store.

    The expensive part of the offline stage is per-term: one contextual
    walk plus one closeness BFS for every vocabulary term.  An ingest of
    a few rows only *requires* fresh rows for the terms occurring in
    those rows — every candidate list the online stage builds for a
    query keyword reads that keyword's own similar list, so recomputing
    exactly the ingested terms keeps queries over them bit-identical to
    a from-scratch build on the merged corpus.  The ingest run:

    1. inserts the rows into the database (and, when a live serving
       graph is passed, extends it in place via
       :meth:`~repro.graph.tat.TATGraph.add_tuples`);
    2. rebuilds the canonical merged graph — same node order and floats
       a from-scratch build would produce — and recomputes similar +
       closeness rows for the ingested terms with the batch-invariant
       direct solver;
    3. computes the structural dirty ball and marks every other term
       inside it **invalidated**: their stored closeness rows are stale,
       and the layered store re-BFSes them lazily (and exactly) at serve
       time;
    4. writes the result as one delta layer beside the untouched base
       (see :mod:`repro.storage.layers`).

    Similar rows of terms *outside* the ingested set keep their stored
    version although global idf drifted — the documented staleness that
    :meth:`compact` erases by folding everything into a fresh base.

    Parameters default from the newest layer's parameters, then the base
    manifest's build info, so stacked layers stay consistent with the
    build they extend.
    """

    def __init__(
        self,
        database,
        store_path: PathLike,
        n_similar: Optional[int] = None,
        closeness_top: Optional[int] = None,
        batch_size: int = 64,
        walk_method: str = DEFAULT_WALK_METHOD,
    ) -> None:
        from repro.storage import layers as layer_io
        from repro.storage.binary import roll_forward

        self.database = database
        self.store_path = Path(store_path)
        roll_forward(self.store_path)
        if not self.store_path.is_dir():
            raise ReproError(
                f"{self.store_path}: delta layers need a directory-backed "
                "v3 store; convert a single-file v1 store with "
                "`repro store migrate`"
            )
        manifest_path = self.store_path / "manifest.json"
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ReproError(
                f"cannot read store manifest {manifest_path}: {exc}"
            ) from exc
        self._base_version = manifest.get("format_version")
        build = manifest.get("build") or {}
        layer_params: Dict[str, object] = {}
        chain = layer_io.read_chain(self.store_path)
        for entry in chain["layers"]:  # newest-last wins
            meta = layer_io.read_layer_meta(self.store_path, entry["dir"])
            layer_params = dict(meta.get("params", {}))

        def pick(name: str, explicit: Optional[int], default: int) -> int:
            if explicit is not None:
                return explicit
            for source in (layer_params, build):
                if source.get(name) is not None:
                    return int(source[name])
            return default

        self.n_similar = pick("n_similar", n_similar, 20)
        self.closeness_top = pick("closeness_top", closeness_top, 200)
        if self.n_similar < 1 or self.closeness_top < 1:
            raise ReproError("n_similar and closeness_top must be >= 1")
        if batch_size < 1:
            raise ReproError("batch_size must be >= 1")
        self.batch_size = batch_size
        self.walk_method = walk_method
        self.stats = DeltaIngestStats()

    @staticmethod
    def _check_rows(rows: List[Dict[str, object]]) -> None:
        if not rows:
            raise ReproError("ingest needs at least one row")
        for item in rows:
            if (
                not isinstance(item, dict)
                or not isinstance(item.get("table"), str)
                or not isinstance(item.get("row"), dict)
            ):
                raise ReproError(
                    'ingest rows must be {"table": str, "row": {...}} '
                    f"objects, got {item!r}"
                )

    def ingest(
        self,
        rows: List[Dict[str, object]],
        graph: Optional[TATGraph] = None,
    ) -> DeltaIngestStats:
        """Ingest *rows* (``{"table": ..., "row": {...}}``) as one layer.

        The rows must not already exist in the database — the ingestor
        inserts them.  Pass the currently-serving *graph* (built over the
        same database) to have it extended in place instead of going
        stale.  Returns the run's :class:`DeltaIngestStats`; the new
        layer is on disk when this returns.
        """
        from repro.graph.similarity import SimilarityExtractor
        from repro.index.inverted import InvertedIndex
        from repro.storage import layers as layer_io

        self._check_rows(rows)
        if self._base_version != 3:
            raise ReproError(
                f"{self.store_path}: base store is format "
                f"v{self._base_version}; rebuild it as v3 with "
                "`repro store compact` before ingesting"
            )
        registry = obs.registry()
        start = time.perf_counter()
        stats = DeltaIngestStats(n_rows=len(rows))
        self.stats = stats
        with obs.span("ingest.delta", rows=len(rows)):
            refs = [
                self.database.insert(item["table"], dict(item["row"]))
                for item in rows
            ]
            if graph is not None:
                # keep the caller's serving graph current (dirty set not
                # needed here: the canonical graph below recomputes it)
                graph.add_tuples(refs)

            # canonical merged graph: identical node order and floats to
            # a fresh build over the merged corpus, which is what makes
            # the recomputed rows bit-compatible with full rebuilds
            t0 = time.perf_counter()
            canonical = TATGraph(self.database, InvertedIndex(self.database))
            stats.graph_seconds = time.perf_counter() - t0

            ref_set = set(refs)
            ingested_terms = sorted(
                {
                    term
                    for ref in refs
                    for term, _tf in canonical.index.terms_of(ref)
                },
                key=lambda t: canonical.term_node_id(t),
            )
            node_ids = [canonical.term_node_id(t) for t in ingested_terms]
            stats.n_recomputed = len(ingested_terms)
            stats.n_new_terms = sum(
                1
                for term in ingested_terms
                if all(
                    p.ref in ref_set
                    for p in canonical.index.postings(term)
                )
            )

            # structural dirty ball -> closeness invalidation set
            closeness = ClosenessExtractor(canonical)
            matrix = canonical.adjacency.matrix
            touched = set()
            for ref in refs:
                nid = canonical.tuple_node_id(ref)
                touched.add(nid)
                touched.update(
                    int(n)
                    for n in matrix.indices[
                        matrix.indptr[nid]:matrix.indptr[nid + 1]
                    ]
                )
            affected = closeness.affected_sources(sorted(touched))
            recomputed_keys = {_term_key(t) for t in ingested_terms}
            invalidated = sorted(
                {
                    _term_key(canonical.node(nid).payload)
                    for nid in affected
                }
                - recomputed_keys
            )
            stats.n_invalidated = len(invalidated)

            # exact recompute of the ingested terms (direct solver:
            # per-column solves make the bits batch-independent)
            similarity = SimilarityExtractor(canonical)
            delta_store = TermRelationStore(canonical)
            t0 = time.perf_counter()
            for lo in range(0, len(node_ids), self.batch_size):
                similarity.batch_walk(
                    node_ids[lo:lo + self.batch_size],
                    method=self.walk_method,
                )
            stats.walk_seconds = time.perf_counter() - t0
            for term, node_id in zip(ingested_terms, node_ids):
                similar = [
                    (canonical.node(s.node_id).payload, s.score)
                    for s in similarity.similar_nodes(node_id, self.n_similar)
                ]
                t0 = time.perf_counter()
                close_row = {
                    canonical.node(other).payload: score
                    for other, score in closeness.close_terms(
                        node_id, self.closeness_top
                    )
                }
                stats.closeness_seconds += time.perf_counter() - t0
                delta_store.put(term, similar, close_row)
                similarity.evict(node_id)
                closeness.evict(node_id)

            t0 = time.perf_counter()
            epoch = layer_io.latest_epoch(self.store_path) + 1
            layer_io.write_layer(
                self.store_path,
                delta_store,
                epoch=epoch,
                rows=rows,
                invalidated=invalidated,
                params={
                    "n_similar": self.n_similar,
                    "closeness_top": self.closeness_top,
                    "walk_method": self.walk_method,
                },
                build_info={
                    "delta_epoch": epoch,
                    "ingested_rows": len(rows),
                    "recomputed_terms": len(ingested_terms),
                },
            )
            stats.write_seconds = time.perf_counter() - t0
            stats.epoch = epoch
        stats.elapsed_seconds = time.perf_counter() - start

        registry.counter(
            "repro_ingest_total", "Delta ingest runs completed"
        ).inc()
        registry.counter(
            "repro_ingest_rows_total", "Rows folded in by delta ingests"
        ).inc(stats.n_rows)
        registry.counter(
            "repro_ingest_terms_recomputed_total",
            "Terms recomputed exactly by delta ingests",
        ).inc(stats.n_recomputed)
        registry.counter(
            "repro_ingest_invalidated_total",
            "Closeness rows invalidated (lazily recomputed at serve time)",
        ).inc(stats.n_invalidated)
        registry.histogram(
            "repro_ingest_seconds", "Wall-clock seconds per delta ingest"
        ).observe(stats.elapsed_seconds)
        registry.gauge(
            "repro_ingest_layer_epoch", "Newest delta layer epoch"
        ).set(stats.epoch)
        return stats

    def compact(
        self,
        batch_size: Optional[int] = None,
        workers: int = 1,
        progress: Optional[Callable[[int, int], None]] = None,
    ) -> Path:
        """Fold the base and every layer into a fresh base build.

        Rebuilds the whole store over the current database (erasing the
        documented similar-row staleness of stacked layers) and durably
        writes it as a v3 store over the old one, layer chain included
        (:func:`~repro.storage.binary.write_store_v3`).  Returns the
        store path.
        """
        from repro.index.inverted import InvertedIndex
        from repro.storage.binary import FORMAT_VERSION, write_store_v3

        canonical = TATGraph(self.database, InvertedIndex(self.database))
        precomputer = OfflinePrecomputer(
            canonical,
            n_similar=self.n_similar,
            closeness_top=self.closeness_top,
        )
        store = precomputer.build_store(
            batch_size=batch_size or self.batch_size,
            walk_method=self.walk_method,
            progress=progress,
        )
        write_store_v3(
            store,
            self.store_path,
            build_info={
                "compacted": True,
                "n_similar": self.n_similar,
                "closeness_top": self.closeness_top,
                "walk_method": self.walk_method,
                "terms": len(store),
            },
        )
        self._base_version = FORMAT_VERSION
        return self.store_path
