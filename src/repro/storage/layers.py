"""Versioned delta layers stacked over a base term-relation store.

A full offline build is expensive — O(vocabulary) walks and BFS runs —
but the corpus underneath a running service never stops changing.  Delta
layers make small corpus changes cheap: a
:class:`~repro.offline.DeltaIngestor` run recomputes only the terms that
actually occur in the ingested rows and writes them as one **layer**
beside the base store, leaving the base artifact untouched (pre-fork
workers keep sharing one physical memmap/page-cache copy):

.. code-block:: text

    store/
      manifest.json          # the base build (v3 binary)
      ...
      layers/
        layers.json          # the layer chain, newest last
        delta-0001/
          layer.json         # epoch, ingested rows, invalidated keys, params
          store/             # v3 mini-store with the recomputed rows
        delta-0002/
          ...

A layer is appended durably: ``delta-NNNN`` is built and ``fsync``ed in
a staging directory, renamed into place, and only then listed in a new
``layers.json`` (itself written to a temporary file, ``fsync``ed and
``os.replace``d).  A crash at any point leaves the chain at the old
epoch or the new one; a ``delta-NNNN`` the chain does not list is the
garbage of an interrupted append, replaced by the next one.

Reads resolve newest-layer-first: a term key stored in a layer shadows
every older layer and the base.  Closeness rows are *epoch-checked* —
a layer may mark keys it did not recompute as **invalidated** (their
h-hop neighborhood changed structurally), and
:class:`LayeredTermRelationStore` serves those rows by re-running the
exact closeness BFS lazily against the live graph, so layered reads stay
bit-identical to a from-scratch build on the merged corpus.  Compaction
(:meth:`repro.offline.DeltaIngestor.compact`) folds everything back into
a fresh base build and clears the chain.
"""

from __future__ import annotations

import json
import os
import shutil
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import ReproError
from repro.graph.nodes import Node
from repro.offline import (
    PathLike,
    TermRelations,
    TermRelationStore,
    _parse_term_key,
    _term_key,
)
from repro.storage import durable
from repro.storage.binary import (
    BinaryTermRelationStore,
    LegacyStoreError,
    write_blocks,
)

#: Chain format marker written into ``layers.json``.
LAYER_FORMAT = "delta-layers-v1"
LAYERS_DIRNAME = "layers"
CHAIN_NAME = "layers.json"
LAYER_META_NAME = "layer.json"
#: Lazily recomputed closeness rows kept resident per store.
DEFAULT_CLOSENESS_CACHE = 4096


def layers_root(store_root: PathLike) -> Path:
    """The ``layers/`` directory of one store root."""
    return Path(store_root) / LAYERS_DIRNAME


def chain_path(store_root: PathLike) -> Path:
    """Path of the layer-chain manifest."""
    return layers_root(store_root) / CHAIN_NAME


def read_chain(store_root: PathLike) -> Dict[str, object]:
    """Parse the layer chain; an absent chain reads as empty.

    A *corrupt* chain raises :class:`ReproError` naming the path and the
    underlying error — never a silent fallback.
    """
    path = chain_path(store_root)
    if not path.exists():
        return {"format": LAYER_FORMAT, "layers": []}
    try:
        chain = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ReproError(f"cannot read layer chain {path}: {exc}") from exc
    if chain.get("format") != LAYER_FORMAT:
        raise ReproError(
            f"{path}: unsupported layer chain format {chain.get('format')!r}"
        )
    if not isinstance(chain.get("layers"), list):
        raise ReproError(f"{path}: layer chain is missing its layer list")
    return chain


def latest_epoch(store_root: PathLike) -> int:
    """Newest layer epoch of a store (0 when no layers exist).

    Cheap enough to poll: one small JSON file read.
    """
    layers = read_chain(store_root)["layers"]
    return int(layers[-1]["epoch"]) if layers else 0


def _write_chain(store_root: PathLike, chain: Dict[str, object]) -> None:
    path = chain_path(store_root)
    tmp = path.with_suffix(".tmp")
    durable.write_file(tmp, json.dumps(chain, indent=2).encode("utf-8"))
    os.replace(tmp, path)  # readers see the old or the new chain, never half
    durable.fsync_dir(path.parent)


def layer_dirname(epoch: int) -> str:
    """Canonical directory name of one layer."""
    return f"delta-{epoch:04d}"


def write_layer(
    store_root: PathLike,
    delta_store: TermRelationStore,
    epoch: int,
    rows: Sequence[Dict[str, object]],
    invalidated: Sequence[str],
    params: Dict[str, object],
    build_info: Optional[Dict[str, object]] = None,
) -> Path:
    """Append one delta layer to a store's chain; returns the layer dir.

    *rows* are the ingested ``{"table": ..., "row": {...}}`` payloads —
    persisted inside the layer so that pre-fork workers (and workers
    respawned later from the master's pre-ingest image) can replay them
    into their own database copy before rebuilding the serving graph.
    *invalidated* lists the term keys whose stored closeness rows this
    layer makes stale without recomputing them.
    """
    root = Path(store_root)
    chain = read_chain(root)
    layers: List[Dict[str, object]] = chain["layers"]
    if layers and int(layers[-1]["epoch"]) >= epoch:
        raise ReproError(
            f"layer epoch {epoch} is not newer than the chain tip "
            f"{layers[-1]['epoch']}"
        )
    layer_dir = layers_root(root) / layer_dirname(epoch)
    staged = durable.staging_dir(layer_dir)
    write_blocks(delta_store, staged / "store", build_info)
    meta = {
        "epoch": epoch,
        "n_rows": len(rows),
        "rows": list(rows),
        "invalidated": sorted(invalidated),
        "params": dict(params),
    }
    durable.write_file(
        staged / LAYER_META_NAME, json.dumps(meta).encode("utf-8")
    )
    durable.fsync_dir(staged)
    if layer_dir.exists():
        # newer than the chain tip, so unlisted: an interrupted append
        shutil.rmtree(layer_dir)
    durable.publish_dir(staged, layer_dir)
    layers.append({
        "dir": layer_dirname(epoch),
        "epoch": epoch,
        "n_terms": len(delta_store),
        "n_rows": len(rows),
        "n_invalidated": len(meta["invalidated"]),
    })
    _write_chain(root, chain)
    return layer_dir


def read_layer_meta(store_root: PathLike, dirname: str) -> Dict[str, object]:
    """The ``layer.json`` metadata of one layer."""
    path = layers_root(store_root) / dirname / LAYER_META_NAME
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ReproError(f"cannot read layer metadata {path}: {exc}") from exc


def pending_rows(
    store_root: PathLike, after_epoch: int
) -> List[Tuple[int, List[Dict[str, object]]]]:
    """Ingested rows of every layer newer than *after_epoch*, oldest first.

    The replay feed for pre-fork fan-out: a worker whose database copy is
    at ingest epoch ``after_epoch`` applies exactly these rows (in order)
    to catch up with the chain tip.
    """
    out: List[Tuple[int, List[Dict[str, object]]]] = []
    for entry in read_chain(store_root)["layers"]:
        epoch = int(entry["epoch"])
        if epoch <= after_epoch:
            continue
        meta = read_layer_meta(store_root, entry["dir"])
        out.append((epoch, list(meta.get("rows", []))))
    return out


def clear_layers(store_root: PathLike) -> None:
    """Remove the whole layer chain (the compaction end-step)."""
    root = layers_root(store_root)
    if root.exists():
        shutil.rmtree(root)


@dataclass
class _Layer:
    """One loaded layer: its mini-store plus the chain/meta fields."""

    epoch: int
    store: TermRelationStore
    invalidated: Set[str]
    params: Dict[str, object]
    n_rows: int = 0
    dirname: str = ""


class LayeredTermRelationStore(TermRelationStore):
    """A base store with delta layers stacked on top.

    Lookup order is newest-layer-first, then the base.  Closeness rows
    carry an implicit epoch (the layer that stored them; 0 for the base):
    when a newer layer *invalidated* a key without restoring it, the row
    is recomputed lazily with the exact closeness BFS over the live graph
    — truncated to the same ``closeness_top`` the offline stage used — so
    every served row matches a from-scratch build bit for bit.  Similar
    rows always serve the newest stored version: term similarity drifts
    with global idf on every ingest, and refreshing rows outside the
    ingested set is compaction's job (the documented staleness contract —
    see ``docs/store_formats.md``).
    """

    def __init__(
        self,
        graph,
        root: PathLike,
        base: BinaryTermRelationStore,
        layers: Sequence[_Layer],
        closeness_cache: int = DEFAULT_CLOSENESS_CACHE,
    ) -> None:
        # Attributes the graph-setter touches must exist before
        # super().__init__ assigns self.graph.
        self.base = base
        self._layers: List[_Layer] = list(layers)
        self._lock = threading.RLock()
        self._closeness_cache: "OrderedDict[str, Dict[str, float]]" = (
            OrderedDict()
        )
        self._closeness_cache_max = closeness_cache
        self._extractor = None
        self._all_keys: Optional[List[str]] = None
        #: key -> newest epoch that invalidated its closeness row
        self._invalidated_at: Dict[str, int] = {}
        for layer in self._layers:
            for key in layer.invalidated:
                previous = self._invalidated_at.get(key, 0)
                self._invalidated_at[key] = max(previous, layer.epoch)
        super().__init__(graph)
        self.root = Path(root)

    @property
    def graph(self):
        """The TAT graph lazy closeness recomputes run against.

        The live layer rebinds ``store.graph`` after every corpus
        rebuild; a layered store must fan that out to the base and every
        layer, and drop the lazily recomputed closeness rows (they were
        BFS results over the previous graph).
        """
        return self._graph

    @graph.setter
    def graph(self, value) -> None:
        self._graph = value
        base = getattr(self, "base", None)
        if base is not None:
            base.graph = value
        for layer in getattr(self, "_layers", []):
            layer.store.graph = value
        with self._lock:
            self._closeness_cache.clear()
            self._extractor = None

    @classmethod
    def load(
        cls, root: PathLike, base: BinaryTermRelationStore, graph
    ) -> "LayeredTermRelationStore":
        """Open the chain beside an already-opened base store.

        A chain holding a layer in a legacy JSON format raises
        :class:`ReproError` naming ``repro store compact``, which
        rebuilds the store from the database.
        """
        root = Path(root)
        layers: List[_Layer] = []
        for entry in read_chain(root)["layers"]:
            dirname = str(entry["dir"])
            meta = read_layer_meta(root, dirname)
            try:
                store = BinaryTermRelationStore.load(
                    layers_root(root) / dirname / "store", graph
                )
            except LegacyStoreError as exc:
                raise ReproError(
                    f"{root}: delta layer {dirname} is in a legacy format; "
                    "fold the chain into a fresh v3 base with "
                    "`repro store compact`"
                ) from exc
            layers.append(_Layer(
                epoch=int(entry["epoch"]),
                store=store,
                invalidated=set(meta.get("invalidated", [])),
                params=dict(meta.get("params", {})),
                n_rows=int(entry.get("n_rows", 0)),
                dirname=dirname,
            ))
        return cls(graph, root, base, layers)

    # ------------------------------------------------------------------ #
    # chain introspection
    # ------------------------------------------------------------------ #

    @property
    def epoch(self) -> int:
        """Newest layer epoch (0 when serving the bare base)."""
        return self._layers[-1].epoch if self._layers else 0

    @property
    def n_layers(self) -> int:
        """Number of stacked delta layers."""
        return len(self._layers)

    def layers_info(self) -> List[Dict[str, object]]:
        """Per-layer summary, oldest first (the ``store info`` readout)."""
        return [
            {
                "epoch": layer.epoch,
                "dir": layer.dirname,
                "n_terms": len(layer.store),
                "n_rows": layer.n_rows,
                "n_invalidated": len(layer.invalidated),
            }
            for layer in self._layers
        ]

    def build_info(self) -> Dict[str, object]:
        """Base build metadata plus the chain summary."""
        info = self.base.build_info()
        info["layers"] = self.n_layers
        info["layer_epoch"] = self.epoch
        return info

    # ------------------------------------------------------------------ #
    # layered reads
    # ------------------------------------------------------------------ #

    def _lookup(self, key: str) -> Tuple[Optional[TermRelations], int]:
        """(relations, storing epoch) with newest-first resolution."""
        for layer in reversed(self._layers):
            relations = layer.store._get(key)
            if relations is not None:
                return relations, layer.epoch
        relations = self.base._get(key)
        return (relations, 0) if relations is not None else (None, -1)

    def _get(self, key: str) -> Optional[TermRelations]:
        relations, stored_epoch = self._lookup(key)
        if relations is None:
            return None
        if self._invalidated_at.get(key, -1) > stored_epoch:
            # the stored closeness row predates a structural change in the
            # term's h-hop neighborhood — recompute it exactly, keep the
            # stored similar list (see class docstring)
            relations = TermRelations(
                similar=relations.similar,
                closeness=self._fresh_closeness(key),
            )
        return relations

    def _closeness_top(self) -> int:
        for layer in reversed(self._layers):
            top = layer.params.get("closeness_top")
            if top is not None:
                return int(top)
        return 200

    def _fresh_closeness(self, key: str) -> Dict[str, float]:
        """Exact lazy re-BFS of one invalidated closeness row (cached)."""
        with self._lock:
            cached = self._closeness_cache.get(key)
            if cached is not None:
                self._closeness_cache.move_to_end(key)
                return cached
            node_id = self._graph.registry.get_id(
                Node.for_term(_parse_term_key(key))
            )
            if node_id is None:
                return {}
            if self._extractor is None:
                from repro.graph.closeness import ClosenessExtractor

                # default parameters == OfflinePrecomputer's extractor,
                # so the lazy rows match offline-built ones bit for bit
                self._extractor = ClosenessExtractor(self._graph)
            row = {
                _term_key(self._graph.node(other).payload): score
                for other, score in self._extractor.close_terms(
                    node_id, self._closeness_top()
                )
            }
            self._extractor.evict(node_id)
            self._closeness_cache[key] = row
            if len(self._closeness_cache) > self._closeness_cache_max:
                self._closeness_cache.popitem(last=False)
            return row

    def _keys(self) -> List[str]:
        if self._all_keys is None:
            seen: Set[str] = set()
            keys: List[str] = []
            for layer in reversed(self._layers):
                for key in layer.store._keys():
                    if key not in seen:
                        seen.add(key)
                        keys.append(key)
            for key in self.base._keys():
                if key not in seen:
                    seen.add(key)
                    keys.append(key)
            self._all_keys = keys
        return list(self._all_keys)

    def _items(self) -> Iterator[Tuple[str, TermRelations]]:
        for key in self._keys():
            relations = self._get(key)
            if relations is not None:
                yield key, relations

    def __len__(self) -> int:
        return len(self._keys())

    def put(self, term, similar, closeness) -> None:
        """Layered stores are read-only; new data arrives as layers."""
        raise ReproError(
            "layered term-relation stores are read-only; ingest new rows "
            "with DeltaIngestor.ingest() or rebuild with compact()"
        )
