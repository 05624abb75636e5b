"""Binary memmap-able term-relation store — format version 3.

Version 3 is the only format the program writes (precompute, migrate,
compact and every delta layer).  It stores the relations as numpy
``.npy`` blocks opened with ``np.load(..., mmap_mode="r")`` plus an
offset-indexed string table:

.. code-block:: text

    store-v3/
      manifest.json          # format_version 3, block table + SHA-256s, build info
      keys.bin               # UTF-8 term keys, concatenated, byte-sorted
      key_offsets.npy        # int64 (n_keys+1,) offsets into keys.bin
      stored.npy             # uint8 (n_keys,) — 1 where the key has a stored row
      similar_indptr.npy     # int64 (n_keys+1,) CSR row pointers (rank order kept)
      similar_cols.npy       # int64 — key-table index of each similar entry
      similar_scores.npy     # float64 — Eq 2 similarity scores
      close_indptr.npy       # int64 (n_keys+1,) CSR row pointers
      close_cols.npy         # int64 — sorted ascending within each row
      close_scores.npy       # float64 — Eq 3 closeness scores

Design points:

* **Cold start is an mmap + index read, not a parse.**  Opening the
  store reads the manifest, maps the blocks, and checks a few boundary
  values; no term is decoded until it is looked up.
* **N processes share one physical copy.**  The blocks are mapped
  read-only, so every worker of a pre-fork pool
  (:mod:`repro.server.prefork`) faults the same page cache pages;
  per-process heap grows only with the tiny lookup caches.
* **Lookups are zero-copy block reads.**  ``closeness_block(rows,
  cols)`` — the Eq 8 sub-matrix between two candidate lists — resolves
  each node to its key-table index once, then runs one
  ``searchsorted`` of all the column indices per memmapped
  ``close_cols`` row (the rows are written sorted) and gathers the
  scores with one fancy index; ``closeness(a, b)`` is its 1×1 case.
  ``similar_nodes`` slices the rank-ordered ``similar_*`` rows and
  decodes only the keys it returns.  No JSON, no dict materialization
  on the online path.
* **Crash-safe writes.**  :func:`write_store_v3` builds the blocks in a
  staging directory, ``fsync``s each one, writes the manifest last and
  renames the directory into place (:mod:`repro.storage.durable`);
  :func:`roll_forward` finishes a swap a crash interrupted.

The manifest carries a SHA-256 per block.  ``load(..., verify=True)``
(the default) checks them before serving; pass ``verify=False`` to skip
the hash pass when the store is trusted (e.g. freshly migrated in the
same job).  The legacy JSON formats (v1, v2) are migration input only
(:mod:`repro.storage.legacy`).  See ``docs/store_formats.md`` for the
full layout and the durability rules.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import OrderedDict
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.errors import ReproError
from repro.graph.nodes import Node
from repro.graph.similarity import SimilarNode
from repro.graph.tat import TATGraph
from repro.offline import (
    PathLike,
    TermRelations,
    TermRelationStore,
    _parse_term_key,
    _term_key,
)
from repro.storage import durable

FORMAT_VERSION = 3
MANIFEST_NAME = "manifest.json"

#: Block roles every v3 store must carry, in manifest order.
BLOCK_ROLES = (
    "keys",
    "key_offsets",
    "stored",
    "similar_indptr",
    "similar_cols",
    "similar_scores",
    "close_indptr",
    "close_cols",
    "close_scores",
)

#: Canonical file name per block role.
BLOCK_FILES = {
    "keys": "keys.bin",
    "key_offsets": "key_offsets.npy",
    "stored": "stored.npy",
    "similar_indptr": "similar_indptr.npy",
    "similar_cols": "similar_cols.npy",
    "similar_scores": "similar_scores.npy",
    "close_indptr": "close_indptr.npy",
    "close_cols": "close_cols.npy",
    "close_scores": "close_scores.npy",
}

#: Key-index and materialized-row LRU capacities (per-process caches;
#: the mapped blocks themselves are shared through the page cache).
DEFAULT_KEY_CACHE = 4096
DEFAULT_ROW_CACHE = 1024


def _sha256_file(path: Path, chunk: int = 1 << 20) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while True:
            block = handle.read(chunk)
            if not block:
                break
            digest.update(block)
    return digest.hexdigest()


def write_store_v3(
    store: TermRelationStore,
    path: PathLike,
    build_info: Optional[Dict[str, object]] = None,
) -> Path:
    """Durably write *store* as a v3 block directory; returns its path.

    The blocks are built in a sibling staging directory and renamed over
    *path* only once complete (see :mod:`repro.storage.durable`), so a
    crash leaves the previous store at *path* or the new one.
    """
    root = Path(path)
    staged = durable.staging_dir(root)
    write_blocks(store, staged, build_info)
    durable.publish_dir(staged, root)
    return root


def write_blocks(
    store: TermRelationStore,
    root: Path,
    build_info: Optional[Dict[str, object]] = None,
) -> None:
    """Write the v3 blocks of *store* into the existing directory *root*.

    The key table holds every key the store mentions — stored terms plus
    keys referenced only from similar lists or closeness rows — sorted
    by UTF-8 bytes so the reader can binary-search without an index
    structure.  Closeness rows are re-sorted by column index (dict order
    is not semantic); similar rows keep their rank order.  Each file is
    ``fsync``ed; the manifest is written last, so a directory holding a
    manifest holds every block it names.
    """
    root.mkdir(parents=True, exist_ok=True)
    relations: Dict[str, TermRelations] = dict(store._items())
    all_keys = set(relations)
    for rel in relations.values():
        all_keys.update(key for key, _score in rel.similar)
        all_keys.update(rel.closeness)
    key_list = sorted(all_keys, key=lambda key: key.encode("utf-8"))
    index = {key: i for i, key in enumerate(key_list)}
    n_keys = len(key_list)

    encoded = [key.encode("utf-8") for key in key_list]
    key_offsets = np.zeros(n_keys + 1, dtype=np.int64)
    np.cumsum([len(blob) for blob in encoded], out=key_offsets[1:])
    stored = np.zeros(n_keys, dtype=np.uint8)

    sim_indptr = np.zeros(n_keys + 1, dtype=np.int64)
    close_indptr = np.zeros(n_keys + 1, dtype=np.int64)
    sim_cols: List[int] = []
    sim_scores: List[float] = []
    close_cols: List[int] = []
    close_scores: List[float] = []
    for i, key in enumerate(key_list):
        rel = relations.get(key)
        if rel is not None:
            stored[i] = 1
            for other, score in rel.similar:
                sim_cols.append(index[other])
                sim_scores.append(float(score))
            for col, score in sorted(
                (index[other], float(score))
                for other, score in rel.closeness.items()
            ):
                close_cols.append(col)
                close_scores.append(score)
        sim_indptr[i + 1] = len(sim_cols)
        close_indptr[i + 1] = len(close_cols)

    blocks_data = {
        "key_offsets": key_offsets,
        "stored": stored,
        "similar_indptr": sim_indptr,
        "similar_cols": np.asarray(sim_cols, dtype=np.int64),
        "similar_scores": np.asarray(sim_scores, dtype=np.float64),
        "close_indptr": close_indptr,
        "close_cols": np.asarray(close_cols, dtype=np.int64),
        "close_scores": np.asarray(close_scores, dtype=np.float64),
    }

    durable.write_file(root / BLOCK_FILES["keys"], b"".join(encoded))
    for role, array in blocks_data.items():
        with open(root / BLOCK_FILES[role], "wb") as handle:
            np.save(handle, array)
            handle.flush()
            os.fsync(handle.fileno())

    bytes_written = obs.registry().counter(
        "repro_offline_store_bytes_written_total",
        "Bytes of v3 block data written by write_store_v3",
    )
    blocks = []
    for role in BLOCK_ROLES:
        file_path = root / BLOCK_FILES[role]
        size = file_path.stat().st_size
        bytes_written.inc(size)
        blocks.append({
            "role": role,
            "file": BLOCK_FILES[role],
            "bytes": size,
            "sha256": _sha256_file(file_path),
        })
    manifest = {
        "format_version": FORMAT_VERSION,
        "n_keys": n_keys,
        "n_terms": int(stored.sum()),
        "blocks": blocks,
        "build": dict(build_info or {}),
    }
    durable.write_file(
        root / MANIFEST_NAME, json.dumps(manifest, indent=2).encode("utf-8")
    )
    durable.fsync_dir(root)


def roll_forward(root: PathLike) -> None:
    """Finish a publish that a crash interrupted between its renames.

    When *root* is missing but its staging directory holds a manifest
    whose blocks verify, the staging directory is renamed into place.
    Otherwise nothing changes.
    """
    root = Path(root)
    staged = durable.sibling(root, durable.STAGING_SUFFIX)
    if root.exists() or not (staged / MANIFEST_NAME).exists():
        return
    try:
        verify_blocks(staged, load_manifest_v3(staged))
    except ReproError:
        return
    durable.swap_in(staged, root)


class LegacyStoreError(ReproError):
    """A v1 file or v2 directory was opened where v3 is required."""


def load_manifest_v3(root: PathLike) -> Dict[str, object]:
    """Parse and validate a v3 manifest (blocks are *not* read)."""
    root = Path(root)
    path = root / MANIFEST_NAME
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ReproError(f"cannot load term relations from {path}: {exc}")
    version = manifest.get("format_version")
    if version in (1, 2):
        raise LegacyStoreError(
            f"{root}: format v{version} stores are migration input only; "
            f"convert it with `repro store migrate --src {root} --dest DIR`"
        )
    if version != FORMAT_VERSION:
        raise ReproError(f"{root}: unsupported format version {version!r}")
    blocks = manifest.get("blocks")
    if not isinstance(blocks, list):
        raise ReproError(f"{path}: manifest is missing its block table")
    roles = {
        block.get("role") for block in blocks if isinstance(block, dict)
    }
    missing = [role for role in BLOCK_ROLES if role not in roles]
    if missing:
        raise ReproError(
            f"{path}: manifest is missing blocks {missing}"
        )
    if not isinstance(manifest.get("n_keys"), int) or not isinstance(
        manifest.get("n_terms"), int
    ):
        raise ReproError(f"{path}: manifest is missing n_keys/n_terms")
    return manifest


def verify_blocks(root: Path, manifest: Dict[str, object]) -> None:
    """Hash every block under *root* against *manifest*; raise on mismatch."""
    blocks = {block["role"]: block for block in manifest["blocks"]}
    for role in BLOCK_ROLES:
        block = blocks[role]
        path = root / block["file"]
        try:
            actual = _sha256_file(path)
        except OSError as exc:
            raise ReproError(
                f"cannot load term relations from {path}: {exc}"
            )
        if actual != block.get("sha256"):
            raise ReproError(
                f"{path}: block checksum mismatch "
                f"(manifest {block.get('sha256')}, file {actual})"
            )


class BinaryTermRelationStore(TermRelationStore):
    """Read-only v3 store serving straight from memmapped blocks.

    The full :class:`~repro.offline.TermRelationStore` online surface is
    overridden to read the arrays directly — no JSON decode and no dict
    materialization on the query path:

    * ``closeness_block(rows, cols)`` searches each sorted ``close_cols``
      row once for all the columns (``closeness(a, b)`` is its 1×1 case);
    * ``similar_nodes`` slices the rank-ordered similar row and decodes
      only the returned keys;
    * ``_get`` (the cold accessor behind ``__contains__`` / migration)
      materializes full rows through a bounded LRU.

    Parameters
    ----------
    graph:
        The TAT graph used to resolve node ids back to terms.
    root:
        The block directory.
    manifest:
        A parsed, validated manifest (see :func:`load_manifest_v3`).
    verify:
        When true (the default through :meth:`load`), every block's
        SHA-256 is checked against the manifest before serving.
    """

    FORMAT_VERSION = FORMAT_VERSION

    def __init__(
        self,
        graph: TATGraph,
        root: PathLike,
        manifest: Dict[str, object],
        verify: bool = True,
    ) -> None:
        super().__init__(graph)
        self.root = Path(root)
        self.manifest = manifest
        self.n_keys: int = manifest["n_keys"]
        self._blocks = {
            block["role"]: block for block in manifest["blocks"]
        }
        if verify:
            self.verify_checksums()
        self._keys_blob = self._map_keys_blob()
        self._key_offsets = self._load_block("key_offsets", np.int64)
        self._stored = self._load_block("stored", np.uint8)
        self._sim_indptr = self._load_block("similar_indptr", np.int64)
        self._sim_cols = self._load_block("similar_cols", np.int64)
        self._sim_scores = self._load_block("similar_scores", np.float64)
        self._close_indptr = self._load_block("close_indptr", np.int64)
        self._close_cols = self._load_block("close_cols", np.int64)
        self._close_scores = self._load_block("close_scores", np.float64)
        self._check_structure()
        self._key_index_cache: "OrderedDict[str, Optional[int]]" = OrderedDict()
        self._row_cache: "OrderedDict[int, TermRelations]" = OrderedDict()
        registry = obs.registry()
        registry.counter(
            "repro_store_v3_opens_total", "v3 binary stores opened"
        ).inc()
        registry.gauge(
            "repro_store_v3_mapped_bytes",
            "Bytes of v3 blocks mapped by the last open",
        ).set(sum(block["bytes"] for block in self._blocks.values()))

    # ------------------------------------------------------------------ #
    # open / verify
    # ------------------------------------------------------------------ #

    @classmethod
    def load(
        cls,
        path: PathLike,
        graph: TATGraph,
        verify: bool = True,
    ) -> "BinaryTermRelationStore":
        """Open a v3 store: manifest parse + mmap, no term decoded."""
        root = Path(path)
        if root.name == MANIFEST_NAME and not root.is_dir():
            root = root.parent
        manifest = load_manifest_v3(root)
        return cls(graph, root, manifest, verify=verify)

    def verify_checksums(self) -> None:
        """Hash every block against the manifest; raise on any mismatch."""
        verify_blocks(self.root, self.manifest)

    def _map_keys_blob(self) -> np.ndarray:
        path = self.root / self._blocks["keys"]["file"]
        try:
            if path.stat().st_size == 0:
                return np.empty(0, dtype=np.uint8)
            return np.memmap(path, dtype=np.uint8, mode="r").view(np.ndarray)
        except (OSError, ValueError) as exc:
            raise ReproError(f"cannot load term relations from {path}: {exc}")

    def _load_block(self, role: str, dtype) -> np.ndarray:
        path = self.root / self._blocks[role]["file"]
        try:
            array = np.load(path, mmap_mode="r", allow_pickle=False)
        except (OSError, ValueError) as exc:
            raise ReproError(f"cannot load term relations from {path}: {exc}")
        if array.dtype != dtype or array.ndim != 1:
            raise ReproError(
                f"{path}: expected 1-d {np.dtype(dtype).name} block, "
                f"got {array.ndim}-d {array.dtype.name}"
            )
        # A plain ndarray view of the same mapping: every slice of an
        # np.memmap runs the subclass's __array_finalize__, which costs
        # more than the read itself on the per-row lookup paths.
        return array.view(np.ndarray)

    def _check_structure(self) -> None:
        """Boundary consistency checks — touch O(1) values, not blocks."""
        n = self.n_keys
        ok = (
            len(self._key_offsets) == n + 1
            and len(self._stored) == n
            and len(self._sim_indptr) == n + 1
            and len(self._close_indptr) == n + 1
            and (n == 0 or int(self._key_offsets[0]) == 0)
            and int(self._key_offsets[-1]) == len(self._keys_blob)
            and int(self._sim_indptr[-1])
            == len(self._sim_cols)
            == len(self._sim_scores)
            and int(self._close_indptr[-1])
            == len(self._close_cols)
            == len(self._close_scores)
        )
        if not ok:
            raise ReproError(
                f"{self.root}: v3 block shapes disagree with the manifest"
            )

    # ------------------------------------------------------------------ #
    # string table
    # ------------------------------------------------------------------ #

    def _key_bytes_at(self, row: int) -> bytes:
        lo = int(self._key_offsets[row])
        hi = int(self._key_offsets[row + 1])
        return self._keys_blob[lo:hi].tobytes()

    def _key_at(self, row: int) -> str:
        return self._key_bytes_at(row).decode("utf-8")

    def _key_index(self, key: str) -> Optional[int]:
        """Row of *key* in the byte-sorted table, or None (LRU-cached)."""
        cached = self._key_index_cache.get(key, _MISS)
        if cached is not _MISS:
            self._key_index_cache.move_to_end(key)
            return cached
        target = key.encode("utf-8")
        lo, hi = 0, self.n_keys
        while lo < hi:
            mid = (lo + hi) // 2
            if self._key_bytes_at(mid) < target:
                lo = mid + 1
            else:
                hi = mid
        row: Optional[int] = (
            lo
            if lo < self.n_keys and self._key_bytes_at(lo) == target
            else None
        )
        self._key_index_cache[key] = row
        if len(self._key_index_cache) > DEFAULT_KEY_CACHE:
            self._key_index_cache.popitem(last=False)
        return row

    # ------------------------------------------------------------------ #
    # zero-copy online interfaces
    # ------------------------------------------------------------------ #

    def similar_nodes(self, node_id: int, top_n: int) -> List[SimilarNode]:
        """Top-*top_n* similar nodes, sliced from the rank-ordered
        ``similar_*`` CSR row; only the returned keys are decoded."""
        row = self._node_row(node_id)
        if row is None or not self._stored[row]:
            return []
        lo = int(self._sim_indptr[row])
        hi = min(int(self._sim_indptr[row + 1]), lo + top_n)
        out: List[SimilarNode] = []
        for col, score in zip(
            self._sim_cols[lo:hi], self._sim_scores[lo:hi]
        ):
            other_id = self.graph.registry.get_id(
                Node.for_term(_parse_term_key(self._key_at(int(col))))
            )
            if other_id is not None:
                out.append(SimilarNode(other_id, float(score)))
        return out

    def similarity(self, node_a: int, node_b: int) -> float:
        """Stored Eq 2 similarity of ``node_b`` in ``node_a``'s list
        (0.0 outside the stored top list), read off the mapped row."""
        row = self._node_row(node_a)
        if row is None or not self._stored[row]:
            return 0.0
        col = self._node_row(node_b)
        if col is None:
            return 0.0
        lo = int(self._sim_indptr[row])
        hi = int(self._sim_indptr[row + 1])
        hits = np.nonzero(self._sim_cols[lo:hi] == col)[0]
        if len(hits):
            return float(self._sim_scores[lo + int(hits[0])])
        return 0.0

    def closeness(self, node_a: int, node_b: int) -> float:
        """Stored Eq 3 closeness — a 1×1 :meth:`closeness_block`."""
        return float(self.closeness_block([node_a], [node_b])[0, 0])

    def closeness_block(
        self, rows: Sequence[int], cols: Sequence[int]
    ) -> np.ndarray:
        """Stored Eq 3 closeness of every (row, col) node pair.

        Each node resolves to its key-table index once; then each stored
        row is read with one ``searchsorted`` of all the column indices
        over its column-sorted memmapped ``close_cols`` slice, and the
        hits are gathered with one fancy index — no row
        materialization, no per-cell lookup.  Pairs outside the stored
        row read 0.
        """
        out = np.zeros((len(rows), len(cols)), dtype=np.float64)
        if not out.size:
            return out
        col_rows = np.array(
            [-1 if col is None else col for col in map(self._node_row, cols)],
            dtype=np.int64,
        )
        where = np.flatnonzero(col_rows >= 0)
        targets = col_rows[where]
        if not targets.size:
            return out
        for i, node in enumerate(rows):
            row = self._node_row(node)
            if row is None or not self._stored[row]:
                continue
            lo = int(self._close_indptr[row])
            hi = int(self._close_indptr[row + 1])
            if lo == hi:
                continue
            # rows are written sorted by column index
            stored_cols = self._close_cols[lo:hi]
            pos = np.minimum(
                np.searchsorted(stored_cols, targets), hi - lo - 1
            )
            hit = stored_cols[pos] == targets
            out[i, where[hit]] = self._close_scores[lo:hi][pos[hit]]
        return out

    def _node_row(self, node_id: int) -> Optional[int]:
        """Key-table index of a term node, or None (non-term/unknown)."""
        term = self._term_of_node(node_id)
        if term is None:
            return None
        return self._key_index(_term_key(term))

    # ------------------------------------------------------------------ #
    # storage accessor overrides (cold paths: contains/terms/migration)
    # ------------------------------------------------------------------ #

    def _materialize(self, row: int) -> TermRelations:
        cached = self._row_cache.get(row)
        if cached is not None:
            self._row_cache.move_to_end(row)
            return cached
        slo = int(self._sim_indptr[row])
        shi = int(self._sim_indptr[row + 1])
        clo = int(self._close_indptr[row])
        chi = int(self._close_indptr[row + 1])
        relations = TermRelations(
            similar=[
                (self._key_at(int(col)), float(score))
                for col, score in zip(
                    self._sim_cols[slo:shi], self._sim_scores[slo:shi]
                )
            ],
            closeness={
                self._key_at(int(col)): float(score)
                for col, score in zip(
                    self._close_cols[clo:chi], self._close_scores[clo:chi]
                )
            },
        )
        self._row_cache[row] = relations
        if len(self._row_cache) > DEFAULT_ROW_CACHE:
            self._row_cache.popitem(last=False)
        return relations

    def _get(self, key: str) -> Optional[TermRelations]:
        row = self._key_index(key)
        if row is None or not self._stored[row]:
            return None
        return self._materialize(row)

    def _keys(self) -> List[str]:
        return [
            self._key_at(row)
            for row in range(self.n_keys)
            if self._stored[row]
        ]

    def _items(self) -> Iterator[Tuple[str, TermRelations]]:
        for row in range(self.n_keys):
            if self._stored[row]:
                yield self._key_at(row), self._materialize(row)

    def __len__(self) -> int:
        return self.manifest["n_terms"]

    def put(self, *_args) -> None:
        """Binary stores are read-only serving artifacts."""
        raise ReproError(
            "binary (v3) term-relation stores are read-only; rebuild with "
            "OfflinePrecomputer.build_store() and write_store_v3()"
        )

    put_rows = put

    def build_info(self) -> Dict[str, object]:
        """The manifest's free-form build metadata."""
        return dict(self.manifest.get("build", {}))

    def blocks_info(self) -> List[Dict[str, object]]:
        """The manifest's block table (role, file, bytes, sha256)."""
        return [dict(block) for block in self.manifest["blocks"]]


#: Sentinel distinguishing "cached None" from "not cached".
_MISS = object()
