"""Legacy store formats (v1, v2) as one-shot migration input.

The program writes only the v3 binary format
(:mod:`repro.storage.binary`).  Stores written by older releases come in
two JSON shapes:

* **v1** — one JSON document, ``{"format_version": 1, "terms": {...}}``;
* **v2** — a directory holding ``manifest.json`` (``format_version`` 2,
  a ``shards`` table with a SHA-256 per shard, build info) and
  ``shard-NNNN.json`` files, each ``{"terms": {...}}``.

Each term entry is ``{"similar": [[key, score], ...], "closeness": {key:
score}}``.  :func:`read_legacy_store` reads either shape eagerly into an
in-memory :class:`~repro.offline.TermRelationStore`;
:func:`migrate_to_v3` (``repro store migrate``) is its only caller.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Optional

from repro.errors import ReproError
from repro.graph.tat import TATGraph
from repro.offline import (
    PathLike,
    TermRelations,
    TermRelationStore,
    _parse_term_key,
    _term_key,
)


def _read_json(path: Path) -> Dict[str, object]:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ReproError(f"cannot load term relations from {path}: {exc}")


def _check_version(path: Path, payload: Dict[str, object], want: int) -> None:
    version = payload.get("format_version")
    if version == 3:
        raise ReproError(f"{path}: already a binary (v3) store directory")
    if version != want:
        raise ReproError(f"{path}: unsupported format version {version!r}")


def _read_v2_terms(root: Path) -> Dict[str, Dict[str, object]]:
    """Every shard's terms, each shard checked against its SHA-256."""
    manifest_path = root / "manifest.json"
    manifest = _read_json(manifest_path)
    _check_version(root, manifest, 2)
    shards = manifest.get("shards")
    if not isinstance(shards, list) or not shards or not all(
        isinstance(meta, dict) and "file" in meta for meta in shards
    ):
        raise ReproError(
            f"{manifest_path}: manifest is missing its shard table"
        )
    terms: Dict[str, Dict[str, object]] = {}
    for meta in shards:
        path = root / meta["file"]
        try:
            blob = path.read_bytes()
        except OSError as exc:
            raise ReproError(f"cannot load term relations from {path}: {exc}")
        actual = hashlib.sha256(blob).hexdigest()
        if actual != meta.get("sha256"):
            raise ReproError(
                f"{path}: shard checksum mismatch "
                f"(manifest {meta.get('sha256')}, file {actual})"
            )
        try:
            terms.update(json.loads(blob.decode("utf-8")).get("terms", {}))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ReproError(f"cannot load term relations from {path}: {exc}")
    return terms


def read_legacy_store(
    path: PathLike, graph: Optional[TATGraph] = None
) -> TermRelationStore:
    """Read a v1 file or a v2 directory into an in-memory store.

    Legacy raw (unescaped) v1 keys are canonicalized to the escaped key
    form, so term lookups find them.  The relations are keyed by term,
    so no graph is needed to read them; *graph*, when given, is bound to
    the returned store for node-id lookups.
    """
    p = Path(path)
    if p.is_dir() or p.name == "manifest.json":
        terms = _read_v2_terms(p if p.is_dir() else p.parent)
    else:
        payload = _read_json(p)
        _check_version(p, payload, 1)
        terms = payload.get("terms", {})

    def canon(key: str) -> str:
        return _term_key(_parse_term_key(key))

    store = TermRelationStore(graph)
    for key, data in terms.items():
        store._relations[canon(key)] = TermRelations(
            similar=[(canon(k), float(s)) for k, s in data.get("similar", [])],
            closeness={
                canon(k): float(c)
                for k, c in data.get("closeness", {}).items()
            },
        )
    return store


def migrate_to_v3(
    src: PathLike,
    dest: PathLike,
    graph: Optional[TATGraph] = None,
    build_info: Optional[Dict[str, object]] = None,
):
    """Convert a v1 file or v2 shard directory into a v3 binary store.

    Returns the opened :class:`repro.storage.binary.BinaryTermRelationStore`
    (checksums verified, since the artifact was just written).  The
    conversion reads no corpus; *graph*, when given, is only bound to the
    returned store for node-id lookups.
    """
    from repro.storage.binary import BinaryTermRelationStore, write_store_v3

    src = Path(src)
    store = read_legacy_store(src, graph)
    info = {
        "migrated_from": str(src),
        "migrated_from_version": (
            2 if src.is_dir() or src.name == "manifest.json" else 1
        ),
    }
    info.update(build_info or {})
    root = write_store_v3(store, dest, build_info=info)
    return BinaryTermRelationStore.load(root, graph)
