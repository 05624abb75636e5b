"""Per-node oracle for the offline vocabulary pass.

:meth:`SimilarityExtractor.similar_nodes` reads Algorithm 1's same-class
scores as one array gather times a per-node readout-weight table, and
:meth:`ContextualPreference.preference_matrix` writes each column from
the kept context arrays.  This module keeps the scalar forms they
replaced — one readout call per class member, one ``ContextEntry`` per
kept context node, the preference vector assembled as a dict, and the
diffusion deduplicating each hop with ``np.unique`` — as the executable
contract those array paths are checked against, bit for bit
(``tests/test_offline_oracle.py``).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.graph.context import ContextEntry, ContextualPreference
from repro.graph.similarity import SimilarityExtractor, SimilarNode


# ---------------------------------------------------------------------- #
# Algorithm 1 readout (Eq 2 with the idf weight)
# ---------------------------------------------------------------------- #


def reference_readout(
    extractor: SimilarityExtractor, node_id: int, score: float
) -> float:
    """Apply the idf readout weight to one walk score."""
    if not extractor.idf_readout or score <= 0.0:
        return score
    node = extractor.graph.node(node_id)
    if node.text is None:
        return score
    return score * extractor.graph.index.idf(node.payload)


def reference_similar_nodes(
    extractor: SimilarityExtractor, node_id: int, top_n: int
) -> List[SimilarNode]:
    """Top same-class nodes, one readout call per class member."""
    scores = extractor.walk_scores(node_id)
    candidates = [
        SimilarNode(
            other, reference_readout(extractor, other, float(scores[other]))
        )
        for other in extractor.graph.same_class_ids(node_id)
        if other != node_id and scores[other] > 0.0
    ]
    candidates.sort(key=lambda s: (-s.score, s.node_id))
    return candidates[:top_n]


def reference_similarity(
    extractor: SimilarityExtractor, node_a: int, node_b: int
) -> float:
    """sim(a, b): b's score in a's walk through the scalar readout."""
    scores = extractor.walk_scores(node_a)
    return reference_readout(extractor, node_b, float(scores[node_b]))


# ---------------------------------------------------------------------- #
# contextual preference (Definition 6)
# ---------------------------------------------------------------------- #


def reference_diffuse(
    pref: ContextualPreference, node_id: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The hop-limited diffusion, deduplicating each hop with a sort."""
    matrix = pref.graph.adjacency.matrix
    n = matrix.shape[0]
    indptr, indices, data = matrix.indptr, matrix.indices, matrix.data
    totals = np.asarray(matrix.sum(axis=1)).ravel()
    visited = np.zeros(n, dtype=bool)
    visited[node_id] = True
    mass = np.zeros(n)
    reached: List[np.ndarray] = []
    frontier_ids = np.array([node_id], dtype=np.int64)
    frontier_mass = np.array([1.0])
    for _hop in range(pref.hops):
        if pref.frontier_cap is not None and frontier_ids.size > pref.frontier_cap:
            keep = np.lexsort((frontier_ids, -frontier_mass))[: pref.frontier_cap]
            frontier_ids = frontier_ids[keep]
            frontier_mass = frontier_mass[keep]
        expandable = totals[frontier_ids] > 0
        src_ids = frontier_ids[expandable]
        src_mass = frontier_mass[expandable]
        if not src_ids.size:
            break
        starts = indptr[src_ids]
        counts = indptr[src_ids + 1] - starts
        nnz = int(counts.sum())
        if not nnz:
            break
        slot = np.repeat(
            starts - np.concatenate(([0], np.cumsum(counts)[:-1])), counts
        ) + np.arange(nnz)
        neighbors = indices[slot]
        contrib = np.repeat(src_mass / totals[src_ids], counts) * data[slot]
        fresh = ~visited[neighbors]
        neighbors = neighbors[fresh]
        contrib = contrib[fresh]
        if not neighbors.size:
            break
        hop_mass = np.bincount(neighbors, weights=contrib, minlength=n)
        new_ids = np.unique(neighbors)
        mass[new_ids] += hop_mass[new_ids]
        visited[new_ids] = True
        reached.append(new_ids)
        frontier_ids = new_ids
        frontier_mass = hop_mass[new_ids] * pref.hop_decay
    if not reached:
        return np.empty(0, dtype=np.int64), np.empty(0)
    all_ids = np.concatenate(reached)
    return all_ids, mass[all_ids]


def reference_context_entries(
    pref: ContextualPreference, node_id: int
) -> List[ContextEntry]:
    """Kept context nodes as entries, top ``top_per_field`` per field."""
    ids, mass = reference_diffuse(pref, node_id)
    if not ids.size:
        return []
    classes, class_index, class_weight, idf = pref._node_tables()
    fields = class_index[ids]
    node_weight = mass * idf[ids]
    weight = class_weight[fields] * node_weight
    order = np.lexsort((ids, -weight, fields))
    kept: List[ContextEntry] = []
    per_field: Dict[int, int] = {}
    for i in order:
        field = int(fields[i])
        if per_field.get(field, 0) >= pref.top_per_field:
            continue
        per_field[field] = per_field.get(field, 0) + 1
        kept.append(ContextEntry(
            node_id=int(ids[i]),
            field=classes[field],
            field_weight=float(class_weight[field]),
            node_weight=float(node_weight[i]),
        ))
    return kept


def reference_preference_weights(
    pref: ContextualPreference, node_id: int
) -> Dict[int, float]:
    """Sparse restart vector assembled entry by entry as a dict."""
    entries = reference_context_entries(pref, node_id)
    if not entries:
        return {node_id: 1.0}
    weights: Dict[int, float] = {}
    for entry in entries:
        weights[entry.node_id] = weights.get(entry.node_id, 0.0) + entry.weight
    total = sum(weights.values())
    if total <= 0:
        return {node_id: 1.0}
    if pref.include_self > 0:
        scale = (1.0 - pref.include_self) / total
        weights = {nid: w * scale for nid, w in weights.items()}
        weights[node_id] = weights.get(node_id, 0.0) + pref.include_self
    return weights


def reference_preference_matrix(
    pref: ContextualPreference, node_ids: Sequence[int]
) -> np.ndarray:
    """Normalized preference columns, each built from the dict form."""
    n = pref.graph.adjacency.matrix.shape[0]
    out = np.zeros((n, len(node_ids)))
    for col, node_id in enumerate(node_ids):
        weights = reference_preference_weights(pref, node_id)
        ids = np.fromiter(weights.keys(), dtype=np.int64, count=len(weights))
        vals = np.fromiter(
            weights.values(), dtype=np.float64, count=len(weights)
        )
        out[ids, col] = vals / vals.sum()
    return out
