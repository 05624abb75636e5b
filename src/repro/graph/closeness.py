"""Term closeness extraction (Section IV-C, Eq 3).

``clos(vi, vj) = Σ_{shortest paths τ: vi→vj} 1/len(τ)`` — shortest paths
between the two nodes, each discounted by its length.  Short, plentiful
connections mean the two terms cover joint keyword-search results, which
is the cohesion signal the HMM transition matrix needs (Eq 8: closeness
expresses "how often the terms appear together").

The extraction mirrors the paper's two-stage method: a level-by-level BFS
from each source that counts shortest paths ("Distance i+1 nodes can be
easily derived from distance i ones"), with frequency pruning per level
("We maintain top ones and prune less frequent to guarantee the extraction
performance").

Two path weightings are provided:

* ``"degree"`` (default) — each path contributes the product of
  1/degree over its *intermediate* nodes, divided by its length.  Longer
  paths are geometrically discounted by the graph's branching, so direct
  co-occurrence (distance 2) dominates regardless of corpus density —
  matching the paper's Table I, where the closest terms are the
  frequently co-occurring ones.  Discounting intermediates but not the
  endpoints makes the measure symmetric (``clos(a,b) == clos(b,a)``) and
  keeps hub endpoints from hoarding closeness.
* ``"count"`` — the literal Eq 3: raw shortest-path count / length.  On
  dense graphs the sheer number of length-4 paths can outweigh direct
  co-occurrence; kept for faithfulness studies and ablations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.errors import GraphError
from repro.graph.nodes import NodeKind
from repro.graph.tat import TATGraph

#: Bucket bounds for the frontier-size histogram — frontiers range from a
#: handful of nodes at depth 1 to beam_width (default 2000) after pruning.
_FRONTIER_BUCKETS = [1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0]

PATH_WEIGHTINGS = ("degree", "count")


@dataclass(frozen=True)
class PathInfo:
    """Shortest-path summary from a source to one node."""

    distance: int
    path_mass: float  # path count ("count") or walk probability ("degree")

    @property
    def closeness(self) -> float:
        """Eq 3 contribution: accumulated path mass / path length."""
        if self.distance == 0:
            return 0.0
        return self.path_mass / self.distance


class ClosenessExtractor:
    """Pruned shortest-path-counting BFS over the TAT graph.

    Parameters
    ----------
    graph:
        The TAT graph.
    max_depth:
        Maximum path length explored.  Two terms sharing a tuple are at
        distance 2 (term—tuple—term), so 4 reaches "same author /
        conference" connections and is the practical default.
    beam_width:
        Per-level pruning: keep only the *beam_width* frontier nodes with
        the most path mass when expanding to the next level.  ``None``
        disables pruning (exact, used by correctness tests).
    path_weighting:
        ``"degree"`` or ``"count"`` — see the module docstring.
    """

    def __init__(
        self,
        graph: TATGraph,
        max_depth: int = 4,
        beam_width: Optional[int] = 2000,
        path_weighting: str = "degree",
    ) -> None:
        if max_depth < 1:
            raise GraphError("max_depth must be >= 1")
        if beam_width is not None and beam_width < 1:
            raise GraphError("beam_width must be >= 1 or None")
        if path_weighting not in PATH_WEIGHTINGS:
            raise GraphError(
                f"path_weighting must be one of {PATH_WEIGHTINGS}, "
                f"got {path_weighting!r}"
            )
        self.graph = graph
        self.max_depth = max_depth
        self.beam_width = beam_width
        self.path_weighting = path_weighting
        self._cache: Dict[int, Dict[int, PathInfo]] = {}
        self._reach_cache: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._term_mask: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # stage 1: pruned shortest-path search
    # ------------------------------------------------------------------ #

    def _reach(self, source: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Level-by-level pruned BFS, vectorized over each frontier.

        Returns parallel arrays ``(ids, distances, masses)`` over every
        reached node, the source included at distance 0.  One hop expands
        the whole frontier with CSR gathers instead of per-node python
        loops — "Distance i+1 nodes can be easily derived from distance i
        ones" — which is what makes whole-vocabulary extraction cheap.
        """
        cached = self._reach_cache.get(source)
        if cached is not None:
            return cached
        matrix = self.graph.adjacency.matrix
        n = matrix.shape[0]
        indptr, indices = matrix.indptr, matrix.indices

        visited = np.zeros(n, dtype=bool)
        visited[source] = True
        levels: List[Tuple[np.ndarray, int, np.ndarray]] = []
        frontier_ids = np.array([source], dtype=np.int64)
        frontier_mass = np.array([1.0])
        frontier_hist = (
            obs.registry().histogram(
                "repro_closeness_frontier_size",
                "BFS frontier size per depth level in ClosenessExtractor",
                buckets=_FRONTIER_BUCKETS,
            )
            if obs.is_enabled()
            else None
        )
        for depth in range(1, self.max_depth + 1):
            if frontier_hist is not None:
                frontier_hist.observe(frontier_ids.size)
            if (
                self.beam_width is not None
                and frontier_ids.size > self.beam_width
            ):
                # keep the beam_width most path-heavy frontier nodes
                # ("we maintain top ones and prune less frequent")
                order = np.lexsort((frontier_ids, -frontier_mass))
                keep = order[: self.beam_width]
                frontier_ids = frontier_ids[keep]
                frontier_mass = frontier_mass[keep]
            counts = indptr[frontier_ids + 1] - indptr[frontier_ids]
            step_mass = frontier_mass
            # Only intermediate nodes discount the path mass: the source
            # (depth-1 expansion) is an endpoint.
            if self.path_weighting == "degree" and depth > 1:
                expandable = counts > 0
                frontier_ids = frontier_ids[expandable]
                counts = counts[expandable]
                step_mass = frontier_mass[expandable] / counts
            nnz = int(counts.sum())
            if not nnz:
                break
            starts = indptr[frontier_ids]
            slot = np.repeat(
                starts - np.concatenate(([0], np.cumsum(counts)[:-1])), counts
            ) + np.arange(nnz)
            neighbors = indices[slot]
            contrib = np.repeat(step_mass, counts)
            fresh = ~visited[neighbors]  # shorter paths win
            neighbors = neighbors[fresh]
            contrib = contrib[fresh]
            if not neighbors.size:
                break
            level_mass = np.bincount(neighbors, weights=contrib, minlength=n)
            new_ids = np.flatnonzero(np.bincount(neighbors, minlength=n))
            visited[new_ids] = True
            levels.append((new_ids, depth, level_mass[new_ids]))
            frontier_ids = new_ids
            frontier_mass = level_mass[new_ids]
        ids = np.concatenate(
            [np.array([source], dtype=np.int64)] + [lv[0] for lv in levels]
        )
        distances = np.concatenate(
            [np.array([0], dtype=np.int64)]
            + [np.full(lv[0].size, lv[1], dtype=np.int64) for lv in levels]
        )
        masses = np.concatenate(
            [np.array([1.0])] + [lv[2] for lv in levels]
        )
        reach = (ids, distances, masses)
        self._reach_cache[source] = reach
        return reach

    def paths_from(self, source: int) -> Dict[int, PathInfo]:
        """Shortest-path info from *source* to every reached node (cached)."""
        cached = self._cache.get(source)
        if cached is not None:
            return cached
        ids, distances, masses = self._reach(source)
        info = {
            int(node): PathInfo(int(dist), float(mass))
            for node, dist, mass in zip(ids, distances, masses)
        }
        self._cache[source] = info
        return info

    # ------------------------------------------------------------------ #
    # stage 2: closeness readout
    # ------------------------------------------------------------------ #

    def closeness(self, node_a: int, node_b: int) -> float:
        """clos(a, b) per Eq 3; 0 when unreachable within max_depth."""
        if node_a == node_b:
            return 0.0
        pinfo = self.paths_from(node_a).get(node_b)
        if pinfo is None:
            return 0.0
        return pinfo.closeness

    def closeness_block(
        self, rows: Sequence[int], cols: Sequence[int]
    ) -> np.ndarray:
        """clos of every (row, col) node pair: one :meth:`paths_from`
        per row, then one dict lookup per column."""
        out = np.zeros((len(rows), len(cols)), dtype=np.float64)
        if not out.size:
            return out
        for i, node_a in enumerate(rows):
            reached = self.paths_from(node_a)
            out[i] = [
                0.0 if pinfo is None else pinfo.closeness
                for pinfo in map(reached.get, cols)
            ]
        return out

    def distance(self, node_a: int, node_b: int) -> Optional[int]:
        """Shortest-path hop distance, or None when out of reach."""
        if node_a == node_b:
            return 0
        pinfo = self.paths_from(node_a).get(node_b)
        return None if pinfo is None else pinfo.distance

    def _terms_mask(self) -> np.ndarray:
        """Boolean per-node-id mask of term nodes, cached.

        Rebuilt automatically when the graph grew under us (delta ingest
        extends the adjacency in place).
        """
        n = self.graph.adjacency.matrix.shape[0]
        if self._term_mask is not None and self._term_mask.shape[0] != n:
            self._term_mask = None
        if self._term_mask is None:
            mask = np.zeros(self.graph.adjacency.matrix.shape[0], dtype=bool)
            for term_id in self.graph.registry.term_ids():
                mask[term_id] = True
            self._term_mask = mask
        return self._term_mask

    def close_terms(self, node_id: int, top_n: int = 10) -> List[Tuple[int, float]]:
        """Top close *term* nodes of one node — the Table I readout."""
        if top_n < 1:
            raise GraphError("top_n must be >= 1")
        ids, distances, masses = self._reach(node_id)
        keep = (distances > 0) & self._terms_mask()[ids] & (ids != node_id)
        ids = ids[keep]
        scores = masses[keep] / distances[keep]
        order = np.lexsort((ids, -scores))[:top_n]
        return [(int(ids[i]), float(scores[i])) for i in order]

    def close_terms_in_class(
        self, node_id: int, node_class, top_n: int = 10
    ) -> List[Tuple[int, float]]:
        """Top close terms restricted to one field (Table I's per-field view)."""
        reached = self.paths_from(node_id)
        scored = [
            (other, pinfo.closeness)
            for other, pinfo in reached.items()
            if other != node_id and self.graph.class_of(other) == node_class
            and self.graph.node(other).kind is NodeKind.TERM
        ]
        scored.sort(key=lambda item: (-item[1], item[0]))
        return scored[:top_n]

    def close_rows(
        self, node_ids: Sequence[int], top_n: int = 10
    ) -> Dict[int, List[Tuple[int, float]]]:
        """Close-term rows for many sources (the offline-stage bulk read)."""
        return {
            node_id: self.close_terms(node_id, top_n) for node_id in node_ids
        }

    def precompute(self, node_ids: List[int]) -> None:
        """Offline stage: warm the cache for a term vocabulary."""
        for node_id in node_ids:
            self.paths_from(node_id)

    # ------------------------------------------------------------------ #
    # dirty-set refresh (delta ingest)
    # ------------------------------------------------------------------ #

    def _dirty_ball(self, dirty_ids: Sequence[int]) -> np.ndarray:
        """Boolean mask of nodes within ``max_depth`` hops of a dirty node.

        Computed on the *current* (already extended) adjacency, so new
        edges that shorten paths are honoured.
        """
        matrix = self.graph.adjacency.matrix
        n = matrix.shape[0]
        indptr, indices = matrix.indptr, matrix.indices
        seen = np.zeros(n, dtype=bool)
        frontier = np.unique(np.asarray(list(dirty_ids), dtype=np.int64))
        if frontier.size and (frontier[0] < 0 or frontier[-1] >= n):
            raise GraphError("dirty node id out of range")
        seen[frontier] = True
        for _ in range(self.max_depth):
            if not frontier.size:
                break
            counts = indptr[frontier + 1] - indptr[frontier]
            nnz = int(counts.sum())
            if not nnz:
                break
            starts = indptr[frontier]
            slot = np.repeat(
                starts - np.concatenate(([0], np.cumsum(counts)[:-1])), counts
            ) + np.arange(nnz)
            neighbors = np.flatnonzero(np.bincount(indices[slot], minlength=n))
            neighbors = neighbors[~seen[neighbors]]
            seen[neighbors] = True
            frontier = neighbors
        return seen

    def affected_sources(self, dirty_ids: Sequence[int]) -> List[int]:
        """Term node ids whose closeness readout may have changed.

        Closeness is purely structural (path counts and structural
        degrees; edge *weights* never enter), so a source's rows can only
        change when its ``max_depth``-hop ball contains a structurally
        dirty node — exactly the ball membership computed here.  Terms
        outside the ball keep bit-identical rows, which is what lets a
        delta ingest re-BFS only this set.
        """
        ball = self._dirty_ball(dirty_ids)
        return [int(i) for i in np.flatnonzero(ball & self._terms_mask())]

    def invalidate(self, dirty_ids: Sequence[int]) -> List[int]:
        """Evict cached searches invalidated by a structural delta.

        Drops every cached source inside the dirty ball (term or tuple)
        and resets the term mask; returns the affected *term* sources so
        the caller can schedule their re-extraction.
        """
        ball = self._dirty_ball(dirty_ids)
        for source in [s for s in self._reach_cache if ball[s]]:
            self.evict(source)
        for source in [s for s in self._cache if ball[s]]:
            self.evict(source)
        return [int(i) for i in np.flatnonzero(ball & self._terms_mask())]

    def evict(self, node_id: int) -> None:
        """Drop one source's cached search (offline batch memory bound)."""
        self._cache.pop(node_id, None)
        self._reach_cache.pop(node_id, None)

    def cache_size(self) -> int:
        """Number of cached source nodes."""
        return len(self._reach_cache)

    def clear_cache(self) -> None:
        """Drop all cached path searches."""
        self._cache.clear()
        self._reach_cache.clear()
