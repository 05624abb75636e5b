"""Contextual preference vector (Definition 6 + Section IV-B.2).

The paper's key enhancement over the individual random walk: instead of
restarting on the starting node itself, restart on its *context nodes* —
the surrounding tuples and terms.  For a term like "uncertain" that is the
papers containing it; for an author the paper's example is richer:
"Starting random walk process from this author's primary conference and
research areas, we may encounter other valuable findings."

To cover both cases with one mechanism, the context is the **decayed
multi-hop neighborhood** of the starting node: a hop-limited, degree-
normalized diffusion assigns each nearby node a mass, and the preference
weight of a context node combines that mass with the paper's two weight
ingredients,

    w(v_c) = 1/|F_i| · freq-mass(v_c, t0) · idf(v_c)

where ``|F_i|`` is the cardinality of the context node's field (so scarce
fields like conferences weigh heavily — the "primary conference" effect),
and ``idf`` is the inverse of the node's global prominence.  Only the top
related nodes of each field are kept ("we fetch some top related nodes
from each field").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import GraphError
from repro.graph.nodes import NodeClass
from repro.graph.tat import TATGraph


@dataclass(frozen=True)
class ContextEntry:
    """One context node with the breakdown of its weight."""

    node_id: int
    field: NodeClass
    field_weight: float
    node_weight: float

    @property
    def weight(self) -> float:
        """Combined field x node weight of this context node."""
        return self.field_weight * self.node_weight


class ContextualPreference:
    """Builds contextual preference vectors over a :class:`TATGraph`.

    Parameters
    ----------
    graph:
        The TAT graph.
    hops:
        Radius of the context neighborhood.  2 covers the Figure 4 case
        (term → papers → sibling terms/conferences); 4 (default) also
        reaches an author's conferences and research-area terms through
        the ``writes`` relay tuples.
    hop_decay:
        Mass multiplier per extra hop; nearer context dominates.
    top_per_field:
        How many top-weighted context nodes to keep per field.
    include_self:
        Weight share (0..1) reserved for the starting node itself.  The
        paper restarts purely on context; a small self weight keeps the
        walk anchored when the context is tiny.  Default 0 = pure context.
    frontier_cap:
        Per-hop expansion pruning: only the *frontier_cap* highest-mass
        frontier nodes are expanded into the next ring ("we fetch some
        top related nodes" — the low-mass tail cannot reach the
        per-field top lists anyway).  ``None`` disables pruning.
    """

    def __init__(
        self,
        graph: TATGraph,
        hops: int = 4,
        hop_decay: float = 0.5,
        top_per_field: int = 10,
        include_self: float = 0.0,
        frontier_cap: Optional[int] = 200,
    ) -> None:
        if hops < 1:
            raise GraphError("hops must be >= 1")
        if not 0.0 < hop_decay <= 1.0:
            raise GraphError("hop_decay must be in (0,1]")
        if top_per_field < 1:
            raise GraphError("top_per_field must be >= 1")
        if not 0.0 <= include_self < 1.0:
            raise GraphError("include_self must be in [0,1)")
        if frontier_cap is not None and frontier_cap < 1:
            raise GraphError("frontier_cap must be >= 1 or None")
        self.graph = graph
        self.hops = hops
        self.hop_decay = hop_decay
        self.top_per_field = top_per_field
        self.include_self = include_self
        self.frontier_cap = frontier_cap
        self._tables_version: Optional[int] = None
        self._row_sums: Optional[np.ndarray] = None
        self._classes: Optional[List[NodeClass]] = None
        self._class_index: Optional[np.ndarray] = None
        self._class_weight: Optional[np.ndarray] = None
        self._idf_table: Optional[np.ndarray] = None

    def _sync(self) -> None:
        """Drop the per-node tables when the graph grew in place
        (``TATGraph.add_tuples`` bumps ``Adjacency.version``)."""
        version = self.graph.adjacency.version
        if version != self._tables_version:
            self._row_sums = None
            self._class_index = None
            self._tables_version = version

    def _weighted_degrees(self) -> np.ndarray:
        """Per-node total edge weight (the diffusion normalizer), cached."""
        self._sync()
        if self._row_sums is None:
            matrix = self.graph.adjacency.matrix
            self._row_sums = np.asarray(matrix.sum(axis=1)).ravel()
        return self._row_sums

    def _node_tables(self) -> Tuple[List[NodeClass], np.ndarray, np.ndarray, np.ndarray]:
        """Per-node lookup tables (class index, 1/|F_i|, idf), cached.

        These are the scalar :meth:`field_cardinality` / :meth:`node_idf`
        ingredients materialized once per graph so context weighting runs
        as array arithmetic instead of per-node python calls.
        """
        self._sync()
        if self._class_index is None:
            registry = self.graph.registry
            n = self.graph.n_nodes
            classes = list(registry.classes())
            class_index = np.zeros(n, dtype=np.int64)
            for idx, node_class in enumerate(classes):
                for node_id in registry.ids_of_class(node_class):
                    class_index[node_id] = idx
            class_weight = np.array(
                [1.0 / self.field_cardinality(c) for c in classes]
            )
            idf = np.log(
                1.0 + self.graph.n_nodes / (1.0 + self._weighted_degrees())
            )
            for term_id in registry.term_ids():
                idf[term_id] = self.graph.index.idf(
                    registry.node_of(term_id).payload
                )
            self._classes = classes
            self._class_index = class_index
            self._class_weight = class_weight
            self._idf_table = idf
        return self._classes, self._class_index, self._class_weight, self._idf_table

    # ------------------------------------------------------------------ #
    # weight ingredients
    # ------------------------------------------------------------------ #

    def field_cardinality(self, field: NodeClass) -> int:
        """|F_i|: vocabulary size for term fields, row count for tables."""
        if isinstance(field, tuple):
            return max(1, self.graph.index.field_cardinality(field))
        table = self.graph.database.table(field)
        return max(1, len(table))

    def node_idf(self, node_id: int) -> float:
        """Inverse global-occurrence weight of one node.

        Term nodes use the index idf; tuple nodes use a degree-based
        analogue (a hub tuple connected to everything is as uninformative
        as a stopword).
        """
        _classes, _cidx, _cw, idf = self._node_tables()
        return float(idf[node_id])

    # ------------------------------------------------------------------ #
    # context extraction
    # ------------------------------------------------------------------ #

    def neighborhood_mass(self, node_id: int) -> Dict[int, float]:
        """Decayed degree-normalized diffusion mass around *node_id*.

        This is ``freq-mass(v_c, t0)``: hop-1 nodes receive the normalized
        TAT edge weight (the paper's co-occurrence frequency), farther
        nodes receive diffused, decayed mass.  The starting node itself is
        excluded.
        """
        ids, vals = self._diffuse(node_id)
        return {int(ctx_id): float(v) for ctx_id, v in zip(ids, vals)}

    def _diffuse(self, node_id: int) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized diffusion: (reached ids, accumulated mass) arrays."""
        matrix = self.graph.adjacency.matrix
        n = matrix.shape[0]
        indptr, indices, data = matrix.indptr, matrix.indices, matrix.data
        totals = self._weighted_degrees()

        visited = np.zeros(n, dtype=bool)
        visited[node_id] = True
        mass = np.zeros(n)
        reached: List[np.ndarray] = []
        frontier_ids = np.array([node_id], dtype=np.int64)
        frontier_mass = np.array([1.0])
        for _hop in range(self.hops):
            if (
                self.frontier_cap is not None
                and frontier_ids.size > self.frontier_cap
            ):
                # top frontier_cap by (-mass, node_id), as in the paper's
                # "fetch some top related nodes" pruning
                order = np.lexsort((frontier_ids, -frontier_mass))
                keep = order[: self.frontier_cap]
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
            # gather every (frontier node -> neighbor) CSR slot at once
            slot = np.repeat(
                starts - np.concatenate(([0], np.cumsum(counts)[:-1])), counts
            ) + np.arange(nnz)
            neighbors = indices[slot]
            contrib = (
                np.repeat(src_mass / totals[src_ids], counts) * data[slot]
            )
            fresh = ~visited[neighbors]
            neighbors = neighbors[fresh]
            contrib = contrib[fresh]
            if not neighbors.size:
                break
            hop_mass = np.bincount(neighbors, weights=contrib, minlength=n)
            new_ids = np.flatnonzero(np.bincount(neighbors, minlength=n))
            mass[new_ids] += hop_mass[new_ids]
            visited[new_ids] = True
            reached.append(new_ids)
            # decay before the next ring
            frontier_ids = new_ids
            frontier_mass = hop_mass[new_ids] * self.hop_decay
        if not reached:
            return np.empty(0, dtype=np.int64), np.empty(0)
        all_ids = np.concatenate(reached)
        return all_ids, mass[all_ids]

    def context_arrays(
        self, node_id: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The weighted context of *node_id*, top-k per field, as arrays.

        Returns ``(ids, field_weights, node_weights)`` of the kept
        context nodes, grouped by field and ranked by (-weight, node id)
        inside each field; a node's weight is
        ``field_weights * node_weights``.
        """
        ids, mass = self._diffuse(node_id)
        if not ids.size:
            return ids, np.empty(0), np.empty(0)
        _classes, class_index, class_weight, idf = self._node_tables()
        fields = class_index[ids]
        field_weight = class_weight[fields]
        node_weight = mass * idf[ids]
        weight = field_weight * node_weight
        # group by field, rank by (-weight, node_id) inside each group,
        # keep the top_per_field head of every group
        order = np.lexsort((ids, -weight, fields))
        sorted_fields = fields[order]
        group_starts = np.flatnonzero(
            np.concatenate(([True], sorted_fields[1:] != sorted_fields[:-1]))
        )
        group_sizes = np.diff(np.concatenate((group_starts, [order.size])))
        rank = np.arange(order.size) - np.repeat(group_starts, group_sizes)
        kept = order[rank < self.top_per_field]
        return ids[kept], field_weight[kept], node_weight[kept]

    def context_entries(self, node_id: int) -> List[ContextEntry]:
        """The weighted context of *node_id*, top-k per field."""
        ids, field_weights, node_weights = self.context_arrays(node_id)
        return [
            ContextEntry(
                node_id=ctx_id,
                field=self.graph.class_of(ctx_id),
                field_weight=field_weight,
                node_weight=node_weight,
            )
            for ctx_id, field_weight, node_weight in zip(
                ids.tolist(), field_weights.tolist(), node_weights.tolist()
            )
        ]

    def preference_arrays(self, node_id: int) -> Tuple[np.ndarray, np.ndarray]:
        """Unnormalized preference vector ``(ids, weights)`` of one node.

        The kept context weights, plus the starting node's
        ``include_self`` share when set; falls back to the indicator
        vector when the node has no context (isolated node) so the walk
        stays well defined.
        """
        ids, field_weights, node_weights = self.context_arrays(node_id)
        weights = field_weights * node_weights
        # Python's sum, as the dict form of this vector always took it:
        # a different summation order would move the low bits of scale
        total = sum(weights.tolist())
        if not ids.size or total <= 0:
            return np.array([node_id], dtype=np.int64), np.array([1.0])
        if self.include_self > 0:
            scale = (1.0 - self.include_self) / total
            ids = np.append(ids, node_id)
            weights = np.append(weights * scale, self.include_self)
        return ids, weights

    def preference_weights(self, node_id: int) -> Dict[int, float]:
        """Sparse preference vector {node_id: weight} for the walk restart
        (the dict view of :meth:`preference_arrays`)."""
        ids, weights = self.preference_arrays(node_id)
        return dict(zip(ids.tolist(), weights.tolist()))

    def preference_matrix(self, node_ids: Sequence[int]) -> np.ndarray:
        """Normalized preference vectors for many nodes, one per column.

        This is the batch input of
        :meth:`~repro.graph.randomwalk.RandomWalkEngine.walk_many`: the
        offline stage builds one matrix per vocabulary batch and solves
        all the contextual walks in it at once.
        """
        n = self.graph.adjacency.matrix.shape[0]
        out = np.zeros((n, len(node_ids)))
        for col, node_id in enumerate(node_ids):
            ids, vals = self.preference_arrays(node_id)
            total = vals.sum()
            if total <= 0:
                raise GraphError(f"node {node_id} has an empty context")
            out[ids, col] = vals / total
        return out
