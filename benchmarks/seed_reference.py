"""Frozen copy of the seed's sequential offline-extraction path.

The live primitives were vectorized and batched in the precompute rework,
so timing "new code, batch_size=1" would understate the change.  This
module preserves the original per-term algorithms — pure-python dict
diffusion for the context and a dict-assembled restart vector, one
iterative walk per term, a per-node idf readout of the walk scores,
dict-based BFS for closeness — exactly as the seed ran them, as the
baseline that ``bench_batch_precompute.py`` measures the batched
pipeline against.

Only used by benchmarks; not part of the package.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.graph.closeness import ClosenessExtractor, PathInfo
from repro.graph.context import ContextEntry, ContextualPreference
from repro.graph.nodes import NodeClass, NodeKind
from repro.graph.similarity import SimilarityExtractor, SimilarNode


class SeedContextualPreference(ContextualPreference):
    """The seed's per-node python-loop context construction."""

    def neighborhood_mass(self, node_id: int) -> Dict[int, float]:
        mass: Dict[int, float] = {}
        frontier: Dict[int, float] = {node_id: 1.0}
        visited = {node_id}
        for _hop in range(self.hops):
            expand = frontier
            if (
                self.frontier_cap is not None
                and len(expand) > self.frontier_cap
            ):
                top = sorted(
                    expand.items(), key=lambda item: (-item[1], item[0])
                )[: self.frontier_cap]
                expand = dict(top)
            next_frontier: Dict[int, float] = {}
            for node, node_mass in expand.items():
                neighbors = list(self.graph.neighbors(node))
                total_weight = sum(w for _n, w in neighbors)
                if total_weight <= 0:
                    continue
                for nbr, weight in neighbors:
                    if nbr in visited:
                        continue
                    next_frontier[nbr] = next_frontier.get(nbr, 0.0) + (
                        node_mass * weight / total_weight
                    )
            if not next_frontier:
                break
            for node, node_mass in next_frontier.items():
                mass[node] = mass.get(node, 0.0) + node_mass
                visited.add(node)
            frontier = {
                node: node_mass * self.hop_decay
                for node, node_mass in next_frontier.items()
            }
        return mass

    def context_entries(self, node_id: int) -> List[ContextEntry]:
        by_field: Dict[NodeClass, List[ContextEntry]] = {}
        for ctx_id, ctx_mass in self.neighborhood_mass(node_id).items():
            field = self.graph.class_of(ctx_id)
            entry = ContextEntry(
                node_id=ctx_id,
                field=field,
                field_weight=1.0 / self.field_cardinality(field),
                node_weight=ctx_mass * self.node_idf(ctx_id),
            )
            by_field.setdefault(field, []).append(entry)
        kept: List[ContextEntry] = []
        for entries in by_field.values():
            entries.sort(key=lambda e: (-e.weight, e.node_id))
            kept.extend(entries[: self.top_per_field])
        return kept

    def preference_arrays(self, node_id: int) -> Tuple[np.ndarray, np.ndarray]:
        """The seed's restart vector, assembled as a dict per entry.

        Overrides the method both ``preference_weights`` (the per-term
        walk) and ``preference_matrix`` read, so every seed context goes
        through the loops above.
        """
        entries = self.context_entries(node_id)
        weights: Dict[int, float] = {}
        for entry in entries:
            weights[entry.node_id] = weights.get(entry.node_id, 0.0) + entry.weight
        total = sum(weights.values())
        if not entries or total <= 0:
            weights = {node_id: 1.0}
        elif self.include_self > 0:
            scale = (1.0 - self.include_self) / total
            weights = {nid: w * scale for nid, w in weights.items()}
            weights[node_id] = weights.get(node_id, 0.0) + self.include_self
        return (
            np.fromiter(weights.keys(), dtype=np.int64, count=len(weights)),
            np.fromiter(weights.values(), dtype=np.float64, count=len(weights)),
        )


class SeedSimilarityExtractor(SimilarityExtractor):
    """The seed's Algorithm 1 readout: one idf lookup per class member."""

    def similar_nodes(self, node_id: int, top_n: int = 10) -> List[SimilarNode]:
        scores = self.walk_scores(node_id)
        candidates = [
            SimilarNode(other, self._seed_readout(other, float(scores[other])))
            for other in self.graph.same_class_ids(node_id)
            if other != node_id and scores[other] > 0.0
        ]
        candidates.sort(key=lambda s: (-s.score, s.node_id))
        return candidates[:top_n]

    def similarity(self, node_a: int, node_b: int) -> float:
        scores = self.walk_scores(node_a)
        return self._seed_readout(node_b, float(scores[node_b]))

    def _seed_readout(self, node_id: int, score: float) -> float:
        if not self.idf_readout or score <= 0.0:
            return score
        node = self.graph.node(node_id)
        if node.text is None:
            return score
        return score * self.graph.index.idf(node.payload)


class SeedClosenessExtractor(ClosenessExtractor):
    """The seed's per-source dict-based pruned BFS."""

    def paths_from(self, source: int) -> Dict[int, PathInfo]:
        cached = self._cache.get(source)
        if cached is not None:
            return cached
        info: Dict[int, PathInfo] = {source: PathInfo(0, 1.0)}
        frontier: Dict[int, float] = {source: 1.0}
        for depth in range(1, self.max_depth + 1):
            expand = frontier
            if self.beam_width is not None and len(expand) > self.beam_width:
                top = sorted(
                    expand.items(), key=lambda item: (-item[1], item[0])
                )[: self.beam_width]
                expand = dict(top)
            next_frontier: Dict[int, float] = {}
            for node, mass in expand.items():
                step_mass = mass
                if self.path_weighting == "degree" and depth > 1:
                    n_out = len(self.graph.adjacency.neighbor_ids(node))
                    if n_out == 0:
                        continue
                    step_mass = mass / n_out
                for nbr in self.graph.adjacency.neighbor_ids(node):
                    nbr = int(nbr)
                    if nbr in info and info[nbr].distance < depth:
                        continue
                    next_frontier[nbr] = next_frontier.get(nbr, 0.0) + step_mass
            for node, mass in next_frontier.items():
                if node not in info:
                    info[node] = PathInfo(depth, mass)
            frontier = {
                node: mass
                for node, mass in next_frontier.items()
                if info[node].distance == depth
            }
            if not frontier:
                break
        self._cache[source] = info
        return info

    def close_terms(self, node_id: int, top_n: int = 10) -> List[Tuple[int, float]]:
        reached = self.paths_from(node_id)
        scored = [
            (other, pinfo.closeness)
            for other, pinfo in reached.items()
            if other != node_id
            and self.graph.node(other).kind is NodeKind.TERM
        ]
        scored.sort(key=lambda item: (-item[1], item[0]))
        return scored[:top_n]
