"""Random walk with restart over the TAT graph (Eq 1 of the paper).

Solves ``p = λ·T·p + (1−λ)·r`` by power iteration on the column-stochastic
transition matrix ``T``.  With ``λ < 1`` the iteration is a contraction, so
convergence to the unique fixed point is guaranteed; the engine still
enforces an iteration budget and raises :class:`ConvergenceError` when the
budget is exhausted without reaching the tolerance, matching the
"converges or reaches predefined iteration times" stop rule of
Algorithm 1.  Batches of preference vectors (the offline stage) are
solved exactly instead, through one cached sparse LU of ``I − λT``
(:meth:`RandomWalkEngine.walk_many_result`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np
from scipy import sparse

from repro.errors import ConvergenceError, GraphError
from repro.graph.adjacency import Adjacency


@dataclass(frozen=True)
class WalkResult:
    """Converged score vector plus iteration diagnostics."""

    scores: np.ndarray
    iterations: int
    residual: float
    converged: bool


@dataclass(frozen=True)
class BatchWalkResult:
    """Solved score columns plus batch diagnostics.

    ``residual`` is the max per-column L1 residual of one application of
    Eq 1 at the returned scores — a *verified* a-posteriori bound, not an
    iteration byproduct.
    """

    scores: np.ndarray
    residual: float
    converged: bool


class RandomWalkEngine:
    """Power-iteration solver for personalized random walks.

    Parameters
    ----------
    adjacency:
        The frozen TAT adjacency.
    damping:
        λ in Eq 1 — the probability of following an edge rather than
        restarting.  The paper's standard choice is 0.85.
    tol:
        L1 convergence tolerance between successive iterates.
    max_iterations:
        Iteration budget ("predefined iteration times" in Algorithm 1).
    strict:
        When True, failing to converge raises :class:`ConvergenceError`;
        when False the best-effort vector is returned with
        ``converged=False``.
    """

    def __init__(
        self,
        adjacency: Adjacency,
        damping: float = 0.85,
        tol: float = 1e-10,
        max_iterations: int = 200,
        strict: bool = False,
    ) -> None:
        if not 0.0 < damping < 1.0:
            raise GraphError(f"damping must be in (0,1), got {damping}")
        if tol <= 0:
            raise GraphError("tol must be positive")
        if max_iterations < 1:
            raise GraphError("max_iterations must be >= 1")
        self.adjacency = adjacency
        self.damping = damping
        self.tol = tol
        self.max_iterations = max_iterations
        self.strict = strict
        self._transition = adjacency.transition_matrix()
        self._lu = None  # lazily factorized (I - λT), shared by all solves
        # Adjacency.version at capture time: the transition matrix and the
        # LU factorization stay valid exactly as long as the adjacency is
        # untouched; Adjacency.extend bumps the version and _sync refreshes.
        self._adjacency_version = adjacency.version

    def _sync(self) -> None:
        """Refresh derived artifacts if the adjacency mutated in place.

        The cached LU factorization is kept when the adjacency version is
        unchanged (edges did not move); a bumped version means the
        transition matrix moved, so both are refreshed/refactorized.
        """
        if self.adjacency.version != self._adjacency_version:
            self._transition = self.adjacency.transition_matrix()
            self._lu = None
            self._adjacency_version = self.adjacency.version

    # ------------------------------------------------------------------ #
    # preference vectors
    # ------------------------------------------------------------------ #

    def uniform_preference(self) -> np.ndarray:
        """Global walk: uniform restart distribution (PageRank)."""
        n = self.adjacency.n_nodes
        if n == 0:
            raise GraphError("empty graph")
        return np.full(n, 1.0 / n)

    def indicator_preference(self, node_id: int) -> np.ndarray:
        """Individual walk: restart mass concentrated on one node."""
        n = self.adjacency.n_nodes
        if not 0 <= node_id < n:
            raise GraphError(f"node id {node_id} out of range")
        r = np.zeros(n)
        r[node_id] = 1.0
        return r

    def weighted_preference(self, weights: Dict[int, float]) -> np.ndarray:
        """Restart distribution from a sparse {node_id: weight} dict."""
        n = self.adjacency.n_nodes
        r = np.zeros(n)
        for node_id, w in weights.items():
            if not 0 <= node_id < n:
                raise GraphError(f"node id {node_id} out of range")
            if w < 0:
                raise GraphError(f"negative preference weight on {node_id}")
            r[node_id] = w
        total = r.sum()
        if total <= 0:
            raise GraphError("preference vector has no mass")
        return r / total

    # ------------------------------------------------------------------ #
    # solver
    # ------------------------------------------------------------------ #

    def walk(self, preference: np.ndarray) -> WalkResult:
        """Run the walk to the fixed point of Eq 1.

        The preference vector is normalized internally; the returned score
        vector sums to 1.
        """
        n = self.adjacency.n_nodes
        if preference.shape != (n,):
            raise GraphError(
                f"preference has shape {preference.shape}, expected ({n},)"
            )
        total = preference.sum()
        if total <= 0:
            raise GraphError("preference vector has no mass")
        r = preference / total

        self._sync()
        p = r.copy()
        residual = np.inf
        for iteration in range(1, self.max_iterations + 1):
            p_next = self.damping * (self._transition @ p) + (1 - self.damping) * r
            # Mass lost through zero-degree columns is redirected to the
            # restart distribution (dangling-node fix).
            leaked = 1.0 - p_next.sum()
            if leaked > 1e-15:
                p_next += leaked * r
            residual = float(np.abs(p_next - p).sum())
            p = p_next
            if residual < self.tol:
                return WalkResult(p, iteration, residual, True)
        if self.strict:
            raise ConvergenceError(
                f"random walk did not converge in {self.max_iterations} "
                f"iterations (residual {residual:.3e})"
            )
        return WalkResult(p, self.max_iterations, residual, False)

    def global_walk(self) -> WalkResult:
        """Convenience: PageRank-style global walk."""
        return self.walk(self.uniform_preference())

    def individual_walk(self, node_id: int) -> WalkResult:
        """Convenience: individual walk biased to one node (basic model)."""
        return self.walk(self.indicator_preference(node_id))

    def walk_many_result(self, preferences: "np.ndarray") -> BatchWalkResult:
        """Solve Eq 1 for many preference vectors (one per **column**).

        The fixed point of Eq 1 (with the dangling-mass fix) is the
        normalized solution of the linear system ``(I − λT)q = r``: one
        sparse LU factorization — cached on the engine and amortized over
        the whole vocabulary — turns every batch into per-column
        triangular solves.  Columns are solved one at a time on purpose:
        SuperLU's blocked multi-RHS path produces bitwise-different
        low-order bits depending on how columns are batched together, and
        solving per column makes every result independent of batch
        composition — a full-vocabulary build and a delta recompute of a
        handful of terms produce identical bits.  The reported residual
        is verified a posteriori with one Eq-1 application.
        """
        n = self.adjacency.n_nodes
        if preferences.ndim != 2 or preferences.shape[0] != n:
            raise GraphError(
                f"preferences must be ({n}, batch), got {preferences.shape}"
            )
        sums = preferences.sum(axis=0)
        if np.any(sums <= 0):
            raise GraphError("every preference column needs positive mass")
        self._sync()
        return self._solve_direct(preferences / sums)

    def _factorization(self):
        """Cached sparse LU of ``I − λT`` (one factorization per engine)."""
        if self._lu is None:
            from scipy.sparse.linalg import splu

            n = self.adjacency.n_nodes
            system = (
                sparse.identity(n, format="csc")
                - self.damping * self._transition.tocsc()
            ).tocsc()
            self._lu = splu(system)
        return self._lu

    def _solve_direct(self, r: "np.ndarray") -> BatchWalkResult:
        """Exact fixed point via the cached LU factorization.

        With the dangling fix the fixed point satisfies
        ``p = λTp + (λ·leak + 1 − λ)r`` and has unit mass, i.e. it is the
        L1-normalized solution of ``(I − λT)q = r``.

        Each column is solved (and normalized) individually: SuperLU's
        multi-RHS solve is bitwise sensitive to batch composition, and the
        per-column form guarantees reproducible bits regardless of how
        callers group their preference vectors — the property the delta
        ingest path relies on for base/delta bit-identity.
        """
        lu = self._factorization()
        columns = []
        for j in range(r.shape[1]):
            q = lu.solve(np.ascontiguousarray(r[:, j]))
            total = q.sum()
            if total <= 0:  # pragma: no cover - M-matrix inverse >= 0
                raise ConvergenceError("direct walk solve produced no mass")
            columns.append(q / total)
        p = (
            np.column_stack(columns)
            if columns
            else np.empty_like(r)
        )
        # verify: one Eq-1 application must leave p (numerically) fixed
        step = self.damping * (self._transition @ p) + (1 - self.damping) * r
        leaked = 1.0 - step.sum(axis=0)
        mask = leaked > 1e-15
        if mask.any():
            step[:, mask] += r[:, mask] * leaked[mask]
        residual = float(np.abs(step - p).sum(axis=0).max()) if p.size else 0.0
        converged = residual < self.tol
        if not converged and self.strict:
            raise ConvergenceError(
                f"direct walk solve residual {residual:.3e} above tol"
            )
        return BatchWalkResult(
            scores=p, residual=residual, converged=converged
        )
