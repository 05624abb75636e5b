"""The probabilistic query-generation HMM (Section V-B).

Observed symbols are the input keywords ``q_1..q_m``; hidden states at step
*i* are the candidate list ``L(q_i)``.  The three HMM components follow the
paper exactly:

* initial distribution ``π(t_1j) ∝ freq(t_1j)`` — Eq 7;
* transitions ``A(q'_{i-1}, q'_i) = clos(q'_{i-1}, q'_i)`` — Eq 8;
* emissions ``B(t_ij, q_i) ∝ sim(t_ij, q_i)`` — Eq 9;

and a path's quality is Eq 10:
``p(Q'|Q) = π(q'_1) · Π_i B(q'_i, q_i) · Π_i A(q'_{i-1}, q'_i)``.

Similarity and closeness factors are smoothed per Eq 5-6 before being
normalized into the matrices (see :mod:`repro.core.scoring`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.core.candidates import CandidateState
from repro.core.scoring import (
    ScoredQuery,
    normalize_distribution,
    smooth_factors,
    smooth_rows,
)
from repro.errors import ReformulationError


class ClosenessBackend(Protocol):
    """What the HMM needs from a closeness provider."""

    def closeness(self, node_a: int, node_b: int) -> float:
        """clos(a, b) per Eq 3."""
        ...

    def closeness_block(
        self, rows: Sequence[int], cols: Sequence[int]
    ) -> np.ndarray:
        """Raw Eq 3 values ``clos(rows[i], cols[j])`` as a float64 array
        of shape ``(len(rows), len(cols))`` — one block read in place of
        ``len(rows) * len(cols)`` point lookups."""
        ...


class FrequencyBackend(Protocol):
    """Provides term frequencies for Eq 7 (π)."""

    def frequency(self, node_id: int) -> float:
        """Collection frequency of one node (Eq 7 numerator)."""
        ...


class IndexFrequency:
    """Collection term frequency from the TAT graph's inverted index.

    Lookups are memoized per node id: a node's collection tf is immutable
    for the lifetime of the graph, and every π build (Eq 7) re-reads the
    same handful of first-position candidates, so the graph-node walk and
    postings aggregation run at most once per node.
    """

    def __init__(self, graph) -> None:
        self.graph = graph
        self._cache: Dict[int, float] = {}

    def frequency(self, node_id: int) -> float:
        """Collection tf of a term node; 1.0 for non-terms."""
        cached = self._cache.get(node_id)
        if cached is not None:
            return cached
        node = self.graph.node(node_id)
        if node.text is None:
            value = 1.0
        else:
            value = float(self.graph.index.total_tf(node.payload))
        self._cache[node_id] = value
        return value


@dataclass
class ReformulationHMM:
    """A fully parameterized HMM for one input query."""

    query: Tuple[str, ...]
    states: List[List[CandidateState]]
    pi: np.ndarray                    # shape (n_0,)
    emissions: List[np.ndarray]       # emissions[i] shape (n_i,)
    transitions: List[np.ndarray]     # transitions[i] shape (n_{i-1}, n_i), i>=1

    def __post_init__(self) -> None:
        # Lazy log-space lane (zeros map to -inf); the plan cache may
        # pre-seed _log_transitions with matrices logged once per pair.
        self._log_pi: Optional[np.ndarray] = None
        self._log_emissions: Optional[List[np.ndarray]] = None
        self._log_transitions: Optional[List[np.ndarray]] = None

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    @classmethod
    def build(
        cls,
        query: Sequence[str],
        states: List[List[CandidateState]],
        closeness: ClosenessBackend,
        frequency: FrequencyBackend,
        smoothing_lambda: float = 0.8,
        void_closeness: float = 1e-4,
    ) -> "ReformulationHMM":
        """Parameterize the HMM from offline similarity/closeness relations.

        Parameters
        ----------
        query:
            The input keywords (observed symbols).
        states:
            Per-position candidate lists from
            :class:`~repro.core.candidates.CandidateListBuilder`.
        closeness:
            Offline closeness relation (Eq 8 transitions).
        frequency:
            Term frequency provider (Eq 7 initial distribution).
        smoothing_lambda:
            λ of Eq 5-6.  1.0 disables smoothing.
        void_closeness:
            Raw closeness assigned to transitions entering a void state.
        """
        query = tuple(query)
        if len(query) != len(states):
            raise ReformulationError(
                f"query has {len(query)} terms but {len(states)} state lists"
            )
        if not states or any(not lst for lst in states):
            raise ReformulationError("every position needs at least one state")

        # π numerators — Eq 7 (over the first candidate list only)
        freqs = term_frequencies(states[0], frequency)

        # raw per-position similarity columns (Eq 9 numerators, pre-smoothing)
        raw_sims = [
            np.array([s.sim for s in lst], dtype=np.float64) for lst in states
        ]

        # A — Eq 8 with Eq 6 smoothing (row-mean global indication).
        transitions = [
            smooth_rows(
                pair_closeness_matrix(
                    states[i - 1], states[i], closeness, void_closeness
                ),
                smoothing_lambda,
            )
            for i in range(1, len(states))
        ]

        return cls.assemble(
            query=query,
            states=states,
            freqs=freqs,
            raw_sims=raw_sims,
            transitions=transitions,
            smoothing_lambda=smoothing_lambda,
        )

    @classmethod
    def assemble(
        cls,
        query: Tuple[str, ...],
        states: List[List[CandidateState]],
        freqs: np.ndarray,
        raw_sims: List[np.ndarray],
        transitions: List[np.ndarray],
        smoothing_lambda: float,
        log_transitions: Optional[List[np.ndarray]] = None,
    ) -> "ReformulationHMM":
        """Finish parameterization from precomputed raw blocks.

        This is the single code path behind both :meth:`build` (which
        computes the blocks fresh) and the serving plan cache (which
        replays memoized per-term/per-pair blocks), so cached and
        uncached construction are bit-identical by construction: the
        final normalization and Eq 5 smoothing run the same floating
        point operations on the same values either way.

        *transitions* are the already row-smoothed Eq 8 matrices;
        *log_transitions*, when given, seeds the lazy log-space lane with
        matrices that were log-transformed once at plan-cache fill time.

        The assembled matrices are guaranteed float64 and C-contiguous:
        the vectorized decoders (:mod:`repro.core.viterbi`,
        :mod:`repro.core.astar`) take whole-matrix products and row
        slices of them, and the layout guarantee keeps those batched
        operations on the no-copy fast path.  (``ascontiguousarray`` is
        a no-op on already-conforming arrays, including the plan cache's
        read-only views, and never changes values — bit-identity across
        cached/uncached construction is preserved.)
        """
        transitions = [
            np.ascontiguousarray(t, dtype=np.float64) for t in transitions
        ]
        # π — Eq 7 (frequency-proportional over the first candidate list)
        pi = normalize_distribution(freqs)

        # B — Eq 9 with the Eq 5 smoothing applied to the raw sims first.
        # The global indication spans every position of *this query*, so
        # it is recomputed per assembly (it cannot live in a term plan).
        global_sim = np.concatenate(raw_sims)
        global_mean = float(global_sim.mean()) if global_sim.size else 0.0
        emissions: List[np.ndarray] = []
        for raw in raw_sims:
            if smoothing_lambda < 1.0:
                blended = smoothing_lambda * raw + (1 - smoothing_lambda) * global_mean
            else:
                blended = raw
            emissions.append(normalize_distribution(blended))

        hmm = cls(
            query=query,
            states=states,
            pi=pi,
            emissions=emissions,
            transitions=transitions,
        )
        if log_transitions is not None:
            hmm._log_transitions = list(log_transitions)
        return hmm

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #

    @property
    def length(self) -> int:
        """m — number of steps (query length)."""
        return len(self.states)

    def n_states(self, position: int) -> int:
        """Number of hidden states at one position."""
        return len(self.states[position])

    @property
    def search_space(self) -> int:
        """Total number of candidate queries: Π_i n_i (the O(n^m) space)."""
        total = 1
        for lst in self.states:
            total *= len(lst)
        return total

    # ------------------------------------------------------------------ #
    # log-space lane
    # ------------------------------------------------------------------ #

    @property
    def log_pi(self) -> np.ndarray:
        """``log π`` with zeros mapped to ``-inf`` (computed once)."""
        if self._log_pi is None:
            self._log_pi = log_matrix(self.pi)
        return self._log_pi

    @property
    def log_emissions(self) -> List[np.ndarray]:
        """Per-position ``log B`` columns (computed once)."""
        if self._log_emissions is None:
            self._log_emissions = [log_matrix(e) for e in self.emissions]
        return self._log_emissions

    @property
    def log_transitions(self) -> List[np.ndarray]:
        """Per-step ``log A`` matrices.

        Pre-seeded by the serving plan cache (logged once per cached
        term pair); computed lazily otherwise.
        """
        if self._log_transitions is None:
            self._log_transitions = [log_matrix(t) for t in self.transitions]
        return self._log_transitions

    # ------------------------------------------------------------------ #
    # scoring
    # ------------------------------------------------------------------ #

    def path_score(self, path: Sequence[int]) -> float:
        """Eq 10 for one state path (indices into each position's list)."""
        if len(path) != self.length:
            raise ReformulationError(
                f"path length {len(path)} != query length {self.length}"
            )
        score = float(self.pi[path[0]]) * float(self.emissions[0][path[0]])
        for i in range(1, self.length):
            score *= float(self.transitions[i - 1][path[i - 1], path[i]])
            score *= float(self.emissions[i][path[i]])
        return score

    def scored_query(self, path: Sequence[int],
                     score: Optional[float] = None) -> ScoredQuery:
        """Materialize a path (with its Eq 10 *score*, when known)."""
        terms = tuple(
            self.states[i][s].text for i, s in enumerate(path)
        )
        return ScoredQuery(
            terms=terms,
            score=self.path_score(path) if score is None else score,
            state_path=tuple(path),
        )

    def is_identity_path(self, path: Sequence[int]) -> bool:
        """True if the path reproduces the original query verbatim."""
        return all(
            self.states[i][s].text == self.query[i]
            for i, s in enumerate(path)
        )


def term_frequencies(
    states: Sequence[CandidateState], frequency: FrequencyBackend
) -> np.ndarray:
    """Eq 7 numerators for one candidate list (void/unknown count as 1)."""
    return np.array(
        [
            frequency.frequency(s.node_id) if s.node_id is not None else 1.0
            for s in states
        ],
        dtype=np.float64,
    )


def pair_closeness_matrix(
    prev: Sequence[CandidateState],
    curr: Sequence[CandidateState],
    closeness: ClosenessBackend,
    void_closeness: float = 1e-4,
) -> np.ndarray:
    """Raw Eq 8 sub-matrix between two adjacent candidate lists.

    The serving plan cache memoizes one such matrix per adjacent term
    pair.  Every known state pair is read with a single
    :meth:`ClosenessBackend.closeness_block` call; the rest is masks, in
    this precedence: a transition touching a void state gets
    *void_closeness*; one touching an unknown original term
    (``node_id is None``) gets 0, leaving the floor to smoothing; a term
    repeated in adjacent positions gets 0 (it never helps a keyword
    query, and ``clos(v, v)`` is 0 by Eq 3's path definition).  Stored
    values are clamped at 0.
    """
    prev_void = np.array([s.is_void for s in prev], dtype=bool)
    curr_void = np.array([s.is_void for s in curr], dtype=bool)
    rows = [i for i, s in enumerate(prev) if _is_known(s)]
    cols = [j for j, s in enumerate(curr) if _is_known(s)]
    row_ids = [prev[i].node_id for i in rows]
    col_ids = [curr[j].node_id for j in cols]
    block = closeness.closeness_block(row_ids, col_ids)
    # max(0, x) exactly as the scalar form: x where x > 0, else +0.0
    # (so -0.0 and NaN both read 0.0)
    block = np.where(block > 0.0, block, 0.0)
    block[np.equal.outer(row_ids, col_ids)] = 0.0
    raw = np.zeros((len(prev), len(curr)), dtype=np.float64)
    raw[np.ix_(rows, cols)] = block
    raw[prev_void, :] = void_closeness
    raw[:, curr_void] = void_closeness
    return raw


def log_matrix(values: np.ndarray) -> np.ndarray:
    """Elementwise ``log`` with zeros mapped to ``-inf`` (no warnings)."""
    with np.errstate(divide="ignore"):
        return np.log(values)



def _is_known(state: CandidateState) -> bool:
    """True for a term state with a node id (neither void nor unknown)."""
    return not state.is_void and state.node_id is not None
