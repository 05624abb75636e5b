"""Extended top-k Viterbi decoding (Algorithm 2).

The standard Viterbi recursion finds the single best hidden-state
sequence in ``O(m n²)``.  Algorithm 2 of the paper extends the per-state
memo from one best prefix to the *k* best prefixes ending in each state;
the single best reformulation is ``viterbi_topk(hmm, 1)[0]``.

The decoder is vectorized: numpy whole-matrix operations over the
contiguous emission columns and transition sub-matrices the serving plan
cache assembles.  One batched product per position scores every
(prefix, next-state) extension at once, and a stable column-wise
argsort keeps the k best prefixes per state.  An extension is always
scored ``(prefix · trans) · emis`` (``+`` in log space), the same
association as the plain-loop reference in ``tests/decode_oracle.py``,
which the oracle proves bit-identical.

Tie-break contract
------------------
All decoders (here, in :mod:`repro.core.astar` and in
:mod:`repro.core.enumeration`) order paths by the total order

    ``(score descending, state_path lexicographically ascending)``

so equal-scored reformulations always surface lowest-candidate-index
first, at every internal truncation and in the returned list.

Zero-probability caveat: when the returned list contains zero-score
paths, the per-state truncation can keep different (equally worthless)
zero-score prefixes than a global enumeration would, so only the
*scores* are guaranteed to match A*/brute-force rank-for-rank; paths and
ordering agree whenever every returned score is positive or ``k`` covers
the whole search space.  ``tests/decode_oracle.py`` states (and
enforces) the full contract.

With ``log_space=True`` the recursion adds ``log π / log B / log A``
instead of multiplying probabilities, so long queries cannot underflow
to an all-zero table and no per-query rescaling is ever needed.  The log
matrices come from the HMM's cached lane
(:attr:`~repro.core.hmm.ReformulationHMM.log_transitions` is pre-seeded
by the serving plan cache), and returned queries are re-scored with
Eq 10 in probability space.  Selection happens on summed logs, so log
space can order within-an-ulp near-ties differently than linear space.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.core.hmm import ReformulationHMM
from repro.core.scoring import ScoredQuery
from repro.errors import ReformulationError


def hmm_space(hmm: ReformulationHMM, log_space: bool):
    """``(pi, emissions, transitions, combine)`` in one arithmetic space:
    the probability matrices with ``np.multiply``, or their logs with
    ``np.add``.  Only the requested space's matrices are touched, so a
    linear decode never computes logs."""
    if log_space:
        return hmm.log_pi, hmm.log_emissions, hmm.log_transitions, np.add
    return hmm.pi, hmm.emissions, hmm.transitions, np.multiply


def _reconstruct_path(
    states_hist: List[np.ndarray], parents: List[np.ndarray], row: int
) -> Tuple[int, ...]:
    """Walk parent pointers backwards from a final live-prefix row."""
    path = []
    r = row
    for step in range(len(states_hist) - 1, -1, -1):
        path.append(int(states_hist[step][r]))
        if step > 0:
            r = int(parents[step][r])
    path.reverse()
    return tuple(path)


def viterbi_topk(
    hmm: ReformulationHMM, k: int, log_space: bool = False
) -> List[ScoredQuery]:
    """Algorithm 2: extended Viterbi storing top-k prefixes per state.

    Live prefixes are kept as flat arrays *in lexicographic path order*
    (restored after every step with ``np.lexsort``), so a **stable**
    argsort on negated scores realizes exactly the contract's
    ``(score desc, path lex asc)`` order — both at the per-state
    truncation and at the final global selection.  Returns the global
    top-k complete paths, best first.
    """
    if k < 1:
        raise ReformulationError("k must be >= 1")
    pi, emissions, transitions, combine = hmm_space(hmm, log_space)
    scores = np.asarray(combine(pi, emissions[0]), dtype=np.float64)

    n0 = hmm.n_states(0)
    states_hist: List[np.ndarray] = [np.arange(n0, dtype=np.int64)]
    parents: List[np.ndarray] = [np.full(n0, -1, dtype=np.int64)]

    for step in range(1, hmm.length):
        # ext[r, j]: prefix row r extended with next-state j, one batched
        # product (sum in log space) over the whole live frontier.
        ext = combine(
            combine(scores[:, None], transitions[step - 1][states_hist[-1], :]),
            emissions[step][None, :],
        )
        n_next = ext.shape[1]
        keep = min(k, ext.shape[0])
        # Stable column-wise argsort: rows are in lex order, so ties on
        # score resolve to the lexicographically smallest prefix.
        order = np.argsort(-ext, axis=0, kind="stable")[:keep, :]

        new_parent = order.ravel(order="F")
        new_state = np.repeat(np.arange(n_next, dtype=np.int64), keep)
        new_scores = ext[new_parent, new_state]
        # Restore the lex-order invariant for the next step: sort the
        # survivors by (parent row, next state) == full-path lex order.
        perm = np.lexsort((new_state, new_parent))
        states_hist.append(new_state[perm])
        parents.append(new_parent[perm])
        scores = new_scores[perm]

    keep = min(k, scores.shape[0])
    top_rows = np.argsort(-scores, kind="stable")[:keep]
    out = [
        hmm.scored_query(_reconstruct_path(states_hist, parents, int(r)))
        for r in top_rows
    ]
    # Linear selection scores equal the Eq 10 scores bit-for-bit, so this
    # only reorders log-space results (selected on summed logs).
    out.sort(key=lambda q: (-q.score, q.state_path))
    return out
