"""Algorithm 3: Viterbi-initialized A* search for top-k reformulations.

Two stages, as in the paper:

1. a Viterbi pass computes, for every (step, state), the best score any
   completion through that state can still achieve — the admissible
   heuristic ``h`` (Eq 10's factorization makes it a backward
   max-product);
2. a best-first search over partial paths expands the candidate with the
   highest potential ``g · h`` first, so the k-th complete path popped is
   guaranteed optimal and large parts of the state space are never
   touched.

The paper runs its Viterbi forward and grows paths from the tail; we run
the (equivalent, mirrored) backward Viterbi and grow paths from the head —
``h[c][i]`` is the best achievable score of the *suffix* starting at state
*i* of step *c*.  Both formulations visit the same number of states and
return the same queries.

Frontier and tie-breaks
-----------------------
The heap is keyed ``(-priority, path)``: among equal potentials the
lexicographically smallest partial path pops first, which makes the
sequence of completed paths — and therefore the returned top-k — follow
the repo-wide contract ``(score desc, path lex asc)`` deterministically
(see :mod:`repro.core.viterbi` for the full contract).

One batched numpy product scores all extensions of a popped path across
the candidate axis at once, and the frontier is kept *lazy*: children
are sorted best-first (stable, so ties fall to the lowest candidate
index), only the best child is pushed, and a popped child pushes its
next sibling.  A deferred sibling's heap key is never smaller than its
predecessor's, so the pop sequence is the one an eager search that
pushes every extension would produce — ``tests/decode_oracle.py`` keeps
that eager loop as the reference and proves the results bit-identical —
while the heap holds ~2 entries per expansion instead of ``n``.

The two stage timings are surfaced separately because Figure 8 of the
paper reports them separately.

With ``log_space=True`` potentials are sums of ``log``-matrices instead
of products, so deep queries cannot underflow the priority to an
indistinguishable 0 (the matrices are logged once, cached in the HMM's
log lane and pre-seeded by the serving plan cache).  A ``-inf``
potential is the log-space image of zero potential.  Returned queries
are re-scored with Eq 10 in probability space.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.core.hmm import ReformulationHMM
from repro.core.scoring import ScoredQuery
from repro.core.viterbi import hmm_space
from repro.errors import ReformulationError


@dataclass(frozen=True)
class AStarOutcome:
    """Top-k queries plus per-stage diagnostics for Figure 8/9."""

    queries: List[ScoredQuery]
    viterbi_seconds: float
    astar_seconds: float
    expanded: int  # number of partial paths popped from IP
    pushed: int = 0  # partial paths ever pushed onto IP

    @property
    def total_seconds(self) -> float:
        """Sum of the two stage timings."""
        return self.viterbi_seconds + self.astar_seconds


def backward_heuristic(
    hmm: ReformulationHMM, log_space: bool = False
) -> List[np.ndarray]:
    """h[c][i]: max achievable product (log-sum with ``log_space``) over
    steps c+1..m-1 given state i at step c, excluding step c's own
    emission."""
    _pi, emissions, transitions, combine = hmm_space(hmm, log_space)
    unit = np.zeros if log_space else np.ones
    h: List[np.ndarray] = [unit(hmm.n_states(c)) for c in range(hmm.length)]
    for step in range(hmm.length - 2, -1, -1):
        # (n_step, n_{step+1}) suffix scores through each next state
        future = combine(
            transitions[step], combine(emissions[step + 1], h[step + 1])[None, :]
        )
        h[step] = future.max(axis=1)
    return h


# A frontier context holds every child of one expanded path, scored in a
# single batched product: (parent_path, order, gs, priorities) where
# ``order`` lists child states best-first under (-priority, state asc).
_Ctx = Tuple[Tuple[int, ...], np.ndarray, np.ndarray, np.ndarray]


def _push_child(ip: list, ctx: _Ctx, rank: int) -> None:
    parent_path, order, gs, prios = ctx
    j = int(order[rank])
    heapq.heappush(
        ip, (-float(prios[j]), parent_path + (j,), float(gs[j]), ctx, rank)
    )


def astar_topk(
    hmm: ReformulationHMM, k: int, log_space: bool = False
) -> AStarOutcome:
    """Run Algorithm 3 — the exact top-k reformulations, best first."""
    if k < 1:
        raise ReformulationError("k must be >= 1")

    t0 = time.perf_counter()
    h = backward_heuristic(hmm, log_space)
    t1 = time.perf_counter()

    pi, emissions, transitions, combine = hmm_space(hmm, log_space)
    g0 = np.asarray(combine(pi, emissions[0]), dtype=np.float64)
    p0 = combine(g0, h[0])

    ip: list = []
    root_ctx: _Ctx = ((), np.argsort(-p0, kind="stable"), g0, p0)
    _push_child(ip, root_ctx, 0)
    pushed = 1

    complete: List[ScoredQuery] = []
    expanded = 0
    m = hmm.length
    while ip and len(complete) < k:
        _neg_priority, path, g, ctx, rank = heapq.heappop(ip)
        expanded += 1
        # Materialize the deferred sibling of the entry we just consumed.
        if rank + 1 < ctx[1].shape[0]:
            _push_child(ip, ctx, rank + 1)
            pushed += 1
        step = len(path)
        if step == m:
            complete.append(hmm.scored_query(path))
            continue
        trans_row = transitions[step - 1][path[-1]]
        gs = combine(combine(g, trans_row), emissions[step])
        prios = combine(gs, h[step])
        child_ctx: _Ctx = (path, np.argsort(-prios, kind="stable"), gs, prios)
        _push_child(ip, child_ctx, 0)
        pushed += 1
    t2 = time.perf_counter()

    complete.sort(key=lambda q: (-q.score, q.state_path))
    return AStarOutcome(
        queries=complete,
        viterbi_seconds=t1 - t0,
        astar_seconds=t2 - t1,
        expanded=expanded,
        pushed=pushed,
    )
