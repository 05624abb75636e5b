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
the mirrored backward Viterbi and grow paths from the head (``h[c][i]``
is the best score of the *suffix* from state *i* of step *c*), which
visits as many states and returns the same queries.

Frontier and tie-breaks
-----------------------
The heap is keyed ``(-priority, path)``, so equal potentials pop in
lexicographic path order.  One numpy product scores all extensions of a
popped path, and the frontier is *lazy*: children are sorted best-first
(stable: ties fall to the lowest index), only the best is pushed, and a
popped child pushes its next sibling, whose key is never smaller.  The
pops are thus an eager search's (``tests/decode_oracle.py`` keeps that
loop as the reference) while the heap holds ~2 entries per expansion.

With ``log_space=True`` potentials are sums of ``log``-matrices (a
``-inf`` potential is the image of zero), so deep queries cannot
underflow the priority; returned queries are re-scored with Eq 10.  In
linear space a complete path's ``g`` *is* its Eq 10 score (same factors,
same association).  Figure 8 reports the two stage timings separately.

Streaming
---------
:class:`AStarSearch` is resumable: ``astar_topk`` sorts its first k
completions, while :meth:`AStarSearch.ranked` yields them in contract
order ``(-score, state_path)`` only as far as its consumer pulls.  Pop
order is not quite that order (``h`` is accumulated backward, another
association than Eq 10, so a later pop can score an ulp higher), so
``ranked`` holds complete paths and releases the head only when the
frontier is empty, the ceiling of completions is reached, or the best
frontier priority ``top`` trails the head's score by a rounding margin.
A later completion ``f`` descends from a frontier entry whose exact
``g·h`` bounds ``f``'s exact product; with ``u = 2**-53``:

* linear: ``top`` rounds at most ``2m`` products and ``score_f``
  ``2m - 1``, so ``score_f <= top·(1 + 5mu)`` and ``top <
  score·(1 - HOLD_REL)`` makes ``score_f`` smaller for any m < 10**6;
* log: ``top`` sums at most ``2m + 1`` logs below 745 in magnitude, so it
  is within ``(2m + 1)²·745·u`` of the exact log potential and ``log
  score_f`` within ``2mu``: ``top < log(score) - HOLD_REL·m²`` suffices.

Both assume no partial product underflows, so heads below ``SAFE_MIN``
are held to the end.  The released paths are always a prefix of
``sorted(first ceiling completions)``.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass
from typing import Iterator, List, Tuple

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


#: Rounding margin of the hold/release rule (module docstring).
HOLD_REL = 1e-9
#: Heads scoring below this are held until the search stops.
SAFE_MIN = 1e-290


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


class AStarSearch:
    """Algorithm 3 over one HMM, popping on demand; ``expanded``,
    ``pushed`` and ``completed`` count pops, pushes and complete pops."""

    def __init__(self, hmm: ReformulationHMM, log_space: bool = False) -> None:
        start = time.perf_counter()
        self.h = backward_heuristic(hmm, log_space)
        self.viterbi_seconds = time.perf_counter() - start
        self.hmm, self.log_space = hmm, log_space
        self.space = hmm_space(hmm, log_space)
        pi, emissions, _transitions, combine = self.space
        g0 = np.asarray(combine(pi, emissions[0]), dtype=np.float64)
        p0 = combine(g0, self.h[0])
        self.frontier: list = []
        _push_child(self.frontier, ((), (-p0).argsort(kind="stable"), g0, p0), 0)
        self.expanded, self.pushed, self.completed = 0, 1, 0

    def completions(self) -> Iterator[ScoredQuery]:
        """Complete paths as queries, in pop order."""
        _pi, emissions, transitions, combine = self.space
        h, ip, m = self.h, self.frontier, self.hmm.length
        while ip:
            _neg_priority, path, g, ctx, rank = heapq.heappop(ip)
            self.expanded += 1
            # Materialize the deferred sibling of the entry we just consumed.
            if rank + 1 < ctx[1].shape[0]:
                _push_child(ip, ctx, rank + 1)
                self.pushed += 1
            step = len(path)
            if step == m:
                self.completed += 1
                yield self.hmm.scored_query(path, None if self.log_space else g)
                continue
            trans_row = transitions[step - 1][path[-1]]
            gs = combine(combine(g, trans_row), emissions[step])
            # the last step's h is the unit, so its priorities are gs
            prios = gs if step == m - 1 else combine(gs, h[step])
            child_ctx: _Ctx = (path, (-prios).argsort(kind="stable"), gs, prios)
            _push_child(ip, child_ctx, 0)
            self.pushed += 1

    def ranked(self, ceiling: int) -> Iterator[ScoredQuery]:
        """At most *ceiling* completions in ``(-score, state_path)``
        order, each released once no later pop can sort before it."""
        margin = HOLD_REL * self.hmm.length ** 2
        held: list = []
        for n, query in enumerate(self.completions(), 1):
            score = query.score
            bar = (-math.inf if not score >= SAFE_MIN
                   else math.log(score) - margin if self.log_space
                   else score * (1.0 - HOLD_REL))
            heapq.heappush(held, (-score, query.state_path, bar, query))
            if n == ceiling:
                break
            top = -self.frontier[0][0] if self.frontier else -math.inf
            while held and top < held[0][2]:
                yield heapq.heappop(held)[3]
        while held:
            yield heapq.heappop(held)[3]


def astar_topk(
    hmm: ReformulationHMM, k: int, log_space: bool = False
) -> AStarOutcome:
    """Run Algorithm 3 — the exact top-k reformulations, best first."""
    if k < 1:
        raise ReformulationError("k must be >= 1")
    start = time.perf_counter()
    search = AStarSearch(hmm, log_space)
    complete = list(itertools.islice(search.completions(), k))
    complete.sort(key=lambda q: (-q.score, q.state_path))
    return AStarOutcome(
        queries=complete,
        viterbi_seconds=search.viterbi_seconds,
        astar_seconds=time.perf_counter() - start - search.viterbi_seconds,
        expanded=search.expanded,
        pushed=search.pushed,
    )
