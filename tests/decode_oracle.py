"""Differential decode oracle: the executable tie-break contract.

This module holds the **reference loops** — plain-Python, scalar-float
implementations of Algorithm 2 (:func:`reference_viterbi_topk`) and of
Algorithm 3 with an eager frontier (:func:`reference_astar_topk`), each
in both arithmetic spaces.  They are slow and easy to audit.  Every
production decoder of the online stage is registered next to them and
checked against them and against brute force on the same HMM instance.
The contract the oracle enforces (stated informally in
``repro/core/viterbi.py``):

1. **Output order** — every lane returns paths sorted by
   ``(score desc, state_path lex asc)``; in particular, equal-scored
   neighbours must appear in ascending lexicographic path order.
2. **Result size** — exactly ``min(k, search_space)`` paths, no
   duplicates.
3. **Scores** — every returned score equals Eq 10's ``path_score``
   bit-for-bit, and the score *sequences* of all lanes in the same
   arithmetic space are bit-identical rank by rank.
4. **Paths** —
   * reference loop vs production decoder of the same algorithm and
     space: bit-identical paths and order, **always** (the production
     decoders' vectorization rests on this equivalence);
   * ``viterbi_topk`` (linear) vs the brute-force oracle: score
     sequences are bit-identical rank for rank, always (both select on
     forward-accumulated Eq 10 products and fp multiplication is
     monotone).  Paths are bit-identical whenever ``k`` covers the whole
     search space, or the returned scores are strictly decreasing,
     positive, and not tied with the first excluded path.  At an exact
     score tie the DP may return a lexicographically different member of
     the tie class: fp monotonicity is non-strict, so a strictly greater
     prefix can collapse into an exact tie at a later step, dominating
     the lex-smallest tied path out of the per-state memo (ties from
     *different* factor multisets, e.g. 0.5·0.5 == 0.25·1.0, do this;
     ties with identical factor sequences — twin states — cannot);
   * streamed A* (``AStarSearch.ranked`` with a ceiling of
     ``k + STREAM_SLACK`` completions, read up to k) vs the production
     decoder asked for that ceiling: bit-identical to its first k
     paths, **always** (the hold/release rule of
     ``repro/core/astar.py`` releases a prefix of the sorted pops);
   * ``astar*`` lanes vs anything outside their own algorithm and
     space: exact up to floating-point near-ties.  The admissible
     heuristic is accumulated *backward*, a different association order
     than the forward path score, so priorities can be an ulp off and
     flip within-an-ulp neighbours at the k-th boundary;
   * linear vs log space: likewise exact up to near-ties (selection on
     summed logs rounds differently than products).  Wherever paths
     differ at a rank, the two scores must agree to ~1e-9 relative.

The single best reformulation is contract 4 at ``k=1``: the serving
top-1 is ``viterbi_topk(hmm, 1)[0]``, so every caller here also decodes
``k=1``.

Run it standalone against freshly generated random instances with::

    PYTHONPATH=src python -m tests.decode_oracle --instances 500 --seed 3
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.core.astar import AStarSearch, backward_heuristic
from repro.core.candidates import CandidateState, StateKind
from repro.core.enumeration import brute_force_topk
from repro.core.hmm import ReformulationHMM
from repro.core.reformulator import ALGORITHMS, decode_topk
from repro.core.scoring import ScoredQuery
from repro.errors import ReformulationError

#: Relative tolerance for cross-space (linear vs log) comparisons: paths
#: may only diverge where scores collide within this window.
NEAR_TIE_REL = 1e-9

#: Completions beyond k that the streamed A* lane may pop, as the
#: serving pipeline's ``_slack`` lets it.
STREAM_SLACK = 3


# --------------------------------------------------------------------------- #
# Reference loops: plain Python over scalar floats
# --------------------------------------------------------------------------- #


def _scalar_space(hmm: ReformulationHMM, log_space: bool):
    """``(pi, emissions, transitions, combine)`` with a scalar combine."""
    if log_space:
        return hmm.log_pi, hmm.log_emissions, hmm.log_transitions, operator.add
    return hmm.pi, hmm.emissions, hmm.transitions, operator.mul


def _prefix_key(sp: Tuple[float, Tuple[int, ...]]):
    """The contract's total order as a min-key: score desc, path lex asc."""
    return (-sp[0], sp[1])


def _by_eq10(queries: List[ScoredQuery]) -> List[ScoredQuery]:
    """Final order on the probability-space Eq 10 score."""
    return sorted(queries, key=lambda q: (-q.score, q.state_path))


def reference_viterbi_topk(
    hmm: ReformulationHMM, k: int, log_space: bool = False
) -> List[ScoredQuery]:
    """Algorithm 2 as scalar loops.

    ``lists[i]`` holds at most *k* (score, path) prefixes ending in state
    *i* at the current step; the next step merges the extensions of every
    previous state's list and keeps the best *k* per state under the
    contract's ``(score desc, path lex asc)`` order.  An extension is
    scored ``(score ∘ trans) ∘ emis``, the production association.
    """
    if k < 1:
        raise ReformulationError("k must be >= 1")
    pi, emissions, transitions, combine = _scalar_space(hmm, log_space)
    lists: List[List[Tuple[float, Tuple[int, ...]]]] = [
        [(combine(float(pi[i]), float(emissions[0][i])), (i,))]
        for i in range(hmm.n_states(0))
    ]
    for step in range(1, hmm.length):
        trans = transitions[step - 1]
        emis = emissions[step]
        lists = [
            heapq.nsmallest(
                k,
                (
                    (
                        combine(combine(score, float(trans[i, j])),
                                float(emis[j])),
                        path + (j,),
                    )
                    for i, prefix_list in enumerate(lists)
                    for score, path in prefix_list
                ),
                key=_prefix_key,
            )
            for j in range(hmm.n_states(step))
        ]
    complete = [sp for state_list in lists for sp in state_list]
    top = heapq.nsmallest(k, complete, key=_prefix_key)
    return _by_eq10([hmm.scored_query(path) for _score, path in top])


def reference_astar_topk(
    hmm: ReformulationHMM, k: int, log_space: bool = False
) -> List[ScoredQuery]:
    """Algorithm 3 with an eager frontier, as scalar loops.

    Every extension of a popped path is pushed at once, keyed
    ``(-priority, path)`` so equal potentials pop in lexicographic path
    order.  The production decoder's lazy sibling frontier must pop in
    exactly this sequence.
    """
    if k < 1:
        raise ReformulationError("k must be >= 1")
    h = backward_heuristic(hmm, log_space)
    pi, emissions, transitions, combine = _scalar_space(hmm, log_space)
    ip: List[Tuple[float, Tuple[int, ...], float]] = []
    for i in range(hmm.n_states(0)):
        g = combine(float(pi[i]), float(emissions[0][i]))
        heapq.heappush(ip, (-combine(g, float(h[0][i])), (i,), g))

    complete: List[ScoredQuery] = []
    while ip and len(complete) < k:
        _neg_priority, path, g = heapq.heappop(ip)
        step = len(path)
        if step == hmm.length:
            complete.append(hmm.scored_query(path))
            continue
        trans = transitions[step - 1]
        emis = emissions[step]
        for j in range(hmm.n_states(step)):
            g_next = combine(combine(g, float(trans[path[-1], j])),
                             float(emis[j]))
            priority = combine(g_next, float(h[step][j]))
            heapq.heappush(ip, (-priority, path + (j,), g_next))
    return _by_eq10(complete)


# --------------------------------------------------------------------------- #
# Lane registry
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class Lane:
    """One registered top-k decoder."""

    name: str
    space: str    # "linear" | "log" — the arithmetic the selection runs in
    family: str   # "dp" (per-state truncation) | "global" (full enumeration order)
    fn: Callable[[ReformulationHMM, int], List[ScoredQuery]]


def _production(algorithm: str) -> Callable[[ReformulationHMM, int], List[ScoredQuery]]:
    return lambda hmm, k: decode_topk(hmm, k, algorithm)[0]


def _reference(fn, log_space: bool):
    return lambda hmm, k: fn(hmm, k, log_space=log_space)


def _streamed(log_space: bool):
    def decode(hmm: ReformulationHMM, k: int) -> List[ScoredQuery]:
        ranked = AStarSearch(hmm, log_space).ranked(k + STREAM_SLACK)
        return list(itertools.islice(ranked, k))

    return decode


def _build_lanes() -> Tuple[Lane, ...]:
    """Production and reference lane of every algorithm, both spaces,
    the streamed A* the serving pipeline reads, and the brute-force
    oracle (whose production lane *is* the oracle)."""
    references = {
        "viterbi_topk": reference_viterbi_topk,
        "astar": reference_astar_topk,
    }
    lanes = []
    for algorithm in ALGORITHMS:
        log_space = algorithm.endswith("_log")
        space = "log" if log_space else "linear"
        base = algorithm[: -len("_log")] if log_space else algorithm
        family = "dp" if base == "viterbi_topk" else "global"
        lanes.append(Lane(f"{algorithm}/production", space, family,
                          _production(algorithm)))
        if base in references:
            lanes.append(Lane(f"{algorithm}/reference", space, family,
                              _reference(references[base], log_space)))
        if base == "astar":
            lanes.append(Lane(f"{algorithm}/streamed", space, family,
                              _streamed(log_space)))
    return tuple(lanes)


TOPK_LANES: Tuple[Lane, ...] = _build_lanes()

#: Algorithms with a reference loop beside the production decoder.
TWINNED = tuple(
    lane.name.split("/")[0] for lane in TOPK_LANES
    if lane.name.endswith("/reference")
)


def signature(queries: Sequence[ScoredQuery]) -> List[Tuple[Tuple[int, ...], float]]:
    """(path, score) pairs — the bit-exact comparison unit."""
    return [(q.state_path, q.score) for q in queries]


def run_topk_lanes(
    hmm: ReformulationHMM, k: int
) -> Dict[str, List[ScoredQuery]]:
    """Decode *hmm* with every registered top-k lane."""
    return {lane.name: lane.fn(hmm, k) for lane in TOPK_LANES}


def _check_lane_invariants(
    hmm: ReformulationHMM, name: str, res: List[ScoredQuery], k: int
) -> None:
    """Per-lane contract: size, order, uniqueness, recomputable scores."""
    expect = min(k, hmm.search_space)
    assert len(res) == expect, (
        f"{name}: returned {len(res)} paths, expected {expect}"
    )
    scores = [q.score for q in res]
    assert scores == sorted(scores, reverse=True), f"{name}: not score-sorted"
    paths = [q.state_path for q in res]
    assert len(set(paths)) == len(paths), f"{name}: duplicate paths"
    for q in res:
        assert q.score == hmm.path_score(q.state_path), (
            f"{name}: score {q.score!r} != Eq 10 for path {q.state_path}"
        )
    for (a, b) in zip(res, res[1:]):
        if a.score == b.score:
            assert a.state_path < b.state_path, (
                f"{name}: tied scores out of lexicographic order: "
                f"{a.state_path} before {b.state_path}"
            )


def check_topk_equivalence(hmm: ReformulationHMM, k: int) -> None:
    """Assert the full cross-lane contract on one (hmm, k) instance."""
    results = run_topk_lanes(hmm, k)
    for lane in TOPK_LANES:
        _check_lane_invariants(hmm, lane.name, results[lane.name], k)

    # Reference loop vs production decoder: bit-identical, always.
    for algorithm in TWINNED:
        ref = signature(results[f"{algorithm}/reference"])
        prod = signature(results[f"{algorithm}/production"])
        assert ref == prod, (
            f"{algorithm}: reference loop and production decoder diverge\n"
            f"  reference:  {ref}\n  production: {prod}"
        )

    # Streamed A* vs the production decoder at the stream's ceiling:
    # bit-identical, always.
    for lane in TOPK_LANES:
        if lane.name.endswith("/streamed"):
            algorithm = lane.name.split("/")[0]
            ceiling = decode_topk(hmm, k + STREAM_SLACK, algorithm)[0]
            assert signature(results[lane.name]) == signature(ceiling[:k]), (
                f"{algorithm}: streamed decode is not a prefix of the "
                f"decode at its ceiling"
            )

    # Linear DP vs the exhaustive oracle: both select on the same
    # forward-accumulated products, so score sequences are bit-exact,
    # always.  Paths are bit-exact on tie-free instances (see module
    # docstring for why exact ties leave the DP lex slack).
    dp = results["viterbi_topk/reference"]
    oracle = results["brute_force/production"]
    assert [q.score for q in dp] == [q.score for q in oracle], (
        "viterbi_topk vs brute_force: score sequences differ"
    )
    exhaustive = len(oracle) == hmm.search_space
    if exhaustive:
        assert signature(dp) == signature(oracle), (
            "viterbi_topk vs brute_force: exhaustive decodes differ"
        )
    else:
        # Tie-free check must include the first *excluded* path: a tie
        # across the k-th boundary also leaves the DP slack.  Only the
        # returned scores need to be positive (at k=1 this is the old
        # top-1 rule: a unique positive best path is found exactly).
        extended = brute_force_topk(hmm, k + 1)
        ext_scores = [q.score for q in extended]
        tie_free = all(
            a > b for a, b in zip(ext_scores, ext_scores[1:])
        ) and ext_scores[k - 1] > 0.0
        if tie_free:
            assert signature(dp) == signature(oracle), (
                "viterbi_topk vs brute_force: paths differ on a "
                "tie-free instance"
            )

    # Every remaining lane pair (A* lanes, log-space lanes) agrees with
    # the oracle rank-for-rank up to fp near-ties: scores within
    # NEAR_TIE_REL, and paths may only diverge where scores collide.
    for lane in TOPK_LANES:
        other = results[lane.name]
        for rank, (a, b) in enumerate(zip(other, oracle)):
            close = math.isclose(
                a.score, b.score, rel_tol=NEAR_TIE_REL, abs_tol=0.0
            )
            assert close, (
                f"{lane.name} rank {rank}: score {a.score!r} vs oracle "
                f"{b.score!r} beyond near-tie tolerance"
            )


# --------------------------------------------------------------------------- #
# Standalone fuzz entry point (numpy-random, no hypothesis needed)
# --------------------------------------------------------------------------- #


def random_instance(rng: np.random.RandomState) -> ReformulationHMM:
    """One random adversarial HMM: mixed zeros, skew and tied palettes."""
    m = int(rng.randint(1, 5))
    sizes = [int(rng.randint(1, 6)) for _ in range(m)]
    profile = rng.choice(["uniform", "zero_heavy", "skewed", "palette"])

    def weights(shape):
        if profile == "zero_heavy":
            raw = rng.rand(*shape) * (rng.rand(*shape) > 0.6)
        elif profile == "skewed":
            raw = 10.0 ** -rng.randint(0, 13, size=shape).astype(np.float64)
        elif profile == "palette":
            raw = rng.choice([0.0, 0.25, 0.5, 1.0], size=shape)
        else:
            raw = rng.rand(*shape)
        return raw

    states = [
        [
            CandidateState(StateKind.SIMILAR, i * 8 + j, f"t{i}_{j}", 1.0)
            for j in range(n)
        ]
        for i, n in enumerate(sizes)
    ]
    pi = weights((sizes[0],))
    if pi.sum() == 0:
        pi[:] = 1.0
    emissions = []
    for n in sizes:
        e = weights((n,))
        if e.sum() == 0:
            e[:] = 1.0
        emissions.append(e / e.sum())
    transitions = [
        weights((sizes[i - 1], sizes[i])) for i in range(1, m)
    ]
    return ReformulationHMM(
        query=tuple(f"q{i}" for i in range(m)),
        states=states,
        pi=pi / pi.sum(),
        emissions=emissions,
        transitions=transitions,
    )


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--instances", type=int, default=500)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    rng = np.random.RandomState(args.seed)
    for i in range(args.instances):
        hmm = random_instance(rng)
        for k in (int(rng.randint(1, 13)), 1, hmm.search_space + 3):
            check_topk_equivalence(hmm, k)
    print(
        f"decode oracle: {args.instances} instances x "
        f"{len(TOPK_LANES)} top-k lanes at k=1, k>1 and k beyond the "
        f"lattice: OK"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
