"""Hypothesis strategies shared by the property-based tests.

The central one is :func:`hmms` — random, fully-parameterized
:class:`~repro.core.hmm.ReformulationHMM` instances small enough for the
brute-force oracle, used to cross-check Viterbi, top-k Viterbi and A*.
"""

from __future__ import annotations

from typing import List

import numpy as np
from hypothesis import strategies as st

from repro.core.candidates import CandidateState, StateKind
from repro.core.hmm import ReformulationHMM
from repro.index.inverted import FieldTerm

# Adversarial alphabet for store keys: the separator, the escape
# character, whitespace and non-ASCII text must all round-trip.
_KEY_CHARS = st.characters(
    codec="utf-8", exclude_categories=("Cs",)
)
_key_text = st.text(alphabet=_KEY_CHARS, min_size=1, max_size=12)


@st.composite
def field_terms(draw):
    """An arbitrary indexed term: any table/column/text, incl. '|' and '\\'."""
    nasty = st.sampled_from(
        ["|", "\\", "a|b", "a\\|b", "x\\\\", "τέρμα|", "名前", " ", "||"]
    )
    part = st.one_of(_key_text, nasty)
    return FieldTerm((draw(part), draw(part)), draw(part))


@st.composite
def hmms(
    draw,
    max_positions: int = 4,
    max_states: int = 4,
    allow_zeros: bool = True,
):
    """A random small HMM with explicit (possibly zero) factor matrices."""
    m = draw(st.integers(min_value=1, max_value=max_positions))
    sizes = [
        draw(st.integers(min_value=1, max_value=max_states)) for _ in range(m)
    ]
    low = 0.0 if allow_zeros else 0.01
    weight = st.floats(
        min_value=low, max_value=1.0, allow_nan=False, allow_infinity=False
    )

    states: List[List[CandidateState]] = []
    for i, n in enumerate(sizes):
        states.append([
            CandidateState(
                kind=StateKind.SIMILAR,
                node_id=i * max_states + j,
                text=f"t{i}_{j}",
                sim=draw(weight),
            )
            for j in range(n)
        ])

    pi_raw = np.array([draw(weight) for _ in range(sizes[0])])
    if pi_raw.sum() == 0:
        pi_raw[0] = 1.0
    pi = pi_raw / pi_raw.sum()

    emissions = []
    for n in sizes:
        e_raw = np.array([draw(weight) for _ in range(n)])
        if e_raw.sum() == 0:
            e_raw[0] = 1.0
        emissions.append(e_raw / e_raw.sum())

    transitions = []
    for i in range(1, m):
        t = np.array(
            [[draw(weight) for _ in range(sizes[i])] for _ in range(sizes[i - 1])]
        )
        transitions.append(t)

    return ReformulationHMM(
        query=tuple(f"q{i}" for i in range(m)),
        states=states,
        pi=pi,
        emissions=emissions,
        transitions=transitions,
    )


# --------------------------------------------------------------------------- #
# Adversarial instances for the decode oracle (tests/decode_oracle.py)
# --------------------------------------------------------------------------- #

#: k values exercised against the oracle; tests additionally probe
#: k > search_space explicitly.
topk_values = st.integers(min_value=1, max_value=12)


def _weight_strategy(profile: str):
    """Per-profile raw weight distributions."""
    positive = st.floats(
        min_value=0.01, max_value=1.0, allow_nan=False, allow_infinity=False
    )
    if profile == "zero_heavy":
        # Zeros dominate: exercises impossible paths, -inf log lanes and
        # the zero-score tail of the tie-break contract.
        return st.one_of(st.just(0.0), st.just(0.0), positive)
    if profile == "skewed":
        # Magnitudes spread over 12 decades: near-degenerate priorities
        # for A*'s heuristic and heavy truncation pressure for the DP.
        return st.integers(min_value=0, max_value=12).map(lambda e: 10.0 ** -e)
    if profile == "tied_palette":
        # A tiny value palette manufactures exact score collisions from
        # *different* factor multisets (0.5·0.5 == 0.25·1.0), the hard
        # case for deterministic tie-breaking.
        return st.sampled_from([0.0, 0.25, 0.5, 1.0])
    return st.floats(
        min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False
    )


@st.composite
def hmm_instances(
    draw,
    max_positions: int = 4,
    max_states: int = 5,
):
    """Adversarial HMMs for the differential decode oracle.

    On top of :func:`hmms` this draws weight *profiles* (zero-heavy,
    magnitude-skewed, tied palettes), biases position sizes toward the
    degenerate single-candidate case, covers 1-keyword queries, and can
    *twin* a position's first two states — identical raw π/emission
    weights and identical transition rows/columns — so that twin paths
    have elementwise-identical factor sequences and therefore collide
    exactly in both probability and log space.
    """
    profile = draw(
        st.sampled_from(["uniform", "zero_heavy", "skewed", "tied_palette"])
    )
    weight = _weight_strategy(profile)
    m = draw(st.integers(min_value=1, max_value=max_positions))
    one_biased = st.one_of(
        st.just(1), st.integers(min_value=1, max_value=max_states)
    )
    sizes = [draw(one_biased) for _ in range(m)]
    # Twin the first two states of these positions (needs >= 2 states).
    twinned = [
        sizes[i] >= 2 and draw(st.booleans()) for i in range(m)
    ]

    states: List[List[CandidateState]] = []
    for i, n in enumerate(sizes):
        states.append([
            CandidateState(
                kind=StateKind.SIMILAR,
                node_id=i * max_states + j,
                text=f"t{i}_{j}",
                sim=1.0,
            )
            for j in range(n)
        ])

    pi_raw = np.array([draw(weight) for _ in range(sizes[0])], dtype=np.float64)
    emissions_raw = [
        np.array([draw(weight) for _ in range(n)], dtype=np.float64)
        for n in sizes
    ]
    transitions = [
        np.array(
            [[draw(weight) for _ in range(sizes[i])] for _ in range(sizes[i - 1])],
            dtype=np.float64,
        )
        for i in range(1, m)
    ]

    # Apply the twinning *before* normalization: equal numerators over a
    # shared divisor stay equal, so the twins survive as exact ties.
    for i, twin in enumerate(twinned):
        if not twin:
            continue
        if i == 0:
            pi_raw[1] = pi_raw[0]
        emissions_raw[i][1] = emissions_raw[i][0]
        if i > 0:
            transitions[i - 1][:, 1] = transitions[i - 1][:, 0]
        if i < m - 1:
            transitions[i][1, :] = transitions[i][0, :]

    if pi_raw.sum() == 0:
        pi_raw[:] = 1.0
    pi = pi_raw / pi_raw.sum()
    emissions = []
    for e_raw in emissions_raw:
        if e_raw.sum() == 0:
            e_raw[:] = 1.0
        emissions.append(e_raw / e_raw.sum())

    return ReformulationHMM(
        query=tuple(f"q{i}" for i in range(m)),
        states=states,
        pi=pi,
        emissions=emissions,
        transitions=transitions,
    )


@st.composite
def labelled_instances(draw, vocabulary=("a", "b", "c")):
    """``(keywords, hmm)``: an :func:`hmm_instances` HMM whose states are
    relabelled from a tiny vocabulary (plus void states), with query
    keywords from the same vocabulary — so identity paths, paths that
    repeat a term and paths with equal text all occur."""
    hmm = draw(hmm_instances())
    labels = st.sampled_from(vocabulary + (None,))
    states = [
        [
            CandidateState(
                kind=StateKind.SIMILAR if text is not None else StateKind.VOID,
                node_id=state.node_id if text is not None else None,
                text=text,
                sim=1.0,
            )
            for state, text in ((s, draw(labels)) for s in position)
        ]
        for position in hmm.states
    ]
    keywords = tuple(
        draw(st.sampled_from(vocabulary)) for _ in range(hmm.length)
    )
    return keywords, ReformulationHMM(
        query=keywords,
        states=states,
        pi=hmm.pi,
        emissions=hmm.emissions,
        transitions=hmm.transitions,
    )
