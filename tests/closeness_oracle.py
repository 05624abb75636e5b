"""Per-cell Eq 8 oracle: the reference loop behind the block read.

:func:`repro.core.hmm.pair_closeness_matrix` fills the raw Eq 8
sub-matrix between two adjacent candidate lists with one
``closeness_block`` call plus masks.  This module keeps the scalar form
it replaced — one ``closeness(a, b)`` call per cell, the void / unknown
/ same-node precedence decided per cell — as the executable contract the
block read is checked against, byte for byte
(``tests/test_closeness_block.py``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.candidates import CandidateState


def reference_state_closeness(
    a: CandidateState,
    b: CandidateState,
    closeness,
    void_closeness: float,
) -> float:
    """Closeness between two candidate states, handling void/unknown."""
    if a.is_void or b.is_void:
        return void_closeness
    if a.node_id is None or b.node_id is None:
        return 0.0  # unknown original term: smoothing provides the floor
    if a.node_id == b.node_id:
        # A term repeated in adjacent positions never helps a keyword
        # query; clos(v,v) is 0 by Eq 3's path definition.
        return 0.0
    return max(0.0, closeness.closeness(a.node_id, b.node_id))


def reference_pair_closeness_matrix(
    prev: Sequence[CandidateState],
    curr: Sequence[CandidateState],
    closeness,
    void_closeness: float = 1e-4,
) -> np.ndarray:
    """Raw Eq 8 sub-matrix, one point lookup per cell."""
    raw = np.zeros((len(prev), len(curr)), dtype=np.float64)
    for a_idx, a in enumerate(prev):
        for b_idx, b in enumerate(curr):
            raw[a_idx, b_idx] = reference_state_closeness(
                a, b, closeness, void_closeness
            )
    return raw
