"""Online query-reformulation core: HMM, Viterbi, A*, baselines."""

from repro.core.astar import AStarOutcome, astar_topk, backward_heuristic
from repro.core.candidates import (
    CandidateListBuilder,
    CandidateState,
    StateKind,
)
from repro.core.diversify import (
    distinct_term_coverage,
    keyword_overlap,
    mmr_diversify,
)
from repro.core.enumeration import RankBasedReformulator, brute_force_topk
from repro.core.explain import (
    ExplainResult,
    PositionBreakdown,
    SuggestionExplanation,
    explain_hmm_path,
    explain_rank_path,
)
from repro.core.queryparse import ParsedQuery, QueryParser
from repro.core.hmm import IndexFrequency, ReformulationHMM
from repro.core.reformulator import (
    ALGORITHMS,
    METHODS,
    Reformulator,
    ReformulatorConfig,
    decode_topk,
)
from repro.core.scoring import (
    ScoredQuery,
    aggregate_similarity,
    normalize_distribution,
    smooth_factors,
    smooth_rows,
)
from repro.core.viterbi import viterbi_topk

__all__ = [
    "AStarOutcome",
    "astar_topk",
    "backward_heuristic",
    "CandidateListBuilder",
    "CandidateState",
    "StateKind",
    "distinct_term_coverage",
    "keyword_overlap",
    "mmr_diversify",
    "ParsedQuery",
    "QueryParser",
    "RankBasedReformulator",
    "brute_force_topk",
    "ExplainResult",
    "PositionBreakdown",
    "SuggestionExplanation",
    "explain_hmm_path",
    "explain_rank_path",
    "IndexFrequency",
    "ReformulationHMM",
    "ALGORITHMS",
    "METHODS",
    "Reformulator",
    "ReformulatorConfig",
    "decode_topk",
    "ScoredQuery",
    "aggregate_similarity",
    "normalize_distribution",
    "smooth_factors",
    "smooth_rows",
    "viterbi_topk",
]
