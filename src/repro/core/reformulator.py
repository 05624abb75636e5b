"""Public facade: end-to-end keyword query reformulation.

Wires the offline stage (TAT graph, contextual random walk similarity,
closeness extraction) to the online stage (HMM + top-k decoding) behind
one object::

    from repro import Reformulator, synthesize_dblp

    corpus = synthesize_dblp()
    reformulator = Reformulator.from_database(corpus.database)
    for query in reformulator.reformulate(["probabilistic", "query"], k=5):
        print(query.text, query.score)

Three interchangeable method configurations mirror the paper's
experimental arms:

* ``method="tat"`` — contextual random-walk similarity + HMM (the paper's
  approach, "TAT-based Reformulation");
* ``method="cooccurrence"`` — same HMM but co-occurrence similarity
  (the "Co-occurrence reformulation" baseline);
* ``method="rank"`` — similarity-only combination without the HMM
  (the "Rank-based reformulation" baseline).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple, Union,
)

from repro import obs
from repro.core.astar import AStarOutcome, AStarSearch, astar_topk
from repro.core.candidates import CandidateListBuilder, CandidateState
from repro.core.enumeration import RankBasedReformulator, brute_force_topk
from repro.core.explain import (
    ExplainResult,
    explain_hmm_path,
    explain_rank_path,
)
from repro.core.hmm import IndexFrequency, ReformulationHMM
from repro.core.scoring import ScoredQuery
from repro.core.viterbi import viterbi_topk
from repro.errors import ReformulationError
from repro.obs.trace import Tracer
from repro.graph.closeness import ClosenessExtractor
from repro.graph.cooccurrence import CooccurrenceSimilarity
from repro.graph.similarity import SimilarityExtractor
from repro.graph.tat import TATGraph
from repro.index.analyzer import Analyzer
from repro.index.inverted import InvertedIndex
from repro.storage.database import Database

if TYPE_CHECKING:
    from repro.serving.plan_cache import TermPlan

METHODS = ("tat", "cooccurrence", "rank")
#: ``*_log`` variants decode in log space (sums over matrices logged
#: once, cached in the HMM/plan-cache) — same results, no underflow.
ALGORITHMS = (
    "astar", "viterbi_topk", "brute_force", "astar_log", "viterbi_topk_log",
)


def decode_topk(
    hmm: ReformulationHMM, k: int, algorithm: str
) -> Tuple[List[ScoredQuery], Optional[AStarOutcome]]:
    """Top-k paths of *hmm* under one of :data:`ALGORITHMS`, best first.

    The second item is the A* outcome (stage timings and frontier
    counters) for the ``astar*`` algorithms and ``None`` otherwise.
    brute_force is the exhaustive oracle the decoders are checked
    against.
    """
    if algorithm not in ALGORITHMS:
        raise ReformulationError(
            f"unknown algorithm {algorithm!r}, expected one of {ALGORITHMS}"
        )
    log_space = algorithm.endswith("_log")
    if algorithm.startswith("astar"):
        outcome = astar_topk(hmm, k, log_space=log_space)
        return outcome.queries, outcome
    if algorithm.startswith("viterbi_topk"):
        return viterbi_topk(hmm, k, log_space=log_space), None
    return brute_force_topk(hmm, k), None


@dataclass(frozen=True)
class ReformulatorConfig:
    """All tunables of the pipeline in one place."""

    method: str = "tat"
    n_candidates: int = 10
    include_original: bool = True
    include_void: bool = False
    smoothing_lambda: float = 0.8
    damping: float = 0.85
    closeness_depth: int = 4
    closeness_beam: Optional[int] = 2000
    drop_identity: bool = True
    dedup_text: bool = True
    #: Definition 2: a keyword query consists of *distinct* keywords, so a
    #: reformulation that repeats a term is not a valid query.
    drop_repeated_terms: bool = True
    #: When set (0 < λ ≤ 1), re-rank suggestions with MMR diversification
    #: at this relevance/diversity trade-off; None keeps pure score order.
    diversify_trade_off: Optional[float] = None
    #: Serving fast path: memoize per-term candidate/frequency/similarity
    #: blocks and per-pair closeness sub-matrices across queries.  Cached
    #: and uncached pipelines return bit-identical suggestions.
    enable_plan_cache: bool = True
    #: LRU capacities of the plan cache's two layers.
    plan_cache_terms: int = 512
    plan_cache_pairs: int = 2048
    #: Capacity of the query-level result LRU kept by LiveReformulator
    #: (0 disables result caching; plain Reformulator has no result LRU).
    result_cache_size: int = 1024

    def validate(self) -> None:
        """Raise on out-of-range configuration values."""
        if self.method not in METHODS:
            raise ReformulationError(
                f"unknown method {self.method!r}, expected one of {METHODS}"
            )
        if self.n_candidates < 1:
            raise ReformulationError("n_candidates must be >= 1")
        if self.enable_plan_cache and (
            self.plan_cache_terms < 1 or self.plan_cache_pairs < 1
        ):
            raise ReformulationError("plan cache capacities must be >= 1")
        if self.result_cache_size < 0:
            raise ReformulationError("result_cache_size must be >= 0")

    def plan_knobs(self) -> Tuple:
        """Fingerprint of every config value the cached plan blocks
        depend on (part of each plan-cache key)."""
        return (
            self.method,
            self.n_candidates,
            self.include_original,
            self.include_void,
            self.smoothing_lambda,
        )


class Reformulator:
    """End-to-end keyword query reformulation over one database."""

    def __init__(
        self,
        graph: TATGraph,
        config: Optional[ReformulatorConfig] = None,
        similarity=None,
        closeness=None,
    ) -> None:
        """Wire the online stage.

        ``similarity`` and ``closeness`` default to live extractors over
        *graph*; pass a precomputed
        :class:`~repro.offline.TermRelationStore` for both to serve
        queries purely from materialized relations.
        """
        self.config = config or ReformulatorConfig()
        self.config.validate()
        self.graph = graph
        if similarity is not None:
            self.similarity = similarity
        elif self.config.method == "cooccurrence":
            self.similarity = CooccurrenceSimilarity(graph)
        else:
            from repro.graph.randomwalk import RandomWalkEngine

            self.similarity = SimilarityExtractor(
                graph,
                engine=RandomWalkEngine(
                    graph.adjacency, damping=self.config.damping
                ),
            )
        self.closeness = closeness or ClosenessExtractor(
            graph,
            max_depth=self.config.closeness_depth,
            beam_width=self.config.closeness_beam,
        )
        self.candidates = CandidateListBuilder(
            graph,
            self.similarity,
            n_candidates=self.config.n_candidates,
            include_original=self.config.include_original,
            include_void=self.config.include_void,
        )
        self.frequency = IndexFrequency(graph)
        if self.config.enable_plan_cache:
            from repro.serving.plan_cache import PlanCache

            self.plan_cache: Optional[PlanCache] = PlanCache(
                candidates=self.candidates,
                closeness=self.closeness,
                frequency=self.frequency,
                smoothing_lambda=self.config.smoothing_lambda,
                max_terms=self.config.plan_cache_terms,
                max_pairs=self.config.plan_cache_pairs,
                knobs=self.config.plan_knobs(),
            )
        else:
            self.plan_cache = None
        self._parser = None

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_database(
        cls,
        database: Database,
        config: Optional[ReformulatorConfig] = None,
        analyzer: Optional[Analyzer] = None,
    ) -> "Reformulator":
        """Build index + TAT graph from a raw database and wrap them."""
        index = InvertedIndex(database, analyzer=analyzer).build()
        graph = TATGraph(database, index)
        return cls(graph, config)

    # ------------------------------------------------------------------ #
    # online stage
    # ------------------------------------------------------------------ #

    def build_hmm(self, keywords: Sequence[str]) -> ReformulationHMM:
        """Candidate extraction + HMM parameterization for one query.

        With the plan cache enabled the HMM is assembled from memoized
        per-term/per-pair blocks (bit-identical to the fresh build).
        """
        keywords = list(keywords)
        if self.plan_cache is not None:
            return self.plan_cache.build_hmm(keywords)
        states = self.candidates.build(keywords)
        return ReformulationHMM.build(
            query=keywords,
            states=states,
            closeness=self.closeness,
            frequency=self.frequency,
            smoothing_lambda=self.config.smoothing_lambda,
        )

    def candidate_states(
        self, keywords: Sequence[str]
    ) -> Tuple[Optional[List["TermPlan"]], List[List[CandidateState]]]:
        """The term plans and per-position candidate lists ``L(q_i)``
        that the decode of *keywords* reads.

        With the plan cache on, both come from its term layer; without
        it the lists are built fresh and the plans are ``None``.
        """
        if self.plan_cache is not None:
            plans = [self.plan_cache.term_plan(kw) for kw in keywords]
            return plans, [plan.state_list for plan in plans]
        return None, self.candidates.build(list(keywords))

    def reformulate(
        self,
        keywords: Sequence[str],
        k: int = 10,
        algorithm: str = "astar",
        explain: bool = False,
    ) -> Union[List[ScoredQuery], ExplainResult]:
        """Top-k reformulated queries for *keywords*, best first.

        With ``explain=True`` the return value is an
        :class:`~repro.core.explain.ExplainResult`: the same suggestions
        plus a per-position score decomposition (Eq 7-10 factors) and
        the request's span tree, recorded regardless of the global
        observability switch.
        """
        if explain:
            return self.explain(keywords, k=k, algorithm=algorithm)
        enabled = obs.is_enabled()
        start = time.perf_counter() if enabled else 0.0
        with obs.span(
            "reformulate",
            method=self.config.method,
            algorithm=algorithm,
            k=k,
        ) as root:
            out = self._run(list(keywords), k, algorithm, obs.span, None)
            root.set_attribute("n_suggestions", len(out))
        if enabled:
            registry = obs.registry()
            registry.counter(
                "repro_reformulate_requests_total",
                "Reformulation requests served",
                method=self.config.method,
                algorithm=algorithm,
            ).inc()
            registry.histogram(
                "repro_reformulate_seconds",
                "End-to-end reformulate latency",
            ).observe(time.perf_counter() - start)
        return out

    def explain(
        self,
        query: Union[str, Sequence[str]],
        k: int = 10,
        algorithm: str = "astar",
    ) -> ExplainResult:
        """Reformulate with a full trace and score decomposition.

        *query* may be a raw string (segmented against the corpus
        vocabulary by :attr:`parser`, so multi-word atomic terms such as
        author names survive as single keywords) or a pre-tokenized
        keyword sequence.  A dedicated tracer records the span tree even
        when the global observability switch is off, so explain mode is
        always available as a paper-reproduction debugging tool.
        """
        tracer = Tracer()
        detail: Dict[str, object] = {}
        with tracer.span(
            "reformulate",
            method=self.config.method,
            algorithm=algorithm,
            k=k,
            explain=True,
        ) as root:
            with tracer.span("parse") as sp:
                if isinstance(query, str):
                    parsed = self.parser.parse(query)
                    keywords = list(parsed.keywords)
                    sp.set_attribute("raw", query)
                else:
                    keywords = list(query)
                    sp.set_attribute("pre_tokenized", True)
                sp.set_attribute("keywords", list(keywords))
            if not keywords:
                raise ReformulationError(f"query {query!r} has no keywords")
            suggestions = self._run(
                keywords, k, algorithm, tracer.span, detail
            )
            root.set_attribute("n_suggestions", len(suggestions))
        if "hmm" in detail:
            hmm: ReformulationHMM = detail["hmm"]  # type: ignore[assignment]
            explanations = [
                explain_hmm_path(hmm, suggestion)
                for suggestion in suggestions
            ]
        else:
            ranker: RankBasedReformulator = detail["rank"]  # type: ignore[assignment]
            explanations = [
                explain_rank_path(ranker.sorted_states, keywords, suggestion)
                for suggestion in suggestions
            ]
        return ExplainResult(
            query=tuple(keywords),
            suggestions=suggestions,
            explanations=explanations,
            trace=root,
            algorithm=algorithm if self.config.method != "rank" else "rank",
            method=self.config.method,
        )

    def _run(
        self,
        keywords: List[str],
        k: int,
        algorithm: str,
        span_fn,
        detail: Optional[Dict[str, object]],
    ) -> List[ScoredQuery]:
        """Shared instrumented pipeline behind reformulate/explain.

        *span_fn* is either the gated :func:`repro.obs.span` (normal
        serving: no-ops when the switch is off) or a dedicated tracer's
        ``span`` (explain mode: always recording).  *detail*, when given,
        receives the HMM (or rank combiner) for score decomposition.
        """
        if algorithm not in ALGORITHMS:
            raise ReformulationError(
                f"unknown algorithm {algorithm!r}, expected one of {ALGORITHMS}"
            )
        enabled = obs.is_enabled()
        with span_fn("candidates", n=self.config.n_candidates) as sp:
            plans, states = self.candidate_states(keywords)
            if plans is not None:
                sp.set_attribute("plan_cache", True)
            sizes = [len(lst) for lst in states]
            sp.set_attribute("sizes", sizes)
        if enabled:
            size_hist = obs.registry().histogram(
                "repro_candidates_per_position",
                "Candidate-list length per query position",
                buckets=[1, 2, 4, 8, 16, 32, 64, 128],
            )
            for size in sizes:
                size_hist.observe(size)

        if self.config.method == "rank":
            with span_fn("decode", algorithm="rank") as sp:
                ranker = RankBasedReformulator(states)
                raw = ranker.topk(k + self._slack(keywords))
                out = self._postprocess(keywords, raw, k)
                sp.set_attribute("raw_results", len(raw))
            if detail is not None:
                detail["rank"] = ranker
        else:
            with span_fn("hmm_build") as sp:
                if self.plan_cache is not None:
                    hmm = self.plan_cache.build_hmm(keywords, plans=plans)
                else:
                    hmm = ReformulationHMM.build(
                        query=keywords,
                        states=states,
                        closeness=self.closeness,
                        frequency=self.frequency,
                        smoothing_lambda=self.config.smoothing_lambda,
                    )
                sp.set_attribute("length", hmm.length)
                sp.set_attribute("search_space", hmm.search_space)
            with span_fn("decode", algorithm=algorithm) as sp:
                out, n_raw, search = self._decode(keywords, hmm, k, algorithm)
                if search is not None:
                    sp.set_attribute("expanded", search.expanded)
                    sp.set_attribute("pushed", search.pushed)
                    if enabled:
                        registry = obs.registry()
                        registry.counter(
                            "repro_astar_expanded_total",
                            "A* partial paths popped from IP",
                        ).inc(search.expanded)
                        registry.counter(
                            "repro_astar_pushed_total",
                            "A* partial paths pushed onto IP",
                        ).inc(search.pushed)
                sp.set_attribute("raw_results", n_raw)
            if detail is not None:
                detail["hmm"] = hmm

        # Filtering ran inside the decode span (A* feeds it path by path).
        with span_fn("postprocess") as sp:
            sp.set_attribute("kept", len(out))
        return out

    def _decode(
        self, keywords: Sequence[str], hmm: ReformulationHMM, k: int,
        algorithm: str,
    ) -> Tuple[List[ScoredQuery], int, Optional[AStarSearch]]:
        """``_postprocess(decode_topk(hmm, k + _slack), k)``, the paths
        decoded for it and the A* search (None if the algorithm cannot
        resume), which streams completions only until k survive."""
        ceiling = k + self._slack(keywords)
        if algorithm in ("astar", "astar_log"):
            search = AStarSearch(hmm, log_space=algorithm == "astar_log")
            out = self._postprocess(keywords, search.ranked(ceiling), k)
            return out, search.completed, search
        raw, _outcome = decode_topk(hmm, ceiling, algorithm)
        return self._postprocess(keywords, raw, k), len(raw), None

    @property
    def parser(self):
        """Lazily built raw-string query parser."""
        if self._parser is None:
            from repro.core.queryparse import QueryParser

            self._parser = QueryParser(self.graph)
        return self._parser

    def best(self, keywords: Sequence[str]) -> ScoredQuery:
        """The single best reformulation: rank 1 of Algorithm 2, i.e.
        the lexicographically smallest maximum-score path."""
        return viterbi_topk(self.build_hmm(keywords), 1)[0]

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    def _slack(self, keywords: Sequence[str]) -> int:
        """Paths beyond k that filtering may drop and MMR diversifies over:
        a ceiling for A*, an over-ask for Algorithm 2, brute force, rank."""
        slack = 0
        if self.config.drop_identity:
            slack += 1
        if self.config.dedup_text:
            slack += len(keywords)
        if self.config.drop_repeated_terms:
            slack += 2 * len(keywords)
        if self.config.diversify_trade_off is not None:
            slack += 20
        return slack

    def _postprocess(
        self,
        keywords: Sequence[str],
        raw: Iterable[ScoredQuery],
        k: int,
    ) -> List[ScoredQuery]:
        # With diversification MMR picks the final k from all of *raw*;
        # otherwise stop pulling from it as soon as k survive.
        original = " ".join(keywords)
        seen_texts = set()
        out: List[ScoredQuery] = []
        diversify = self.config.diversify_trade_off
        for query in raw:
            text = query.text
            if self.config.drop_identity and text == original:
                continue
            if self.config.drop_repeated_terms:
                kws = query.keywords
                if len(set(kws)) != len(kws):
                    continue
            if self.config.dedup_text:
                if text in seen_texts:
                    continue
                seen_texts.add(text)
            out.append(query)
            if diversify is None and len(out) >= k:
                break
        if diversify is not None:
            from repro.core.diversify import mmr_diversify

            return mmr_diversify(out, k, trade_off=diversify)
        return out
