"""The lane subsystem: bit-identity, relaxation, schema binding, routing.

The load-bearing contract is the first class: the ``hmm`` lane is a
*pure wrapper* over :class:`~repro.core.reformulator.Reformulator`, so
its suggestions must be bit-identical to the bare pipeline for every
decode algorithm — the lane adds measurement, never behavior.

The relaxation tests run on a corpus **engineered to have no cohesive
substitution**: two disconnected topic islands (disjoint vocabularies,
conferences and authors, no cross-island foreign keys), so the raw
closeness between any cross-island term pair is exactly 0 and every
cross-island query trips the cohesion threshold.
"""

import pytest

from repro.core.candidates import StateKind
from repro.core.enumeration import RankBasedReformulator
from repro.core.reformulator import ALGORITHMS, Reformulator, ReformulatorConfig
from repro.errors import ReformulationError, ReproError
from repro.graph.tat import TATGraph
from repro.index.inverted import InvertedIndex
from repro.lanes import (
    BadRequestError,
    EnumerationLane,
    HmmLane,
    LaneRouter,
    RelaxationLane,
    Request,
    RouterConfig,
    SchemaLane,
    UnknownLaneError,
    build_router,
    derive_field_vocabulary,
    query_cohesion,
)
from repro.live import LiveReformulator
from repro.storage.database import Database

from tests.conftest import build_toy_database, toy_schema

QUERIES = [
    ["probabilistic", "query"],
    ["uncertain", "data"],
    ["pattern", "mining"],
    ["probabilistic", "pattern", "mining"],
    ["probabilistic"],
]


def build_islands_database() -> Database:
    """Two topic islands with no connecting tuple path.

    Island A (vldb / ann): "skyline fusion ranking" and "skyline ranking
    methods".  Island B (icdm / bob): "crowdsourcing label quality" and
    "crowdsourcing quality control".  Vocabularies, venues and authors
    are disjoint, so the raw closeness across islands is exactly 0 —
    any cross-island query has no cohesive substitution at all.
    """
    database = Database(toy_schema())
    database.insert("conferences", {"cid": 0, "name": "vldb"})
    database.insert("conferences", {"cid": 1, "name": "icdm"})
    database.insert("authors", {"aid": 0, "name": "ann"})
    database.insert("authors", {"aid": 1, "name": "bob"})
    database.insert("papers", {
        "pid": 0, "title": "skyline fusion ranking", "cid": 0, "year": 2010,
    })
    database.insert("papers", {
        "pid": 1, "title": "skyline ranking methods", "cid": 0, "year": 2011,
    })
    database.insert("papers", {
        "pid": 2, "title": "crowdsourcing label quality", "cid": 1,
        "year": 2009,
    })
    database.insert("papers", {
        "pid": 3, "title": "crowdsourcing quality control", "cid": 1,
        "year": 2012,
    })
    database.insert("writes", {"wid": 0, "aid": 0, "pid": 0})
    database.insert("writes", {"wid": 1, "aid": 0, "pid": 1})
    database.insert("writes", {"wid": 2, "aid": 1, "pid": 2})
    database.insert("writes", {"wid": 3, "aid": 1, "pid": 3})
    return database


def make_pipeline(database: Database) -> Reformulator:
    graph = TATGraph(database, InvertedIndex(database).build())
    return Reformulator(graph, ReformulatorConfig(n_candidates=6))


@pytest.fixture(scope="module")
def pipeline() -> Reformulator:
    return make_pipeline(build_toy_database())


@pytest.fixture(scope="module")
def islands() -> Reformulator:
    return make_pipeline(build_islands_database())


class TestHmmLaneBitIdentity:
    """The hmm lane equals the bare pipeline, every algorithm, bit for bit."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("keywords", QUERIES, ids="-".join)
    def test_single_query(self, pipeline, keywords, algorithm):
        lane = HmmLane(pipeline)
        routed = lane.reformulate(keywords, k=5, algorithm=algorithm)
        bare = pipeline.reformulate(keywords, k=5, algorithm=algorithm)
        assert list(routed.suggestions) == bare

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_batch(self, pipeline, algorithm):
        live = LiveReformulator(
            build_toy_database(), ReformulatorConfig(n_candidates=6)
        )
        log = QUERIES + QUERIES[:2]  # duplicates answer like the rest
        routed = live.route(
            [Request(q, k=5, lane="hmm", algorithm=algorithm) for q in log]
        )
        assert [list(r.suggestions) for r in routed] == [
            pipeline.reformulate(q, k=5, algorithm=algorithm) for q in log
        ]

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("keywords", QUERIES, ids="-".join)
    def test_through_router(self, pipeline, keywords, algorithm):
        router = build_router(pipeline)
        [routed] = router.route([Request(keywords, k=5, algorithm=algorithm)])
        assert routed.lane == "hmm" and routed.requested == "hmm"
        assert list(routed.suggestions) == pipeline.reformulate(
            keywords, k=5, algorithm=algorithm
        )

    def test_provenance_and_cohesion(self, pipeline):
        result = HmmLane(pipeline).reformulate(["pattern", "mining"], k=4)
        assert len(result.provenance) == len(result.suggestions) > 0
        assert all(
            p == {"lane": "hmm", "relaxed": False} for p in result.provenance
        )
        assert result.cohesion is not None and result.cohesion > 0.0
        assert result.relaxed is False


class TestEnumerationLane:
    """The rank-based baseline behind the lane interface."""

    def test_matches_rank_based_reformulator(self, pipeline):
        keywords = ["probabilistic", "pattern"]
        k = 5
        result = EnumerationLane(pipeline).reformulate(keywords, k=k)
        states = [
            pipeline.plan_cache.term_plan(kw).state_list for kw in keywords
        ] if pipeline.plan_cache is not None else (
            pipeline.candidates.build(keywords)
        )
        raw = RankBasedReformulator(states).topk(k + pipeline._slack(keywords))
        expected = pipeline._postprocess(keywords, raw, k)
        assert list(result.suggestions) == list(expected)

    def test_no_cohesion_so_never_falls_back(self, islands):
        """cohesion=None means the fallback chain must not trigger, even
        on a query with provably no cohesive substitution."""
        router = build_router(
            islands, RouterConfig(fallback_lane="relaxation")
        )
        [result] = router.route(
            [Request(["skyline", "crowdsourcing"], k=5, lane="enumeration")]
        )
        assert result.lane == "enumeration"
        assert result.cohesion is None
        assert result.fallback_from is None


class TestQueryCohesion:
    """The trigger metric for the relaxation fallback."""

    def test_single_keyword_is_trivially_cohesive(self, pipeline):
        best = pipeline.reformulate(["probabilistic"], k=1)[0]
        assert query_cohesion(pipeline, ["probabilistic"], best) == 1.0

    def test_no_suggestion_is_maximally_incohesive(self, pipeline):
        assert query_cohesion(pipeline, ["pattern", "mining"], None) == 0.0

    def test_unknown_term_scores_zero(self, pipeline):
        keywords = ["probabilistic", "zzghostzz"]
        best = pipeline.reformulate(keywords, k=1)[0]
        assert query_cohesion(pipeline, keywords, best) == 0.0

    def test_connected_terms_score_positive(self, pipeline):
        keywords = ["pattern", "mining"]
        best = pipeline.reformulate(keywords, k=1)[0]
        assert query_cohesion(pipeline, keywords, best) > 0.0

    def test_cross_island_terms_score_zero(self, islands):
        """No tuple path joins the islands: raw closeness is exactly 0."""
        keywords = ["skyline", "crowdsourcing"]
        best = islands.reformulate(keywords, k=1)[0]
        assert query_cohesion(islands, keywords, best) == 0.0


class _HmmStatesView:
    """Reference for :func:`query_cohesion`: a pipeline whose candidate
    lists are read off a freshly built HMM's states."""

    def __init__(self, pipeline: Reformulator) -> None:
        self.pipeline = pipeline
        self.closeness = pipeline.closeness

    def candidate_states(self, keywords):
        return None, self.pipeline.build_hmm(keywords).states


class TestCohesionReadsCandidateLists:
    """Cohesion reads the lists the decode used: same values as reading
    a second HMM's states, without assembling one."""

    @pytest.mark.parametrize("plan_cache", [True, False])
    def test_values_match_hmm_states(self, monkeypatch, plan_cache):
        import repro.lanes.hmm as hmm_module
        import repro.lanes.relaxation as relaxation_module

        config = ReformulatorConfig(
            n_candidates=6, enable_plan_cache=plan_cache
        )
        measured = []

        def checking(pipeline, keywords, best):
            value = query_cohesion(pipeline, keywords, best)
            assert value == query_cohesion(
                _HmmStatesView(pipeline), keywords, best
            )
            measured.append(value)
            return value

        monkeypatch.setattr(hmm_module, "query_cohesion", checking)
        monkeypatch.setattr(relaxation_module, "query_cohesion", checking)
        for database, queries in (
            (build_toy_database(), QUERIES),
            (build_islands_database(), [
                ["skyline", "crowdsourcing"],
                ["skyline", "ranking", "quality"],
                ["fusion", "zzghostzz", "label"],
            ]),
        ):
            graph = TATGraph(database, InvertedIndex(database).build())
            pipeline = Reformulator(graph, config)
            for keywords in queries:
                HmmLane(pipeline).reformulate(keywords, k=5)
                RelaxationLane(pipeline).reformulate(keywords, k=5)
        assert any(value == 0.0 for value in measured)
        assert any(0.0 < value < 1.0 for value in measured)

    @pytest.mark.parametrize("plan_cache", [True, False])
    def test_one_assemble_per_hmm_lane_miss(self, monkeypatch, plan_cache):
        from repro.core.hmm import ReformulationHMM

        live = LiveReformulator(
            build_toy_database(),
            ReformulatorConfig(n_candidates=6, enable_plan_cache=plan_cache),
        )
        live.pipeline()
        assembled = []
        original = ReformulationHMM.assemble

        def counting(*args, **kwargs):
            assembled.append(kwargs.get("query"))
            return original(*args, **kwargs)

        monkeypatch.setattr(
            ReformulationHMM, "assemble", staticmethod(counting)
        )
        for keywords in QUERIES:
            before = len(assembled)
            live.reformulate_lane(keywords, k=5, lane="hmm")
            assert len(assembled) == before + 1
        live.reformulate_lane(QUERIES[0], k=5, lane="hmm")  # a hit
        assert len(assembled) == len(QUERIES)


class TestRelaxationLane:
    """Wiese-style weakening when no cohesive substitution exists."""

    def test_cohesive_query_passes_through(self, pipeline):
        lane = RelaxationLane(pipeline)
        result = lane.reformulate(["pattern", "mining"], k=5)
        assert result.relaxed is False
        assert result.metadata.get("passthrough") == "hmm"
        base = HmmLane(pipeline).reformulate(["pattern", "mining"], k=5)
        assert result.suggestions == base.suggestions
        assert all(p["relaxed"] is False for p in result.provenance)

    def test_cross_island_query_is_relaxed(self, islands):
        result = RelaxationLane(islands).reformulate(
            ["skyline", "crowdsourcing"], k=5
        )
        assert result.relaxed is True
        assert len(result.suggestions) > 0
        for provenance in result.provenance:
            assert provenance["relaxed"] is True
            assert provenance["dropped"] or provenance["generalized"]

    def test_dropped_positions_stay_aligned(self, islands):
        """Dropped inputs survive as None terms / -1 path entries, so
        every suggestion stays positionally aligned with the query."""
        keywords = ["skyline", "crowdsourcing"]
        result = RelaxationLane(islands).reformulate(keywords, k=5)
        for scored, provenance in zip(result.suggestions, result.provenance):
            assert len(scored.terms) == len(keywords)
            dropped = provenance["dropped"]
            if not dropped:
                continue
            dropped_positions = {
                pos for pos, kw in enumerate(keywords) if kw in dropped
            }
            for pos in range(len(keywords)):
                if pos in dropped_positions:
                    assert scored.terms[pos] is None
                    assert scored.state_path[pos] == -1
                else:
                    assert scored.terms[pos] is not None
                    assert scored.state_path[pos] >= 0

    def test_unknown_term_is_dropped_first(self, pipeline):
        """An out-of-vocabulary term is the least informative: the idf
        weighting drops it before any known term."""
        result = RelaxationLane(pipeline).reformulate(
            ["pattern", "zzghostzz"], k=5
        )
        assert result.relaxed is True
        assert len(result.suggestions) > 0
        assert all(
            p["dropped"] == ["zzghostzz"]
            for p in result.provenance if p["dropped"]
        )

    def test_decode_cap_is_respected(self, islands):
        lane = RelaxationLane(islands, max_decodes=2)
        result = lane.reformulate(["skyline", "crowdsourcing"], k=10)
        # out_of_budget is checked before each variant; a drop round may
        # add the follow-up substitution decode, hence the +1 slack.
        assert result.metadata["decodes"] <= lane.max_decodes + 1

    def test_exhausted_budget_returns_empty(self, islands):
        result = RelaxationLane(islands).reformulate(
            ["skyline", "crowdsourcing"], k=5, budget=1e-12
        )
        assert result.suggestions == ()
        assert result.relaxed is False


class TestSchemaLane:
    """Schema keywords bind fields and constrain the candidate space."""

    @pytest.fixture(scope="class")
    def lane(self, pipeline):
        return SchemaLane(
            pipeline, derive_field_vocabulary(pipeline.graph.database)
        )

    def test_schema_token_binds_next_keyword(self, lane):
        reduced, bindings, tokens = lane.detect_bindings(
            ["author", "ann", "pattern"]
        )
        assert reduced == ["ann", "pattern"]
        assert bindings == {0: ("authors", "name")}
        assert tokens == ["author"]

    def test_trailing_schema_token_binds_nothing(self, lane):
        reduced, bindings, tokens = lane.detect_bindings(["pattern", "author"])
        assert reduced == ["pattern"]
        assert bindings == {}
        assert tokens == ["author"]

    def test_detection_is_case_insensitive(self, lane):
        _, bindings, tokens = lane.detect_bindings(["Author", "ann"])
        assert bindings == {0: ("authors", "name")}
        assert tokens == ["Author"]

    def test_all_schema_query_is_an_error(self, lane):
        with pytest.raises(ReformulationError):
            lane.reformulate(["author", "paper"], k=3)

    def test_no_schema_tokens_behaves_like_hmm(self, lane, pipeline):
        result = lane.reformulate(["pattern", "mining"], k=5)
        base = HmmLane(pipeline).reformulate(["pattern", "mining"], k=5)
        assert result.suggestions == base.suggestions
        assert result.metadata["bindings"] == {}

    def test_bound_decode_drops_schema_token(self, lane, pipeline):
        """The schema token is consumed, not decoded: suggestions match
        the reduced query (the constraint is vacuous here — every
        similar of "ann" is already an author name)."""
        result = lane.reformulate(["author", "ann", "pattern"], k=5)
        expected = pipeline.reformulate(["ann", "pattern"], k=5)
        assert list(result.suggestions) == expected
        assert result.metadata["decoded_query"] == ["ann", "pattern"]
        assert result.metadata["bindings"] == {"ann": ["authors", "name"]}
        assert result.metadata["schema_tokens"] == ["author"]

    def test_foreign_field_binding_pins_the_original(self, lane):
        """Binding "pattern" to conferences.name filters every SIMILAR
        candidate (all live in papers.title), so the bound position can
        only keep the word as typed (or delete it)."""
        result = lane.reformulate(["conference", "pattern", "mining"], k=6)
        assert len(result.suggestions) > 0
        for scored in result.suggestions:
            assert scored.terms[0] in ("pattern", None)

    def test_constrain_filters_similars_by_node_class(self, lane, pipeline):
        states = pipeline.candidates.build(["pattern"])[0]
        foreign = lane._constrain(states, ("conferences", "name"))
        assert all(s.kind is not StateKind.SIMILAR for s in foreign)
        assert any(s.kind is StateKind.ORIGINAL for s in foreign)
        native = lane._constrain(states, ("papers", "title"))
        assert native == list(states)
        assert lane._constrain(states, None) is states

    def test_derived_vocabulary_drops_ambiguous_keys(self, pipeline):
        vocabulary = derive_field_vocabulary(pipeline.graph.database)
        # "name" is claimed by authors and conferences: never guess.
        assert "name" not in vocabulary
        assert vocabulary["author"] == ("authors", "name")
        assert vocabulary["authors"] == ("authors", "name")
        assert vocabulary["title"] == ("papers", "title")
        # "writes" has no text fields, so it claims nothing.
        assert "writes" not in vocabulary


class TestRouterConfig:
    """Validation, lane resolution and the cache-tag scheme."""

    @pytest.mark.parametrize("bad", [
        {"lanes": ()},
        {"lanes": ("hmm", "warp")},
        {"lanes": ("hmm", "hmm")},
        {"default_lane": "schema", "lanes": ("hmm",)},
        {"fallback_lane": "relaxation", "lanes": ("hmm",)},
        {"cohesion_threshold": -1.0},
        {"max_relaxation_decodes": 0},
        {"climb_width": -1},
    ])
    def test_validate_rejects(self, bad):
        with pytest.raises(ReproError):
            RouterConfig(**bad).validate()

    def test_resolve_defaults_and_rejects(self):
        config = RouterConfig(lanes=("hmm", "relaxation"))
        assert config.resolve(None) == "hmm"
        assert config.resolve("relaxation") == "relaxation"
        with pytest.raises(UnknownLaneError):
            config.resolve("schema")

    def test_cache_tag_encodes_the_fallback_chain(self):
        plain = RouterConfig()
        assert plain.cache_tag("hmm") == "hmm"
        chained = RouterConfig(fallback_lane="relaxation")
        assert chained.cache_tag("hmm") == "hmm>relaxation@1e-09"
        # The fallback lane itself cannot be replaced by the chain.
        assert chained.cache_tag("relaxation") == "relaxation"


class TestRequest:
    """The validated request value every caller builds."""

    def test_defaults_and_normalization(self):
        request = Request(["pattern", "mining"])
        assert request.keywords == ("pattern", "mining")
        assert (request.k, request.lane, request.algorithm, request.budget) == (
            10, None, "astar", None
        )
        assert Request(("pattern",), 3, "hmm", "viterbi_topk", 0.5).budget == 0.5

    @pytest.mark.parametrize("fields", [
        {"keywords": []},
        {"keywords": "pattern"},
        {"keywords": ["pattern", ""]},
        {"keywords": ["pattern", 7]},
        {"k": 0},
        {"k": 2.0},
        {"k": True},
        {"lane": 7},
        {"algorithm": "bogus"},
        {"algorithm": ["astar"]},
        {"budget": 0},
        {"budget": -1.0},
        {"budget": True},
        {"budget": "1"},
    ])
    def test_rejects(self, fields):
        arguments = {"keywords": ["pattern"], **fields}
        with pytest.raises(BadRequestError):
            Request(**arguments)


class TestLaneRouter:
    """Dispatch, fallback chaining and provenance stamping."""

    def test_unknown_lane_raises(self, pipeline):
        router = build_router(
            pipeline, RouterConfig(lanes=("hmm", "relaxation"))
        )
        with pytest.raises(UnknownLaneError):
            router.route([Request(["pattern"], lane="schema")])
        with pytest.raises(UnknownLaneError):
            router.route([Request(["pattern"], lane="warp")])

    def test_duplicate_registration_raises(self, pipeline):
        router = LaneRouter(RouterConfig(lanes=("hmm",)))
        router.register(HmmLane(pipeline))
        with pytest.raises(ReproError):
            router.register(HmmLane(pipeline))

    def test_registration_order_is_names_order(self, pipeline):
        router = build_router(pipeline)
        assert router.names == ("hmm", "enumeration", "relaxation", "schema")

    def test_fallback_chain_on_incohesive_query(self, islands):
        router = build_router(
            islands, RouterConfig(fallback_lane="relaxation")
        )
        [result] = router.route(
            [Request(["skyline", "crowdsourcing"], k=5, lane="hmm")]
        )
        assert result.lane == "relaxation"
        assert result.requested == "hmm"
        assert result.fallback_from == "hmm"
        assert result.relaxed is True
        assert len(result.suggestions) > 0

    def test_cohesive_query_does_not_fall_back(self, islands):
        router = build_router(
            islands, RouterConfig(fallback_lane="relaxation")
        )
        [result] = router.route(
            [Request(["skyline", "ranking"], k=5, lane="hmm")]
        )
        assert result.lane == "hmm"
        assert result.fallback_from is None

    def test_route_many_applies_fallback_per_entry(self, islands):
        router = build_router(
            islands, RouterConfig(fallback_lane="relaxation")
        )
        incohesive, cohesive = ["skyline", "crowdsourcing"], ["skyline", "ranking"]
        results = router.route([
            Request(incohesive, k=5, lane="hmm"),
            Request(cohesive, k=5, lane="hmm"),
        ])
        assert [r.lane for r in results] == ["relaxation", "hmm"]
        assert [r.fallback_from for r in results] == ["hmm", None]
        assert results[1].suggestions == tuple(
            islands.reformulate(cohesive, k=5)
        )


class TestLaneReplay:
    """The eval harness's replay and coverage go through one route call."""

    def test_replay_and_fallback_coverage(self, islands):
        from repro.eval.lanes import fallback_coverage, replay_lane

        router = build_router(
            islands, RouterConfig(lanes=("hmm", "relaxation"))
        )
        queries = [["skyline", "crowdsourcing"], ["skyline", "ranking"]]
        results = replay_lane(router, queries, "hmm", k=5)
        assert [result.suggestions for result in results] == [
            tuple(islands.reformulate(query, k=5)) for query in queries
        ]
        coverage = fallback_coverage(router, queries, k=5)
        assert (
            coverage.n_queries, coverage.n_low_cohesion, coverage.n_answered
        ) == (2, 1, 1)
