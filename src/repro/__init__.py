"""repro — reproduction of *Keyword Query Reformulation on Structured Data*
(Yao, Cui, Hua, Huang; ICDE 2012).

The package implements the paper's full pipeline plus every substrate it
depends on:

* :mod:`repro.storage` — in-memory relational engine (MySQL substitute);
* :mod:`repro.index` — field-aware inverted index (Lucene substitute);
* :mod:`repro.search` — keyword search over the tuple graph;
* :mod:`repro.graph` — TAT graph, contextual random walk, closeness;
* :mod:`repro.core` — HMM query generation, top-k Viterbi, A*;
* :mod:`repro.data` — deterministic synthetic DBLP corpus + workloads;
* :mod:`repro.server` — HTTP serving daemon with admission control,
  per-request deadlines and graceful degradation;
* :mod:`repro.eval` — metrics and simulated relevance judges;
* :mod:`repro.experiments` — drivers regenerating every table/figure.

Quickstart::

    from repro import Reformulator, synthesize_dblp

    corpus = synthesize_dblp()
    reformulator = Reformulator.from_database(corpus.database)
    for query in reformulator.reformulate(["probabilistic", "query"], k=5):
        print(f"{query.score:.2e}  {query.text}")
"""

from repro import obs
from repro.core import (
    ExplainResult,
    PositionBreakdown,
    Reformulator,
    ReformulatorConfig,
    ReformulationHMM,
    ScoredQuery,
    SuggestionExplanation,
    astar_topk,
    brute_force_topk,
    viterbi_topk,
)
from repro.data import (
    SynthConfig,
    SynthesizedCorpus,
    TopicModel,
    WorkloadGenerator,
    synthesize_dblp,
)
from repro.errors import ReproError
from repro.extensions import FacetedSuggester, FeedbackAdaptor
from repro.graph import (
    ClosenessExtractor,
    CooccurrenceSimilarity,
    RandomWalkEngine,
    SimilarityExtractor,
    TATGraph,
)
from repro.index import Analyzer, FieldTerm, InvertedIndex
from repro.live import LiveReformulator
from repro.index.phrases import (
    PhraseAnalyzer,
    PhraseModel,
    learn_phrases_from_database,
)
from repro.offline import OfflinePrecomputer, PrecomputeStats, TermRelationStore
from repro.offline_store import ShardedTermRelationStore, migrate_v1_to_v2
from repro.search import KeywordSearchEngine, ResultRanker, ResultSizeEstimator
from repro.server import ReformulationServer, ServerClient, ServerConfig
from repro.serving import PlanCache, ResultCache
from repro.storage import (
    Column,
    Database,
    DatabaseSchema,
    ForeignKey,
    TableSchema,
    TupleGraph,
)
from repro.storage.schemaspec import load_database, save_database
from repro.storage.triples import Literal, TripleStore

__version__ = "1.0.0"

__all__ = [
    "obs",
    "Reformulator",
    "ReformulatorConfig",
    "ReformulationHMM",
    "ScoredQuery",
    "ExplainResult",
    "PositionBreakdown",
    "SuggestionExplanation",
    "astar_topk",
    "brute_force_topk",
    "viterbi_topk",
    "SynthConfig",
    "SynthesizedCorpus",
    "TopicModel",
    "WorkloadGenerator",
    "synthesize_dblp",
    "ReproError",
    "ClosenessExtractor",
    "CooccurrenceSimilarity",
    "RandomWalkEngine",
    "SimilarityExtractor",
    "TATGraph",
    "Analyzer",
    "FieldTerm",
    "InvertedIndex",
    "KeywordSearchEngine",
    "ResultRanker",
    "ResultSizeEstimator",
    "Column",
    "Database",
    "DatabaseSchema",
    "ForeignKey",
    "TableSchema",
    "TupleGraph",
    "FacetedSuggester",
    "FeedbackAdaptor",
    "PhraseAnalyzer",
    "PhraseModel",
    "learn_phrases_from_database",
    "OfflinePrecomputer",
    "PrecomputeStats",
    "TermRelationStore",
    "ShardedTermRelationStore",
    "migrate_v1_to_v2",
    "load_database",
    "save_database",
    "Literal",
    "TripleStore",
    "PlanCache",
    "ResultCache",
    "LiveReformulator",
    "ReformulationServer",
    "ServerClient",
    "ServerConfig",
    "__version__",
]
