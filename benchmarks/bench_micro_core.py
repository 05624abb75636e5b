"""Micro-benchmarks of the core operations (proper multi-round timing).

These complement the table/figure macro-benches with stable per-operation
numbers: offline random walk, closeness extraction, HMM build, and the
three decoding algorithms on one fixed query.

The second half is the **decode-lane comparison**: a dense synthetic
n=200 HMM pushed through each production decoder and the plain-Python
reference loop kept beside it in ``tests/decode_oracle.py``, with
bit-identity asserted (each pair must agree exactly) and cold
single-query p50 speedups asserted (≥5x for the Viterbi lanes; A*
expands only ~k·m nodes so its floor is lower).  Script mode::

    PYTHONPATH=src python benchmarks/bench_micro_core.py \\
        --smoke --out BENCH_micro_core.json

runs the comparison standalone and writes the per-lane numbers as JSON
for the CI artifact.
"""

import os
import sys
import time

import numpy as np
import pytest

from repro.core.astar import astar_topk
from repro.core.candidates import CandidateState, StateKind
from repro.core.enumeration import RankBasedReformulator
from repro.core.hmm import ReformulationHMM
from repro.core.viterbi import viterbi_topk
from repro.graph.closeness import ClosenessExtractor
from repro.graph.randomwalk import RandomWalkEngine
from repro.graph.similarity import SimilarityExtractor
from repro.index.inverted import InvertedIndex

# The reference loops live with the oracle under tests/.
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from tests.decode_oracle import (  # noqa: E402
    reference_astar_topk,
    reference_viterbi_topk,
)

# --------------------------------------------------------------------------- #
# decode-lane comparison (reference loop vs production decoder)
# --------------------------------------------------------------------------- #

#: (lane, reference fn, production fn, minimum cold p50 speedup).
#: Measured on the n=200/m=4/k=10 instance: top-1 ~11x, topk ~7x,
#: astar ~3.5-4x; the asserted floors leave headroom for CI noise.
LANES = [
    ("viterbi_topk@k=1",
     lambda hmm, k: reference_viterbi_topk(hmm, 1),
     lambda hmm, k: viterbi_topk(hmm, 1),
     5.0),
    ("viterbi_topk",
     lambda hmm, k: reference_viterbi_topk(hmm, k),
     lambda hmm, k: viterbi_topk(hmm, k),
     5.0),
    ("viterbi_topk_log",
     lambda hmm, k: reference_viterbi_topk(hmm, k, log_space=True),
     lambda hmm, k: viterbi_topk(hmm, k, log_space=True),
     5.0),
    ("astar",
     lambda hmm, k: reference_astar_topk(hmm, k),
     lambda hmm, k: astar_topk(hmm, k).queries,
     1.5),
    ("astar_log",
     lambda hmm, k: reference_astar_topk(hmm, k, log_space=True),
     lambda hmm, k: astar_topk(hmm, k, log_space=True).queries,
     1.5),
]


def make_dense_hmm(n: int = 200, m: int = 4, seed: int = 0) -> ReformulationHMM:
    """A dense synthetic HMM: n candidates per position, all weights
    positive (no zero short-circuits), magnitudes in [0.01, 1]."""
    rng = np.random.RandomState(seed)
    states = [
        [
            CandidateState(StateKind.SIMILAR, i * n + j, f"t{i}_{j}", 1.0)
            for j in range(n)
        ]
        for i in range(m)
    ]
    pi = rng.uniform(0.01, 1.0, n)
    pi /= pi.sum()
    emissions = []
    for _ in range(m):
        e = rng.uniform(0.01, 1.0, n)
        emissions.append(e / e.sum())
    transitions = [rng.uniform(0.01, 1.0, (n, n)) for _ in range(m - 1)]
    return ReformulationHMM(
        query=tuple(f"q{i}" for i in range(m)),
        states=states,
        pi=pi,
        emissions=emissions,
        transitions=transitions,
    )


def _p50(fn, rounds: int) -> float:
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return sorted(times)[len(times) // 2]


def _signature(queries):
    return [(q.state_path, q.score) for q in queries]


def compare_lanes(n: int = 200, m: int = 4, k: int = 10, rounds: int = 3):
    """p50-per-lane comparison on one dense instance.

    Asserts each reference/production pair is bit-identical before
    timing anything — a fast wrong decoder is not a speedup.  Returns the
    per-lane report.
    """
    hmm = make_dense_hmm(n=n, m=m, seed=0)
    hmm.log_transitions  # warm the cached log lane out-of-band
    report = {"n": n, "m": m, "k": k, "rounds": rounds, "lanes": {}}
    for name, ref, prod, _floor in LANES:
        assert _signature(ref(hmm, k)) == _signature(prod(hmm, k)), (
            f"{name}: reference loop and production decoder diverged"
        )
    for name, ref, prod, _floor in LANES:
        ref_p50 = _p50(lambda: ref(hmm, k), rounds)
        prod_p50 = _p50(lambda: prod(hmm, k), rounds)
        report["lanes"][name] = {
            "reference_p50_ms": ref_p50 * 1000.0,
            "production_p50_ms": prod_p50 * 1000.0,
            "speedup": ref_p50 / prod_p50,
        }
    return report


def _print_report(report) -> None:
    print(f"\ndecode lanes @ n={report['n']} m={report['m']} "
          f"k={report['k']} ({report['rounds']} rounds, p50):")
    for name, row in report["lanes"].items():
        print(f"  {name:18s} ref {row['reference_p50_ms']:9.2f} ms  "
              f"prod {row['production_p50_ms']:8.2f} ms  "
              f"{row['speedup']:6.1f}x")


def _check_floors(report) -> bool:
    ok = True
    for name, _ref, _prod, floor in LANES:
        speedup = report["lanes"][name]["speedup"]
        if speedup < floor:
            print(f"  FAIL {name}: {speedup:.1f}x < required {floor:.1f}x")
            ok = False
    return ok


def test_bench_decode_lane_speedup_n200(benchmark):
    """Cold single-query p50 at n=200: production decoders vs reference.

    The ≥5x floor on the Viterbi lanes is the tentpole acceptance
    criterion; A* gets a lower floor because its expansion count is
    already ~k·m rather than k·n·m.
    """
    report = benchmark.pedantic(
        lambda: compare_lanes(n=200, m=4, k=10, rounds=3),
        rounds=1, iterations=1,
    )
    _print_report(report)
    assert _check_floors(report)


# --------------------------------------------------------------------------- #
# corpus micro-benches (context fixture from benchmarks/conftest.py)
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def fixed_query(context):
    return list(
        context.workloads.queries_of_length(4, 1)[0].keywords
    )


@pytest.fixture(scope="module")
def fixed_hmm(context, fixed_query):
    return context.reformulator("tat").build_hmm(fixed_query)


def test_bench_index_build(benchmark, context):
    database = context.database
    result = benchmark(lambda: InvertedIndex(database).build())
    assert result.vocabulary_size() > 0


def test_bench_random_walk(benchmark, context):
    engine = RandomWalkEngine(context.graph.adjacency)
    node = context.graph.resolve_text_one("probabilistic")
    preference = engine.indicator_preference(node)
    result = benchmark(lambda: engine.walk(preference))
    assert result.converged


def test_bench_contextual_similarity_cold(benchmark, context):
    node = context.graph.resolve_text_one("probabilistic")

    def run():
        extractor = SimilarityExtractor(context.graph)
        return extractor.similar_nodes(node, 15)

    result = benchmark(run)
    assert len(result) == 15


def test_bench_closeness_extraction(benchmark, context):
    node = context.graph.resolve_text_one("probabilistic")

    def run():
        extractor = ClosenessExtractor(context.graph)
        return extractor.close_terms(node, 10)

    result = benchmark(run)
    assert result


def test_bench_hmm_build(benchmark, context, fixed_query):
    reformulator = context.reformulator("tat")
    hmm = benchmark(lambda: reformulator.build_hmm(fixed_query))
    assert hmm.length == len(fixed_query)


def test_bench_viterbi_topk_k1(benchmark, fixed_hmm):
    result = benchmark(lambda: viterbi_topk(fixed_hmm, 1))
    assert _signature(result) == _signature(
        reference_viterbi_topk(fixed_hmm, 1)
    )


def test_bench_alg2_viterbi_topk(benchmark, fixed_hmm):
    result = benchmark(lambda: viterbi_topk(fixed_hmm, 10))
    assert _signature(result) == _signature(
        reference_viterbi_topk(fixed_hmm, 10)
    )


def test_bench_alg3_astar_topk(benchmark, fixed_hmm):
    result = benchmark(lambda: astar_topk(fixed_hmm, 10))
    assert _signature(result.queries) == _signature(
        reference_astar_topk(fixed_hmm, 10)
    )


def test_bench_alg2_viterbi_topk_log(benchmark, fixed_hmm):
    fixed_hmm.log_transitions  # warm the cached log lane out-of-band
    result = benchmark(lambda: viterbi_topk(fixed_hmm, 10, log_space=True))
    assert [q.state_path for q in result] == [
        q.state_path for q in viterbi_topk(fixed_hmm, 10)
    ]


def test_bench_alg3_astar_topk_log(benchmark, fixed_hmm):
    fixed_hmm.log_transitions  # warm the cached log lane out-of-band
    result = benchmark(lambda: astar_topk(fixed_hmm, 10, log_space=True))
    assert [q.state_path for q in result.queries] == [
        q.state_path for q in astar_topk(fixed_hmm, 10).queries
    ]


def test_bench_rank_baseline(benchmark, context, fixed_query):
    states = context.reformulator("rank").candidates.build(fixed_query)

    def run():
        return RankBasedReformulator(states).topk(10)

    result = benchmark(run)
    assert result


def test_bench_keyword_search(benchmark, context):
    def run():
        return context.search.search(["probabilistic", "query"])

    result = benchmark(run)
    assert result.size >= 0


# --------------------------------------------------------------------------- #
# script mode (CI smoke artifact)
# --------------------------------------------------------------------------- #


def run_smoke(out: str, n: int = 200, rounds: int = 3) -> int:
    """Run the decode-lane comparison and write the report as JSON.

    Exit status is non-zero when any lane misses its speedup floor, so
    the CI job fails on a vectorization regression, not just on a
    correctness one.
    """
    import json

    report = compare_lanes(n=n, m=4, k=10, rounds=rounds)
    _print_report(report)
    ok = _check_floors(report)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
    print(f"wrote lane report to {out}")
    return 0 if ok else 1


def main() -> int:
    """Script entry point: ``--smoke`` runs the lane comparison."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="run the decode-lane comparison only (no corpus benches)",
    )
    parser.add_argument(
        "--out", default="BENCH_micro_core.json",
        help="where to write the JSON lane report",
    )
    parser.add_argument("--n", type=int, default=200)
    parser.add_argument("--rounds", type=int, default=3)
    args = parser.parse_args()
    if not args.smoke:
        parser.error("script mode currently only implements --smoke; "
                     "run the full micro-bench suite through pytest")
    return run_smoke(args.out, n=args.n, rounds=args.rounds)


if __name__ == "__main__":
    raise SystemExit(main())
