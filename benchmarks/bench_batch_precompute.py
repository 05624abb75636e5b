"""Bench: batched whole-vocabulary precompute vs the seed sequential path.

The offline rework batches the vocabulary — contextual preference vectors
are built as columns and solved through one cached sparse-LU
factorization, closeness rows come from the vectorized bulk BFS — where
the seed walked the vocabulary one term at a time with pure-python
diffusion, one iterative walk per term, and a dict-based BFS.

``seed_reference.py`` freezes the seed algorithms so the comparison stays
honest as the live primitives keep improving.  The acceptance bar for the
rework: **>= 3x** end-to-end on a whole-vocabulary build over the
synthetic DBLP corpus, with equivalent stored relations.

Measured on a 2-core shared host (400-paper corpus, 292 terms): seed
~8.4 ms/term, batched ~1.0 ms/term — about 8.5x (before the offline pass
read its similar lists and context columns as arrays: ~1.7 ms/term,
5.0x).  Numbers recorded in EXPERIMENTS.md.

Script mode (used by the CI smoke job) runs just the batched build with
tracing enabled and dumps the observability registry as JSON::

    PYTHONPATH=src python benchmarks/bench_batch_precompute.py \
        --smoke --metrics-out BENCH_precompute_metrics.json
"""

import time

import pytest

from repro.graph.closeness import ClosenessExtractor
from repro.offline import OfflinePrecomputer, TermRelationStore, _term_key

from seed_reference import (
    SeedClosenessExtractor,
    SeedContextualPreference,
    SeedSimilarityExtractor,
)

N_SIMILAR = 15
CLOSENESS_TOP = 100


def _seed_build(graph):
    """The seed offline stage: per-term, python loops, iterative walks."""
    precomputer = OfflinePrecomputer(
        graph,
        similarity=SeedSimilarityExtractor(
            graph, preference=SeedContextualPreference(graph)
        ),
        closeness=SeedClosenessExtractor(graph),
        n_similar=N_SIMILAR,
        closeness_top=CLOSENESS_TOP,
    )
    store = TermRelationStore(graph)
    for term in precomputer.vocabulary():
        store._relations[_term_key(term)] = precomputer.precompute_term(term)
    return store


def _batched_build(graph):
    """The reworked offline stage: batched direct solves + bulk BFS."""
    precomputer = OfflinePrecomputer(
        graph,
        closeness=ClosenessExtractor(graph),
        n_similar=N_SIMILAR,
        closeness_top=CLOSENESS_TOP,
    )
    store = precomputer.build_store(batch_size=128, walk_method="direct")
    return store, precomputer.stats


def _spot_check_equivalence(seed_store, new_store, tol=1e-8):
    """Stored relations agree (tie-tolerant at truncation boundaries)."""
    keys = sorted(seed_store._keys())
    assert sorted(new_store._keys()) == keys
    worst = 0.0
    for key in keys[:: max(1, len(keys) // 50)]:
        ref = seed_store._get(key)
        got = new_store._get(key)
        ref_scores = sorted((s for _, s in ref.similar), reverse=True)
        got_scores = sorted((s for _, s in got.similar), reverse=True)
        assert len(ref_scores) == len(got_scores), key
        for a, b in zip(ref_scores, got_scores):
            worst = max(worst, abs(a - b))
        assert bool(ref.closeness) == bool(got.closeness), key
        shared = set(ref.closeness) & set(got.closeness)
        for other in shared:
            worst = max(worst, abs(ref.closeness[other] - got.closeness[other]))
    assert worst < tol
    return worst


def test_batched_precompute_speedup(benchmark, small_context):
    graph = small_context.graph

    def run():
        start = time.perf_counter()
        seed_store = _seed_build(graph)
        seed_seconds = time.perf_counter() - start

        start = time.perf_counter()
        new_store, stats = _batched_build(graph)
        batch_seconds = time.perf_counter() - start

        worst = _spot_check_equivalence(seed_store, new_store)
        return seed_store, seed_seconds, batch_seconds, stats, worst

    seed_store, seed_s, batch_s, stats, worst = benchmark.pedantic(
        run, rounds=1, iterations=1
    )

    n_terms = len(seed_store)
    speedup = seed_s / batch_s
    print("\n" + "=" * 60)
    print(f"Whole-vocabulary precompute, {n_terms} terms")
    print(f"  seed sequential path : {seed_s:8.2f} s "
          f"({seed_s / n_terms * 1000:6.2f} ms/term)")
    print(f"  batched pipeline     : {batch_s:8.2f} s "
          f"({batch_s / n_terms * 1000:6.2f} ms/term, "
          f"{stats.terms_per_second:.0f} terms/s)")
    print(f"  speedup              : {speedup:8.1f}x")
    print(f"  walk residual (max)  : {stats.max_residual:.2e}")
    print(f"  spot-check max |diff|: {worst:.2e}")

    # the stored relations are the same data
    assert worst < 1e-8
    # the direct solver's verified residual is far below the walk tol
    assert stats.max_residual < 1e-10
    # the acceptance bar of the rework
    assert speedup >= 3.0


def run_smoke(metrics_out: str, scale: str = "small") -> int:
    """Batched build with tracing on; metrics JSON written to *metrics_out*.

    The CI smoke job runs this to prove the instrumented offline stage
    end to end (spans + repro_offline_* series) and uploads the JSON
    export as a workflow artifact.
    """
    from repro import obs
    from repro.experiments import build_context
    from repro.obs.export import registry_to_json, render_span_tree

    obs.reset()
    with obs.enabled():
        graph = build_context(scale=scale, seed=7).graph
        start = time.perf_counter()
        store, stats = _batched_build(graph)
        seconds = time.perf_counter() - start
        root = obs.tracer().last_root()

    print(f"smoke: {len(store)} terms in {seconds:.2f} s "
          f"({stats.terms_per_second:.0f} terms/s, "
          f"max residual {stats.max_residual:.2e})")
    if root is not None:
        print(render_span_tree(root))
    with open(metrics_out, "w", encoding="utf-8") as handle:
        handle.write(registry_to_json(obs.registry()))
    print(f"wrote metrics export to {metrics_out}")

    registry = obs.registry()
    ok = (
        registry.get("repro_offline_terms_total") is not None
        and registry.get("repro_offline_terms_total").value == len(store)
        and registry.get("repro_offline_batches_total").value
        == stats.n_batches
        and root is not None
        and root.name == "precompute.build_store"
    )
    obs.reset()
    return 0 if ok else 1


def main() -> int:
    """Script entry point: ``--smoke`` plus export/scale knobs."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="run the traced batched build only (no seed comparison)",
    )
    parser.add_argument(
        "--metrics-out", default="BENCH_precompute_metrics.json",
        help="where to write the JSON metrics export",
    )
    parser.add_argument(
        "--scale", default="small", choices=("small", "medium", "large"),
    )
    args = parser.parse_args()
    if not args.smoke:
        parser.error("script mode currently only implements --smoke; "
                     "run the full comparison through pytest")
    return run_smoke(args.metrics_out, scale=args.scale)


if __name__ == "__main__":
    raise SystemExit(main())
