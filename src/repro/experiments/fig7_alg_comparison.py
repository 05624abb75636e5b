"""Figure 7 — run time of Algorithm 2 vs Algorithm 3 by query length.

400 sampled queries with lengths 1..8 (author names, title words,
conference names).  Both algorithms decode the same HMMs; we report the
average per-length wall time of each.

The shape to reproduce: Algorithm 3 (Viterbi + A*) beats the extended
top-k Viterbi (Algorithm 2) across lengths, with a growing gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.astar import astar_topk
from repro.core.viterbi import viterbi_topk
from repro.eval.timing import TimingStats, grouped_timings
from repro.experiments.common import (
    ExperimentContext,
    build_context,
    format_table,
)


@dataclass(frozen=True)
class AlgComparisonReport:
    """Figure 7 data: per query length, mean seconds of each algorithm."""

    alg2_by_length: Dict[int, TimingStats]
    alg3_by_length: Dict[int, TimingStats]
    k: int
    n_queries: int

    def speedup_at(self, length: int) -> float:
        """Alg2/Alg3 mean-time ratio at one query length."""
        return (
            self.alg2_by_length[length].mean
            / max(1e-12, self.alg3_by_length[length].mean)
        )


def run(
    context: Optional[ExperimentContext] = None,
    n_queries: int = 80,
    max_len: int = 8,
    k: int = 10,
) -> AlgComparisonReport:
    """Alg 2 vs Alg 3 decode times by query length (Figure 7)."""
    context = context or build_context()
    workload = context.workloads.length_varied_queries(
        count=n_queries, min_len=1, max_len=max_len
    )
    reformulator = context.reformulator("tat")
    # Build every HMM up front: Figure 7 times the decoding algorithms,
    # not candidate extraction (which is shared by both).
    hmms = [
        (len(wq.keywords), reformulator.build_hmm(list(wq.keywords)))
        for wq in workload
    ]
    # One untimed pass first, so the first queries timed do not pay the
    # warm-up (caches, first-call costs).
    for _length, hmm in hmms:
        viterbi_topk(hmm, k)
        astar_topk(hmm, k)
    alg2 = grouped_timings(
        hmms, key=lambda lh: lh[0], run=lambda lh: viterbi_topk(lh[1], k)
    )
    alg3 = grouped_timings(
        hmms, key=lambda lh: lh[0], run=lambda lh: astar_topk(lh[1], k)
    )
    return AlgComparisonReport(
        alg2_by_length=alg2,
        alg3_by_length=alg3,
        k=k,
        n_queries=len(workload),
    )


def main() -> None:
    """Print the Figure 7 table."""
    report = run()
    print(
        f"Figure 7 reproduction — Alg 2 vs Alg 3 run time "
        f"(k={report.k}, {report.n_queries} queries)\n"
    )
    rows = []
    for length in sorted(report.alg2_by_length):
        rows.append([
            length,
            report.alg2_by_length[length].mean * 1000,
            report.alg3_by_length[length].mean * 1000,
            report.speedup_at(length),
        ])
    print(format_table(
        ["query length", "Alg2 ms", "Alg3 ms", "speedup"], rows
    ))


if __name__ == "__main__":
    main()
