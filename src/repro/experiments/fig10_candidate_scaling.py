"""Figure 10 — time cost with the size of the candidate state lists (n).

How many similar terms per input keyword can the online stage afford?
The paper varies the hidden-state list size and finds response stays
interactive, "especially when the size of similar term list is less
than 20".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.astar import astar_topk
from repro.core.candidates import CandidateListBuilder
from repro.core.hmm import IndexFrequency, ReformulationHMM
from repro.eval.timing import TimingStats
from repro.experiments.common import (
    ExperimentContext,
    build_context,
    format_table,
)

DEFAULT_SIZES = (5, 10, 15, 20, 30, 40)


@dataclass(frozen=True)
class CandidateScalingReport:
    """Per candidate-list size: mean decode time."""

    total_by_size: Dict[int, TimingStats]
    query_length: int
    k: int


def run(
    context: Optional[ExperimentContext] = None,
    sizes: Sequence[int] = DEFAULT_SIZES,
    query_length: int = 4,
    n_queries: int = 10,
    k: int = 10,
) -> CandidateScalingReport:
    """Decode time across candidate-list sizes (Figure 10)."""
    context = context or build_context()
    workload = context.workloads.queries_of_length(query_length, n_queries)
    reformulator = context.reformulator("tat")

    builders = {
        size: CandidateListBuilder(
            context.graph, reformulator.similarity, n_candidates=size
        )
        for size in sizes
    }

    def decode_pass() -> Dict[int, List[float]]:
        """Build and decode every query at every size; decode seconds.

        Each query runs at every size in turn, so a burst of host load
        lands on all sizes alike instead of on the sizes timed during it.
        """
        samples: Dict[int, List[float]] = {size: [] for size in sizes}
        for wq in workload:
            for size, builder in builders.items():
                hmm = ReformulationHMM.build(
                    query=list(wq.keywords),
                    states=builder.build(list(wq.keywords)),
                    closeness=reformulator.closeness,
                    frequency=IndexFrequency(context.graph),
                )
                samples[size].append(astar_topk(hmm, k).total_seconds)
        return samples

    # One untimed pass first, so no size pays the warm-up (caches,
    # first-call costs) inside its timed samples.
    decode_pass()
    total_by_size = {
        size: TimingStats.from_samples(values)
        for size, values in decode_pass().items()
    }
    return CandidateScalingReport(
        total_by_size=total_by_size,
        query_length=query_length,
        k=k,
    )


def main() -> None:
    """Print the Figure 10 table."""
    report = run()
    print(
        "Figure 10 reproduction — time vs candidate-list size "
        f"(length {report.query_length}, k={report.k})\n"
    )
    rows = [
        [size, report.total_by_size[size].mean * 1000]
        for size in sorted(report.total_by_size)
    ]
    print(format_table(["candidates per term", "mean ms"], rows))


if __name__ == "__main__":
    main()
