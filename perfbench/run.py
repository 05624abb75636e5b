"""Benchmark of the keyword-query reformulation stack.

One command runs one seeded workload through the program's public entry
points and prints, as its last line, a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``::

    python3 perfbench/run.py --workload paper_online --seed 1 --seconds 35 --trace 0

Workloads (``BENCHMARK.json`` says why each exists):

* ``paper_online`` -- the paper's length-varied query set through an
  in-process ``Reformulator`` over a v3 store, closed loop; then a few
  ``LiveReformulator.ingest`` calls and one ``DeltaIngestor.compact``;
* ``zipf_http`` -- Zipf-sampled short queries against a one-worker HTTP
  server forked from this process, closed loop; then a few ingests
  through ``POST /admin/ingest``.

The run happens in this process (the server of ``zipf_http`` is forked
from it).  ``--trace 0`` reports the end-to-end metrics.  ``--trace 1``
runs the same workload with every other stretch of its measured work
traced (wrappers around layer-boundary functions, see ``spans.py``) and
reports the per-layer metrics.  The line before the result holds the
full report: environment fingerprint, suggestion digest, sample counts
and each layer's share of the traced self time.

Exit status: 0 after a run whose output checks passed, 1 when a check
failed (the result line then says ``"correct": false``), 2 when the
program under test is missing.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
#: ``corpus.py`` borrows the wide topic pool of the delta-ingest bench.
BENCHES = HERE.parent / "benchmarks"
WORKLOADS = ("paper_online", "zipf_http")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    needed = (SRC / "repro" / "__init__.py", BENCHES / "bench_delta_ingest.py")
    missing = [str(path) for path in needed if not path.is_file()]
    if missing:
        print(
            f"perfbench: the program under test is missing ({', '.join(missing)})",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(SRC), str(BENCHES)]
    import harness

    return harness.run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
