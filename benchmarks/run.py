"""Benchmark of the ternadac CLI, one workload per run.

Run from the root of a source checkout:

    python3 benchmarks/run.py --workload replay --seed 1 --seconds 36 --trace 0

or, for every workload,

    for w in replay sweep montecarlo; do
        python3 benchmarks/run.py --workload $w --seed 1 --seconds 36 --trace 0
    done

Workloads are described in workloads.py. With ``--trace 0`` the run reports
the end-to-end metrics (``samples_per_s``, ``setup_s``, ``peak_rss_mb``), with
``--trace 1`` the per-layer metrics of a traced run. The end-to-end times are
given at nominal machine speed (see speed.py). Human-readable lines come
first, including every operation's time, the raw host-time figures and the
failed fraction; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. Spans of a traced
run are written to ``.bench_out/`` in the checkout. Exits 2 without a result
when the checkout holds no ``src/ternadac`` package.

The benchmark's own tests: ``PYTHONPATH=src python -m pytest benchmarks``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("replay", "sweep", "montecarlo")
BLAS_THREADS = 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ternadac" / "__init__.py").is_file():
        print(f"run.py: no ternadac package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    # BLAS reads its thread count when numpy loads it, so pin before any import.
    # One thread: the operations make many small BLAS calls, and a second
    # thread only spins on them, which made operations slower and noisier.
    blas_pin = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(blas_pin)
    sys.path.insert(0, str(SRC))

    import harness

    spans = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.json"
    result, problems, times, raw = harness.run(
        args.workload, args.seed, args.seconds, bool(args.trace), blas_pin, spans_path=spans
    )
    print(f"environment: {json.dumps(harness.environment(blas_pin))}")
    print(f"operation ms: {' '.join(f'{t * 1e3:.1f}' for t in times)}")
    print(f"median operation {statistics.median(times) * 1e3:.1f} ms")
    print(f"workload {args.workload}, seed {args.seed}: {len(times)} measured operations, "
          f"{result['attempted']} attempted, {result['failed']} failed "
          f"(failed_frac {result['failed'] / result['attempted']:g})")
    for problem in problems:
        print(f"check failed: {problem}")
    for name, value in raw.items():
        print(f"  raw host time: {name} = {value:.6g}")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    if args.trace:
        print(f"spans written to {spans.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
