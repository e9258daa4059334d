"""Benchmark of the ``grayscott`` CLI.

Runs one workload in this process, driving ``grayscott.cli.main(argv)``
in a closed loop (one caller; each call starts after the previous one
returned) for about ``--seconds`` seconds, checks every call's outputs
against stored reference values, and prints one JSON object as the last
line of standard output.

    python3 perfbench/run.py --workload ensemble-d1 --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 3 --seconds 20
    python3 perfbench/run.py --make-reference

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced rounds with rounds in which the public functions of every
module are wrapped in spans, and reports the per-layer metrics.  Run it
from a source checkout: the package is imported from the ``src/``
directory next to this one.  Results, spans and CLI outputs go to
``.bench_out/`` at the checkout root.
"""

import argparse
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads():
    """Cap BLAS/OpenMP threads at the usable core count; call before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        cur = os.environ.get(var, "")
        n = int(cur) if cur.isdigit() and int(cur) > 0 else nproc
        os.environ[var] = str(min(n, nproc))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="workload name, or 'all' for each in a fresh process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--make-reference", action="store_true",
                        help="regenerate reference.json from the current program")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "grayscott" / "cli.py").is_file():
        print(f"error: no grayscott source tree at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    cap_blas_threads()
    sys.path[:0] = [str(SRC), str(HERE)]
    import runner
    import workloads

    if args.make_reference:
        return runner.make_reference()
    if args.workload == "all":
        return runner.run_all(args.seed, args.seconds, bool(args.trace))
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    return runner.run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
