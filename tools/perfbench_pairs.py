"""Alternating perfbench runs of two checkouts, paired.

Run from anywhere:

    python3 tools/perfbench_pairs.py OLD_ROOT NEW_ROOT --workload order-study \\
        [--pairs 10] [--seconds 15] [--seed 3]

OLD_ROOT and NEW_ROOT are checkout roots, each with its own
``perfbench/`` and ``src/``; perfbench writes ``.bench_out/`` into the
root it runs from, so file copies keep the working tree clean.  Pair i
runs ``python3 ROOT/perfbench/run.py --workload W --seed S --seconds T
--trace 0`` once per root, OLD first in even pairs and NEW first in odd
ones, and reads the JSON object on its last line.  Prints one JSON
object: per end-to-end metric of OLD_ROOT's ``BENCHMARK.json``, both
sides' runs, their medians and interquartile ranges, the ratio of the
medians (NEW over OLD) and the pairs NEW wins in the metric's own
direction; and per side the calls attempted and failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("roots", nargs=2, metavar="ROOT")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args(argv)
    roots = [Path(r).resolve() for r in args.roots]
    for root in roots:
        if not (root / "perfbench" / "run.py").is_file():
            parser.error(f"{root} holds no perfbench/run.py")
    end_to_end = json.loads((roots[0] / "BENCHMARK.json").read_text())["end_to_end"]

    results: list[list[dict]] = [[], []]
    for i in range(args.pairs):
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            results[side].append(run(roots[side], args.workload, args.seed, args.seconds))

    metrics = {}
    for m in end_to_end:
        name, higher = m["name"], m["better"] == "higher"
        old, new = ([r["metrics"][name]["value"] for r in results[s]] for s in (0, 1))
        q1, _, q3 = statistics.quantiles(old, n=4, method="inclusive")
        wins = sum((b > a) if higher else (b < a) for a, b in zip(old, new))
        metrics[name] = {
            "old_runs": [round(v, 4) for v in old], "new_runs": [round(v, 4) for v in new],
            "old_median": round(statistics.median(old), 4),
            "new_median": round(statistics.median(new), 4),
            "old_iqr": round(q3 - q1, 4),
            "new_over_old": round(statistics.median(new) / statistics.median(old), 4),
            "new_better_pairs": f"{wins}/{args.pairs}",
        }
    print(json.dumps({
        "command": f"python3 tools/perfbench_pairs.py OLD_ROOT NEW_ROOT --workload "
                   f"{args.workload} --pairs {args.pairs} --seconds {args.seconds:g} "
                   f"--seed {args.seed}",
        "workload": args.workload,
        "correct": [all(r["correct"] for r in results[s]) for s in (0, 1)],
        "attempted": [sum(r["attempted"] for r in results[s]) for s in (0, 1)],
        "failed": [sum(r["failed"] for r in results[s]) for s in (0, 1)],
        "metrics": metrics,
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
