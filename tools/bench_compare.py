"""Before/after measurements of two checkouts, written as one BENCH_*.json.

Run from anywhere:

    python3 tools/bench_compare.py OLD_ROOT NEW_ROOT OUT.json --what TEXT \\
        [--pairs 10] [--seconds 25] [--seed 7] [--traced pathwise-d1] [--trace-seed 3]

OLD_ROOT and NEW_ROOT are checkout roots, each with its own
``perfbench/`` and ``src/`` (see ``perfbench_pairs.py``).  The script
runs, one after another, the tools next to it:

- ``code_size.py`` per tree and ``compare_outputs.py OLD/src NEW/src``;
- each tree's own ``tools/step_cost.py`` on its ``src`` twice, OLD first
  and then NEW first (the script calls the step's API, which may differ
  between the trees), and NEW's script on OLD's ``src`` next to each OLD
  run, for the columns OLD's script lacks (an error, if NEW's script
  cannot time OLD's tree);
- one traced perfbench run (``--trace 1``) per root of each
  ``--traced`` workload, at ``--trace-seed``: the per-layer metrics;
- ``perfbench_pairs.py`` for every workload of OLD_ROOT's
  ``BENCHMARK.json``: ``--pairs`` alternating pairs of ``--seconds``
  runs at ``--seed``.

It writes OUT.json with each tool's result under its own key (``tag``
is OUT's stem without ``BENCH_``), and prints OUT's path.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _run(*args: str) -> str:
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          check=True).stdout


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def _git_head(root: Path) -> str | None:
    proc = subprocess.run(["git", "-C", str(root), "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("roots", nargs=2, metavar="ROOT")
    parser.add_argument("out", metavar="OUT.json")
    parser.add_argument("--what", required=True, help="one line: what the change does")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--traced", nargs="*", default=["pathwise-d1"])
    parser.add_argument("--trace-seed", type=int, default=3)
    args = parser.parse_args(argv)
    roots = [Path(r).resolve() for r in args.roots]
    for root in roots:
        if not (root / "perfbench" / "run.py").is_file():
            parser.error(f"{root} holds no perfbench/run.py")
    srcs = [str(root / "src") for root in roots]
    workloads = [w["name"] for w in
                 json.loads((roots[0] / "BENCHMARK.json").read_text())["workloads"]]

    code_size = {side: dict(line.split() for line in
                            _run(str(HERE / "code_size.py"), src).splitlines())
                 for side, src in zip(("old", "new"), srcs)}
    compare = subprocess.run(
        [sys.executable, str(HERE / "compare_outputs.py"), *srcs],
        capture_output=True, text=True, check=False).stdout.strip().splitlines()
    step_cost = {"old": [], "new": [], "old_by_new_script": []}
    for order in ((0, 1), (1, 0)):
        for side in order:
            cost = json.loads(_run(str(roots[side] / "tools" / "step_cost.py"),
                                   "--src", srcs[side]))
            cost.pop("src")
            step_cost[("old", "new")[side]].append(cost)
            if side == 0:
                try:
                    cost = json.loads(_run(str(roots[1] / "tools" / "step_cost.py"),
                                           "--src", srcs[0]))
                    cost.pop("src")
                except subprocess.CalledProcessError as err:
                    cost = {"error": err.stderr.strip().splitlines()[-1:]}
                step_cost["old_by_new_script"].append(cost)
    traced = {name: {side: _last_json(_run(
        str(root / "perfbench" / "run.py"), "--workload", name, "--seed",
        str(args.trace_seed), "--seconds", f"{args.seconds:g}", "--trace", "1"))["metrics"]
        for side, root in zip(("old", "new"), roots)} for name in args.traced}
    pairs = {}
    for name in workloads:
        pairs[name] = json.loads(_run(
            str(HERE / "perfbench_pairs.py"), *map(str, roots), "--workload", name,
            "--pairs", str(args.pairs), "--seconds", f"{args.seconds:g}",
            "--seed", str(args.seed)))
        print(f"{name}: {pairs[name]['metrics']['path_steps_per_s']['new_over_old']}",
              file=sys.stderr, flush=True)

    out = Path(args.out)
    doc = {
        "tag": out.stem.removeprefix("BENCH_"),
        "what": args.what,
        "parent": _git_head(roots[0]),
        "command": "python3 tools/bench_compare.py OLD_ROOT NEW_ROOT "
                   f"{out.name} --pairs {args.pairs} --seconds {args.seconds:g} "
                   f"--seed {args.seed} --traced {' '.join(args.traced)} "
                   f"--trace-seed {args.trace_seed}",
        "environment": step_cost["old"][0]["environment"],
        "perfbench_pairs": pairs,
        "perfbench_traced": {"seed": args.trace_seed, "workloads": traced},
        "step_cost": step_cost,
        "compare_outputs": compare,
        "code_size": code_size,
    }
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
