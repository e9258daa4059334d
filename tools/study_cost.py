"""Wall time of the two order studies of ``grayscott convergence``, paired
between two source trees.

Run from anywhere:

    python3 tools/study_cost.py OLD/src NEW/src [--rounds 10] [--repeats 3] \\
        [--studies deterministic strong test_05]

Each round starts one fresh ``python3`` process per tree, with that
tree's ``src`` on ``PYTHONPATH``; the tree that goes first alternates
with the round.  A process times ``strong_order_study`` in the studies
``--studies`` names (default: the first two).  Two are the settings
``grayscott convergence --paths 16 --seed 3`` uses at the default
config (T=0.5, dts T*2^-5 .. T*2^-8, d=1 N=16):

- ``deterministic``: sigma1=sigma2=0, 1 path, ref_refinement 16
  (4096 reference steps plus 480 coarse ones);
- ``strong``: c1=c2=0, 16 paths, ref_refinement 8;

and one is the study of the acceptance test
``test_05_strong_order_linear``, some 15 s a run:

- ``test_05``: the linear system (c=b=0, a=-0.3, sigma=0.4, gamma
  1 and 0.75, seed 11) at d=1 N=16 M=32, T=0.25, dts T*2^-8 ..
  T*2^-12, 256 paths, ref_refinement 8 (32768 reference steps plus
  7936 coarse ones).

It runs each study once untimed, then ``--repeats`` times timed, and
reports the median per study.  Prints one JSON object: per study and
tree, the per-process medians, their median and quartiles; the median
of the per-round ratios (NEW over OLD, each from the two processes of
one round), next to the ratio of the per-tree medians; and the rounds in
which NEW was faster.  The paired ratio is the figure to read: host
drift between rounds moves both trees of a round alike, but it can
swamp the ratio of the medians.  Exits 1 when the two trees' study
errors differ in any bit.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SEED = 3
PATHS = 16
STUDIES = ("deterministic", "strong", "test_05")


def settings() -> dict:
    """Per study, the arguments of strong_order_study (grayscott from PYTHONPATH)."""
    import dataclasses

    from grayscott.cli import _initial_data
    from grayscott.config import config_from_dict
    from grayscott.integrate import ModelParams
    from grayscott.noise import NoiseConfig
    from grayscott.spectral import SpaceConfig, constant_field

    cfg = config_from_dict({"noise": {"seed": SEED}, "paths": PATHS})
    u0, v0 = _initial_data(cfg)
    dts = [cfg.T * 2.0**-j for j in range(5, 9)]
    sp = SpaceConfig(d=1, modes_per_axis=16, grid_points_per_axis=32)
    bump = constant_field(1.0, sp)
    bump.coeffs[1] = 0.3
    return {
        "deterministic": (dataclasses.replace(cfg.model, sigma1=0.0, sigma2=0.0), cfg.space,
                          cfg.noise, u0, v0, cfg.T, dts, 1, 16),
        "strong": (dataclasses.replace(cfg.model, c1=0.0, c2=0.0), cfg.space, cfg.noise,
                   u0, v0, cfg.T, dts, min(cfg.paths, 128), 8),
        "test_05": (ModelParams(c1=0.0, c2=0.0, b1=0.0, b2=0.0, a1=-0.3, a2=-0.3,
                                sigma1=0.4, sigma2=0.4), sp,
                    NoiseConfig(gamma1=1.0, gamma2=0.75, seed=11), bump, bump, 0.25,
                    [0.25 * 2.0**-j for j in range(8, 13)], 256, 8),
    }


def child(repeats: int, studies: list[str]) -> dict:
    """Time the studies in this process (grayscott from PYTHONPATH)."""
    from grayscott.convergence import strong_order_study

    out = {}
    for name in studies:
        *args, n_paths, refinement = settings()[name]

        def run():
            return strong_order_study(*args, n_paths=n_paths, ref_refinement=refinement)
        errors = run()["errors"]
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            run()
            times.append(time.perf_counter() - start)
        out[name] = {"median_s": statistics.median(times), "errors": errors}
    return out


def _summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median_s": round(med, 4), "q1_s": round(q1, 4), "q3_s": round(q3, 4),
            "runs_s": [round(v, 4) for v in values]}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("srcs", nargs="*", metavar="SRC")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--studies", nargs="+", choices=STUDIES, default=list(STUDIES[:2]))
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(child(args.repeats, args.studies)))
        return 0
    if len(args.srcs) != 2 or args.rounds < 2 or args.repeats < 1:
        parser.error("give OLD/src and NEW/src, --rounds >= 2 and --repeats >= 1")
    srcs = [Path(a).resolve() for a in args.srcs]
    for src in srcs:
        if not (src / "grayscott" / "cli.py").is_file():
            parser.error(f"{src} holds no grayscott package")

    runs: list[list[dict]] = [[], []]
    for r in range(args.rounds):
        for side in ((0, 1) if r % 2 == 0 else (1, 0)):
            env = dict(os.environ, PYTHONPATH=str(srcs[side]))
            proc = subprocess.run(
                [sys.executable, __file__, "--child", "--repeats", str(args.repeats),
                 "--studies", *args.studies],
                env=env, capture_output=True, text=True, check=True)
            runs[side].append(json.loads(proc.stdout.strip().splitlines()[-1]))

    report = {"command": f"python3 tools/study_cost.py OLD/src NEW/src --rounds {args.rounds} "
                         f"--repeats {args.repeats} --studies {' '.join(args.studies)}",
              "seed": SEED, "paths": PATHS, "studies": {}}
    same = True
    for name in args.studies:
        old, new = ([run[name]["median_s"] for run in runs[side]] for side in (0, 1))
        same &= all(a[name]["errors"] == b[name]["errors"] for a, b in zip(*runs))
        report["studies"][name] = {
            "old": _summary(old), "new": _summary(new),
            "paired_new_over_old": round(statistics.median(b / a for a, b in zip(old, new)), 4),
            "new_over_old": round(statistics.median(new) / statistics.median(old), 4),
            "new_faster_rounds": f"{sum(b < a for a, b in zip(old, new))}/{args.rounds}",
        }
    report["errors_identical"] = same
    print(json.dumps(report, indent=1))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
