"""Byte-compare the CLI outputs of two source trees over a fixed set of runs.

Run from anywhere:

    python3 tools/compare_outputs.py OLD/src NEW/src

Each run in ``RUNS`` is a fresh ``python3 -m grayscott.cli`` process per
tree, with that tree's ``src`` on ``PYTHONPATH`` and its own output
directory.  The set covers:

- the six subcommands at seeds 0 and 5 (20 paths);
- ``simulate``, ``fixed-point`` and ``convergence`` under Stratonovich
  (``fixed-point`` is the one run whose forced sweep adds the Ito
  correction, which reads the state, to a frozen drift; ``convergence``
  is the one run whose strong study analyzes its drift every step: under
  Ito its uncoupled drift is a constant);
- ``glue`` at ``kappa_schedule=[1.05,1.1]``, which reaches the linear
  fallback, plain and under Stratonovich;
- ``simulate`` and ``estimate`` at d=2 periodic, aleph=1.5 (``estimate``
  is the one run that records the d=2 gradient column);
- ``estimate`` at ``model.lam=2`` and ``m_power=2``, the one run whose
  p* sup carries the ``e^{-lam t}`` weight and whose coupling moment is a
  power above 1; ``u0.value=0.05`` lets u grow, so each path's weighted
  sup lies inside the run, not at t=0 where the weight is 1;
- ``check-params --sweep gamma1``;
- ``simulate`` and ``glue`` with ``field_dumps=true``;
- the single-path loops at the ``pathwise-d1`` benchmark config
  (``fixed-point`` with one path, ``glue`` with two; seed 3,
  ``kappa_schedule=[1.2,1.4,1.6]``, T=0.35), which draw their noise in
  the longest blocks, and ``glue`` there with ``noise.mode_cutoff=8``,
  whose long blocks color fewer noise modes than the K - 1 usable ones;
- ``simulate`` at d=2, N=32, M=64 with 16 paths, plain and under
  Stratonovich (the one run whose cutoff loop corrects and analyzes its
  drift one species at a time, past ``STACK_BUDGET``);
- ``fixed-point`` at d=2 periodic, N=8, M=16 with 4 paths, T=0.1 and
  c1=c2=0.2, the one run that steps the fixed-point operator in d=2;
- ``glue`` at d=2 periodic, N=8, M=16 with 4 paths and
  ``kappa_schedule=[1.05,1.1]``, the d=2 run that glues inside a drawn
  noise block, so the time loop redraws it in the paths' new segments;
- ``simulate`` at sigma1=sigma2=0 and ``glue`` at c1=c2=0 (fallback
  schedule), both with ``field_dumps=true`` and 4 paths: the steps that
  skip the noise term and the reaction, where the field dumps are the
  only outputs that show the sign of a zero coefficient;
- ``fixed-point`` at sigma1=sigma2=0 and at c1=c2=0, 4 paths each: the
  forced sweeps that draw no noise and compose no drift, and at c1=c2=0
  under Stratonovich, the one sweep whose step corrects the feeds' state
  drift;
- ``simulate`` at ``u0.value=1e-6`` with 4 paths, the one run whose norm
  series print in exponent notation: the u norms at t=0 are about 1e-6,
  below 1e-4, where the norm-series writer leaves its exact kernel for
  ``'%.17g' % v``;
- ``simulate`` with 2 paths at the ``pathwise-d1`` config and
  ``kappa=1.2``: the unglued cutoff loop leaves the plateau inside a
  plateau block (at t~0.03), rolls the block back and steps the rest of
  the run one step at a time on the cutoff's transition band;
- the branches of the Picard pipeline, whose narrow runs keep several
  sweeps in flight: one-path ``fixed-point`` at the ``pathwise-d1``
  config under Stratonovich (the stacked step adds the Ito correction,
  and a sweep joining it synthesizes its initial state alone) and at
  c1=c2=0 (the feeds' drift, composed on the batch, broadcast over the
  sweeps); one-path ``fixed-point`` at d=2 periodic, N=8, M=16, T=0.1
  (two sweeps in flight in d=2); 4 paths at d=1, N=8, seed 3,
  sigma1=sigma2=1.5, c1=c2=3, T=0.3, which retire at sweeps 11, 13, 12
  and 11, so the pipeline restarts on the rows left; and the
  ``pathwise-d1`` ``fixed-point`` at ``max_iter=3``, which ends in
  ``NoConvergence`` (exit 1) with three sweeps in flight.

Every output file is compared byte for byte (``cmp``), except
``manifest.json``, which is compared as JSON without ``wall_time_s``.
Exit codes, stdout and stderr are compared too, after the tree's src
path and the output directory are replaced by placeholders; a warning's
source line number follows the src path and is replaced as well, since
it moves with any edit.  Prints each difference, then the counts of
identical and differing files, and exits 1 on any difference.  The
outputs live in a temporary directory that is removed afterwards.
"""

from __future__ import annotations

import filecmp
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

PATHS = ["--paths", "20"]
STRAT = ["--override", "noise.interpretation=stratonovich"]
FALLBACK = ["--override", "kappa_schedule=[1.05,1.1]"]
D2_PERIODIC = ["--override", "space.d=2", "--override", "space.boundary=periodic",
               "--override", "space.modes_per_axis=8",
               "--override", "space.grid_points_per_axis=16",
               "--override", "model.aleph=1.5", "--override", "T=0.1"]
DUMPS = ["--override", "field_dumps=true", "--paths", "4"]
PATHWISE = ["--seed", "3", "--override", "kappa_schedule=[1.2,1.4,1.6]",
            "--override", "T=0.35"]
D2_N8 = ["--paths", "4", "--override", "space.d=2", "--override", "space.boundary=periodic",
         "--override", "space.modes_per_axis=8", "--override", "space.grid_points_per_axis=16"]
D2_FIXED_POINT = D2_N8 + ["--override", "T=0.1",
                          "--override", "model.c1=0.2", "--override", "model.c2=0.2"]
NOISELESS = ["--override", "model.sigma1=0", "--override", "model.sigma2=0"]
UNCOUPLED = ["--override", "model.c1=0", "--override", "model.c2=0"]
RETIRING = ["--paths", "4", "--seed", "3", "--override", "space.modes_per_axis=8",
            "--override", "space.grid_points_per_axis=16", "--override", "model.sigma1=1.5",
            "--override", "model.sigma2=1.5", "--override", "model.c1=3",
            "--override", "model.c2=3", "--override", "T=0.3"]
D2_N32 = ["--override", "space.d=2", "--override", "space.modes_per_axis=32",
          "--override", "space.grid_points_per_axis=64", "--override", "T=0.1"]

RUNS = [
    (f"{cmd}-seed{seed}", [cmd, "--seed", str(seed)] + PATHS)
    for cmd in ("check-params", "simulate", "glue", "fixed-point", "estimate", "convergence")
    for seed in (0, 5)
] + [
    ("simulate-strat", ["simulate"] + PATHS + STRAT),
    ("fixed-point-strat", ["fixed-point"] + PATHS + STRAT),
    ("convergence-strat", ["convergence"] + PATHS + STRAT),
    ("glue-fallback", ["glue"] + PATHS + FALLBACK),
    ("glue-fallback-strat", ["glue"] + PATHS + FALLBACK + STRAT),
    ("simulate-d2-periodic", ["simulate", "--paths", "8"] + D2_PERIODIC),
    ("estimate-d2-periodic", ["estimate", "--paths", "8"] + D2_PERIODIC),
    ("estimate-lam-mpower", ["estimate", "--seed", "5"] + PATHS
     + ["--override", "model.lam=2", "--override", "m_power=2",
        "--override", "u0.value=0.05"]),
    ("sweep-gamma1", ["check-params", "--sweep", "gamma1", "0.3", "1.5", "5"]),
    ("simulate-dumps", ["simulate"] + DUMPS),
    ("glue-dumps", ["glue"] + DUMPS + FALLBACK),
    ("fixed-point-pathwise", ["fixed-point", "--paths", "1"] + PATHWISE),
    ("glue-pathwise", ["glue", "--paths", "2"] + PATHWISE),
    ("glue-pathwise-cutoff", ["glue", "--paths", "2"] + PATHWISE
     + ["--override", "noise.mode_cutoff=8"]),
    ("simulate-d2-n32", ["simulate", "--paths", "16"] + D2_N32),
    ("simulate-d2-n32-strat", ["simulate", "--paths", "16"] + D2_N32 + STRAT),
    ("fixed-point-d2", ["fixed-point"] + D2_FIXED_POINT),
    ("glue-d2", ["glue"] + D2_N8 + FALLBACK),
    ("simulate-noiseless-dumps", ["simulate"] + DUMPS + NOISELESS),
    ("glue-uncoupled-dumps", ["glue"] + DUMPS + FALLBACK + UNCOUPLED),
    ("fixed-point-noiseless", ["fixed-point", "--paths", "4"] + NOISELESS),
    ("fixed-point-uncoupled", ["fixed-point", "--paths", "4"] + UNCOUPLED),
    ("fixed-point-uncoupled-strat", ["fixed-point", "--paths", "4"] + UNCOUPLED + STRAT),
    ("simulate-tiny-u0", ["simulate", "--paths", "4", "--override", "u0.value=1e-6"]),
    ("simulate-pathwise-band", ["simulate", "--paths", "2", "--override", "kappa=1.2"]
     + PATHWISE),
    ("fixed-point-pathwise-strat", ["fixed-point", "--paths", "1"] + PATHWISE + STRAT),
    ("fixed-point-pathwise-uncoupled", ["fixed-point", "--paths", "1"] + PATHWISE + UNCOUPLED),
    ("fixed-point-d2-one-path", ["fixed-point"] + D2_FIXED_POINT + ["--paths", "1"]),
    ("fixed-point-retiring", ["fixed-point"] + RETIRING),
    ("fixed-point-pathwise-no-convergence", ["fixed-point", "--paths", "1"] + PATHWISE
     + ["--override", "max_iter=3"]),
]


def run_all(src: Path, out_root: Path) -> dict[str, int]:
    """Run every case on one tree; returns the exit code per run."""
    env = dict(os.environ, PYTHONPATH=str(src))
    codes = {}
    for name, args in RUNS:
        out = out_root / name
        out.mkdir(parents=True)
        proc = subprocess.run([sys.executable, "-m", "grayscott.cli", *args, "--out", str(out)],
                              env=env, cwd=out_root, capture_output=True, text=True)
        codes[name] = proc.returncode
        for stream, text in (("stdout", proc.stdout), ("stderr", proc.stderr)):
            text = text.replace(str(out), "<out>")
            text = re.sub(re.escape(str(src)) + r"([\w/.]*?\.py):\d+:", r"<src>\1:<line>:", text)
            (out_root / f"{name}.{stream}").write_text(text.replace(str(src), "<src>"))
    return codes


def manifest(path: Path) -> dict:
    doc = json.loads(path.read_text())
    doc.pop("wall_time_s", None)
    return doc


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/compare_outputs.py SRC_A SRC_B", file=sys.stderr)
        return 2
    srcs = [Path(a).resolve() for a in argv]
    for src in srcs:
        if not (src / "grayscott" / "cli.py").is_file():
            print(f"error: {src} holds no grayscott package", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory() as tmp:
        roots = [Path(tmp) / side for side in ("a", "b")]
        codes = [run_all(src, root) for src, root in zip(srcs, roots)]
        diffs = [f"exit code of {name}: {codes[0][name]} vs {codes[1][name]}"
                 for name, _ in RUNS if codes[0][name] != codes[1][name]]
        files = [sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())
                 for root in roots]
        diffs += [f"only in {side}: {rel}" for side, mine, other in
                  (("a", files[0], files[1]), ("b", files[1], files[0]))
                  for rel in sorted(set(mine) - set(other))]
        same = 0
        for rel in sorted(set(files[0]) & set(files[1])):
            a, b = (root / rel for root in roots)
            if rel.name == "manifest.json":
                equal = manifest(a) == manifest(b)
            else:
                equal = filecmp.cmp(a, b, shallow=False)
            if equal:
                same += 1
            else:
                diffs.append(f"differs: {rel}")
    for line in diffs:
        print(line)
    print(f"{len(RUNS)} runs per tree: {same} files identical, {len(diffs)} differences "
          "(manifests compared without wall_time_s)")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
