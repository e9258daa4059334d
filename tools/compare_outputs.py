"""Byte-compare the CLI outputs of two source trees over a fixed set of runs.

Run from anywhere:

    python3 tools/compare_outputs.py OLD/src NEW/src

Each run in ``RUNS`` is a fresh ``python3 -m grayscott.cli`` process per
tree, with that tree's ``src`` on ``PYTHONPATH`` and its own output
directory.  The set covers:

- the six subcommands at seeds 0 and 5 (20 paths);
- ``simulate`` under ``semi_implicit`` + Stratonovich;
- ``glue`` at ``kappa_schedule=[1.05,1.1]``, which reaches the linear
  fallback, plain and under ``semi_implicit`` + Stratonovich;
- ``simulate`` at d=2 periodic, aleph=1.5;
- ``check-params --sweep gamma1``;
- ``simulate`` and ``glue`` with ``field_dumps=true``.

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
SEMI_STRAT = ["--override", "model.scheme=semi_implicit",
              "--override", "noise.interpretation=stratonovich"]
FALLBACK = ["--override", "kappa_schedule=[1.05,1.1]"]
D2_PERIODIC = ["--override", "space.d=2", "--override", "space.boundary=periodic",
               "--override", "space.modes_per_axis=8",
               "--override", "space.grid_points_per_axis=16",
               "--override", "model.aleph=1.5", "--override", "T=0.1"]
DUMPS = ["--override", "field_dumps=true", "--paths", "4"]

RUNS = [
    (f"{cmd}-seed{seed}", [cmd, "--seed", str(seed)] + PATHS)
    for cmd in ("check-params", "simulate", "glue", "fixed-point", "estimate", "convergence")
    for seed in (0, 5)
] + [
    ("simulate-semi-strat", ["simulate"] + PATHS + SEMI_STRAT),
    ("glue-fallback", ["glue"] + PATHS + FALLBACK),
    ("glue-fallback-semi-strat", ["glue"] + PATHS + FALLBACK + SEMI_STRAT),
    ("simulate-d2-periodic", ["simulate", "--paths", "8"] + D2_PERIODIC),
    ("sweep-gamma1", ["check-params", "--sweep", "gamma1", "0.3", "1.5", "5"]),
    ("simulate-dumps", ["simulate"] + DUMPS),
    ("glue-dumps", ["glue"] + DUMPS + FALLBACK),
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
