"""Benchmark workloads: configs generated from the seed, the CLI calls of
one round, and what each call's output files say.

A workload is a closed loop with one caller: a round runs its CLI calls
one after another, each after the previous one returned.  The program
only ever sees a JSON config (``--config``) plus ``--override`` values.
"""

from __future__ import annotations

import copy
import hashlib
import math
import os
from dataclasses import dataclass

import numpy as np

# Seeds map onto this many distinct noise seeds, each with stored reference
# values (reference.json), so every run is checked against a reference.
SEED_CLASSES = 16

# Relative tolerance of the reference check.  Outputs move in the last
# bits with BLAS batch shape, so the check is not bitwise.
REL_TOL = 1e-8
# Final Picard residuals are compared by order of magnitude: within this
# many decades of the reference.
RESIDUAL_DECADES = 1.0

NORM_COLUMNS = ("u_L2", "u_Lpstar", "v_Halpha", "v_Halpha_aleph2", "h", "phi")


@dataclass(frozen=True)
class Call:
    subcommand: str
    paths: int


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict  # config document without the noise seed
    calls: tuple[Call, ...]
    calibration: str = "interpreter"  # calibrate.KERNELS entry matching the workload


# Calls are kept short (about 0.3 to 2 s) so that a run holds many rounds:
# on a shared machine the median of many short samples is far steadier
# than that of a few long ones.
WORKLOADS = {
    w.name: w
    for w in (
        # everyday batched path at the default d=1 config: noise,
        # record_norms and per-path CSV writing all carry weight
        Workload("ensemble-d1", {"T": 0.2}, (Call("simulate", 200), Call("estimate", 200))),
        # 64x64 dealiased grid: the spectral GEMMs dominate, I/O is negligible
        Workload(
            "ensemble-d2",
            {"space": {"d": 2, "modes_per_axis": 32, "grid_points_per_axis": 64}, "T": 0.1},
            (Call("simulate", 16),),
            calibration="dense",
        ),
        # single-path loops.  The default schedule (1,2,3,4) glues every path
        # at t=0 when v0=1; this one stops at t~0.03, 0.13 and 0.30, so every
        # level and the linear fallback run before T
        Workload(
            "pathwise-d1",
            {"kappa_schedule": [1.2, 1.4, 1.6], "T": 0.35},
            (Call("glue", 2), Call("fixed-point", 1)),
        ),
        # fine noise grid, four coarse levels, no recording or per-path I/O
        Workload("order-study", {}, (Call("convergence", 16),)),
    )
}


def config_for(workload: Workload, seed: int) -> dict:
    doc = copy.deepcopy(workload.config)
    doc.setdefault("noise", {})["seed"] = seed % SEED_CLASSES
    return doc


def cli_argv(call: Call, config_path: str, out_dir: str) -> list[str]:
    return [call.subcommand, "--config", config_path,
            "--override", f"paths={call.paths}", "--out", out_dir]


# ---------------------------------------------------------------------------
# reading a call's outputs
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    """What one CLI call's output files say."""

    values: dict  # reference-checked values
    path_steps: int
    bytes_written: int  # artifact bytes, manifest excluded (it holds a wall time)
    norm_sha256: str | None = None  # information only, never gated
    picard_iterations: int = 0


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _norm_series(out_dir: str) -> tuple[dict, int, str]:
    """Ensemble means of the norm columns at T, path-steps and a digest."""
    names = sorted(n for n in os.listdir(out_dir) if n.startswith("path_") and n.endswith(".csv"))
    digest = hashlib.sha256()
    finals, steps = [], 0
    for name in names:
        with open(os.path.join(out_dir, name), "rb") as fh:
            raw = fh.read()
        digest.update(raw)
        lines = raw.decode("utf-8").splitlines()
        header = lines[0].split(",")
        finals.append([float(x) for x in lines[-1].split(",")])
        steps += len(lines) - 2
    if not names:
        raise ValueError("no norm series written")
    cols = [header.index(c) for c in NORM_COLUMNS]
    mean = np.mean(np.asarray(finals), axis=0)
    values = {f"mean_T.{c}": float(mean[i]) for c, i in zip(NORM_COLUMNS, cols)}
    values["paths"] = len(names)
    return values, steps, digest.hexdigest()


def _artifact_bytes(out_dir: str) -> int:
    return sum(os.path.getsize(os.path.join(out_dir, n))
               for n in os.listdir(out_dir) if n != "manifest.json")


def _fit_order(dts, errors) -> float:
    slope, _ = np.polyfit(np.log(dts), np.log(errors), 1)
    return float(slope)


def read_outcome(subcommand: str, out_dir: str, cfg: dict) -> Outcome:
    n_steps = int(round(cfg.get("T", 0.5) / cfg.get("dt", 1e-3)))
    nbytes = _artifact_bytes(out_dir)
    if subcommand in ("simulate", "glue"):
        values, steps, sha = _norm_series(out_dir)
        if subcommand == "glue":
            _, rows = _read_csv(os.path.join(out_dir, "glue_events.csv"))
            values["glue_events"] = [[int(p), float(k), float(t)] for p, k, t in rows]
        return Outcome(values, steps, nbytes, sha)
    if subcommand == "estimate":
        _, rows = _read_csv(os.path.join(out_dir, "reports.csv"))
        values = {f"estimate.{q}": float(est) for q, _, est, _ in rows}
        n_paths = int(rows[0][1])
        return Outcome(values, n_paths * n_steps, nbytes)
    if subcommand == "fixed-point":
        _, rows = _read_csv(os.path.join(out_dir, "residuals.csv"))
        per_path: dict[int, list[float]] = {}
        for p, _, res in rows:
            per_path.setdefault(int(p), []).append(float(res))
        _, margins = _read_csv(os.path.join(out_dir, "kset_margins.csv"))
        values = {
            "picard_iterations": [len(per_path[p]) for p in sorted(per_path)],
            "final_residual": [per_path[p][-1] for p in sorted(per_path)],
            # invariant-set margins are functionals of each fixed point
            "kset_margins": [float(m) for row in margins for m in row[2:]],
        }
        return Outcome(values, len(rows) * n_steps, nbytes, picard_iterations=len(rows))
    if subcommand == "convergence":
        _, rows = _read_csv(os.path.join(out_dir, "convergence.csv"))
        values, steps = {}, 0
        T = cfg.get("T", 0.5)
        for study, ref_refinement, n_paths in (
            ("deterministic", 16, 1),
            ("strong", 8, min(cfg.get("paths", 100), 128)),
        ):
            dts = [float(dt) for s, dt, _ in rows if s == study]
            errors = [float(e) for s, _, e in rows if s == study]
            values[f"{study}.errors"] = errors
            values[f"{study}.order"] = _fit_order(dts, errors)
            # the reference (finest) level plus every coarse level
            level_steps = round(T / (min(dts) / ref_refinement)) + sum(round(T / dt) for dt in dts)
            steps += n_paths * level_steps
        return Outcome(values, steps, nbytes)
    raise ValueError(f"unknown subcommand {subcommand!r}")


# ---------------------------------------------------------------------------
# the reference check
# ---------------------------------------------------------------------------


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-300)


def compare(values: dict, ref: dict, dt: float) -> list[str]:
    """Mismatches of ``values`` against stored reference values."""
    bad = []
    if set(values) != set(ref):
        bad.append(f"keys differ: {sorted(set(values) ^ set(ref))}")
    for key in sorted(set(values) & set(ref)):
        got, want = values[key], ref[key]
        if key == "glue_events":
            same = len(got) == len(want) and all(
                g[0] == w[0] and _close(g[1], w[1]) and abs(g[2] - w[2]) < dt / 4
                for g, w in zip(got, want))
        elif key == "final_residual":
            same = len(got) == len(want) and all(
                g > 0 and abs(math.log10(g) - math.log10(w)) <= RESIDUAL_DECADES
                for g, w in zip(got, want))
        elif isinstance(want, list):
            same = len(got) == len(want) and all(
                g == w if isinstance(w, int) else _close(g, w) for g, w in zip(got, want))
        elif isinstance(want, int):
            same = got == want
        else:
            same = _close(got, want)
        if not same:
            bad.append(f"{key}: got {got}, reference {want}")
    return bad
