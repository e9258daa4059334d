"""Command-line entry point: configuration, run orchestration and
persistence of norm series, reports and field dumps.

Artifacts are plain CSV (full-precision floats) plus raw little-endian
field dumps behind a 64-byte text header; a JSON manifest recording
every knob is written last.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .config import (
    RunConfig,
    apply_overrides,
    config_from_dict,
    config_to_dict,
    parse_document,
)
from .convergence import strong_order_study
from .errors import (
    GrayScottError,
    NoConvergence,
    NonFinite,
    ParseError,
    ValidationError,
)
from .estimators import (
    ESTIMATED_COLUMNS,
    estimate_coupling,
    estimate_u_L2,
    estimate_u_pstar,
    estimate_v_Halpha,
)
from .fixedpoint import compute_kset_constants, kset_check, picard_solve
from .integrate import PathRecord, simulate_ensemble, simulate_glued
from .paramgate import evaluate_gate, gate_args, gate_sweep
from .spectral import lp_norm, sobolev_norm

OUT_ENV_VAR = "GRAYSCOTT_OUT"
NORM_FILE_COLUMNS = (
    ("t", None),
    ("u_L2", "u_l2"),
    ("u_Lpstar", "u_lpstar"),
    ("v_Halpha", "v_halpha"),
    ("v_Halpha_aleph2", "v_halpha_diss"),
    ("h", "h"),
    ("phi", "phi"),
)
FILE_SERIES = tuple(col for _, col in NORM_FILE_COLUMNS[1:])  # what simulate and glue record
MAX_SWEEP_ROWS = 100_000  # rows of one --sweep; N is checked before any row is built


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def write_norm_series(path: str, record: PathRecord):
    """The norm series CSV, formatted in one call: '%.17g' writes what _fmt writes."""
    table = np.column_stack([record.times] + [record.series[col] for col in FILE_SERIES])
    row_fmt = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(name for name, _ in NORM_FILE_COLUMNS) + "\n")
        fh.write((row_fmt * table.shape[0]) % tuple(table.ravel().tolist()))


def write_field_dump(path: str, coeffs: np.ndarray, space, name: str, t: float):
    header = f"d={space.d} bc={space.boundary} N={space.modes_per_axis} field={name} t={t:.9g}"
    raw = header.encode("ascii")[:64].ljust(64, b" ")
    with open(path, "wb") as fh:
        fh.write(raw)
        fh.write(np.asarray(coeffs, dtype="<f8").tobytes())


def read_field_dump(path: str) -> tuple[dict, np.ndarray]:
    with open(path, "rb") as fh:
        header = fh.read(64).decode("ascii").strip()
        data = np.frombuffer(fh.read(), dtype="<f8")
    meta = dict(item.split("=", 1) for item in header.split())
    return meta, data


def write_csv(path: str, header: list[str], rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) if isinstance(x, float) else str(x) for x in row) + "\n")


class RunContext:
    """Collects artifacts and writes the manifest last."""

    def __init__(self, out_dir: str, cfg: RunConfig, subcommand: str):
        self.out_dir = out_dir
        self.cfg = cfg
        self.subcommand = subcommand
        self.outputs: list[str] = []
        self.t0 = time.perf_counter()
        os.makedirs(out_dir, exist_ok=True)

    def path(self, name: str) -> str:
        self.outputs.append(name)
        return os.path.join(self.out_dir, name)

    def finish(self, status: str, partial: bool = False):
        gate = evaluate_gate(**gate_args(self.cfg.model, self.cfg.noise, self.cfg.space))
        manifest = {
            "subcommand": self.subcommand,
            "config": config_to_dict(self.cfg),
            "seed": self.cfg.noise.seed,
            "code_version": __version__,
            "gate_admissible": gate.overall,
            "wall_time_s": time.perf_counter() - self.t0,
            "status": status,
            "partial": partial,
            "outputs": sorted(self.outputs),
        }
        with open(os.path.join(self.out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)


def _initial_data(cfg: RunConfig):
    return cfg.u0.build(cfg.space), cfg.v0.build(cfg.space)


def _simulate_records(cfg: RunConfig, columns) -> list[PathRecord]:
    return simulate_ensemble(
        cfg.model, cfg.space, cfg.noise, *_initial_data(cfg), cfg.kappa,
        cfg.T, cfg.dt, np.arange(cfg.paths), columns=columns,
    )


def _sweep_axis(sweep: list[str], names, cfg: RunConfig) -> tuple[str, list]:
    """(NAME, N values from LO to HI) of one --sweep NAME LO HI N, each
    value checked against the ranges of the run's parameters."""
    name, lo, hi, n = sweep
    violations = []
    if name not in names:
        violations.append(f"--sweep NAME must be one of {', '.join(names)}, got {name!r}")
    bounds = []
    for label, raw in (("LO", lo), ("HI", hi)):
        try:
            bounds.append(float(raw))
        except ValueError:
            bounds.append(math.nan)
        if not math.isfinite(bounds[-1]):
            violations.append(f"--sweep {label} must be a finite number, got {raw!r}")
    try:
        count = int(n) if n.strip().isdecimal() else 0
    except ValueError:  # more digits than int() converts
        count = MAX_SWEEP_ROWS + 1
    if count < 1:
        violations.append(f"--sweep N must be an integer >= 1, got {n!r}")
    elif count > MAX_SWEEP_ROWS:
        violations.append(f"--sweep N must be at most {MAX_SWEEP_ROWS}, got {n!r}")
    if violations:
        raise ValidationError(violations)
    values = list(np.linspace(*bounds, count))
    if name == "d":  # an integer the gate knows only as 1 or 2
        if not set(values) <= {1.0, 2.0}:
            raise ValidationError(
                [f"--sweep d takes only the values 1 and 2, got {[float(x) for x in values]}"])
        return name, [int(x) for x in values]
    section = "noise" if name in ("gamma1", "gamma2") else "model"
    for x in values:
        dataclasses.replace(getattr(cfg, section), **{"p_star" if name == "p_star0" else name: x})
    return name, values


def cmd_check_params(cfg: RunConfig, ctx: RunContext, args) -> int:
    base = gate_args(cfg.model, cfg.noise, cfg.space)
    axes = [_sweep_axis(sweep, base, cfg) for sweep in args.sweep or []]
    report = evaluate_gate(**base)
    text = "\n".join(report.lines())
    print(text)
    with open(ctx.path("gate_report.txt"), "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    for i, (name, values) in enumerate(axes):
        rows = [[row[0], int(row[1]), row[2], row[3]] for row in gate_sweep(base, (name, values))]
        write_csv(ctx.path(f"gate_sweep_{i}_{name}.csv"),
                  [name, "admissible", "n_failed", "worst_margin"], rows)
    ctx.finish("ok")
    return 0


def _write_records(cfg: RunConfig, ctx: RunContext, records: list[PathRecord]):
    for rec in records:
        write_norm_series(ctx.path(f"path_{rec.path_id:05d}.csv"), rec)
        if cfg.field_dumps:
            for t, u_coeffs, v_coeffs in rec.snapshots:
                for name, coeffs in (("u", u_coeffs), ("v", v_coeffs)):
                    write_field_dump(
                        ctx.path(f"field_{name}_{rec.path_id:05d}_t{t:.6g}.bin"),
                        coeffs, cfg.space, name, t,
                    )


def cmd_simulate(cfg: RunConfig, ctx: RunContext, args) -> int:
    records = _simulate_records(cfg, FILE_SERIES)
    _write_records(cfg, ctx, records)
    stopped = sum(1 for r in records if r.stop_step is not None)
    print(f"simulated {len(records)} paths, {records[0].n_steps} steps each; "
          f"{stopped} reached the cutoff level")
    ctx.finish("ok")
    return 0


def cmd_glue(cfg: RunConfig, ctx: RunContext, args) -> int:
    records = simulate_glued(
        cfg.model, cfg.space, cfg.noise, *_initial_data(cfg), cfg.kappa_schedule,
        cfg.T, cfg.dt, np.arange(cfg.paths), columns=FILE_SERIES,
    )
    _write_records(cfg, ctx, records)
    rows = [[rec.path_id, kappa, tbar] for rec in records for kappa, tbar in rec.glue_events]
    write_csv(ctx.path("glue_events.csv"), ["path", "kappa", "stop_time"], rows)
    print(f"glued {cfg.paths} paths; {len(rows)} glue events")
    ctx.finish("ok")
    return 0


def cmd_fixed_point(cfg: RunConfig, ctx: RunContext, args) -> int:
    u0, v0 = _initial_data(cfg)
    m = cfg.model
    result = picard_solve(
        m, cfg.space, cfg.noise, u0, v0, cfg.kappa, np.arange(cfg.paths),
        cfg.T, cfg.dt, tol=cfg.tol, max_iter=cfg.max_iter,
    )
    constants = compute_kset_constants(
        u0.l2_norm() ** 2, lp_norm(u0, m.p_star) ** m.p_star,
        sobolev_norm(v0, m.rho) ** 2, cfg.T, m.lam, m.p_star,
    )
    check = kset_check(result["fixed_point"], constants, m.rho, m.aleph, m.p_star)
    rows = [[pid, i + 1, res] for pid, trace in enumerate(result["residuals"])
            for i, res in enumerate(trace)]
    margin_rows = []
    for pid in range(cfg.paths):
        in_set = bool(check["in_set"][pid])
        margin_rows.append([pid, int(in_set), *check["margins"][pid]])
        print(f"path {pid}: fixed point in {result['iterates'][pid]} iterations, "
              f"in_set={in_set}")
    write_csv(ctx.path("residuals.csv"), ["path", "iteration", "residual"], rows)
    write_csv(ctx.path("kset_margins.csv"),
              ["path", "in_set", "margin_K1", "margin_K2", "margin_K3"], margin_rows)
    ctx.finish("ok")
    return 0


def cmd_estimate(cfg: RunConfig, ctx: RunContext, args) -> int:
    records = _simulate_records(cfg, ESTIMATED_COLUMNS)
    u0 = cfg.u0.build(cfg.space)
    reports = [estimate_u_L2(records, u0_l2_sq=u0.l2_norm() ** 2)]
    pstar = estimate_u_pstar(records, lam=cfg.model.lam)
    reports += [pstar["sup"], pstar["gradient"]]
    vh = estimate_v_Halpha(records)
    reports += [vh["sup"], vh["dissipation"]]
    reports.append(estimate_coupling(records, m=cfg.m_power))
    rows = [[r.name, r.n_paths, r.estimate, r.ci_halfwidth] for r in reports]
    write_csv(ctx.path("reports.csv"),
              ["quantity", "n_paths", "estimate", "ci_halfwidth"], rows)
    width = max(len(r.name) for r in reports)
    lines = [f"{r.name:<{width}}  {r.estimate:14.6g} +/- {r.ci_halfwidth:.3g}"
             for r in reports]
    text = "\n".join(lines)
    print(text)
    with open(ctx.path("reports.txt"), "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    ctx.finish("ok")
    return 0


def cmd_convergence(cfg: RunConfig, ctx: RunContext, args) -> int:
    u0, v0 = _initial_data(cfg)
    dts = [cfg.T * 2.0**-j for j in range(5, 9)]
    det = strong_order_study(
        dataclasses.replace(cfg.model, sigma1=0.0, sigma2=0.0), cfg.space, cfg.noise,
        u0, v0, cfg.T, dts, n_paths=1, ref_refinement=16,
    )
    strong = strong_order_study(
        dataclasses.replace(cfg.model, c1=0.0, c2=0.0), cfg.space, cfg.noise,
        u0, v0, cfg.T, dts, n_paths=min(cfg.paths, 128),
    )
    rows = [["deterministic", dt, err] for dt, err in zip(det["dts"], det["errors"])]
    rows += [["strong", dt, err] for dt, err in zip(strong["dts"], strong["errors"])]
    write_csv(ctx.path("convergence.csv"), ["study", "dt", "error"], rows)
    print(f"deterministic order {det['order']:.3f}, strong order {strong['order']:.3f}")
    ctx.finish("ok")
    return 0


_COMMANDS = {
    "check-params": cmd_check_params,
    "simulate": cmd_simulate,
    "glue": cmd_glue,
    "fixed-point": cmd_fixed_point,
    "estimate": cmd_estimate,
    "convergence": cmd_convergence,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grayscott",
        description="Spectral simulation and verification harness for the "
                    "stochastic activator-inhibitor system",
    )
    parser.add_argument("subcommand", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="path to a JSON configuration document")
    parser.add_argument("--seed", type=int, help="noise seed override")
    parser.add_argument("--paths", type=int, help="ensemble size override")
    parser.add_argument("--out", help=f"output directory (default ${OUT_ENV_VAR} or ./grayscott-out)")
    parser.add_argument("--override", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="dotted config override, repeatable (e.g. model.q=2)")
    parser.add_argument("--sweep", action="append", nargs=4,
                        metavar=("NAME", "LO", "HI", "N"),
                        help="check-params: sweep one gate argument over a range")
    return parser


def load_config(args) -> RunConfig:
    doc = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as err:
            reason = err.strerror if isinstance(err, OSError) else err
            raise ParseError(f"cannot read {args.config}: {reason}") from err
        doc = parse_document(text, args.config)
    if args.override:
        doc = apply_overrides(doc, args.override)
    if args.seed is not None:
        doc.setdefault("noise", {})["seed"] = args.seed
    if args.paths is not None:
        doc["paths"] = args.paths
    return config_from_dict(doc)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
    except (ParseError, ValidationError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    out_dir = args.out or os.environ.get(OUT_ENV_VAR) or "grayscott-out"
    try:
        ctx = RunContext(out_dir, cfg, args.subcommand)
    except OSError as err:
        print(f"output error: cannot create directory {out_dir}: {err.strerror}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.subcommand](cfg, ctx, args)
    except (NonFinite, NoConvergence) as err:
        print(f"run failed: {err}", file=sys.stderr)
        ctx.finish(f"error: {err}", partial=True)
        return 1
    except GrayScottError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        ctx.finish(f"error: {err}", partial=True)
        return 2


if __name__ == "__main__":
    sys.exit(main())
