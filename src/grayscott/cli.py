"""Command-line entry point: configuration, run orchestration and
persistence of norm series, reports and field dumps.

Artifacts are plain CSV (full-precision floats) plus raw little-endian
field dumps behind a 64-byte text header; a JSON manifest recording
every knob is written last.

Every float in a CSV is written as ``'%.17g'`` writes it.  The norm
series of a batch are formatted by one exact vectorized kernel
(``_csv_bytes``), a chunk of whole paths (at most ``_CHUNK_VALUES``
values) at a time, and split into the path files: a value in [1e-4, 1e15)
takes its 17 significant digits from Dekker's error-free product, any
other (zero, negative, non-finite or out of that range) goes through
``'%.17g' % v`` on its own.  ``write_csv`` formats every cell with
``_fmt`` and is the reference for those bytes.
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
from .integrate import BatchRecord, simulate_ensemble, simulate_glued
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
_CHUNK_VALUES = 1 << 14  # values per call of the exact kernel: a few MiB of cells

# The exact kernel's cell: slots 0.._ZEROS hold '0', digit j of a value
# goes to slot _ZEROS + 1 + j, and the longest '%.17g' text (24 bytes)
# fits with its separator.
_ZEROS, _CELL = 5, 25
_POW10 = np.array([float(10**k) for k in range(23)])  # exact doubles
_VELTKAMP = 134217729.0  # 2**27 + 1: splits a double into two 26-bit halves


def _cell_slots() -> np.ndarray:
    """The slots a cell keeps, by row (E + 4) * 18 + nd for a value with
    decimal exponent E in [-4, 15] and nd significant digits: %g's fixed
    notation and the separator after it."""
    keep = np.zeros((20, 18, _CELL), bool)
    for e in range(-4, 16):
        for nd in range(1, 18):
            end = _ZEROS + 1 + nd if nd > e + 1 else _ZEROS + 1 + e
            keep[e + 4, nd, _ZEROS + min(e, 0):end + 1] = True
    return keep.reshape(-1, _CELL)


_KEPT = _cell_slots()
_KEPT_BYTES = _KEPT.sum(axis=1)
_RANKS = np.arange(1, 18, dtype=np.uint8)[:, None]  # digit j is the (j+1)-th


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _halves(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: big + small == a, each with at most 26 bits."""
    t = _VELTKAMP * a
    big = t - (t - a)
    return big, a - big


_POW10_HALVES = _halves(_POW10)


def _scaled(x: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """hi, lo with hi + lo == x * 10**(16 - e) exactly: Dekker's
    TwoProduct, which needs no fused multiply-add."""
    k = 16 - e
    hi = x * _POW10[k]
    xb, xs = _halves(x)
    pb, ps = (half[k] for half in _POW10_HALVES)
    lo = xb * pb - hi
    lo += xb * ps
    lo += xs * pb
    lo += xs * ps
    return hi, lo


def _csv_bytes(table: np.ndarray) -> list[memoryview]:
    """The CSV text of each table[g] of a (G, R, C) float64 table: every
    value as '%.17g' writes it, ',' between columns and '\n' after each
    row.

    A value x in [1e-4, 1e15) is converted exactly.  With E = floor(log10
    x), 10**(16 - E) is an exact double and hi + lo == x * 10**(16 - E)
    exactly (``_scaled``); hi lies in [1e16, 1e17], above 2**53, so it is
    an even whole number and the 17 correctly rounded digits are hi +
    rint(lo), half to even.  A product outside [1e16, 1e17) (log10 rounded
    across a power of ten) is redone once at E -/+ 1.  Every other value
    goes through '%.17g' % v on its own.
    """
    x = table.reshape(-1)
    n = x.size
    seps = np.full(table.shape, ord(","), np.uint8)
    seps[..., -1] = ord("\n")
    seps = seps.reshape(-1)
    exact = (x >= 1e-4) & (x < 1e15)
    xs = np.where(exact, x, 1.0)
    e = np.floor(np.log10(xs)).astype(np.intp)
    hi, lo = _scaled(xs, e)
    low = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    redo = low | high
    if redo.any():
        e[redo] += high[redo].astype(np.intp) - low[redo]
        hi[redo], lo[redo] = _scaled(xs[redo], e[redo])
    # No digits round up to 10**17: the closest double below a power of
    # ten in the range is 8.3e-17 of it away, relatively, not 5e-18.
    digits17 = hi.astype(np.int64) + np.rint(lo).astype(np.int64)

    slots = np.empty((_CELL, n), np.uint8)  # slot s of every cell
    slots[:_ZEROS + 1] = ord("0")
    digits = slots[_ZEROS + 1:_ZEROS + 18]
    upper, lower = (part.astype(np.uint32) for part in np.divmod(digits17, 10**9))
    for part, js in ((lower, range(16, 7, -1)), (upper, range(7, -1, -1))):
        for j in js:
            quot = part // 10
            np.subtract(part, quot * 10, out=digits[j], casting="unsafe")
            part = quot
    nd = ((digits != 0) * _RANKS).max(axis=0)  # significant digits, trailing zeros dropped
    digits += ord("0")
    for j in range(e.max() + 1):  # the integer digits move one slot left, before the point
        np.copyto(slots[_ZEROS + j], digits[j], where=e >= j)
    flat = slots.reshape(-1)
    cell = np.arange(_ZEROS * n, (_ZEROS + 1) * n)
    flat[cell + (e + 1) * n] = ord(".")
    flat[cell + np.where(nd > e + 1, nd + 1, e + 1) * n] = seps
    row = (e + 4) * 18 + nd
    keep = _KEPT.take(row, axis=0)
    size = _KEPT_BYTES.take(row)
    cells = slots.T
    if not exact.all():
        fall = np.flatnonzero(~exact)
        text = np.array(["%.17g" % v for v in x[fall].tolist()], dtype="S24")
        width = np.strings.str_len(text)
        cells[fall, :24] = text.view(np.uint8).reshape(-1, 24)
        cells[fall, width] = seps[fall]
        keep[fall] = np.arange(_CELL) <= width[:, None]
        size[fall] = width + 1
    data = memoryview(cells[keep])
    ends = np.cumsum(size.reshape(table.shape[0], -1).sum(axis=1)).tolist()
    return [data[a:b] for a, b in zip([0] + ends, ends)]


def write_norm_series(paths: list[str], record: BatchRecord):
    """The norm series CSV of every path of ``record``, row i to
    ``paths[i]``: each value as '%.17g' writes it, what _fmt writes.  The
    exact kernel formats a chunk of whole paths per call, at most
    _CHUNK_VALUES values (a path longer than that, a block of its rows)."""
    header = (",".join(name for name, _ in NORM_FILE_COLUMNS) + "\n").encode()
    times = record.times
    steps, width = times.size, len(NORM_FILE_COLUMNS)
    block = max(1, _CHUNK_VALUES // width)  # table rows per call
    group = max(1, block // steps)  # whole paths per call
    for first in range(0, len(paths), group):
        batch = slice(first, min(first + group, len(paths)))
        texts = [[header] for _ in paths[batch]]
        for start in range(0, steps, block):
            span = slice(start, min(start + block, steps))
            table = np.empty((len(texts), span.stop - start, width))
            table[..., 0] = times[span]
            for j, col in enumerate(FILE_SERIES, 1):
                table[..., j] = record.series[col][batch, span]
            for text, part in zip(texts, _csv_bytes(table)):
                text.append(part)
        for path, text in zip(paths[batch], texts):
            with open(path, "wb") as fh:
                fh.writelines(text)


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


def _simulate_batch(cfg: RunConfig, columns) -> BatchRecord:
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


def _write_records(cfg: RunConfig, ctx: RunContext, record: BatchRecord):
    t_end = float(record.times[-1])
    ids = record.path_ids.tolist()
    write_norm_series([ctx.path(f"path_{pid:05d}.csv") for pid in ids], record)
    if not cfg.field_dumps:
        return
    for i, pid in enumerate(ids):
        for t, uv in ((0.0, (record.u0, record.v0)), (t_end, record.final[:, i])):
            for name, coeffs in zip("uv", uv):
                write_field_dump(ctx.path(f"field_{name}_{pid:05d}_t{t:.6g}.bin"),
                                 coeffs, cfg.space, name, t)


def cmd_simulate(cfg: RunConfig, ctx: RunContext, args) -> int:
    record = _simulate_batch(cfg, FILE_SERIES)
    _write_records(cfg, ctx, record)
    print(f"simulated {record.path_ids.size} paths, {record.n_steps} steps each; "
          f"{np.count_nonzero(record.stop_step >= 0)} reached the cutoff level")
    ctx.finish("ok")
    return 0


def cmd_glue(cfg: RunConfig, ctx: RunContext, args) -> int:
    record = simulate_glued(
        cfg.model, cfg.space, cfg.noise, *_initial_data(cfg), cfg.kappa_schedule,
        cfg.T, cfg.dt, np.arange(cfg.paths), columns=FILE_SERIES,
    )
    _write_records(cfg, ctx, record)
    # path-major: the events come in step order, so a stable sort by row
    rows = [[int(record.path_ids[i]), kappa, tbar]
            for i, kappa, tbar in sorted(record.glue_events, key=lambda e: e[0])]
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
    record = _simulate_batch(cfg, ESTIMATED_COLUMNS)
    u0 = cfg.u0.build(cfg.space)
    reports = [estimate_u_L2(record, u0_l2_sq=u0.l2_norm() ** 2)]
    pstar = estimate_u_pstar(record, lam=cfg.model.lam)
    reports += [pstar["sup"], pstar["gradient"]]
    vh = estimate_v_Halpha(record)
    reports += [vh["sup"], vh["dissipation"]]
    reports.append(estimate_coupling(record, m=cfg.m_power))
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
