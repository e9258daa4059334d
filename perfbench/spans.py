"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps the public functions of each ``grayscott`` module from
outside the package: module-level names are patched where the caller
looks them up (``from .x import f`` binds ``f`` in the consumer's
namespace), methods are patched on their class.  Every wrapped call
records one span (name, start, end, parent, run id); spans stay in
memory and are written out once, when the benchmark run ends.  A span's
self time is its duration minus the time its child spans cover; calls
are single-threaded and strictly nested, so that is the sum of the
children's durations.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import defaultdict

import numpy as np

from grayscott import cli, fixedpoint, integrate, noise, paramgate, spectral

# Per-layer metrics of a traced round, in report order, with their units.
PER_LAYER = (
    ("noise.increments.calls", "count"),
    ("noise.increments.self_s", "s"),
    ("noise.increment_block.calls", "count"),
    ("noise.increment_block.self_s", "s"),
    ("noise.draws", "count"),
    ("noise.ns_per_draw", "ns"),
    ("spectral.synthesize.calls", "count"),
    ("spectral.synthesize.self_s", "s"),
    ("spectral.analyze.calls", "count"),
    ("spectral.analyze.self_s", "s"),
    ("spectral.synthesize_gradient.calls", "count"),
    ("spectral.synthesize_gradient.self_s", "s"),
    ("spectral.quadrature.calls", "count"),
    ("spectral.quadrature.self_s", "s"),
    ("spectral.flops_computed", "flop"),
    ("spectral.bytes_computed", "B"),
    ("spectral.plan_builds", "count"),
    ("config.load.self_s", "s"),
    ("integrate.step_raw.calls", "count"),
    ("integrate.step_raw.self_s", "s"),
    ("integrate.step_raw.paths_per_call", "paths"),
    ("integrate.integrators_built", "count"),
    ("integrate.record_norms.calls", "count"),
    ("integrate.record_norms.self_s", "s"),
    ("integrate.path_loops.self_s", "s"),
    ("fixedpoint.apply_V.calls", "count"),
    ("fixedpoint.apply_V.self_s", "s"),
    ("fixedpoint.picard_solve.self_s", "s"),
    ("fixedpoint.picard_iterations", "count"),
    ("fixedpoint.kset_check.self_s", "s"),
    ("convergence.strong_order.self_s", "s"),
    ("convergence.deterministic_order.self_s", "s"),
    ("estimators.estimate.calls", "count"),
    ("estimators.estimate.self_s", "s"),
    ("cli.write_norm_series.calls", "count"),
    ("cli.write_norm_series.self_s", "s"),
    ("cli.write_csv.self_s", "s"),
    ("cli.bytes_written", "B"),
    ("cli.finish.self_s", "s"),
    ("paramgate.evaluate_gate.calls", "count"),
    ("paramgate.evaluate_gate.self_s", "s"),
    ("trace.path_steps", "count"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
)

# Units of metrics that must repeat exactly between traced rounds of one seed.
COUNT_UNITS = ("count", "flop", "B", "paths")


def _gemm(rows: int, inner: int, cols: int) -> tuple[int, int]:
    """Flops and float64 bytes of one (rows, inner) @ (inner, cols) product,
    each operand read and the result written once."""
    return 2 * rows * inner * cols, 8 * (rows * inner + inner * cols + rows * cols)


def _transform_counts(basis, array_like, points_per_axis, kind: str) -> tuple[int, int]:
    """Computed GEMM flops and bytes of one Basis synthesize/analyze/gradient
    call, from its array shapes (cache effects ignored)."""
    space = basis.space
    n = space.modes_per_axis
    m = points_per_axis or space.grid_points_per_axis
    size = np.asarray(array_like).size
    if kind == "analyze":
        batch = size // m**space.d
        if space.d == 1:
            return _gemm(batch, m, n)
        f1, b1 = _gemm(batch * m, m, n)
        f2, b2 = _gemm(n, m, n)
        return f1 + batch * f2, b1 + batch * b2
    batch = size // n**space.d
    if space.d == 1:
        return _gemm(batch, n, m)
    f1, b1 = _gemm(batch * n, n, m)
    f2, b2 = _gemm(m, n, m)
    flops, nbytes = f1 + batch * f2, b1 + batch * b2
    if kind == "gradient":  # x and y derivatives, one synthesis each
        return 2 * flops, 2 * nbytes
    return flops, nbytes


class Tracer:
    """Span store plus the patch table that feeds it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_s = array("d")
        self.runs: list[dict] = []  # run id -> {"round", "subcommand"}
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.missing: list[str] = []
        self._stack: list[list] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _nid(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> list:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.run.append(len(self.runs) - 1)
        self.start.append(0.0)
        self.end.append(0.0)
        self.self_s.append(0.0)
        frame = [idx, 0.0, time.perf_counter()]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list):
        t1 = time.perf_counter()
        idx, child, t0 = frame
        self._stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1
        self.self_s[idx] = (t1 - t0) - child
        if self._stack:
            self._stack[-1][1] += t1 - t0

    def root(self, round_index: int, subcommand: str):
        """Context manager for one CLI call: a new run id and its root span."""
        tracer = self

        class _Root:
            def __enter__(self):
                tracer.runs.append({"round": round_index, "subcommand": subcommand})
                self.frame = tracer._open(tracer._nid(f"run.{subcommand}"))

            def __exit__(self, *exc):
                tracer._close(self.frame)
                return False

        return _Root()

    def count(self, key: str, value: float):
        self.counters[len(self.runs) - 1][key] += value

    def _wrap(self, fn, name: str, hook=None):
        nid = self._nid(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(tracer, args, kwargs)
            frame = tracer._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(frame)

        return wrapper

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr: str, replacement_of):
        if isinstance(owner, type):
            original = owner.__dict__.get(attr)  # defined on the class itself
        else:
            original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, replacement_of(original))

    def install(self):
        """Patch every traced entry point."""
        def transform(kind):
            def hook(tr, args, kwargs):
                basis = args[0]
                arr = args[1] if len(args) > 1 else kwargs.get("coeffs", kwargs.get("values"))
                ppa = args[2] if len(args) > 2 else kwargs.get("points_per_axis")
                flops, nbytes = _transform_counts(basis, arr, ppa, kind)
                tr.count("spectral.flops", flops)
                tr.count("spectral.bytes", nbytes)
            return hook

        def batch_width(tr, args, kwargs):
            state = args[1] if len(args) > 1 else kwargs["state"]
            tr.count("integrate.step_paths", np.shape(state.u)[0])

        spans = [
            (spectral.Basis, "synthesize", "spectral.synthesize", transform("synthesize")),
            (spectral.Basis, "analyze", "spectral.analyze", transform("analyze")),
            (spectral.Basis, "synthesize_gradient", "spectral.synthesize_gradient",
             transform("gradient")),
            (spectral.Basis, "quadrature", "spectral.quadrature", None),
            (spectral.GridPlan, "__init__", "spectral.plan_build", None),
            (noise.WienerSource, "increments", "noise.increments", None),
            (noise.WienerSource, "increment_block", "noise.increment_block", None),
            (integrate.MildIntegrator, "__init__", "integrate.integrator_build", None),
            (integrate.MildIntegrator, "step_raw", "integrate.step_raw", batch_width),
            (integrate.MildIntegrator, "record_norms", "integrate.record_norms", None),
            (cli, "simulate_ensemble", "integrate.simulate_ensemble", None),
            (cli, "simulate_glued", "integrate.simulate_glued", None),
            (cli, "picard_solve", "fixedpoint.picard_solve", None),
            (fixedpoint, "apply_V", "fixedpoint.apply_V", None),
            (cli, "kset_check", "fixedpoint.kset_check", None),
            (cli, "strong_order_study", "convergence.strong_order", None),
            (cli, "deterministic_order_study", "convergence.deterministic_order", None),
            (cli, "estimate_u_L2", "estimators.estimate", None),
            (cli, "estimate_u_pstar", "estimators.estimate", None),
            (cli, "estimate_v_Halpha", "estimators.estimate", None),
            (cli, "estimate_coupling", "estimators.estimate", None),
            (cli, "write_norm_series", "cli.write_norm_series", None),
            (cli, "write_csv", "cli.write_csv", None),
            (cli.RunContext, "finish", "cli.finish", None),
            (cli, "evaluate_gate", "paramgate.evaluate_gate", None),
            # integrate imports the gate from its module at call time
            (paramgate, "evaluate_gate", "paramgate.evaluate_gate", None),
            (cli, "load_config", "config.load", None),
        ]
        for owner, attr, name, hook in spans:
            self._patch(owner, attr, lambda fn, n=name, h=hook: self._wrap(fn, n, h))

        def count_draws(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                self.count("noise.draws", out.size)
                return out
            return wrapper

        self._patch(noise, "counter_normals", count_draws)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- aggregation -----------------------------------------------------------

    def round_metrics(self, round_index: int, path_steps: int, bytes_written: int,
                      picard_iterations: int) -> dict[str, float]:
        """Per-layer metrics of one traced round (all its CLI calls)."""
        run_ids = [i for i, r in enumerate(self.runs) if r["round"] == round_index]
        run = np.frombuffer(self.run, dtype=np.int32)
        sel = np.isin(run, run_ids)
        nid = np.frombuffer(self.name_id, dtype=np.int32)[sel]
        self_s = np.frombuffer(self.self_s, dtype=np.float64)[sel]
        parent = np.frombuffer(self.parent, dtype=np.int32)[sel]
        calls_by = np.bincount(nid, minlength=len(self.names))
        self_by = np.bincount(nid, weights=self_s, minlength=len(self.names))

        def calls(name):
            i = self._name_ids.get(name)
            return int(calls_by[i]) if i is not None else 0

        def own(name):
            i = self._name_ids.get(name)
            return float(self_by[i]) if i is not None else 0.0

        ctr = defaultdict(float)
        for rid in run_ids:
            for key, value in self.counters[rid].items():
                ctr[key] += value
        noise_self = own("noise.increments") + own("noise.increment_block")
        draws = ctr["noise.draws"]
        step_calls = calls("integrate.step_raw")
        out = {
            "noise.increments.calls": calls("noise.increments"),
            "noise.increments.self_s": own("noise.increments"),
            "noise.increment_block.calls": calls("noise.increment_block"),
            "noise.increment_block.self_s": own("noise.increment_block"),
            "noise.draws": int(draws),
            "noise.ns_per_draw": 1e9 * noise_self / draws if draws else 0.0,
            "spectral.flops_computed": int(ctr["spectral.flops"]),
            "spectral.bytes_computed": int(ctr["spectral.bytes"]),
            "spectral.plan_builds": calls("spectral.plan_build"),
            "config.load.self_s": own("config.load"),
            "integrate.step_raw.calls": step_calls,
            "integrate.step_raw.self_s": own("integrate.step_raw"),
            "integrate.step_raw.paths_per_call":
                ctr["integrate.step_paths"] / step_calls if step_calls else 0.0,
            "integrate.integrators_built": calls("integrate.integrator_build"),
            "integrate.record_norms.calls": calls("integrate.record_norms"),
            "integrate.record_norms.self_s": own("integrate.record_norms"),
            "integrate.path_loops.self_s":
                own("integrate.simulate_ensemble") + own("integrate.simulate_glued"),
            "fixedpoint.apply_V.calls": calls("fixedpoint.apply_V"),
            "fixedpoint.apply_V.self_s": own("fixedpoint.apply_V"),
            "fixedpoint.picard_solve.self_s": own("fixedpoint.picard_solve"),
            "fixedpoint.picard_iterations": picard_iterations,
            "fixedpoint.kset_check.self_s": own("fixedpoint.kset_check"),
            "convergence.strong_order.self_s": own("convergence.strong_order"),
            "convergence.deterministic_order.self_s": own("convergence.deterministic_order"),
            "estimators.estimate.calls": calls("estimators.estimate"),
            "estimators.estimate.self_s": own("estimators.estimate"),
            "cli.write_norm_series.calls": calls("cli.write_norm_series"),
            "cli.write_norm_series.self_s": own("cli.write_norm_series"),
            "cli.write_csv.self_s": own("cli.write_csv"),
            "cli.bytes_written": bytes_written,
            "cli.finish.self_s": own("cli.finish"),
            "paramgate.evaluate_gate.calls": calls("paramgate.evaluate_gate"),
            "paramgate.evaluate_gate.self_s": own("paramgate.evaluate_gate"),
            "trace.path_steps": path_steps,
            # root spans are the CLI calls; their self time is what no layer covers
            "trace.unattributed_s": float(self_s[parent == -1].sum()),
        }
        for stem in ("synthesize", "analyze", "synthesize_gradient", "quadrature"):
            out[f"spectral.{stem}.calls"] = calls(f"spectral.{stem}")
            out[f"spectral.{stem}.self_s"] = own(f"spectral.{stem}")
        return out

    def save(self, path: str):
        """Write every recorded span (and the run table) as one .npz file."""
        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            run=np.frombuffer(self.run, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            self_s=np.frombuffer(self.self_s, dtype=np.float64),
            run_round=np.asarray([r["round"] for r in self.runs], dtype=np.int32),
            run_subcommand=np.asarray([r["subcommand"] for r in self.runs]),
        )
