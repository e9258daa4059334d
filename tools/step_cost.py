"""Cost of the parts of one time step, in microseconds per path-step.

Run from the repository root:

    python3 tools/step_cost.py                      # this checkout's src/
    python3 tools/step_cost.py --src OTHER/src      # another checkout

Each case is the default model and noise (seed 0) with constant initial
data u0 = v0 = 1, on one space and batch size:

- ``d1-N32-P100``: d=1 Neumann, N=32, M=64, 100 paths;
- ``d2-N8-P16`` and ``d2-N32-P16``: d=2 Neumann, N=8 (M=16) and N=32
  (M=64), 16 paths;
- ``d1-N32-P1``: d=1 Neumann, N=32, M=64, one path (a Picard or glue
  loop);
- ``d1-N4-P1``: d=1 Neumann, N=4, M=8, one path (the per-call floor).

Per case it times:

- ``total``: ``simulate_ensemble`` over ``STEPS`` steps, per path-step;
- ``increment_block``: the draws of one step for processes 1 and 2
  (``WienerSource.increment_block``), made as the time loop makes them:
  one call for ``B`` steps, divided by ``B``, where ``B`` is
  ``integrate.draw_steps`` of the batch.  The source is a bare one, which
  draws in the caller's thread, so the figure is the draw's own cost;
- ``increment_block_ahead``: what the caller waits for those draws from
  an open source, which draws the next block on its worker thread while
  the caller steps (for blocks of at least ``noise.DRAW_BUDGET`` values
  per process): consecutive ``B``-step blocks, each asked for after the
  ``B`` steps of ``step_raw`` (timed below) that a loop takes on the
  block before it, which are not timed; the wait per call divided by
  ``B`` (null for a checkout whose source does not draw ahead);
- ``colored_noise``: the coloring of one step's draws, and their
  synthesis where the block fits ``STACK_BUDGET``
  (``MildIntegrator.colored_noise``), timed as ``increment_block`` is:
  one call on a ``B``-step block, divided by ``B``;
- ``synthesize`` and ``analyze``: one transform of a state on the
  integrator's product grid;
- ``step_raw``: one call of the one step map that every driver calls,
  called as the cutoff loop calls it: on the first step's slice of that
  ``B``-step colored block, the state's grid values and the state drift
  of the cutoff reaction built from the loop's ``phi``, whose composition
  (``MildIntegrator.drift``) is timed with it;
- ``cutoff_block`` and ``cutoff_step``: the cutoff's own bookkeeping per
  step, as the cutoff loop pays it.  ``cutoff_block`` is one plateau
  block of ``P`` steps, far from a level (``P`` is ``plateau_steps``,
  the smaller of ``integrate.draw_steps`` of the batch and
  ``MAX_PLATEAU_STEPS``): its
  states stacked, the path norm extended over them
  (``_Cutoff.extend``), their plateau check (``_Cutoff.clean``) and the
  settled state's ``phi`` and plateau check, divided by ``P``.
  ``cutoff_step`` is the per-step form, which a batch with a path off
  the plateau takes: the norm extended over one state and ``phi``;
- ``record_norms``: the state-only norm columns (all but ``h`` and
  ``phi``, which the loop writes at every step), made as the time loop
  makes them: one ``MildIntegrator.record_norms`` call on a block of
  ``R`` steps, divided by ``R``, where ``R`` is
  ``integrate.record_steps`` of the batch;
- ``record_norms_files``: the same block call filling only the state-only
  columns that ``simulate`` and ``glue`` write.

The norm series writer has its own figure, ``write_norm_series``: the
CSVs of a ``WRITER_PATHS``-path, ``WRITER_STEPS``-step record of the
``d1-N32`` space (the shape ``ensemble-d1`` writes), written as
``simulate`` writes them (``cli.write_norm_series``: one call for the
batch), per path-step.  Each file goes to an in-memory buffer: the creation of short
files dominated the figure, and is not timed.

The fixed-point loop has its own table, ``forced``, at

- ``d1-N32-P1``: d=1 Neumann, N=32, M=64, one path (``fixed-point`` in
  the ``pathwise-d1`` benchmark, whose Picard sweeps run 6 in flight);
- ``d2-N8-P4``: d=2 Neumann, N=8, M=16, 4 paths (one sweep at a time).

It times ``apply_V`` per path-step, one sweep of ``FORCED_STEPS`` steps
from the constant control (the first Picard iterate), and
``picard_solve`` per path-sweep-step: the whole solve over
``FORCED_STEPS`` steps, divided by the steps of the sweeps its result
counts (``iterates``, summed over the paths).

The convergence study has its own table, ``study``:
``strong_order_study`` per path-step (the steps of every level, the
reference's included, times the paths), at the settings of
``tools/study_cost.py``:

- ``deterministic``: coupled, no noise, 1 path (4576 steps);
- ``strong``: uncoupled, 16 paths (2528 steps), its noise draws and
  block sums included.

Every figure is the median over ``REPEATS`` of the mean time of a
loop of calls (about 20 ms each) divided by the batch size.  The
inputs are fixed, so two checkouts time the same operations.  Prints
one JSON object, with an environment block.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STEPS = 20  # steps of the total run and of the warm-up before the layer timings
REPEATS = 7  # timed loops per figure
CASES = {
    "d1-N32-P100": (1, 32, 64, 100),
    "d2-N8-P16": (2, 8, 16, 16),
    "d2-N32-P16": (2, 32, 64, 16),
    "d1-N32-P1": (1, 32, 64, 1),
    "d1-N4-P1": (1, 4, 8, 1),
}
FORCED_STEPS = 350  # the steps of one fixed-point sweep in the pathwise-d1 benchmark
WRITER_PATHS, WRITER_STEPS = 200, 200  # the record ensemble-d1's simulate writes
FORCED_CASES = {
    "d1-N32-P1": (1, 32, 64, 1),
    "d2-N8-P4": (2, 8, 16, 4),
}


def _loop_time(fn) -> float:
    """Median over REPEATS of the mean seconds per call of fn()."""
    fn()
    start = time.perf_counter()
    fn()
    n = max(1, int(0.02 / max(time.perf_counter() - start, 1e-7)))
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - start) / n)
    return statistics.median(samples)


def _wait_time(request, work) -> float:
    """Median over REPEATS of the mean seconds per request() call, each
    made after one untimed work() call, over loops of about 20 ms."""
    work()
    request()
    samples = []
    for _ in range(REPEATS):
        waited, calls, start = 0.0, 0, time.perf_counter()
        while calls < 3 or time.perf_counter() - start < 0.02:
            work()
            t0 = time.perf_counter()
            request()
            waited += time.perf_counter() - t0
            calls += 1
        samples.append(waited / calls)
    return statistics.median(samples)


def time_case(d: int, n: int, m: int, paths: int) -> dict:
    import numpy as np

    from grayscott import integrate
    from grayscott.cli import NORM_FILE_COLUMNS
    from grayscott.integrate import (
        NORM_COLUMNS,
        MildIntegrator,
        ModelParams,
        _Cutoff,
        simulate_ensemble,
    )
    from grayscott.noise import NoiseConfig, WienerSource
    from grayscott.spectral import SpaceConfig, constant_field

    params, noise = ModelParams(), NoiseConfig(seed=0)
    space = SpaceConfig(d=d, modes_per_axis=n, grid_points_per_axis=m)
    u0, v0 = constant_field(1.0, space), constant_field(1.0, space)
    ids = np.arange(paths)
    dt = 1e-3
    per_path = {}

    def total():
        return simulate_ensemble(params, space, noise, u0, v0, 1e6, STEPS * dt, dt, ids,
                                 check_gate=False)

    per_path["total"] = _loop_time(total) / STEPS

    integ = MildIntegrator(params, space, noise)
    source = WienerSource(noise, space, ids)
    state = integ.initial_state(u0.coeffs, v0.coeffs, paths)
    cutoff = _Cutoff(integ, state.v, np.array([1e6]), False, ids)

    def loop_step(state, colored, uv, phi):
        """The cutoff loop's step: the step map on its cutoff drift."""
        return integ.step_raw(state, colored, dt, integ.drift(state, integ.reaction(uv, phi)), uv)

    def advance(uvs):
        return cutoff.extend(integrate._step_stack(uvs)[:, 1].swapaxes(0, 1), dt)

    for k in range(STEPS):  # a state away from the constant initial data
        uv = integ.synth(state.uv)
        colored = integ.colored_noise(source.increment_block(k, 1, dt, 0))[0]
        state = loop_step(state, colored, uv, cutoff.phi(state.fallback))
        advance([state.uv])
    phi = cutoff.phi(state.fallback)
    block = integrate.draw_steps(paths, source.k_noise)
    plateau = min(block, integrate.MAX_PLATEAU_STEPS)
    settled, block_uvs = cutoff.h[:, None], [state.uv] * plateau

    def cutoff_block():
        """The cutoff's books of one plateau block, as the loop keeps them."""
        h = advance(block_uvs)
        if plateau > 1:
            cutoff.clean(h[:, :-1], state.fallback)
            cutoff.clean(settled, state.fallback)
        cutoff.phi(state.fallback)

    uv = integ.synth(state.uv)
    dw = source.increment_block(STEPS, block, dt, 0)
    colored = integ.colored_noise(dw)[0]  # the layer timing below rewrites the same values
    recorded = integrate.record_steps(paths, m**d)
    kept_uv = np.repeat(state.uv[None], recorded, axis=0)  # the loop's stacked block
    kept_vals = np.repeat(uv[None], recorded, axis=0)
    state_only = [c for c in NORM_COLUMNS if c not in ("h", "phi")]
    series = {c: np.empty((paths, recorded)) for c in state_only}
    files = {c: series[c] for _, c in NORM_FILE_COLUMNS[1:] if c in state_only}

    def record(out):
        integ.record_norms(kept_uv, out, 0, kept_vals)

    layers = {
        "increment_block": lambda: source.increment_block(STEPS, block, dt, 0),
        "colored_noise": lambda: integ.colored_noise(dw),
        "synthesize": lambda: integ.synth(state.u),
        "analyze": lambda: integ.analyze(uv[0]),
        "step_raw": lambda: loop_step(state, colored, uv, phi),
        # each grows intg, at the same cost
        "cutoff_block": cutoff_block,
        "cutoff_step": lambda: (advance([state.uv]), cutoff.phi(state.fallback)),
        "record_norms": lambda: record(series),
        "record_norms_files": lambda: record(files),
    }
    for name, fn in layers.items():
        per_path[name] = _loop_time(fn)
    if hasattr(WienerSource, "__enter__"):
        with WienerSource(noise, space, ids) as ahead:
            step0s = iter(range(STEPS, 2**62, block))  # consecutive blocks, as the loop asks
            per_path["increment_block_ahead"] = _wait_time(
                lambda: ahead.increment_block(next(step0s), block, dt, 0),
                lambda: [loop_step(state, colored, uv, phi) for _ in range(block)]) / block
    per_path["increment_block"] /= block
    per_path["colored_noise"] /= block
    per_path["cutoff_block"] /= plateau
    per_path["record_norms"] /= recorded
    per_path["record_norms_files"] /= recorded
    result = {name: round(1e6 * sec / paths, 3) for name, sec in per_path.items()}
    result.setdefault("increment_block_ahead", None)
    result["draw_steps"] = block
    result["plateau_steps"] = plateau
    result["record_steps"] = recorded
    return result


def time_writer() -> dict:
    """write_norm_series per path-step on a WRITER_PATHS x WRITER_STEPS
    record, each file written to memory."""
    import numpy as np

    from grayscott import cli
    from grayscott.integrate import ModelParams, simulate_ensemble
    from grayscott.noise import NoiseConfig
    from grayscott.spectral import SpaceConfig, constant_field

    space = SpaceConfig(d=1, modes_per_axis=32, grid_points_per_axis=64)
    u0 = constant_field(1.0, space)
    record = simulate_ensemble(ModelParams(), space, NoiseConfig(seed=0), u0, u0, 1e6,
                               WRITER_STEPS * 1e-3, 1e-3, np.arange(WRITER_PATHS),
                               check_gate=False, columns=cli.FILE_SERIES)
    names = [f"path_{pid:05d}.csv" for pid in record.path_ids.tolist()]
    cli.open = lambda path, mode: io.BytesIO()  # shadows the builtin in cli's functions
    try:
        sec = _loop_time(lambda: cli.write_norm_series(names, record))
    finally:
        del cli.open
    return {"write_norm_series": round(1e6 * sec / (WRITER_PATHS * WRITER_STEPS), 3),
            "paths": WRITER_PATHS, "steps": WRITER_STEPS}


def time_forced(d: int, n: int, m: int, paths: int) -> dict:
    import numpy as np

    from grayscott.fixedpoint import apply_V, constant_control, picard_solve
    from grayscott.integrate import MildIntegrator, ModelParams
    from grayscott.noise import NoiseConfig
    from grayscott.spectral import SpaceConfig, constant_field

    space = SpaceConfig(d=d, modes_per_axis=n, grid_points_per_axis=m)
    u0, v0 = constant_field(1.0, space), constant_field(1.0, space)
    params, noise = ModelParams(), NoiseConfig(seed=0)
    integ = MildIntegrator(params, space, noise)
    dt, ids = 1e-3, np.arange(paths)
    control = constant_control(u0, v0, FORCED_STEPS * dt, dt, paths)
    sec = _loop_time(lambda: apply_V(control, integ, u0, v0, 1e6, ids))

    def solve():
        return picard_solve(params, space, noise, u0, v0, 1e6, ids, FORCED_STEPS * dt, dt)

    sweeps = sum(solve()["iterates"])
    return {"apply_V": round(1e6 * sec / (FORCED_STEPS * paths), 3),
            "picard_solve": round(1e6 * _loop_time(solve) / (FORCED_STEPS * sweeps), 3),
            "picard_sweeps": sweeps}


def time_study(name: str) -> dict:
    from study_cost import settings

    from grayscott.convergence import strong_order_study
    from grayscott.integrate import step_count

    *args, n_paths, refinement = settings()[name]
    T, dts = args[5], args[6]
    steps = step_count(T, min(dts) / refinement) + sum(step_count(T, dt) for dt in dts)
    sec = _loop_time(lambda: strong_order_study(*args, n_paths=n_paths,
                                                ref_refinement=refinement))
    return {"strong_order_study": round(1e6 * sec / (steps * n_paths), 3),
            "paths": n_paths, "steps": steps}


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "thread_caps": {var: os.environ.get(var) for var in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="directory holding the grayscott package (default: ./src)")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    result = {
        "unit": "us per path-step",
        "src": os.path.abspath(args.src),
        "repeats": REPEATS,
        "environment": environment(),
        "cases": {name: time_case(*case) for name, case in CASES.items()},
        "forced": {name: time_forced(*case) for name, case in FORCED_CASES.items()},
        "writer": time_writer(),
        "study": {name: time_study(name) for name in ("deterministic", "strong")},
    }
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
