"""Machine-speed calibration for timings on a shared host.

On a host shared with other tenants the speed of a core drifts in phases
that last from seconds to minutes, by up to about 2x.  Every timed call
is therefore bracketed by a fixed calibration kernel, and a call's
calibrated time is its wall time scaled by the kernel's nominal time over
its measured time next to the call.  A phase that slows the kernel and
the call alike cancels out.  The kernels do not touch the program, so a
change to the program moves calibrated and wall times by the same factor.

A phase slows interpreter-bound code more than dense BLAS, so each
workload names the kernel that matches its dominant operation:

- ``interpreter``: a Python loop of small numpy operations, with the mix
  of a d=1 time step (a small GEMM, an elementwise transcendental,
  reductions and dict traffic);
- ``dense``: batched two-sided GEMMs of a d=2 synthesis and analysis
  with 32 modes on a 64x64 grid, with the non-integer powers of the
  reaction and moment terms on that grid in between.
"""

from __future__ import annotations

import time

import numpy as np

_rng = np.random.default_rng(20250701)
_A = _rng.standard_normal((8, 32))
_B = _rng.standard_normal((32, 64))
_V = _rng.standard_normal(64)
_T = _rng.standard_normal((16, 32, 32))
_G = _rng.standard_normal((64, 32))


def _interpreter() -> float:
    acc = 0.0
    for i in range(3000):
        c = _A @ _B
        e = np.exp(-0.01 * np.abs(_V))
        acc += float(np.sum(c * e)) + float(np.max(e))
        state = {"step": i, "acc": acc}
        acc += state["step"] * 1e-12
    return acc


def _dense() -> float:
    acc = 0.0
    for _ in range(40):
        grid = np.matmul(_G, np.matmul(_T, _G.T))
        moment = np.abs(grid) ** 4.5
        react = np.maximum(grid, 0.0) ** 2.0
        acc += float(moment.sum() + react.sum())
        coeffs = np.matmul(_G.T, np.matmul(grid * react, _G))
        acc += float(coeffs[0, 0, 0])
    return acc


# kernel -> (function, nominal seconds).  The nominal time is the kernel's
# typical time on the 2-core host the benchmark was defined on, so
# calibrated seconds read close to wall seconds there.
KERNELS = {
    "interpreter": (_interpreter, 0.06),
    "dense": (_dense, 0.045),
}


def kernel_seconds(kind: str) -> float:
    """Wall time of one run of the named calibration kernel."""
    fn, _ = KERNELS[kind]
    t0 = time.perf_counter()
    acc = fn()
    elapsed = time.perf_counter() - t0
    if not np.isfinite(acc):
        raise FloatingPointError(f"calibration kernel {kind!r} produced a non-finite value")
    return elapsed


def calibrated(kind: str, wall_s: float, kernel_before_s: float, kernel_after_s: float) -> float:
    """Wall time scaled to the nominal machine speed."""
    return wall_s * KERNELS[kind][1] / (0.5 * (kernel_before_s + kernel_after_s))
