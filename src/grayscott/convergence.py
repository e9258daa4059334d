"""Temporal convergence study of the mild-form scheme.

One fine Brownian realization drives every step size: the fine noise is
drawn in blocks, the reference steps on it (a one-term block sum would
only add +0, and no draw is -0.0) and each coarse level on block sums of
it, then the observed order in dt is fitted.  Each level colors its
increments once per fine block (``MildIntegrator.colored_noise``), which
also synthesizes them there while the level's block fits the
integrator's ``STACK_BUDGET``: the coarse levels at a few paths, not the
reference.  With the noise off the same loop measures the deterministic
global error; it then draws no noise at all, since the integrator
computes no term whose coefficient is zero.  Every level steps the uncut
system by the integrator's one step map, ``step_raw``, on the state drift
of the uncut reaction, as the study reads only the states at T: it keeps
no path norm, and a path is no longer cut once its h would pass 1e12.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import ValidationError
from .integrate import MildIntegrator, ModelParams, step_count
from .noise import NoiseConfig, WienerSource, aggregate_increments
from .spectral import SpaceConfig, SpectralField, require_space


def _fit_order(dts, errors) -> float:
    dts = np.asarray(dts, dtype=float)
    errors = np.asarray(errors, dtype=float)
    keep = errors > 0
    if keep.sum() < 2:
        return math.nan
    slope, _ = np.polyfit(np.log(dts[keep]), np.log(errors[keep]), 1)
    return float(slope)


def _state_error(state_a, state_b) -> np.ndarray:
    du = np.sum((state_a.u - state_b.u) ** 2, axis=-1)
    dv = np.sum((state_a.v - state_b.v) ** 2, axis=-1)
    return np.sqrt(du + dv)


def strong_order_study(params: ModelParams, space: SpaceConfig, noise: NoiseConfig,
                       u0: SpectralField, v0: SpectralField, T: float, dts,
                       n_paths: int = 256, ref_refinement: int = 8) -> dict:
    """Root-mean-square strong error at T per step size against a
    dt/ref_refinement reference, all levels driven by block sums of one
    shared fine increment stream.  Every dt must divide T; the dts must be
    distinct, and ref_refinement and n_paths integers >= 1.  The levels
    step the uncut system with no path norm: bit for bit the cutoff system
    at level 1e12 while a path's h stays at or below it, past which the
    path is no longer cut."""
    dts = sorted(dts, reverse=True)
    v = []
    if not dts:
        v.append("dts must hold at least one step size")
    elif len(set(dts)) < len(dts):
        v.append(f"dts must be distinct, got {dts}")
    for name, value in (("ref_refinement", ref_refinement), ("n_paths", n_paths)):
        if not (isinstance(value, numbers.Integral) and not isinstance(value, bool)
                and value >= 1):
            v.append(f"{name} must be an integer >= 1, got {value!r}")
    if v:
        raise ValidationError(v)
    require_space(space, u0=u0, v0=v0)
    dt_ref = min(dts) / ref_refinement
    n_fine = step_count(T, dt_ref)
    for dt in dts:
        step_count(T, dt)
    steps = [dt_ref] + dts  # the reference first, then the coarse levels
    strides = [step_count(dt, dt_ref) for dt in steps]
    block = math.lcm(*strides)

    integ = MildIntegrator(params, space, noise)
    source = WienerSource(noise, space, np.arange(n_paths))
    states = [integ.initial_state(u0.coeffs, v0.coeffs, n_paths) for _ in steps]

    for b in range(n_fine // block):
        fine = source.increment_block(b * block, block, dt_ref, 0) if integ.noisy else None
        for i, (stride, dt) in enumerate(zip(strides, steps)):
            dw = fine if fine is None or stride == 1 else aggregate_increments(fine, stride)
            colored = None if dw is None else integ.colored_noise(dw)
            for n in range(block // stride):
                state = states[i]
                vals = integ.synth(state.uv) if integ.coupled else None
                react = None if vals is None else vals[0] * integ.v_power(vals[1])
                states[i] = integ.step_raw(state, None if colored is None else colored[n], dt,
                                           integ.drift(state, react), vals)

    ref_state, *level_states = states
    errors = [
        float(np.sqrt(np.mean(_state_error(st, ref_state) ** 2)))
        for st in level_states
    ]
    return {
        "dts": list(dts),
        "errors": errors,
        "order": _fit_order(dts, errors),
        "n_paths": n_paths,
        "dt_ref": dt_ref,
    }
