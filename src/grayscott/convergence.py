"""Temporal convergence studies of the mild-form scheme.

The deterministic study measures global error against a much finer
reference with the noise off; the strong study shares one fine Brownian
realization across all step sizes by summing fine increments into
coarse ones, then fits the observed order in dt.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .integrate import MildIntegrator, ModelParams, step_count
from .noise import NoiseConfig, WienerSource
from .spectral import SpaceConfig, SpectralField

_NO_CUTOFF = 1e12


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


def deterministic_order_study(params: ModelParams, space: SpaceConfig,
                              u0: SpectralField, v0: SpectralField,
                              T: float, dts, ref_refinement: int = 16) -> dict:
    """Global-error decay of the noise-free scheme vs a dt/ref reference."""
    params = replace(params, sigma1=0.0, sigma2=0.0)
    noise = NoiseConfig(seed=0)
    integ = MildIntegrator(params, space, noise)
    dts = sorted(dts, reverse=True)
    zero = np.zeros((1, integ.k_noise))

    def run(dt: float):
        state = integ.initial_state(u0.coeffs, v0.coeffs, _NO_CUTOFF)
        for _ in range(step_count(T, dt)):
            state = integ.step_raw(state, zero, zero, dt)
        return state

    ref = run(min(dts) / ref_refinement)
    errors = [float(_state_error(run(dt), ref)[0]) for dt in dts]
    return {"dts": list(dts), "errors": errors, "order": _fit_order(dts, errors)}


def strong_order_study(params: ModelParams, space: SpaceConfig, noise: NoiseConfig,
                       u0: SpectralField, v0: SpectralField, T: float, dts,
                       n_paths: int = 256, ref_refinement: int = 8) -> dict:
    """Root-mean-square strong error at T per step size, all levels driven
    by block sums of one shared fine increment stream."""
    dts = sorted(dts, reverse=True)
    dt_ref = min(dts) / ref_refinement
    n_fine = step_count(T, dt_ref)
    strides = [step_count(dt, dt_ref) for dt in dts]  # each dt a whole multiple of dt_ref

    integ = MildIntegrator(params, space, noise)
    source = WienerSource(noise, space, np.arange(n_paths))
    k = integ.k_noise

    ref_state = integ.initial_state(
        np.broadcast_to(u0.coeffs, (n_paths, u0.coeffs.size)),
        np.broadcast_to(v0.coeffs, (n_paths, v0.coeffs.size)),
        _NO_CUTOFF,
    )
    level_states = [integ.initial_state(ref_state.u, ref_state.v, _NO_CUTOFF) for _ in dts]
    acc = [np.zeros((2, n_paths, k)) for _ in dts]  # summed (dW1, dW2) per level

    for n in range(n_fine):
        dw = np.stack([source.increment_block(n, 1, dt_ref, j)[:, 0] for j in (1, 2)])
        ref_state = integ.step_raw(ref_state, dw[0], dw[1], dt_ref)
        for i, stride in enumerate(strides):
            acc[i] += dw
            if (n + 1) % stride == 0:
                level_states[i] = integ.step_raw(level_states[i], acc[i][0], acc[i][1], dts[i])
                acc[i][:] = 0.0

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
