"""The solution operator of the linear decoupled system driven by frozen
controls, Picard iteration to a discrete fixed point, and invariant-set
membership diagnostics.

The construction is deliberately pathwise: each path's noise
realization is frozen by its path id and the operator is iterated on it.
A fixed point then satisfies the same discrete update rule as the direct
cutoff simulation under the shared seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, ValidationError
from .integrate import (
    MildIntegrator,
    ModelParams,
    draw_steps,
    path_norm_series,
    smooth_cutoff,
    step_count,
)
from .noise import NoiseConfig, WienerSource, path_id_array
from .spectral import SpaceConfig, SpectralField, get_basis, require_space

# steps of eta whose grid values kset_functionals holds at once
KSET_CHUNK_STEPS = 16


@dataclass
class ControlPair:
    """Time-indexed control fields on the integrator grid, for P paths.

    eta and xi have shape (P, n_steps + 1, K) of eigenbasis coefficients
    with n_steps >= 1, on the grid t_n = n * dt.
    """

    eta: np.ndarray
    xi: np.ndarray
    dt: float
    space: SpaceConfig

    def __post_init__(self):
        shape, k = self.eta.shape, self.space.total_modes
        v = []
        if len(shape) != 3 or shape[2] != k or self.xi.shape != shape:
            v.append(f"control arrays must have shape (P, n_steps + 1, {k}), got "
                     f"{shape} and {self.xi.shape}")
        elif shape[1] < 2:
            v.append(f"controls need at least 2 time points, got {shape[1]}")
        if not (math.isfinite(self.dt) and self.dt > 0):
            v.append(f"control dt must be finite and > 0, got {self.dt}")
        if v:
            raise ValidationError(v)

    @property
    def times(self) -> np.ndarray:
        """The grid 0, dt, ..., n_steps * dt."""
        return np.arange(self.eta.shape[1]) * self.dt


@dataclass
class KSetConstants:
    """Bounds of the invariant path-space set."""

    K1: float
    K2: float
    K3: float
    lam: float = 0.0

    def __post_init__(self):
        if min(self.K1, self.K2, self.K3) < 0 or self.lam < 0:
            raise ValidationError(["K-set constants and lam must be non-negative"])


def constant_control(u0: SpectralField, v0: SpectralField, T: float, dt: float,
                     n_paths: int) -> ControlPair:
    """Constant-in-time extension of the initial data, for n_paths paths."""
    shape = (n_paths, step_count(T, dt) + 1, u0.coeffs.size)
    eta = np.broadcast_to(u0.coeffs, shape).copy()
    xi = np.broadcast_to(v0.coeffs, shape).copy()
    return ControlPair(eta, xi, dt, u0.space)


def apply_V(control: ControlPair, integ: MildIntegrator, u0: SpectralField,
            v0: SpectralField, kappa: float, path_ids) -> ControlPair:
    """Solve the linear decoupled system forced by the frozen control.

    Row i of the control is driven by the frozen noise of path_ids[i].
    The reaction phi * eta * max(xi, 0)^q is exogenous, with the cutoff phi
    evaluated once on xi's running path norm.  Per drawn noise block the
    sweep composes the drift of those rows (``forced_drift``; uncoupled,
    the feeds' state drift), so no whole-run grid array is built, and
    steps by ``step_raw``.  Only the noise factor and the Stratonovich
    correction depend on the evolving state, and the sweep keeps no path
    norm of it.
    """
    path_ids = path_id_array(path_ids)
    v = [] if kappa > 0 else [f"cutoff level kappa must be > 0, got {kappa}"]  # also rejects NaN
    if path_ids.size != control.eta.shape[0]:
        v.append(f"{path_ids.size} path ids for {control.eta.shape[0]} paths")
    if v:
        raise ValidationError(v)
    require_space(integ.space, control=control, u0=u0, v0=v0)
    dt, n_steps = control.dt, control.eta.shape[1] - 1
    p = integ.params
    phi = smooth_cutoff(path_norm_series(integ.space, control.xi, p.rho, p.aleph, dt) / kappa)
    phi = phi.reshape(phi.shape + (1,) * integ.space.d)
    state = integ.initial_state(u0.coeffs, v0.coeffs, path_ids.size)
    out = np.empty((2, path_ids.size, n_steps + 1, u0.coeffs.size))
    source = WienerSource(integ.noise, integ.space, path_ids)
    block = draw_steps(path_ids.size, source.k_noise)
    for start in range(0, n_steps, block):
        rows = slice(start, min(start + block, n_steps))
        noise = drift = None  # freed first: two blocks held at once raise the peak
        if integ.coupled:
            drift = integ.forced_drift(phi[:, rows], control.eta[:, rows], control.xi[:, rows])
        if integ.noisy:
            noise = integ.colored_noise(
                source.increment_block(start, rows.stop - start, dt, state.segment))
        for j in range(rows.stop - start):
            out[:, :, start + j] = state.uv
            state = integ.step_raw(state, None if noise is None else noise[j], dt,
                                   integ.drift(state, None) if drift is None else drift[j],
                                   None)
    out[:, :, n_steps] = state.uv
    return ControlPair(out[0], out[1], dt, integ.space)


def control_m_norm(eta: np.ndarray, xi: np.ndarray, times: np.ndarray,
                   space: SpaceConfig, rho: float, aleph: float) -> np.ndarray:
    """Discrete norm per path: L2-in-time L2 of eta plus the
    sup/dissipation path norm of xi."""
    part1 = np.sqrt(np.trapezoid(np.sum(eta**2, axis=-1), times, axis=-1))
    return part1 + path_norm_series(space, xi, rho, aleph, np.diff(times))[..., -1]


def picard_solve(params: ModelParams, space: SpaceConfig, noise: NoiseConfig,
                 u0: SpectralField, v0: SpectralField, kappa: float,
                 path_ids, T: float, dt: float,
                 tol: float = 1e-8, max_iter: int = 20) -> dict:
    """Iterate the solution operator on the frozen noise of each path.

    Starts from the constant-in-time extension of the initial data.  A
    path's iterate is frozen once the discrete control-space norm of its
    last update falls below tol; returns the batched fixed point and, per
    path, the iteration count and residual trace.  Raises NoConvergence
    with the trace of the first path still above tol after max_iter;
    non-convergence at large coupling is a reportable outcome, not a bug.
    """
    v = [] if kappa > 0 else [f"cutoff level kappa must be > 0, got {kappa}"]  # also rejects NaN
    if not tol > 0:  # also rejects NaN
        v.append(f"tol must be > 0, got {tol}")
    if max_iter < 1:
        v.append(f"max_iter must be >= 1, got {max_iter}")
    if v:
        raise ValidationError(v)
    path_ids = path_id_array(path_ids)
    require_space(space, u0=u0, v0=v0)
    current = constant_control(u0, v0, T, dt, path_ids.size)
    integ = MildIntegrator(params, space, noise)
    residuals: list[list[float]] = [[] for _ in path_ids]
    active = np.arange(path_ids.size)
    for _ in range(max_iter):
        eta, xi = current.eta[active], current.xi[active]
        new = apply_V(ControlPair(eta, xi, dt, space), integ, u0, v0,
                      kappa, path_ids[active])
        # the active rows' copies become the update (negated: the norm squares it)
        eta -= new.eta
        xi -= new.xi
        res = control_m_norm(eta, xi, new.times, space, params.rho, params.aleph)
        current.eta[active] = new.eta
        current.xi[active] = new.xi
        for i, r in zip(active, res):
            residuals[i].append(float(r))
        active = active[~(res < tol)]
        if active.size == 0:
            return {"fixed_point": current, "iterates": [len(r) for r in residuals],
                    "residuals": residuals}
    i = int(active[0])
    raise NoConvergence(
        f"path {path_ids[i]}: no fixed point after {max_iter} iterations (last "
        f"residual {residuals[i][-1]:.3e})", residuals=residuals[i],
    )


def kset_functionals(control: ControlPair, rho: float, aleph: float,
                     p_star: float, lam: float) -> np.ndarray:
    """The three path functionals bounded on the invariant set, one row
    per path: activator energy-norm squared, weighted sup of the p* mass,
    inhibitor path-norm squared.  The p* mass is taken KSET_CHUNK_STEPS
    steps at a time, so no whole-run grid array is built.
    """
    space = control.space
    basis = get_basis(space)
    dt = np.diff(control.times)
    m1 = path_norm_series(space, control.eta, 0.0, aleph, dt)[:, -1] ** 2

    m_grid = space.dealias_points(1.0)
    lp_pow = np.concatenate([
        basis.quadrature(np.abs(basis.synthesize(control.eta[:, n:n + KSET_CHUNK_STEPS],
                                                 m_grid)) ** p_star, m_grid)
        for n in range(0, control.eta.shape[1], KSET_CHUNK_STEPS)], axis=-1)
    m2 = np.max(np.exp(-lam * control.times) * lp_pow, axis=-1)

    m3 = path_norm_series(space, control.xi, rho, aleph, dt)[:, -1] ** 2
    return np.stack([m1, m2, m3], axis=-1)


def kset_check(control: ControlPair, constants: KSetConstants, rho: float,
               aleph: float, p_star: float) -> dict:
    """Membership of each path's control in the invariant set, with signed
    margins; margins and functionals have one row (K1, K2, K3) per path."""
    functionals = kset_functionals(control, rho, aleph, p_star, constants.lam)
    margins = np.array([constants.K1, constants.K2, constants.K3]) - functionals
    return {"in_set": np.all(margins >= 0, axis=-1), "margins": margins,
            "functionals": functionals}


def compute_kset_constants(u0_l2_sq: float, u0_lpstar_pow: float,
                           v0_hrho_sq: float, T: float,
                           lam: float, p_star: float,
                           C_T: float = 1.0, C_kappa: float = 1.0,
                           C2: float = 1.0) -> KSetConstants:
    """Evaluate the invariant-set bounds from the initial-data moments.

    The scheme constants C_T, C_kappa, C2 are abstract in the analysis;
    they default to one and are calibratable from pilot runs.  Evaluation
    order is K2, then K1 and K3.
    """
    k2 = 2.0 * (1.0 + math.exp(C2 * T)) * u0_lpstar_pow
    growth = C_kappa * k2 ** (2.0 / p_star) * math.exp(2.0 * lam * T / p_star)
    k1 = C_T * (u0_l2_sq + growth)
    k3 = C_T * (v0_hrho_sq + growth)
    return KSetConstants(K1=k1, K2=k2, K3=k3, lam=lam)
