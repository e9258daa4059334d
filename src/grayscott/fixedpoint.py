"""The solution operator of the linear decoupled system driven by frozen
controls, Picard iteration to a discrete fixed point, and invariant-set
membership diagnostics.

The construction is deliberately pathwise: one noise realization is
frozen (path id and segment) and the operator is iterated on it.  A
fixed point then satisfies the same discrete update rule as the direct
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
    path_norm_series,
    smooth_cutoff,
    step_count,
)
from .noise import NoiseConfig, WienerSource
from .spectral import SpaceConfig, SpectralField, get_basis


@dataclass
class ControlPair:
    """Time-indexed control fields on the integrator grid.

    eta and xi have shape (n_steps + 1, K) of eigenbasis coefficients.
    """

    eta: np.ndarray
    xi: np.ndarray
    times: np.ndarray
    space: SpaceConfig

    def __post_init__(self):
        n = self.times.size
        k = self.space.total_modes
        if self.eta.shape != (n, k) or self.xi.shape != (n, k):
            raise ValidationError(
                [f"control arrays must have shape ({n}, {k}), got "
                 f"{self.eta.shape} and {self.xi.shape}"]
            )

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])


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


def constant_control(u0: SpectralField, v0: SpectralField, T: float, dt: float) -> ControlPair:
    """Constant-in-time extension of the initial data."""
    n_steps = step_count(T, dt)
    times = np.arange(n_steps + 1) * dt
    eta = np.broadcast_to(u0.coeffs, (n_steps + 1, u0.coeffs.size)).copy()
    xi = np.broadcast_to(v0.coeffs, (n_steps + 1, v0.coeffs.size)).copy()
    return ControlPair(eta, xi, times, u0.space)


def _cutoff_series(integ: MildIntegrator, xi: np.ndarray, dt: float,
                   kappa: float) -> np.ndarray:
    """phi_kappa driven by the control's running path norm, per time step."""
    p = integ.params
    return smooth_cutoff(path_norm_series(integ.space, xi, p.rho, p.aleph, dt) / kappa)


def apply_V(control: ControlPair, integ: MildIntegrator, u0: SpectralField,
            v0: SpectralField, kappa: float, path_id: int,
            segment: int = 0) -> ControlPair:
    """Solve the linear decoupled system forced by the frozen control.

    The reaction eta * xi^q is exogenous (the power follows the
    configured power_mode; 'abs' gives the modulus convention), the
    cutoff is evaluated on xi's running path norm, and only the noise
    factor depends on the evolving state.  The frozen noise path is
    drawn once, as one block.
    """
    dt = control.dt
    n_steps = control.times.size - 1
    forcing = integ.synth(control.eta) * integ.v_power(integ.synth(control.xi))
    phi = _cutoff_series(integ, control.xi, dt, kappa)

    source = WienerSource(integ.noise, integ.space, [path_id], segment=segment)
    dw1 = source.increment_block(0, n_steps, dt, 1)
    dw2 = source.increment_block(0, n_steps, dt, 2)
    state = integ.initial_state(u0.coeffs, v0.coeffs, kappa)
    u_out = np.empty((n_steps + 1, u0.coeffs.size))
    v_out = np.empty_like(u_out)
    u_out[0] = state.u[0]
    v_out[0] = state.v[0]
    for n in range(n_steps):
        state = integ.step_raw(
            state, dw1[:, n], dw2[:, n], dt,
            forcing_vals=forcing[n][None, ...],
            phi_override=phi[n : n + 1],
        )
        u_out[n + 1] = state.u[0]
        v_out[n + 1] = state.v[0]
    return ControlPair(u_out, v_out, control.times.copy(), integ.space)


def control_m_norm(eta: np.ndarray, xi: np.ndarray, times: np.ndarray,
                   space: SpaceConfig, rho: float, aleph: float) -> float:
    """Single-path discrete norm: L2-in-time L2 of eta plus the
    sup/dissipation path norm of xi."""
    part1 = math.sqrt(float(np.trapezoid(np.sum(eta**2, axis=-1), times)))
    return part1 + float(path_norm_series(space, xi, rho, aleph, np.diff(times))[-1])


def picard_solve(params: ModelParams, space: SpaceConfig, noise: NoiseConfig,
                 u0: SpectralField, v0: SpectralField, kappa: float,
                 path_id: int, T: float, dt: float,
                 tol: float = 1e-8, max_iter: int = 20,
                 segment: int = 0) -> dict:
    """Iterate the solution operator on a frozen noise path.

    Starts from the constant-in-time extension of the initial data and
    stops when the discrete control-space norm of successive iterates
    falls below tol.  Raises NoConvergence with the residual trace after
    max_iter; non-convergence at large coupling is a reportable outcome,
    not a bug.
    """
    if tol <= 0:
        raise ValidationError(["tol must be > 0"])
    current = constant_control(u0, v0, T, dt)
    integ = MildIntegrator(params, space, noise)
    residuals: list[float] = []
    for _ in range(max_iter):
        new = apply_V(current, integ, u0, v0, kappa, path_id, segment=segment)
        res = control_m_norm(
            new.eta - current.eta, new.xi - current.xi, new.times, space,
            params.rho, params.aleph,
        )
        residuals.append(res)
        current = new
        if res < tol:
            return {"fixed_point": current, "iterates": len(residuals),
                    "residuals": residuals}
    raise NoConvergence(
        f"no fixed point after {max_iter} iterations (last residual "
        f"{residuals[-1]:.3e})", residuals=residuals,
    )


def kset_functionals(control: ControlPair, rho: float, aleph: float,
                     p_star: float, lam: float) -> tuple[float, float, float]:
    """The three path functionals bounded on the invariant set.

    Returns (activator energy-norm squared, weighted sup of the p* mass,
    inhibitor path-norm squared).
    """
    space = control.space
    basis = get_basis(space)
    dt = np.diff(control.times)
    m1 = float(path_norm_series(space, control.eta, 0.0, aleph, dt)[-1]) ** 2

    m_grid = basis.dealias_points(1.0)
    vals = basis.synthesize(control.eta, m_grid)
    lp_pow = basis.quadrature(np.abs(vals) ** p_star, m_grid)
    m2 = float(np.max(np.exp(-lam * control.times) * lp_pow))

    m3 = float(path_norm_series(space, control.xi, rho, aleph, dt)[-1]) ** 2
    return m1, m2, m3


def kset_check(control: ControlPair, constants: KSetConstants, rho: float,
               aleph: float, p_star: float, lam: float | None = None) -> dict:
    """Membership of a control pair in the invariant set, with signed margins."""
    lam = constants.lam if lam is None else lam
    m1, m2, m3 = kset_functionals(control, rho, aleph, p_star, lam)
    margins = (constants.K1 - m1, constants.K2 - m2, constants.K3 - m3)
    return {"in_set": all(m >= 0 for m in margins), "margins": margins,
            "functionals": (m1, m2, m3)}


def compute_kset_constants(u0_l2_sq: float, u0_lpstar_pow: float,
                           v0_hrho_sq: float, kappa: float, T: float,
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
