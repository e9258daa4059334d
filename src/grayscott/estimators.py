"""Ensemble Monte Carlo estimators for the a-priori moment bounds and
the discrete-norm inequality diagnostics.

Estimators reduce one record of a batch: each (P, n_steps+1) norm series
is reduced along its time axis to one value per path, and reduce_mean
sorts those values first, so results are invariant under a permutation
of the paths and deterministic for a given set of paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .integrate import BatchRecord
from .noise import squared_eigenfunction_sum
from .spectral import SpaceConfig, SpectralField, get_basis


@dataclass
class MomentReport:
    """Point estimate of one ensemble expectation with a normal 95% CI."""

    name: str
    n_paths: int
    estimate: float
    ci_halfwidth: float
    extras: dict = field(default_factory=dict)

    def __str__(self):
        return (f"{self.name}: {self.estimate:.6g} +/- {self.ci_halfwidth:.3g} "
                f"(M={self.n_paths})")


def reduce_mean(name: str, values) -> MomentReport:
    values = np.sort(np.asarray(values, dtype=float))
    m = values.size
    if m < 2:
        raise ValidationError(["ensemble estimators need at least 2 paths"])
    est = float(np.mean(values))
    if not math.isfinite(est):
        raise ValidationError([f"estimate for {name} is not finite"])
    hw = 1.96 * float(np.std(values, ddof=1)) / math.sqrt(m)
    return MomentReport(name, m, est, hw)


# the norm columns the four estimate_* functions read
ESTIMATED_COLUMNS = ("u_l2", "u_lpstar", "u_grad_p", "v_halpha", "v_halpha_diss", "couple")


def _series(record: BatchRecord, *columns: str) -> list[np.ndarray]:
    """The (P, n_steps+1) series of the norm columns an estimator reads."""
    missing = sorted(c for c in columns if c not in record.series)
    if missing:
        raise ValidationError([f"records lack the norm column(s) {missing}; simulate "
                               f"with columns that include {missing}"])
    return [record.series[c] for c in columns]


def estimate_u_L2(record: BatchRecord, u0_l2_sq: float | None = None) -> MomentReport:
    """Ensemble mean of sup_t |u|_{L2}^2, with a fitted constant against
    the bound shape C (1 + E|u0|_{L2}^2) when the initial moment is given."""
    (u_l2,) = _series(record, "u_l2")
    report = reduce_mean("sup_t |u|_L2^2", np.max(u_l2**2, axis=-1))
    if u0_l2_sq is not None:
        rhs = 1.0 + u0_l2_sq
        report.extras.update(rhs=rhs, fitted_C=report.estimate / rhs)
    return report


def estimate_u_pstar(record: BatchRecord, lam: float = 0.0) -> dict:
    """Sup of the (optionally e^{-lam t} weighted) p* mass of u together
    with the time-integrated gradient dissipation int |u^{p*/2-1} grad u|_{L2}^2,
    at the p* the record was produced with.

    The gradient is applied spectrally before the pointwise powers; the
    reported dissipation carries no p*(p*-1) prefactor.
    """
    u_lp, grad = _series(record, "u_lpstar", "u_grad_p")
    ps, times = record.params.p_star, record.times
    return {
        "sup": reduce_mean(f"sup_t e^(-lam t)|u|_Lp*^p* (p*={ps})",
                           np.max(np.exp(-lam * times) * u_lp**ps, axis=-1)),
        "gradient": reduce_mean("int |u^(p*/2-1) grad u|_L2^2 dt",
                                np.trapezoid(grad, times, axis=-1)),
    }


def estimate_v_Halpha(record: BatchRecord) -> dict:
    """Sup of |v|^2 in H^alpha and the dissipation int |v|^2 in
    H^{alpha + aleph/2}, at the alpha and aleph the record was produced with."""
    halpha, diss = _series(record, "v_halpha", "v_halpha_diss")
    return {
        "sup": reduce_mean("sup_t |v|_Halpha^2", np.max(halpha**2, axis=-1)),
        "dissipation": reduce_mean("int |v|_H(alpha+aleph/2)^2 dt",
                                   np.trapezoid(diss**2, record.times, axis=-1)),
    }


def estimate_coupling(record: BatchRecord, m: int = 1) -> MomentReport:
    """Ensemble mean of ( int int u^{p*} v^q dx dt )^m, clip-then-power."""
    if m < 1:
        raise ValidationError(["the power m must be >= 1"])
    (couple,) = _series(record, "couple")
    # a float's own power, per path: numpy's array power rounds differently
    vals = [float(x) ** m for x in np.trapezoid(couple, record.times, axis=-1)]
    return reduce_mean(f"(int int u^p* v^q)^{m}", vals)


# ---------------------------------------------------------------------------
# discrete-norm inequality diagnostics
# ---------------------------------------------------------------------------


def _gagliardo_norm_pow(values: np.ndarray, space: SpaceConfig, theta: float,
                        p: float, points_per_axis: int) -> float:
    """|f|^p in W^{theta,p} by the grid double sum of the Gagliardo
    seminorm plus the L^p mass.  O(grid^2); diagnostic quality."""
    basis = get_basis(space)
    plan = basis.plan(points_per_axis)
    x = plan.nodes
    if space.d == 1:
        pts = x[:, None]
        f = values.reshape(-1)
    else:
        gx, gy = np.meshgrid(x, x, indexing="ij")
        pts = np.stack([gx.reshape(-1), gy.reshape(-1)], axis=1)
        f = values.reshape(-1)
    diff = pts[:, None, :] - pts[None, :, :]
    if space.boundary == "periodic":
        diff = diff - np.round(diff)  # distance on the torus
    dist = np.sqrt(np.sum(diff**2, axis=-1))
    np.fill_diagonal(dist, 1.0)
    kernel = dist ** -(space.d + theta * p)
    np.fill_diagonal(kernel, 0.0)
    w = plan.weight
    semi = float(np.sum(np.abs(f[:, None] - f[None, :]) ** p * kernel)) * w * w
    mass = float(np.sum(np.abs(f) ** p)) * w
    return mass + semi


def stroock_varopoulos_check(times: np.ndarray, coeffs: np.ndarray,
                             space: SpaceConfig, gamma: float, theta: float,
                             points_per_axis: int | None = None) -> dict:
    """Both sides of the fractional-smoothing inequality
    |eta|^{2 gamma} in L^{2 gamma}(0,T; H^theta_{2 gamma}) vs
    int |eta^{[gamma-1]} grad eta|_{L2}^2, and their ratio.

    A spatially constant path has zero right side and is reported as
    degenerate; the check is a diagnostic, not an assertion.
    """
    if not (gamma > 1 and 0 < theta < 1.0 / gamma):
        raise ValidationError(["need gamma > 1 and theta in (0, 1/gamma)"])
    basis = get_basis(space)
    m = points_per_axis or basis.plan().points_per_axis
    p = 2.0 * gamma
    vals = basis.synthesize(coeffs, m)
    norm_pow = np.asarray([
        _gagliardo_norm_pow(vals[n], space, theta, p, m)
        for n in range(coeffs.shape[0])
    ])
    lhs = float(np.trapezoid(norm_pow, times))
    grads = basis.synthesize_gradient(coeffs, m)
    grad_sq = np.sum(grads**2, axis=0)
    integrand = basis.quadrature(np.abs(vals) ** (2.0 * (gamma - 1.0)) * grad_sq, m)
    rhs = float(np.trapezoid(integrand, times))
    degenerate = rhs == 0.0
    return {
        "lhs": lhs,
        "rhs": rhs,
        "ratio": math.inf if degenerate else lhs / rhs,
        "degenerate": degenerate,
    }


def trace_diagnostic(u: SpectralField, gamma1: float, p: float,
                     k_noise: int | None) -> float:
    """Quadratic-variation trace p(p-1) sum_k lambda_k^{-gamma1}
    int |u|^{p-2} u^2 phi_k^2 dx over the first k_noise noise modes (all
    when None)."""
    if p < 2:
        raise ValidationError(["the exponent p must be >= 2"])
    space = u.space
    basis = get_basis(space)
    m = space.dealias_points(1.0)
    s_vals = squared_eigenfunction_sum(space, gamma1, k_noise, m)
    u_vals = basis.synthesize(u.coeffs, m)
    return float(p * (p - 1) * basis.quadrature(np.abs(u_vals) ** p * s_vals, m))
