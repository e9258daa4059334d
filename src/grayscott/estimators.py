"""Ensemble Monte Carlo estimators for the a-priori moment bounds and
the discrete-norm inequality diagnostics.

Estimators reduce immutable path records; reductions sort the per-path
values first, so results are permutation invariant in the ensemble and
deterministic for a given record set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .integrate import PathRecord
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


def reduce_mean(name: str, values, extras: dict | None = None) -> MomentReport:
    values = np.sort(np.asarray(values, dtype=float))
    m = values.size
    if m < 2:
        raise ValidationError(["ensemble estimators need at least 2 paths"])
    est = float(np.mean(values))
    if not math.isfinite(est):
        raise ValidationError([f"estimate for {name} is not finite"])
    hw = 1.96 * float(np.std(values, ddof=1)) / math.sqrt(m)
    return MomentReport(name, m, est, hw, dict(extras or {}))


# the norm columns the four estimate_* functions read
ESTIMATED_COLUMNS = ("u_l2", "u_lpstar", "u_grad_p", "v_halpha", "v_halpha_diss", "couple")


def _sorted_records(records, columns: tuple[str, ...]) -> list[PathRecord]:
    """The records by path id, each checked to hold the norm columns read."""
    recs = sorted(records, key=lambda r: r.path_id)
    if len(recs) < 2:
        raise ValidationError(["ensemble estimators need at least 2 paths"])
    missing = sorted({c for r in recs for c in columns if c not in r.series})
    if missing:
        raise ValidationError([f"records lack the norm column(s) {missing}; simulate "
                               f"with columns that include {missing}"])
    return recs


def estimate_u_L2(records, u0_l2_sq: float | None = None) -> MomentReport:
    """Ensemble mean of sup_t |u|_{L2}^2, with a fitted constant against
    the bound shape C (1 + E|u0|_{L2}^2) when the initial moment is given."""
    recs = _sorted_records(records, ("u_l2",))
    vals = [float(np.max(r.series["u_l2"] ** 2)) for r in recs]
    extras = {}
    if u0_l2_sq is not None:
        rhs = 1.0 + u0_l2_sq
        extras["rhs"] = rhs
        extras["fitted_C"] = float(np.mean(vals)) / rhs
    return reduce_mean("sup_t |u|_L2^2", vals, extras)


def estimate_u_pstar(records, lam: float = 0.0) -> dict:
    """Sup of the (optionally e^{-lam t} weighted) p* mass of u together
    with the time-integrated gradient dissipation int |u^{p*/2-1} grad u|_{L2}^2,
    at the p* the records were produced with.

    The gradient is applied spectrally before the pointwise powers; the
    reported dissipation carries no p*(p*-1) prefactor.
    """
    recs = _sorted_records(records, ("u_lpstar", "u_grad_p"))
    ps = recs[0].params.p_star
    if any(r.params.p_star != ps for r in recs):
        mixed = sorted({r.params.p_star for r in recs})
        raise ValidationError([f"records were produced with different p_star values {mixed}"])
    weight = [np.exp(-lam * r.times) for r in recs]
    sup_vals = [float(np.max(w * r.series["u_lpstar"] ** ps))
                for w, r in zip(weight, recs)]
    grad_vals = [float(np.trapezoid(r.series["u_grad_p"], r.times)) for r in recs]
    return {
        "sup": reduce_mean(f"sup_t e^(-lam t)|u|_Lp*^p* (p*={ps})", sup_vals),
        "gradient": reduce_mean("int |u^(p*/2-1) grad u|_L2^2 dt", grad_vals),
    }


def estimate_v_Halpha(records) -> dict:
    """Sup of |v|^2 in H^alpha and the dissipation int |v|^2 in
    H^{alpha + aleph/2}, at the alpha and aleph the records were produced with."""
    recs = _sorted_records(records, ("v_halpha", "v_halpha_diss"))
    sup_vals = [float(np.max(r.series["v_halpha"] ** 2)) for r in recs]
    diss_vals = [float(np.trapezoid(r.series["v_halpha_diss"] ** 2, r.times))
                 for r in recs]
    return {
        "sup": reduce_mean("sup_t |v|_Halpha^2", sup_vals),
        "dissipation": reduce_mean("int |v|_H(alpha+aleph/2)^2 dt", diss_vals),
    }


def estimate_coupling(records, m: int = 1) -> MomentReport:
    """Ensemble mean of ( int int u^{p*} v^q dx dt )^m, clip-then-power."""
    if m < 1:
        raise ValidationError(["the power m must be >= 1"])
    recs = _sorted_records(records, ("couple",))
    vals = [float(np.trapezoid(r.series["couple"], r.times)) ** m for r in recs]
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
    m = basis.dealias_points(1.0)
    s_vals = squared_eigenfunction_sum(space, gamma1, k_noise, m)
    u_vals = basis.synthesize(u.coeffs, m)
    return float(p * (p - 1) * basis.quadrature(np.abs(u_vals) ** p * s_vals, m))
