"""Independent oracles used to freeze expected values.

Each oracle deliberately avoids the code path it checks: the planar ODE
branch goes through an adaptive Runge-Kutta solver, and the linear
second moment through an exact covariance-matrix recursion of the
discrete update.  counter_normals addresses one process of the noise
generator at arbitrary steps, where WienerSource draws both processes
at consecutive steps.  full_step is the step map with every term
computed, whatever its coefficient, where MildIntegrator.step_raw skips
the terms a zero coefficient silences.
"""

import numpy as np
from scipy.integrate import solve_ivp

from grayscott.integrate import _BatchState
from grayscott.noise import _MULT_STEP, _keyed_normals, _role_arr, _stream_keys, coloring_weights
from grayscott.spectral import get_basis


def planar_ode(params, u0: float, v0: float, T: float, rtol=1e-11, atol=1e-13):
    """High-accuracy solution of the spatially homogeneous system."""

    def rhs(_t, y):
        u, v = y
        vq = max(v, 0.0) ** params.q
        return [
            params.a1 * u + params.b1 - params.c1 * u * vq,
            params.a2 * v + params.b2 + params.c2 * u * vq,
        ]

    sol = solve_ivp(rhs, (0.0, T), [u0, v0], method="DOP853",
                    rtol=rtol, atol=atol, dense_output=True)
    if not sol.success:
        raise RuntimeError(sol.message)
    return sol


def planar_ode_with_coupling_integral(params, u0, v0, T, p_star, rtol=1e-11):
    """Also integrates int u^{p*} v^q dt alongside the planar system."""

    def rhs(_t, y):
        u, v, _acc = y
        vq = max(v, 0.0) ** params.q
        return [
            params.a1 * u + params.b1 - params.c1 * u * vq,
            params.a2 * v + params.b2 + params.c2 * u * vq,
            max(u, 0.0) ** p_star * vq,
        ]

    sol = solve_ivp(rhs, (0.0, T), [u0, v0, 0.0], method="DOP853",
                    rtol=rtol, atol=1e-13)
    if not sol.success:
        raise RuntimeError(sol.message)
    return sol.y[:, -1]


def multiplication_matrices(space, k_noise, gamma):
    """Galerkin matrices Q_k of multiplication by the k-th noise
    eigenfunction, plus the coloring weights."""
    basis = get_basis(space)
    weights = coloring_weights(space, gamma, k_noise)
    k_total = space.total_modes
    m = space.dealias_points(1.0)
    eye = np.eye(k_total)
    eye_vals = basis.synthesize(eye, m)
    mats = []
    for k in range(1, 1 + weights.size):
        prod = basis.analyze(eye_vals[k][None, ...] * eye_vals, m)
        mats.append(prod.T)  # [i, j] = <phi_k phi_j, phi_i>
    return np.asarray(mats), weights


def linear_second_moment(space, params, gamma, k_noise, u0_coeffs, dt, n_steps):
    """Exact E[c_n c_n^T] recursion for the explicit linear update
    c' = D (c + sigma P(c z)), driven by independent mode increments.

    Returns tr(Sigma_n) = E |u(t_n)|_{L2}^2 for n = 0..n_steps.
    """
    lam = get_basis(space).eigenvalues
    d_factor = np.exp((-params.r1 * lam + params.a1) * dt)
    mats, weights = multiplication_matrices(space, k_noise, gamma)
    sigma_mat = np.outer(u0_coeffs, u0_coeffs)
    traces = [float(np.trace(sigma_mat))]
    for _ in range(n_steps):
        bump = np.zeros_like(sigma_mat)
        for w, q in zip(weights, mats):
            bump += w**2 * (q @ sigma_mat @ q.T)
        sigma_mat = sigma_mat + params.sigma1**2 * dt * bump
        sigma_mat = d_factor[:, None] * sigma_mat * d_factor[None, :]
        traces.append(float(np.trace(sigma_mat)))
    return np.asarray(traces)


def counter_normals(seed: int, path_ids: np.ndarray, process: int, segment,
                    steps: np.ndarray, n_modes: int) -> np.ndarray:
    """Standard normals of shape (len(path_ids), len(steps), n_modes) at
    their noise addresses; segment is one glue segment for all paths or
    one per path."""
    keys = _stream_keys(seed, path_ids, segment, n_modes)[process - 1]
    return _keyed_normals(keys, _role_arr(steps, _MULT_STEP))


def full_step(integ, state, dw, dt):
    """One step of MildIntegrator's map with the noise term and the
    reaction always computed, however their coefficients vanish; the
    same operations in the same order as step_raw otherwise."""
    p = integ.params
    vals = integ.synth(state.uv)
    react = integ.reaction(vals, integ.phi_of(state))
    drift = np.empty(vals.shape)
    np.subtract(p.b1, p.c1 * react, out=drift[0])
    np.add(p.b2, p.c2 * react, out=drift[1])
    if state.fallback.any():
        drift[:, state.fallback] = 0.0
    drift = integ._per_species(integ.analyze, integ.to_ito(drift, vals))
    uv = np.multiply(drift, dt, out=np.empty(state.uv.shape))
    uv += state.uv
    g = integ.g_dw(vals, dw)
    g[0] *= p.sigma1
    g[1] *= p.sigma2
    uv += g
    uv *= integ._semigroups(dt, state.fallback)
    rho_norm, diss_sq = integ.norm_terms(uv[1])
    intg = state.intg + 0.5 * dt * (state.last_diss_sq + diss_sq)
    return _BatchState(uv, np.maximum(state.sup, rho_norm), intg, diss_sq,
                       state.kappa, state.level, state.segment, state.fallback,
                       state.step + 1)
