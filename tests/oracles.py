"""Independent oracles used to freeze expected values.

Each oracle deliberately avoids the code path it checks: the planar ODE
branch goes through an adaptive Runge-Kutta solver, and the linear
second moment through an exact covariance-matrix recursion of the
discrete update.  counter_normals addresses one process of the noise
generator at arbitrary steps, where WienerSource draws both processes
at consecutive steps, and keyed_normals draws in one pass with a new
array per operation, where the source draws in place, chunk by chunk.
full_step is the step map with every term computed, whatever its
coefficient, where MildIntegrator.step_raw skips the terms a zero
coefficient silences.  cutoff_step is step_raw as the time loop calls
it, on the cutoff drift of the paths' phi.  Both keep their own path norm
(start_norm, next_norm, norm_h) and take their own cutoff levels, and
cutoff_phi calls smooth_cutoff on them directly, where the time loop
keeps a _Cutoff.
forced_sweep is the fixed-point operator stepped by step_raw, with each
step's feed-minus-reaction drift composed on the grid from that step's
frozen reaction and, under Ito, analyzed alone, where apply_V composes
the drift once per block and analyzes it once per block under Ito.
cut_study_states is the convergence study stepped by cutoff_step on the
cutoff system at level 1e12, where strong_order_study steps the uncut
system and keeps no path norm.  per_step_series records every norm
column of each step from that step's state alone, h from its own path
norm, glues along its own level bookkeeping, and draws noise one step at
a time, where run_batch draws blocks of steps, records the state-only
columns once per block of kept states, and steps plateau blocks at phi = 1 that it rolls back to
their first state off the plateau.  start_norm and next_norm keep the
path norm one step at a time, where the time loop and path_norm_series
extend integrate._PathNorm over blocks of states.
"""

from dataclasses import replace

import numpy as np
from scipy.integrate import solve_ivp
from scipy.special import ndtri

from grayscott.integrate import (
    NORM_COLUMNS,
    MildIntegrator,
    _BatchState,
    draw_steps,
    path_norm_series,
    smooth_cutoff,
    step_count,
)
from grayscott.noise import (
    _MULT_STEP,
    WienerSource,
    _role_arr,
    _stream_keys,
    aggregate_increments,
    coloring_weights,
)
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


def keyed_normals(keys: np.ndarray, step_words: np.ndarray) -> np.ndarray:
    """Standard normals of shape (P, S, K) from (P, K) stream keys and S
    step words: the SplitMix64 finalizer, a 53-bit uniform strictly inside
    (0, 1) and the inverse normal CDF, over the whole block at once."""
    z = keys[:, None, :] ^ step_words[None, :, None]
    z = z ^ (z >> np.uint64(30))
    z = z * np.uint64(0xBF58476D1CE4E5B9)
    z = z ^ (z >> np.uint64(27))
    z = z * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    return ndtri(((z >> np.uint64(11)).astype(np.float64) + 0.5) * (2.0**-53))


def counter_normals(seed: int, path_ids: np.ndarray, process: int, segment,
                    steps: np.ndarray, n_modes: int) -> np.ndarray:
    """Standard normals of shape (len(path_ids), len(steps), n_modes) at
    their noise addresses; segment is one glue segment for all paths or
    one per path."""
    keys = _stream_keys(seed, path_ids, segment, n_modes)[process - 1]
    return keyed_normals(keys, _role_arr(steps, _MULT_STEP))


def start_norm(integ, v):
    """A path norm (sup, intg, last_diss_sq) of the paths at v (P, K),
    accumulated apart from the time loop's _Cutoff."""
    v2 = v**2
    diss_sq = (integ.w_rho_aleph * v2).sum(axis=-1)
    return np.sqrt((integ.w_rho * v2).sum(axis=-1)), np.zeros(diss_sq.shape), diss_sq


def next_norm(integ, norm, v, dt):
    """The path norm norm taken one step of dt on, to v (P, K): running
    max, trapezoid rule."""
    sup, intg, last_diss_sq = norm
    rho_norm, _, diss_sq = start_norm(integ, v)
    return np.maximum(sup, rho_norm), intg + 0.5 * dt * (last_diss_sq + diss_sq), diss_sq


def norm_h(norm):
    """h = sup + sqrt(intg) of a start_norm/next_norm path norm."""
    return norm[0] + np.sqrt(norm[1])


def cutoff_phi(state, kappa, norm):
    """phi(h / kappa) per path of state at the path norm norm (a
    start_norm/next_norm one) and the levels kappa; 0 on fallback paths."""
    return np.where(state.fallback, 0.0, smooth_cutoff(norm_h(norm) / kappa))


def cutoff_step(integ, state, kappa, norm, noise, dt):
    """step_raw on the cutoff drift of the paths' phi at the levels kappa
    and the path norm norm, with the state's grid values, as the time
    loop calls it; noise is the step's colored noise.  Returns the new
    state and its path norm."""
    vals = integ.synth(state.uv)
    react = integ.reaction(vals, cutoff_phi(state, kappa, norm))
    new = integ.step_raw(state, noise, dt, integ.drift(state, react), vals)
    return new, next_norm(integ, norm, new.v, dt)


def full_step(integ, state, kappa, norm, noise, dt):
    """One step of MildIntegrator's map with the noise term and the
    reaction always computed, however their coefficients vanish; the
    same operations in the same order as step_raw otherwise.  noise is
    the step's colored noise, kappa the paths' levels and norm a
    start_norm/next_norm path norm; returns the new state and its path
    norm."""
    p = integ.params
    vals = integ.synth(state.uv)
    react = integ.reaction(vals, cutoff_phi(state, kappa, norm))
    drift = np.empty(vals.shape)
    np.subtract(p.b1, p.c1 * react, out=drift[0])
    np.add(p.b2, p.c2 * react, out=drift[1])
    if state.fallback.any():
        drift[:, state.fallback] = 0.0
    drift = integ._per_species(integ.analyze, integ.to_ito(drift, vals))
    uv = np.multiply(drift, dt, out=np.empty(state.uv.shape))
    uv += state.uv
    g = integ.g_dw(vals, noise)
    g[0] *= p.sigma1
    g[1] *= p.sigma2
    uv += g
    uv *= integ._semigroups(dt, state.fallback, state.fallback.any())
    new = _BatchState(uv, state.segment, state.fallback, state.step + 1)
    return new, next_norm(integ, norm, new.v, dt)


def forced_sweep(control, integ, u0, v0, kappa, path_ids):
    """apply_V's trajectory (2, P, n_steps+1, K) by step_raw: the reaction
    phi * eta * max(xi, 0)^q of each drawn noise block, composed as
    apply_V's sweep composes it, and each step's drift b1 - c1 * R, b2 + c2 * R
    composed on the grid (and analyzed under Ito) and passed to step_raw one
    step at a time."""
    p, d = integ.params, integ.space.d
    dt, n_steps = control.dt, control.eta.shape[1] - 1
    phi = smooth_cutoff(path_norm_series(integ.space, control.xi, p.rho, p.aleph, dt) / kappa)
    phi = phi.reshape(phi.shape + (1,) * d)
    source = WienerSource(integ.noise, integ.space, path_ids)
    block = draw_steps(len(path_ids), source.k_noise)
    state = integ.initial_state(u0.coeffs, v0.coeffs, len(path_ids))
    out = np.empty((2, len(path_ids), n_steps + 1, u0.coeffs.size))
    out[:, :, 0] = state.uv
    for start in range(0, n_steps, block):
        rows = slice(start, min(start + block, n_steps))
        react = phi[:, rows] * (integ.synth(control.eta[:, rows])
                                * integ.v_power(integ.synth(control.xi[:, rows])))
        noise = integ.colored_noise(
            source.increment_block(start, react.shape[1], dt, state.segment))
        for j in range(react.shape[1]):
            drift = np.empty((2,) + react[:, j].shape)
            np.subtract(p.b1, p.c1 * react[:, j], out=drift[0])
            np.add(p.b2, p.c2 * react[:, j], out=drift[1])
            if integ.ito_profile is None:  # Ito: the step takes the drift's coefficients
                drift = integ._per_species(integ.analyze, drift)
            state = integ.step_raw(state, noise[j], dt, drift, integ.synth(state.uv))
            out[:, :, start + j + 1] = state.uv
    return out


def cut_study_states(params, space, noise, u0, v0, T, dts, n_paths, ref_refinement):
    """strong_order_study's states at T, the reference first and then the
    dts from the largest down, by cutoff_step on the cutoff system at level
    1e12: each level steps on block sums of one fine draw, as the study
    does."""
    dts = sorted(dts, reverse=True)
    steps = [min(dts) / ref_refinement] + dts
    strides = [step_count(dt, steps[0]) for dt in steps]
    integ = MildIntegrator(params, space, noise)
    source = WienerSource(noise, space, np.arange(n_paths))
    states = [integ.initial_state(u0.coeffs, v0.coeffs, n_paths) for _ in steps]
    norms = [start_norm(integ, state.v) for state in states]
    block = np.lcm.reduce(strides)
    for b in range(step_count(T, steps[0]) // block):
        fine = source.increment_block(b * block, block, steps[0], 0)
        for i, (stride, dt) in enumerate(zip(strides, steps)):
            colored = integ.colored_noise(fine if stride == 1
                                          else aggregate_increments(fine, stride))
            for n in range(block // stride):
                states[i], norms[i] = cutoff_step(integ, states[i], 1e12, norms[i],
                                                  colored[n], dt)
    return states


def per_step_series(integ, u0, v0, levels, n_steps, dt, path_ids, glue):
    """Every norm column (P, n_steps+1) of simulate_glued over the kappa
    schedule levels if glue, else of simulate_ensemble at the one level
    levels[0]: each step draws its own noise, and each column of step n is
    computed from step n's state alone, and h from the path norm that
    start_norm and next_norm keep."""
    p, m, quad = integ.params, integ.grid_m, integ.basis.quadrature
    levels = np.asarray(levels, dtype=float)
    source = WienerSource(integ.noise, integ.space, path_ids)
    state = integ.initial_state(u0, v0, len(path_ids))
    level = np.zeros(len(path_ids), dtype=np.int64)  # each path's index into levels
    norm = start_norm(integ, state.v)
    out = {c: np.empty((len(path_ids), n_steps + 1)) for c in NORM_COLUMNS}
    for n in range(n_steps + 1):
        vals = integ.synth(state.uv)
        u_vals, v_vals = vals
        h = norm_h(norm)
        phi = cutoff_phi(state, levels[level], norm)
        v2 = state.v**2
        grad_sq = (integ.basis.synthesize_gradient(state.u, m) ** 2).sum(axis=0)
        for col, values in (
            ("u_l2", np.sqrt((state.u**2).sum(axis=-1))),
            ("u_lpstar", quad(np.abs(u_vals) ** p.p_star, m) ** (1.0 / p.p_star)),
            ("v_halpha", np.sqrt((integ.w_alpha * v2).sum(axis=-1))),
            ("v_halpha_diss", np.sqrt((integ.w_alpha_aleph * v2).sum(axis=-1))),
            ("h", h),
            ("phi", phi),
            ("u_grad_p", quad(np.abs(u_vals) ** (p.p_star - 2.0) * grad_sq, m)),
            ("couple", quad(np.maximum(u_vals, 0.0) ** p.p_star
                            * np.maximum(v_vals, 0.0) ** p.q, m)),
        ):
            out[col][:, n] = values
        crossed = ~state.fallback & (h >= levels[level])
        if glue and crossed.any():  # restart: next level or the linear fallback
            last = crossed & (level + 1 == levels.size)
            out["phi"][last, n] = 0.0
            level = level + (crossed & ~last)
            norm = tuple(np.where(crossed, fresh, kept)
                         for fresh, kept in zip(start_norm(integ, state.v), norm))
            state = replace(state, segment=state.segment + crossed,
                            fallback=state.fallback | last)
            phi = cutoff_phi(state, levels[level], norm)
        if n == n_steps:
            return out
        noise = integ.colored_noise(source.increment_block(n, 1, dt, state.segment))[0]
        state = integ.step_raw(state, noise, dt, integ.drift(state, integ.reaction(vals, phi)),
                               vals)
        norm = next_norm(integ, norm, state.v, dt)
