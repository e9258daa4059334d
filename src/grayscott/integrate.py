"""Exponential-Euler time stepping of the cutoff activator-inhibitor
system in mild form, with path-norm cutoff bookkeeping, stopping-time
detection and glueing of local solutions.

The scheme treats the stiff linear parts exactly (per-mode semigroup
factors) and the reaction/noise parts explicitly; a semi-implicit
variant treats the activator decay as an exact per-step exponential.
Internals are vectorized over a batch of independent paths.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NonFinite, ScheduleExhausted, ValidationError
from .noise import (
    NoiseConfig,
    WienerSource,
    coloring_weights,
    noise_mode_indices,
    squared_eigenfunction_sum,
)
from .spectral import (
    SpaceConfig,
    SpectralField,
    get_basis,
    semigroup_factors,
    sobolev_weights,
)

SCHEMES = ("explicit", "semi_implicit")

NORM_COLUMNS = (
    "u_l2", "u_lpstar", "v_halpha", "v_halpha_diss", "h", "phi", "u_grad_p", "couple",
)


@dataclass(frozen=True)
class ModelParams:
    """All scalar parameters of the coupled system plus scheme knobs.

    q is the inhibitor feedback exponent, aleph the fractional diffusion
    order of the inhibitor, rho/alpha the path-space and uniform-bound
    smoothness indices, p_star the activator moment exponent and lam the
    exponential weight of the moment functionals.
    """

    r1: float = 1.0
    r2: float = 1.0
    a1: float = -0.5
    a2: float = -0.5
    b1: float = 0.1
    b2: float = 0.1
    c1: float = 1.0
    c2: float = 1.0
    sigma1: float = 0.1
    sigma2: float = 0.1
    q: float = 2.0
    aleph: float = 2.0
    rho: float = 0.25
    alpha: float = 0.25
    p_star: float = 4.5
    lam: float = 0.0
    scheme: str = "explicit"

    def __post_init__(self):
        v = []
        if self.r1 <= 0 or self.r2 <= 0:
            v.append(f"diffusivities r1, r2 must be > 0, got {self.r1}, {self.r2}")
        # c_i = 0 is admitted so the linear benchmark branches are expressible
        if self.c1 < 0 or self.c2 < 0:
            v.append(f"coupling c1, c2 must be >= 0, got {self.c1}, {self.c2}")
        if self.b1 < 0 or self.b2 < 0:
            v.append(f"feeds b1, b2 must be >= 0, got {self.b1}, {self.b2}")
        if self.sigma1 < 0 or self.sigma2 < 0:
            v.append(f"noise amplitudes must be >= 0, got {self.sigma1}, {self.sigma2}")
        if self.q < 1:
            v.append(f"q must be >= 1, got {self.q}")
        if not (1.0 < self.aleph <= 2.0):
            v.append(f"aleph must lie in (1, 2], got {self.aleph}")
        if self.alpha < self.rho:
            v.append(f"alpha must be >= rho, got alpha={self.alpha}, rho={self.rho}")
        if self.p_star < 2:
            v.append(f"p_star must be >= 2, got {self.p_star}")
        if self.lam < 0:
            v.append(f"lam must be >= 0, got {self.lam}")
        if self.scheme not in SCHEMES:
            v.append(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if v:
            raise ValidationError(v)


def smooth_cutoff(x):
    """C-infinity transition: 1 on |x| <= 1, 0 on |x| >= 2, monotone between."""
    ax = np.abs(np.asarray(x, dtype=float))
    if (ax <= 1.0).all():  # the plateau, where the full formula yields exactly 1.0
        return 1.0 if ax.ndim == 0 else np.ones(ax.shape)
    t = 2.0 - ax  # in (0, 1) on the transition band
    with np.errstate(divide="ignore", over="ignore"):
        f = np.where(t > 0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        g = np.where(1 - t > 0, np.exp(-1.0 / np.maximum(1 - t, 1e-300)), 0.0)
    out = f / (f + g)
    out = np.where(ax <= 1.0, 1.0, out)
    out = np.where(ax >= 2.0, 0.0, out)
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


def _norm_terms(v: np.ndarray, w: np.ndarray, w_diss: np.ndarray):
    """(|v|_{H^s}, |v|^2_{H^{s+aleph/2}}) along the last axis of v, from the
    Sobolev weights w of s and w_diss of s + aleph/2."""
    v2 = v**2
    return np.sqrt((w * v2).sum(axis=-1)), (w_diss * v2).sum(axis=-1)


# ---------------------------------------------------------------------------
# batched state and the integrator
# ---------------------------------------------------------------------------


@dataclass
class _BatchState:
    """A batch of paths: coefficients, running path norms, and per path
    the cutoff level, glue level, noise segment and fallback flag."""

    u: np.ndarray  # (P, K)
    v: np.ndarray
    sup: np.ndarray  # (P,)
    intg: np.ndarray
    last_diss_sq: np.ndarray
    kappa: np.ndarray  # (P,) cutoff level
    level: np.ndarray  # (P,) index into the glue schedule
    segment: np.ndarray  # (P,) noise segment
    fallback: np.ndarray  # (P,) past the last level: linear continuation
    step: int
    t: float

    @property
    def h(self) -> np.ndarray:
        return self.sup + np.sqrt(self.intg)


class MildIntegrator:
    """One-step map of the cutoff system for a fixed parameter set.

    Precomputes semigroup factors, Sobolev weights, noise coloring and
    the Stratonovich correction profile; all heavy per-step work is
    batched numpy.  Cutoff levels live on the batch state, so one
    integrator serves every level.
    """

    def __init__(self, params: ModelParams, space: SpaceConfig, noise: NoiseConfig):
        self.params = params
        self.space = space
        self.noise = noise
        self.basis = get_basis(space)
        self.grid_m = self.basis.dealias_points(max(params.q, 1.0))
        self.k_noise = noise.mode_cutoff or noise_mode_indices(space).size
        self.coloring = {j: coloring_weights(space, noise.gamma(j), self.k_noise) for j in (1, 2)}
        self._exp_cache: dict[tuple[float, bool], tuple[np.ndarray, np.ndarray]] = {}
        self._colored: dict[int, np.ndarray] = {}  # per process: g_dw's coloring buffer
        self.w_rho = sobolev_weights(space, params.rho)
        self.w_rho_aleph = sobolev_weights(space, params.rho + params.aleph / 2.0)
        self.w_alpha = sobolev_weights(space, params.alpha)
        self.w_alpha_aleph = sobolev_weights(space, params.alpha + params.aleph / 2.0)
        self.ito_profile = {}  # per process: (sigma^2 / 2) sum_k lambda_k^(-gamma) phi_k^2
        if noise.interpretation == "stratonovich":
            for j, sigma in ((1, params.sigma1), (2, params.sigma2)):
                s_vals = squared_eigenfunction_sum(space, noise.gamma(j), self.k_noise, self.grid_m)
                self.ito_profile[j] = 0.5 * sigma**2 * s_vals

    # -- helpers -----------------------------------------------------------

    def _factors(self, dt: float, fallback: bool) -> tuple[np.ndarray, np.ndarray]:
        got = self._exp_cache.get((dt, fallback))
        if got is None:
            p, sp = self.params, self.space
            if fallback:  # plain heat continuation for both
                got = (semigroup_factors(sp, p.r1, 0.0, dt),
                       semigroup_factors(sp, p.r2, 0.0, dt))
            else:
                got = (semigroup_factors(sp, p.r1, p.a1, dt),
                       semigroup_factors(sp, p.r2, p.a2, dt, p.aleph))
            self._exp_cache[(dt, fallback)] = got
        return got

    def _semigroups(self, dt: float, fallback: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-path semigroup factors: fallback paths take the continuation's."""
        e1, e2 = self._factors(dt, False)
        if fallback.any():
            f1, f2 = self._factors(dt, True)
            col = fallback[:, None]
            e1, e2 = np.where(col, f1, e1), np.where(col, f2, e2)
        return e1, e2

    def v_power(self, v_vals: np.ndarray) -> np.ndarray:
        """max(v, 0)^q, for the direct step and the fixed-point forcing alike."""
        return np.maximum(v_vals, 0.0) ** self.params.q

    def synth(self, coeffs: np.ndarray) -> np.ndarray:
        return self.basis.synthesize(coeffs, self.grid_m)

    def analyze(self, values: np.ndarray) -> np.ndarray:
        return self.basis.analyze(values, self.grid_m)

    def g_dw(self, vals: np.ndarray, dw: np.ndarray, process: int) -> np.ndarray:
        """g_gamma(u)[dW]: the grid product of u (grid values) with the
        coloring (-Laplace)^(-gamma/2) dW of dW (per noise mode), projected
        back to the basis."""
        idx, w = self.coloring[process]
        shape = dw.shape[:-1] + (self.space.total_modes,)
        colored = self._colored.get(process)
        if colored is None or colored.shape != shape:  # the non-noise columns stay zero
            colored = self._colored[process] = np.zeros(shape)
        colored[..., idx] = w * dw
        return self.analyze(vals * self.synth(colored))

    def to_ito(self, drift, vals: np.ndarray, process: int):
        """The drift (grid values) plus the correction (sigma^2/2) sum_k
        lambda_k^(-gamma) phi_k^2 u that turns the Stratonovich system into
        Ito form; the drift itself under the Ito interpretation."""
        profile = self.ito_profile.get(process)
        return drift if profile is None else drift + profile * vals

    def norm_terms(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(|v|_{H^rho}, |v|^2_{H^{rho+aleph/2}}) per path: what h accumulates."""
        return _norm_terms(v, self.w_rho, self.w_rho_aleph)

    def phi_of(self, state: _BatchState) -> np.ndarray:
        return np.where(state.fallback, 0.0, smooth_cutoff(state.h / state.kappa))

    # -- stepping ------------------------------------------------------------

    def step_raw(self, state: _BatchState, dw1: np.ndarray, dw2: np.ndarray,
                 dt: float, react: np.ndarray | None = None,
                 uv_vals: tuple[np.ndarray, np.ndarray] | None = None) -> _BatchState:
        """Advance one step.  dw1/dw2 have shape (P, K_noise).

        react, when given, replaces the cutoff reaction phi * u * v^q by
        exogenous grid values per path (the fixed-point operator's frozen
        reaction); uv_vals passes already synthesized grid values of the
        state.  Fallback paths have no reaction and no feed.
        """
        p = self.params
        e1, e2 = self._semigroups(dt, state.fallback)
        if uv_vals is None:
            u_vals = self.synth(state.u)
            v_vals = self.synth(state.v)
        else:
            u_vals, v_vals = uv_vals
        semi_implicit = p.scheme == "semi_implicit" and react is None
        if react is None:
            phi = self.phi_of(state).reshape((-1,) + (1,) * self.space.d)
            react = phi * u_vals * self.v_power(v_vals)
        drift_u = p.b1 - p.c1 * react
        drift_v = p.b2 + p.c2 * react
        if state.fallback.any():  # fallback paths: no reaction and no feed
            drift_u[state.fallback] = drift_v[state.fallback] = 0.0
        drift_u = self.to_ito(drift_u, u_vals, 1)
        drift_v = self.to_ito(drift_v, v_vals, 2)

        gu = self.g_dw(u_vals, dw1, 1)
        gv = self.g_dw(v_vals, dw2, 2)

        if semi_implicit:
            decay = np.exp(-dt * p.c1 * phi * self.v_power(v_vals))
            u_base = np.where(state.fallback[:, None], state.u, self.analyze(u_vals * decay))
            drift_u = drift_u + p.c1 * react  # reaction handled by the decay factor
        else:
            u_base = state.u

        du = self.analyze(drift_u)
        dv = self.analyze(drift_v)
        u_new = e1 * (u_base + dt * du + p.sigma1 * gu)
        v_new = e2 * (state.v + dt * dv + p.sigma2 * gv)

        if not (np.isfinite(u_new).all() and np.isfinite(v_new).all()):
            raise NonFinite(
                f"non-finite coefficients at step {state.step + 1}",
                step=state.step + 1, time=state.t + dt,
            )

        rho_norm, diss_sq = self.norm_terms(v_new)
        intg = state.intg + 0.5 * dt * (state.last_diss_sq + diss_sq)
        return _BatchState(u_new, v_new, np.maximum(state.sup, rho_norm), intg, diss_sq,
                           state.kappa, state.level, state.segment, state.fallback,
                           state.step + 1, state.t + dt)

    def initial_state(self, u0: np.ndarray, v0: np.ndarray, kappa) -> _BatchState:
        """Batch state at t=0 with cutoff level kappa (scalar or per path)."""
        u0 = np.atleast_2d(np.asarray(u0, dtype=float))
        v0 = np.atleast_2d(np.asarray(v0, dtype=float))
        n = u0.shape[0]
        sup, diss = self.norm_terms(v0)
        return _BatchState(
            u0.copy(), v0.copy(), sup, np.zeros(n), diss,
            kappa=np.broadcast_to(np.asarray(kappa, dtype=float), (n,)).copy(),
            level=np.zeros(n, dtype=np.int64), segment=np.zeros(n, dtype=np.int64),
            fallback=np.zeros(n, dtype=bool), step=0, t=0.0,
        )

    # -- per-step norm recording ----------------------------------------------

    def record_norms(self, state: _BatchState, out: dict[str, np.ndarray], n: int,
                     uv_vals: tuple[np.ndarray, np.ndarray]):
        """Fill column n of every norm series; uv_vals are the grid values of (u, v)."""
        p = self.params
        u_vals, v_vals = uv_vals
        quad = self.basis.quadrature
        m = self.grid_m
        out["u_l2"][:, n] = np.sqrt((state.u**2).sum(axis=-1))
        out["u_lpstar"][:, n] = quad(np.abs(u_vals) ** p.p_star, m) ** (1.0 / p.p_star)
        out["v_halpha"][:, n], diss_sq = _norm_terms(state.v, self.w_alpha, self.w_alpha_aleph)
        out["v_halpha_diss"][:, n] = np.sqrt(diss_sq)
        out["h"][:, n] = state.h
        out["phi"][:, n] = self.phi_of(state)
        grad = self.basis.synthesize_gradient(state.u, m)
        grad_sq = (grad**2).sum(axis=0)
        out["u_grad_p"][:, n] = quad(np.abs(u_vals) ** (p.p_star - 2.0) * grad_sq, m)
        # coupling functional uses clip-then-power on both factors
        out["couple"][:, n] = quad(
            np.maximum(u_vals, 0.0) ** p.p_star * np.maximum(v_vals, 0.0) ** p.q, m
        )


# ---------------------------------------------------------------------------
# records and public operations
# ---------------------------------------------------------------------------


@dataclass
class PathRecord:
    """Time-indexed norms and snapshots of one simulated path."""

    path_id: int
    times: np.ndarray
    series: dict[str, np.ndarray]
    stop_time: float
    stop_step: int | None
    params: ModelParams
    space: SpaceConfig
    glue_events: list[tuple[float, float]] = field(default_factory=list)
    snapshots: list[tuple[float, np.ndarray, np.ndarray]] = field(default_factory=list)
    trajectory: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def n_steps(self) -> int:
        return self.times.size - 1


def step_count(T: float, dt: float) -> int:
    """Number of dt steps from 0 to T; T must be a whole multiple of dt."""
    if not (math.isfinite(T) and math.isfinite(dt) and T > 0 and dt > 0):
        raise ValidationError([f"T and dt must be finite and > 0, got T={T}, dt={dt}"])
    n = round(T / dt)
    if n < 1 or abs(n * dt - T) > 1e-9 * T:
        raise ValidationError([f"T={T} is not a whole multiple of dt={dt}"])
    return int(n)


def _detect_stop(times: np.ndarray, h_series: np.ndarray, kappa: float):
    crossed = np.nonzero(h_series >= kappa)[0]
    if crossed.size == 0:
        return math.inf, None
    i = int(crossed[0])
    return float(times[i]), i


def _check_initial(u0: SpectralField, v0: SpectralField, space: SpaceConfig):
    basis = get_basis(space)
    for name, f in (("u0", u0), ("v0", v0)):
        if np.min(basis.synthesize(f.coeffs)) < -1e-12:
            warnings.warn(f"initial datum {name} is negative somewhere on the grid")


def _run_batch(params: ModelParams, space: SpaceConfig, noise: NoiseConfig,
               u0: SpectralField, v0: SpectralField, kappa: float,
               T: float, dt: float, path_ids, store_trajectory: bool = False,
               glue=None) -> list[PathRecord]:
    """The time loop: record the norms, let ``glue`` restart the paths
    that reached their level, keep snapshots, then step every path."""
    n_steps = step_count(T, dt)
    if not kappa > 0:  # also rejects NaN
        raise ValidationError([f"cutoff level kappa must be > 0, got {kappa}"])
    _check_initial(u0, v0, space)
    path_ids = np.atleast_1d(np.asarray(path_ids, dtype=np.int64))
    shape = (path_ids.size, u0.coeffs.size)
    integ = MildIntegrator(params, space, noise)
    source = WienerSource(noise, space, path_ids)
    state = integ.initial_state(
        np.broadcast_to(u0.coeffs, shape), np.broadcast_to(v0.coeffs, shape), kappa
    )
    series = {c: np.empty((path_ids.size, n_steps + 1)) for c in NORM_COLUMNS}
    times = np.arange(n_steps + 1) * dt
    snaps: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    traj = np.empty((2, shape[0], n_steps + 1, shape[1])) if store_trajectory else None

    for n in range(n_steps + 1):
        uv = (integ.synth(state.u), integ.synth(state.v))
        integ.record_norms(state, series, n, uv_vals=uv)
        if glue is not None:
            state = glue(integ, state, series, n, float(times[n]))
            source.segment = state.segment
        if n in (0, n_steps):
            snaps[n] = (state.u.copy(), state.v.copy())
        if traj is not None:
            traj[0, :, n] = state.u
            traj[1, :, n] = state.v
        if n == n_steps:
            break
        dw1 = source.increment_block(n, 1, dt, 1)[:, 0]
        dw2 = source.increment_block(n, 1, dt, 2)[:, 0]
        state = integ.step_raw(state, dw1, dw2, dt, uv_vals=uv)

    records = []
    for i, pid in enumerate(path_ids):
        per = {c: series[c][i].copy() for c in NORM_COLUMNS}
        stop_time, stop_step = _detect_stop(times, per["h"], kappa)
        records.append(PathRecord(
            path_id=int(pid), times=times.copy(), series=per,
            stop_time=stop_time, stop_step=stop_step,
            snapshots=[(float(times[n]), snaps[n][0][i].copy(), snaps[n][1][i].copy())
                       for n in sorted(snaps)],
            params=params, space=space,
            trajectory=(traj[0, i].copy(), traj[1, i].copy()) if traj is not None else None,
        ))
    return records


def simulate_ensemble(params: ModelParams, space: SpaceConfig, noise: NoiseConfig,
                      u0: SpectralField, v0: SpectralField, kappa: float,
                      T: float, dt: float, path_ids, store_trajectory: bool = False,
                      check_gate: bool = True) -> list[PathRecord]:
    """Simulate the cutoff system for a batch of independent paths.

    All paths share (params, space, noise, initial data); the noise of
    path ``p`` is keyed by its id, so any sub-batch replays bit-equal.
    """
    if check_gate:
        _warn_if_inadmissible(params, noise, space)
    return _run_batch(params, space, noise, u0, v0, kappa, T, dt, path_ids,
                      store_trajectory)


def simulate_glued(params: ModelParams, space: SpaceConfig, noise: NoiseConfig,
                   u0: SpectralField, v0: SpectralField, kappa_schedule,
                   T: float, dt: float, path_ids,
                   linear_fallback: bool = True,
                   store_trajectory: bool = False) -> list[PathRecord]:
    """Concatenate cutoff-level local solutions along their stopping times,
    for a batch of paths.

    Each path runs the kappa-cutoff system until its path norm first
    reaches kappa, restarts from the stopped state at the next level
    with a fresh noise segment, and past the last level follows the
    linear continuation (or raises ScheduleExhausted when disabled).
    Warns when h(0) already reaches the first level.
    """
    schedule = [float(k) for k in kappa_schedule]
    if len(schedule) == 0 or any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValidationError(["kappa_schedule must be non-empty and strictly increasing"])
    path_ids = np.atleast_1d(np.asarray(path_ids, dtype=np.int64))
    levels = np.asarray(schedule)
    events: list[list[tuple[float, float]]] = [[] for _ in path_ids]

    def glue(integ: MildIntegrator, state: _BatchState, series: dict[str, np.ndarray],
             n: int, t: float) -> _BatchState:
        """Restart the paths whose norm reached their level: next level (or
        the linear fallback), fresh path norms, next noise segment."""
        crossed = ~state.fallback & (state.h >= state.kappa)
        if not crossed.any():
            return state
        if n == 0:
            warnings.warn(f"h(0) >= kappa_0 = {levels[0]:g} on paths "
                          f"{path_ids[crossed].tolist()}; they glue at t=0")
        last = crossed & (state.level + 1 == levels.size)
        if last.any() and not linear_fallback:
            i = int(np.argmax(last))
            raise ScheduleExhausted(
                f"path {path_ids[i]}: path norm reached {state.h[i]:.4g} >= "
                f"kappa={state.kappa[i]} at t={t:.6g} with no further level"
            )
        for i in np.flatnonzero(crossed):
            events[i].append((float(state.kappa[i]), t))
        series["phi"][last, n] = 0.0
        level = state.level + (crossed & ~last)
        rho_norm, diss_sq = integ.norm_terms(state.v)
        return replace(
            state, sup=np.where(crossed, rho_norm, state.sup),
            intg=np.where(crossed, 0.0, state.intg),
            last_diss_sq=np.where(crossed, diss_sq, state.last_diss_sq),
            kappa=levels[level], level=level,
            segment=state.segment + crossed, fallback=state.fallback | last,
        )

    records = _run_batch(params, space, noise, u0, v0, schedule[0], T, dt, path_ids,
                         store_trajectory=store_trajectory, glue=glue)
    for rec, path_events in zip(records, events):
        rec.glue_events = path_events
    return records


def path_norm_series(space: SpaceConfig, v: np.ndarray, s: float, aleph: float,
                     dt) -> np.ndarray:
    """The running path norm of a coefficient series v of shape (..., n+1, K),
    sup_{m<=n} |v_m|_{H^s} + (int_0^{t_n} |v|^2_{H^{s+aleph/2}})^(1/2);
    trapezoid rule with step dt (a scalar, or one per step)."""
    norms, diss_sq = _norm_terms(v, sobolev_weights(space, s),
                                 sobolev_weights(space, s + aleph / 2.0))
    steps = np.cumsum(0.5 * dt * (diss_sq[..., :-1] + diss_sq[..., 1:]), axis=-1)
    intg = np.concatenate([np.zeros(steps.shape[:-1] + (1,)), steps], axis=-1)
    return np.maximum.accumulate(norms, axis=-1) + np.sqrt(intg)


def pathspace_norm(record: PathRecord, rho: float, aleph: float, t: float) -> float:
    """sup_{s<=t} |v(s)|_{H^rho} + ( trapezoid int_0^t |v|^2_{H^{rho+aleph/2}} )^(1/2).

    An unglued record at its own (rho, aleph) reads its h column; any other
    index pair, and the un-reset norm of a glued record, need the stored
    trajectory."""
    times = record.times
    if t < 0 or t > times[-1] + 1e-12:
        raise ValidationError([f"t={t} outside the record range [0, {times[-1]}]"])
    n = int(np.searchsorted(times, t + 1e-12) - 1) if t > 0 else 0
    p = record.params
    if (rho, aleph) == (p.rho, p.aleph) and not record.glue_events:
        return float(record.series["h"][n])
    if record.trajectory is None:
        raise ValidationError(
            ["record lacks a stored trajectory; rerun with store_trajectory=True to "
             "evaluate a path norm at non-recorded smoothness indices or on a glued record"]
        )
    steps = np.diff(times[: n + 1])
    h = path_norm_series(record.space, record.trajectory[1][: n + 1], rho, aleph, steps)
    return float(h[-1])


def _warn_if_inadmissible(params: ModelParams, noise: NoiseConfig, space: SpaceConfig):
    # looked up at call time, so a wrapper patched onto paramgate.evaluate_gate
    # (perfbench's tracer) also sees this call
    from .paramgate import evaluate_gate, gate_args

    report = evaluate_gate(**gate_args(params, noise, space))
    if not report.overall:
        failing = [c.name for c in report.conditions if not c.satisfied]
        warnings.warn(
            "parameter set is outside the admissible region; failing conditions: "
            + ", ".join(failing)
        )
