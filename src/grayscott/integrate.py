"""Exponential-Euler time stepping of the cutoff activator-inhibitor
system in mild form, with path-norm cutoff bookkeeping, stopping-time
detection and glueing of local solutions.

The scheme treats the stiff linear parts exactly (per-mode semigroup
factors) and the reaction/noise parts explicitly.  Every driver steps
with the same map.  Ensembles, glueing and the fixed-point operator also
share one time loop, ``run_batch``; the fixed-point operator passes its
frozen reaction as a forcing and records nothing.  The convergence study
keeps its own lockstep loop: all its step sizes advance on block sums of
one shared fine draw, which a loop pass per step size would redraw once
per level.  Internals are vectorized over a batch of independent
paths, and both species live in one (2, P, K) array, so a step of a
small batch makes one transform call per operand instead of one per
species (``STACK_BUDGET``).  The time loop draws the noise of both
processes for several steps in one call (``DRAW_BUDGET``), in each
path's current glue segment; each draw is a pure function of its
address, so the increments are the one-step draws bit for bit.  The
state's transforms are not batched over steps: at one path a d=1 step is
a GEMV and a block of steps a GEMM, and the two round differently.  A
forcing is asked for once per drawn block, so the fixed-point reaction's
d=1 rounding follows the block shape.  A run returns one ``BatchRecord``,
whose row i of each per-path array is path path_ids[i], as the loop filled it.

A term whose coefficient is exactly zero is not computed.  An integrator
with sigma1 = sigma2 = 0 is not ``noisy``: no driver draws its noise and
its step runs no g_dw.  One with c1 = c2 = 0 is not ``coupled``: no
driver builds its reaction (nor asks a forcing for it), and its drift is
the feeds b1, b2.  The bits do not move: c * react is +-0 for any finite
react, and b -+ (+-0) is b for every feed but -0.0.  Adding the +-0 noise
term sigma * g to u + dt * drift changes no coefficient but a -0.0, and
that sum is -0.0 only where both of its terms are.  The one behaviour
difference: a non-finite reaction at c = 0 no longer makes the drift NaN,
so only a non-finite state raises NonFinite.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import NonFinite, ValidationError
from .noise import (
    NoiseConfig,
    WienerSource,
    coloring_weights,
    noise_modes,
    squared_eigenfunction_sum,
)
from .spectral import (
    SpaceConfig,
    SpectralField,
    get_basis,
    semigroup_factors,
    sobolev_weights,
)

NORM_COLUMNS = (
    "u_l2", "u_lpstar", "v_halpha", "v_halpha_diss", "h", "phi", "u_grad_p", "couple",
)
# noise elements (paths x noise modes x steps) the time loop draws per call,
# for at most MAX_DRAW_STEPS steps: small batches gain from long blocks, while
# a wide batch draws one step at a time, where a block no longer fits in cache
DRAW_BUDGET = 8192
MAX_DRAW_STEPS = 64
# grid values (2 species x paths x grid points) up to which a step transforms
# both species in one call; past it, one species at a time keeps the operands
# of each call in cache (a stacked d=2, N=32, 16-path step was 20% slower)
STACK_BUDGET = 1 << 16


def draw_steps(n_paths: int, k_noise: int) -> int:
    """Steps of noise the time loop draws per call for a batch."""
    return min(max(DRAW_BUDGET // (n_paths * k_noise), 1), MAX_DRAW_STEPS)


@dataclass(frozen=True)
class ModelParams:
    """All scalar parameters of the coupled system.

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
    out = f / (f + g)  # g = 0 on |x| <= 1 and f = 0 on |x| >= 2, so both plateaus are exact
    return float(out) if np.ndim(out) == 0 else out


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

    uv: np.ndarray  # (2, P, K), C-contiguous: u and v stacked
    sup: np.ndarray  # (P,)
    intg: np.ndarray
    last_diss_sq: np.ndarray
    kappa: np.ndarray  # (P,) cutoff level
    level: np.ndarray  # (P,) index into the glue schedule
    segment: np.ndarray  # (P,) noise segment
    fallback: np.ndarray  # (P,) past the last level: linear continuation
    step: int  # the state is at time step * dt

    @property
    def u(self) -> np.ndarray:
        return self.uv[0]

    @property
    def v(self) -> np.ndarray:
        return self.uv[1]

    @property
    def h(self) -> np.ndarray:
        return self.sup + np.sqrt(self.intg)


class MildIntegrator:
    """One-step map of the cutoff system for a fixed parameter set.

    Precomputes semigroup factors, Sobolev weights, noise coloring and
    the Stratonovich correction profile, each stacked over the two
    species; all heavy per-step work is batched numpy.  Cutoff levels
    live on the batch state, so one integrator serves every level.
    """

    def __init__(self, params: ModelParams, space: SpaceConfig, noise: NoiseConfig):
        self.params = params
        self.space = space
        self.noise = noise
        self.basis = get_basis(space)
        self.grid_m = space.dealias_points(max(params.q, 1.0))
        self.k_noise = noise_modes(space, noise.mode_cutoff)
        self.coloring = np.stack([coloring_weights(space, noise.gamma(j), self.k_noise)
                                  for j in (1, 2)])[:, None]  # (2, 1, K_noise)
        self._exp_cache: dict[tuple[float, bool], np.ndarray] = {}
        self._colored: np.ndarray | None = None  # g_dw's coloring buffer
        self.w_rho = sobolev_weights(space, params.rho)
        self.w_rho_aleph = sobolev_weights(space, params.rho + params.aleph / 2.0)
        self.w_alpha = sobolev_weights(space, params.alpha)
        self.w_alpha_aleph = sobolev_weights(space, params.alpha + params.aleph / 2.0)
        # (sigma^2 / 2) sum_k lambda_k^(-gamma) phi_k^2 per species, shape (2, 1) + grid
        self.ito_profile = None
        if noise.interpretation == "stratonovich":
            self.ito_profile = np.stack([
                0.5 * sigma**2 * squared_eigenfunction_sum(space, noise.gamma(j),
                                                           self.k_noise, self.grid_m)
                for j, sigma in ((1, params.sigma1), (2, params.sigma2))])[:, None]

    @property
    def noisy(self) -> bool:
        """Whether either process is driven: sigma1 or sigma2 is not 0."""
        return bool(self.params.sigma1 or self.params.sigma2)

    @property
    def coupled(self) -> bool:
        """Whether the reaction enters the drift: c1 or c2 is not 0."""
        return bool(self.params.c1 or self.params.c2)

    # -- helpers -----------------------------------------------------------

    def _factors(self, dt: float, fallback: bool) -> np.ndarray:
        """(2, 1, K) semigroup factors of u and v."""
        got = self._exp_cache.get((dt, fallback))
        if got is None:
            p, sp = self.params, self.space
            if fallback:  # plain heat continuation for both
                pair = (semigroup_factors(sp, p.r1, 0.0, dt),
                        semigroup_factors(sp, p.r2, 0.0, dt))
            else:
                pair = (semigroup_factors(sp, p.r1, p.a1, dt),
                        semigroup_factors(sp, p.r2, p.a2, dt, p.aleph))
            got = self._exp_cache[(dt, fallback)] = np.stack(pair)[:, None]
        return got

    def _semigroups(self, dt: float, fallback: np.ndarray) -> np.ndarray:
        """Per-path semigroup factors: fallback paths take the continuation's."""
        e = self._factors(dt, False)
        if fallback.any():
            e = np.where(fallback[:, None], self._factors(dt, True), e)
        return e

    def v_power(self, v_vals: np.ndarray) -> np.ndarray:
        """max(v, 0)^q, for the direct step and the fixed-point forcing alike."""
        return np.maximum(v_vals, 0.0) ** self.params.q

    def reaction(self, uv_vals: np.ndarray, phi: np.ndarray) -> np.ndarray:
        """The cutoff reaction phi * u * max(v, 0)^q per path, on the grid."""
        phi = phi.reshape((-1,) + (1,) * self.space.d)
        return phi * uv_vals[0] * self.v_power(uv_vals[1])

    def synth(self, coeffs: np.ndarray) -> np.ndarray:
        return self.basis.synthesize(coeffs, self.grid_m)

    def analyze(self, values: np.ndarray) -> np.ndarray:
        return self.basis.analyze(values, self.grid_m)

    def g_dw(self, uv_vals: np.ndarray, dw: np.ndarray) -> np.ndarray:
        """g_gamma(u)[dW] of both species: the grid product of the grid
        values (2, P) + grid with the coloring (-Laplace)^(-gamma/2) dW of
        dW (2, P, K_noise) on modes 1..K_noise, projected back to the basis."""
        shape = dw.shape[:-1] + (self.space.total_modes,)
        colored = self._colored
        if colored is None or colored.shape != shape:  # the non-noise columns stay zero
            colored = self._colored = np.zeros(shape)
        np.multiply(self.coloring, dw, out=colored[..., 1:1 + self.k_noise])
        return self._per_species(lambda vals, c: self.analyze(vals * self.synth(c)),
                                 uv_vals, colored)

    def to_ito(self, drift: np.ndarray, uv_vals: np.ndarray) -> np.ndarray:
        """The drift (grid values (2, P) + grid) plus the correction
        (sigma^2/2) sum_k lambda_k^(-gamma) phi_k^2 u that turns the
        Stratonovich system into Ito form; the drift itself under the Ito
        interpretation."""
        return drift if self.ito_profile is None else drift + self.ito_profile * uv_vals

    def norm_terms(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(|v|_{H^rho}, |v|^2_{H^{rho+aleph/2}}) per path: what h accumulates."""
        return _norm_terms(v, self.w_rho, self.w_rho_aleph)

    def phi_of(self, state: _BatchState) -> np.ndarray:
        return np.where(state.fallback, 0.0, smooth_cutoff(state.h / state.kappa))

    # -- stepping ------------------------------------------------------------

    def _drift(self, state: _BatchState, uv_vals: np.ndarray,
               react: np.ndarray | None) -> np.ndarray:
        """Coefficients of the Ito drift of both species; fallback paths
        have no reaction and no feed, and an uncoupled integrator has the
        feeds alone (react is then unused).  Its grid values are freed on
        return, before g_dw allocates its own."""
        p = self.params
        # one species at a time: a scalar op is far cheaper than a broadcast constant
        drift = np.empty(uv_vals.shape)
        if self.coupled:
            np.subtract(p.b1, p.c1 * react, out=drift[0])
            np.add(p.b2, p.c2 * react, out=drift[1])
        else:  # b -+ c * react with c = 0 is b
            drift[0] = p.b1
            drift[1] = p.b2
        if state.fallback.any():
            drift[:, state.fallback] = 0.0
        return self._per_species(self.analyze, self.to_ito(drift, uv_vals))

    def _per_species(self, fn, *stacked: np.ndarray) -> np.ndarray:
        """fn of the stacked species arrays, whose first holds grid values:
        one call while it holds at most STACK_BUDGET values, else one call
        per species.  Bit-equal either way: matmul runs the same BLAS call
        for each (P, .) matrix of a stack."""
        if stacked[0].size <= STACK_BUDGET:
            return fn(*stacked)
        return np.stack([fn(*(a[j] for a in stacked)) for j in (0, 1)])

    def step_raw(self, state: _BatchState, dw: np.ndarray | None, dt: float,
                 react: np.ndarray | None = None,
                 uv_vals: np.ndarray | None = None) -> _BatchState:
        """Advance one step.  dw has shape (2, P, K_noise): process 1, then 2.

        react, when given, replaces the cutoff reaction phi * u * v^q by
        exogenous grid values per path (the fixed-point operator's frozen
        reaction, or the reaction the time loop built from its phi);
        uv_vals passes already synthesized grid values (2, P) + grid of
        the state.  Fallback paths have no reaction and no feed.

        A term with a zero coefficient is skipped, bit-equal (see the
        module docstring): unless ``noisy``, dw is not read (it may be
        None) and g_dw does not run; unless ``coupled``, react is not read
        and no reaction is built.
        """
        p = self.params
        vals = self.synth(state.uv) if uv_vals is None else uv_vals
        if react is None and self.coupled:
            react = self.reaction(vals, self.phi_of(state))
        # e * ((uv + dt * du) + sigma * g), written op by op into a fresh C-ordered
        # array: d=2 analysis returns K-major coefficients, which mixed into one
        # expression make numpy iterate slowly, and the H^rho sums below reduce in
        # memory order, so a K-major state would round them differently
        uv = np.multiply(self._drift(state, vals, react), dt, out=np.empty(state.uv.shape))
        uv += state.uv
        if self.noisy:
            g = self.g_dw(vals, dw)
            g[0] *= p.sigma1
            g[1] *= p.sigma2
            uv += g
        uv *= self._semigroups(dt, state.fallback)

        if not np.isfinite(uv).all():
            raise NonFinite(
                f"non-finite coefficients at step {state.step + 1}",
                step=state.step + 1, time=(state.step + 1) * dt,
            )

        rho_norm, diss_sq = self.norm_terms(uv[1])
        intg = state.intg + 0.5 * dt * (state.last_diss_sq + diss_sq)
        return _BatchState(uv, np.maximum(state.sup, rho_norm), intg, diss_sq,
                           state.kappa, state.level, state.segment, state.fallback,
                           state.step + 1)

    def initial_state(self, u0: np.ndarray, v0: np.ndarray, kappa) -> _BatchState:
        """Batch state at t=0 with one path per cutoff level in kappa (a
        scalar is one path); u0 and v0 are one coefficient vector for every
        path or one row per path."""
        kappa = np.atleast_1d(np.asarray(kappa, dtype=float)).copy()
        n = kappa.size
        uv = np.stack([np.broadcast_to(np.asarray(f, dtype=float), (n, np.shape(f)[-1]))
                       for f in (u0, v0)])
        sup, diss = self.norm_terms(uv[1])
        return _BatchState(
            uv, sup, np.zeros(n), diss, kappa=kappa,
            level=np.zeros(n, dtype=np.int64), segment=np.zeros(n, dtype=np.int64),
            fallback=np.zeros(n, dtype=bool), step=0,
        )

    # -- per-step norm recording ----------------------------------------------

    def record_norms(self, state: _BatchState, out: dict[str, np.ndarray], n: int,
                     uv_vals: np.ndarray, phi: np.ndarray):
        """Fill column n of each norm series that out holds, and compute no
        other; uv_vals are the grid values of (u, v), phi the state's cutoff."""
        p = self.params
        u_vals, v_vals = uv_vals
        quad = self.basis.quadrature
        m = self.grid_m
        if "u_l2" in out:
            out["u_l2"][:, n] = np.sqrt((state.u**2).sum(axis=-1))
        if "u_lpstar" in out:
            out["u_lpstar"][:, n] = quad(np.abs(u_vals) ** p.p_star, m) ** (1.0 / p.p_star)
        if "v_halpha" in out or "v_halpha_diss" in out:
            halpha, diss_sq = _norm_terms(state.v, self.w_alpha, self.w_alpha_aleph)
            if "v_halpha" in out:
                out["v_halpha"][:, n] = halpha
            if "v_halpha_diss" in out:
                out["v_halpha_diss"][:, n] = np.sqrt(diss_sq)
        if "h" in out:
            out["h"][:, n] = state.h
        if "phi" in out:
            out["phi"][:, n] = phi
        if "u_grad_p" in out:
            grad = self.basis.synthesize_gradient(state.u, m)
            grad_sq = (grad**2).sum(axis=0)
            out["u_grad_p"][:, n] = quad(np.abs(u_vals) ** (p.p_star - 2.0) * grad_sq, m)
        if "couple" in out:  # clip-then-power on both factors
            out["couple"][:, n] = quad(
                np.maximum(u_vals, 0.0) ** p.p_star * np.maximum(v_vals, 0.0) ** p.q, m
            )


# ---------------------------------------------------------------------------
# records and public operations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BatchRecord:
    """Norm series, glue events and end states of a batch of paths.

    Row i of each per-path array is path ``path_ids[i]``, and ``times`` is
    ``arange(n_steps + 1) * dt``.  ``stop_step`` is a path's first step with
    h >= kappa (the first level, if glued), -1 if none; ``glue_events`` holds
    a ``(row, kappa, t)`` per restart, in step order.
    """

    path_ids: np.ndarray  # (P,)
    dt: float
    series: dict[str, np.ndarray]  # column -> (P, n_steps+1)
    stop_step: np.ndarray  # (P,)
    glue_events: tuple[tuple[int, float, float], ...]
    u0: np.ndarray  # (K,) initial coefficients, shared by every path
    v0: np.ndarray
    final: np.ndarray  # (2, P, K) state at T
    trajectory: np.ndarray | None  # (2, P, n_steps+1, K) when stored
    params: ModelParams
    space: SpaceConfig

    @property
    def n_steps(self) -> int:
        return self.series["h"].shape[1] - 1

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt


def step_count(T: float, dt: float) -> int:
    """Number of dt steps from 0 to T; T must be a whole multiple of dt,
    and the count below 2**63 (steps are int64, noise step words 64-bit)."""
    if not (math.isfinite(T) and math.isfinite(dt) and T > 0 and dt > 0
            and math.isfinite(T / dt)):
        raise ValidationError([f"T, dt and T/dt must be finite and > 0, got T={T}, dt={dt}"])
    if T / dt >= 2.0**63:
        raise ValidationError([f"T/dt must be < 2**63 steps, got T={T}, dt={dt}"])
    n = round(T / dt)
    if n < 1 or abs(n * dt - T) > 1e-9 * T:
        raise ValidationError([f"T={T} is not a whole multiple of dt={dt}"])
    return int(n)


def schedule_violations(schedule) -> list[str]:
    """What is wrong with a glueing schedule: it must be non-empty and
    strictly increasing, with every level finite and > 0."""
    ks = list(schedule)
    v = []
    if len(ks) == 0 or any(b <= a for a, b in zip(ks, ks[1:])):
        v.append("kappa_schedule must be non-empty and strictly increasing")
    if not all(math.isfinite(k) and k > 0 for k in ks):
        v.append(f"kappa_schedule entries must be finite and > 0, got {ks}")
    return v


def run_batch(integ: MildIntegrator, state: _BatchState, path_ids, n_steps: int,
              dt: float, traj, series=None, glue=None, forcing=None) -> _BatchState:
    """The time loop: record the norm columns ``series`` holds, let
    ``glue`` restart the paths that reached their level, store the state in
    ``traj`` (2, P, n_steps+1, K), then step every path; returns the final
    state.  ``forcing(start, count)``, called once per drawn noise block,
    gives the reaction's grid values (P, count) + grid for those steps in
    place of the cutoff reaction; then no cutoff or norm is evaluated.
    Unless the integrator is noisy no noise is drawn, and unless it is
    coupled no reaction is built and the forcing is not called."""
    source = WienerSource(integ.noise, integ.space, path_ids)
    block = draw_steps(state.uv.shape[1], source.k_noise)
    start = end = 0  # the current block spans steps [start, end)
    dw = forced = react = None  # its increments and forcing, this step's reaction

    for n in range(n_steps + 1):
        vals = integ.synth(state.uv)
        if forcing is None:
            phi = integ.phi_of(state)
            integ.record_norms(state, series, n, vals, phi)
            if glue is not None:
                glued = glue(integ, state, series, n, n * dt)
                if glued is not state:  # restarted paths draw from a new segment
                    state, phi, end = glued, integ.phi_of(glued), n
        if traj is not None:
            traj[:, :, n] = state.uv
        if n == n_steps:
            return state
        if n == end:
            start, end = n, min(n + block, n_steps)
            if integ.noisy:
                dw = source.increment_block(n, end - n, dt, state.segment)
            if forcing is not None and integ.coupled:
                forced = forcing(start, end - start)
        if integ.coupled:
            react = integ.reaction(vals, phi) if forcing is None else forced[:, n - start]
        state = integ.step_raw(state, None if dw is None else dw[:, :, n - start], dt,
                               react=react, uv_vals=vals)


def _simulate(params: ModelParams, space: SpaceConfig, noise: NoiseConfig,
              u0: SpectralField, v0: SpectralField, kappa: float,
              T: float, dt: float, path_ids, store_trajectory: bool,
              columns, glue) -> BatchRecord:
    """Check the run, step it through the time loop and record the batch:
    the norm columns asked for plus h (the stopping time reads it) and
    phi (glueing writes it), stopping steps and the state at T."""
    n_steps = step_count(T, dt)
    if not kappa > 0:  # also rejects NaN
        raise ValidationError([f"cutoff level kappa must be > 0, got {kappa}"])
    if unknown := [c for c in columns if c not in NORM_COLUMNS]:
        raise ValidationError([f"unknown norm column(s) {unknown}; the columns are "
                               f"{list(NORM_COLUMNS)}"])
    columns = [c for c in NORM_COLUMNS if c in set(columns) | {"h", "phi"}]
    for name, f in (("u0", u0), ("v0", v0)):
        if np.min(get_basis(space).synthesize(f.coeffs)) < -1e-12:
            warnings.warn(f"initial datum {name} is negative somewhere on the grid")
    integ = MildIntegrator(params, space, noise)
    path_ids = np.atleast_1d(np.asarray(path_ids, dtype=np.int64))
    state = integ.initial_state(u0.coeffs, v0.coeffs, np.full(path_ids.size, kappa))
    series = {c: np.empty((path_ids.size, n_steps + 1)) for c in columns}
    traj = np.empty((2, path_ids.size, n_steps + 1, u0.coeffs.size)) if store_trajectory else None
    final = run_batch(integ, state, path_ids, n_steps, dt, traj, series, glue)
    crossed = series["h"] >= kappa
    return BatchRecord(
        path_ids=path_ids, dt=dt, series=series,
        stop_step=np.where(crossed.any(axis=-1), crossed.argmax(axis=-1), -1),
        glue_events=(), u0=u0.coeffs.copy(), v0=v0.coeffs.copy(), final=final.uv,
        trajectory=traj, params=params, space=space,
    )


def simulate_ensemble(params: ModelParams, space: SpaceConfig, noise: NoiseConfig,
                      u0: SpectralField, v0: SpectralField, kappa: float,
                      T: float, dt: float, path_ids, store_trajectory: bool = False,
                      check_gate: bool = True, columns=NORM_COLUMNS) -> BatchRecord:
    """Simulate the cutoff system for a batch of independent paths.

    All paths share (params, space, noise, initial data); the noise of
    path ``p`` is keyed by its id, so any sub-batch replays the batch's
    paths: bit-equal in d=2, within 1e-14 relative in d=1, where the
    transforms round differently with the batch shape.
    The record's series hold the norm ``columns`` (names from
    NORM_COLUMNS) plus h and phi, each bit-equal to a full-set run.
    """
    if check_gate:
        _warn_if_inadmissible(params, noise, space)
    return _simulate(params, space, noise, u0, v0, kappa, T, dt, path_ids,
                     store_trajectory, columns, None)


def simulate_glued(params: ModelParams, space: SpaceConfig, noise: NoiseConfig,
                   u0: SpectralField, v0: SpectralField, kappa_schedule,
                   T: float, dt: float, path_ids,
                   store_trajectory: bool = False, columns=NORM_COLUMNS) -> BatchRecord:
    """Concatenate cutoff-level local solutions along their stopping times,
    for a batch of paths.

    Each path runs the kappa-cutoff system until its path norm first
    reaches kappa, restarts from the stopped state at the next level
    with a fresh noise segment, and past the last level follows the
    linear (heat) continuation.
    Warns when h(0) already reaches the first level.  The series hold
    ``columns`` as in simulate_ensemble.
    """
    schedule = [float(k) for k in kappa_schedule]
    violations = schedule_violations(schedule)
    if violations:
        raise ValidationError(violations)
    path_ids = np.atleast_1d(np.asarray(path_ids, dtype=np.int64))
    levels = np.asarray(schedule)
    events: list[tuple[int, float, float]] = []

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
        events.extend((int(i), float(state.kappa[i]), t) for i in np.flatnonzero(crossed))
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

    record = _simulate(params, space, noise, u0, v0, schedule[0], T, dt, path_ids,
                       store_trajectory, columns, glue)
    return replace(record, glue_events=tuple(events))


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


def pathspace_norm(record: BatchRecord, rho: float, aleph: float, t: float,
                   row: int | None = None):
    """sup_{s<=t} |v(s)|_{H^rho} + ( trapezoid int_0^t |v|^2_{H^{rho+aleph/2}} )^(1/2)
    of path row ``row`` (a float), or of every path ((P,) values) when row is None.

    An unglued path at the record's own (rho, aleph) reads its h row; any
    other index pair, and the un-reset norm of a glued path, need the
    stored trajectory."""
    times = record.times
    if not 0 <= t <= times[-1] + 1e-12:  # also rejects NaN
        raise ValidationError([f"t={t} outside the record range [0, {times[-1]}]"])
    n = int(np.searchsorted(times, t + 1e-12) - 1) if t > 0 else 0
    p = record.params
    rows = np.arange(record.path_ids.size)
    rows = rows if row is None else rows[[row]]  # a negative row counts from the end
    glued = np.isin(rows, [i for i, _, _ in record.glue_events])
    need = glued | ((rho, aleph) != (p.rho, p.aleph))
    h = record.series["h"][rows, n]
    if need.any():
        if record.trajectory is None:
            raise ValidationError(
                ["record lacks a stored trajectory; rerun with store_trajectory=True to "
                 "evaluate a path norm at non-recorded smoothness indices or on a glued record"]
            )
        h[need] = path_norm_series(record.space, record.trajectory[1, rows[need], : n + 1],
                                   rho, aleph, np.diff(times[: n + 1]))[:, -1]
    return h if row is None else float(h[0])


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
