"""Exponential-Euler time stepping of the cutoff activator-inhibitor
system in mild form, with path-norm cutoff bookkeeping, stopping-time
detection and glueing of local solutions.

The scheme treats the stiff linear parts exactly (per-mode semigroup
factors) and the reaction/noise parts explicitly.  Every driver steps
with the same map, ``MildIntegrator.step_raw``, in its own loop, on a
drift it composes in the form the interpretation sets (Ito: coefficients;
Stratonovich: grid values, to which the step adds the Ito correction):
ensembles and glueing in the cutoff loop, ``run_batch``, the one that
keeps the cutoff (``_Cutoff``) and records norms, on the state drift
(``drift``) of the cutoff reaction; the fixed-point sweeps
(``fixedpoint._sweeps``, several in flight on a leading sweep axis) on
``forced_drift``; the convergence study, in
lockstep on block sums of one fine draw, on the uncut one.  Internals
are vectorized over a batch of paths, both species in one (2, P, K)
array, so a small batch's step makes one transform call per operand
(``STACK_BUDGET``).  The loops draw several steps of noise per call
(``DRAW_BUDGET``), in each path's glue segment, and color each block
once (``colored_noise``); each draw is a pure function of its address,
so the increments are the one-step draws bit for bit.  None of this
moves a bit: the compositions are elementwise, and a stacked transform
runs the same BLAS call for each (P, .) matrix.  The state's transforms
are not batched over steps: at one path a d=1 step is a GEMV and a block
of steps a GEMM, and the two round differently.  A simulation returns
one ``BatchRecord``, whose row i of each per-path array is path
path_ids[i].

The cutoff loop settles each state: its h and phi, a glue if it reached
a level, and the state-only columns, recorded in one ``record_norms``
call per ``record_steps`` states (within RECORD_BUDGET grid values; one
state is a view, not a copy).  While every path outside the fallback is
on the plateau h < kappa, where phi is exactly 1, it steps a block of
states at that phi and extends the path norm (``_PathNorm``) over them
at once, rolled back to its first state off the plateau.  Stacked calls
reduce rows and transform matrices as one-step calls do, and 1.0 * x is
x, so none of this moves a bit.

A term whose coefficient is exactly zero is not computed.  An integrator
with sigma1 = sigma2 = 0 is not ``noisy``: no driver draws its noise and
its step runs no g_dw.  One with c1 = c2 = 0 is not ``coupled``: no
driver builds its reaction (nor composes a forced one), and its drift is
the feeds b1, b2; under Ito that drift reads only the batch shape and
the fallback rows, so it is analyzed once per fallback pattern (the whole
pattern: a d=1 analysis rounds with the batch shape) and kept read-only.
The bits do not move: c * react is +-0 for any finite react, and
b -+ (+-0) is b for every feed but -0.0.  Adding the +-0 noise term
sigma * g to u + dt * drift changes no coefficient but a -0.0, and that
sum is -0.0 only where both of its terms are.  The one behaviour change:
a non-finite reaction at c = 0 no longer makes the drift NaN, so only a
non-finite state raises NonFinite.
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
    path_id_array,
    squared_eigenfunction_sum,
)
from .spectral import (
    SpaceConfig,
    SpectralField,
    get_basis,
    require_space,
    semigroup_factors,
    sobolev_weights,
)

NORM_COLUMNS = (
    "u_l2", "u_lpstar", "v_halpha", "v_halpha_diss", "h", "phi", "u_grad_p", "couple",
)
# noise elements (paths x noise modes x steps) a driver's loop draws per call,
# for at most MAX_DRAW_STEPS steps: small batches gain from long blocks, while
# a wide batch draws one step at a time, where a block no longer fits in cache
DRAW_BUDGET = 8192
MAX_DRAW_STEPS = 64
# grid values (2 species x paths x grid points) up to which a step transforms
# both species in one call; past it, one species at a time keeps the operands
# of each call in cache (a stacked d=2, N=32, 16-path step was 20% slower)
STACK_BUDGET = 1 << 16
# grid values (2 species x paths x grid points x steps) of the steps the time
# loop records per record_norms call: a block's stack and temporaries stay
# within 128 KiB, where blocks of up to STACK_BUDGET values made malloc fault in
# fresh pages on every call (at 200 d=1 paths, 28x the minor faults of a call
# per step) and ran slower than a call per step
RECORD_BUDGET = 1 << 14
# steps of a cutoff loop plateau block at most; a rollback retakes those after it
MAX_PLATEAU_STEPS = 32


def draw_steps(n_paths: int, k_noise: int) -> int:
    """Steps of noise a driver's loop draws per call for a batch."""
    return min(max(DRAW_BUDGET // (n_paths * k_noise), 1), MAX_DRAW_STEPS)


def record_steps(n_paths: int, grid_points: int) -> int:
    """Steps the cutoff loop records per ``record_norms`` call for a batch:
    as many as keep their 2 * n_paths * grid_points grid values within
    RECORD_BUDGET, at least one."""
    return max(RECORD_BUDGET // (2 * n_paths * grid_points), 1)


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
    """C-infinity transition: 1 on |x| <= 1, 0 on |x| >= 2, monotone between;
    while every |x| <= 1 (NaN is not), ones without the transition's terms."""
    ax = np.abs(np.asarray(x, dtype=float))
    if (ax <= 1.0).all():
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
    """A batch of paths: coefficients, and per path the noise segment and
    fallback flag, all that the step map and the noise draw read."""

    uv: np.ndarray  # (2, P, K), C-contiguous: u and v stacked
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
    def fell(self) -> bool:
        """fallback.any(), read off the flags' bytes: a reduction costs 1-2 us."""
        return 1 in self.fallback.tobytes()


class _PathNorm:
    """The running path norm h = sup_m |v_m|_{H^s} + (int |v|^2_{H^{s+aleph/2}})^(1/2)
    of a batch of series, carried per row as (sup, intg, last_diss_sq), the
    integral by the trapezoid rule; ``terms`` maps states (..., K) to
    (|v|_{H^s}, |v|^2_{H^{s+aleph/2}}).  ``extend`` adds a block in a per-step
    loop's order: the carry enters the first term, then the running max and
    the sums (intg + a) + b, and 0 + a is a, so any split has the same bits."""

    def __init__(self, terms, v: np.ndarray):
        self.terms, self.carry = terms, [np.zeros(v.shape[:-1])] * 3
        self.restart(True, v)

    def restart(self, rows, v: np.ndarray):
        """Start the norm of the rows ``rows`` (a mask) afresh at their states v."""
        sup, diss_sq = self.terms(v)
        self.carry = [np.where(rows, a, b) for a, b in zip((sup, 0.0, diss_sq), self.carry)]
        self.h = self.carry[0] + np.sqrt(self.carry[1])

    def extend(self, v: np.ndarray, dt) -> np.ndarray:
        """h at each of the states v (..., count, K) that follow, a step of
        dt apart (a scalar, or one per step); the norm moves to the last."""
        sup, diss_sq = self.terms(v)
        if not diss_sq.shape[-1]:
            return sup
        np.maximum(sup[..., 0], self.carry[0], out=sup[..., 0])
        intg = 0.5 * dt * (np.concatenate([self.carry[2][..., None], diss_sq[..., :-1]], axis=-1)
                           + diss_sq)
        intg[..., 0] += self.carry[1]
        if diss_sq.shape[-1] > 1:  # over one state, both are the identity
            np.maximum.accumulate(sup, axis=-1, out=sup)
            np.add.accumulate(intg, axis=-1, out=intg)
        self.block = sup, intg, diss_sq, sup + np.sqrt(intg)
        return self.keep(diss_sq.shape[-1])

    def keep(self, count: int) -> np.ndarray:
        """Move the norm to the count-th state of the last extend; returns its h."""
        *self.carry, self.h = (a[..., count - 1] for a in self.block)
        return self.block[3]


class _Cutoff(_PathNorm):
    """The cutoff of a batch, kept by the cutoff loop alone: per path the
    level kappa, its index ``level`` into ``levels`` and the path norm h of
    v at rho; if ``glued``, ``glue`` restarts paths and keeps ``events``."""

    def __init__(self, integ: MildIntegrator, v: np.ndarray, levels: np.ndarray,
                 glued: bool, path_ids: np.ndarray):
        super().__init__(integ.norm_terms, v)
        self.levels, self.glued, self.path_ids = levels, glued, path_ids
        self.level = np.zeros(path_ids.size, dtype=np.int64)
        self.kappa = levels[self.level]
        self.events: list[tuple[int, float, float]] = []

    def phi(self, fallback: np.ndarray) -> np.ndarray:
        """The cutoff phi(h / kappa) per path; 0 on the fallback rows."""
        return np.where(fallback, 0.0, smooth_cutoff(self.h / self.kappa))

    def clean(self, h: np.ndarray, fallback: np.ndarray) -> np.ndarray:
        """Per state of path norms h (P, count): whether every path outside the
        fallback is on the plateau h < kappa, where phi is 1."""
        return ((h < self.kappa[:, None]) | fallback[:, None]).all(axis=0)

    def glue(self, state: _BatchState, series: dict[str, np.ndarray], n: int,
             t: float) -> _BatchState:
        """Restart the paths of state (step n, time t) that reached their level:
        next level or the linear fallback, fresh path norm, next segment."""
        crossed = ~state.fallback & (self.h >= self.kappa)
        if not crossed.any():
            return state
        levels, path_ids = self.levels, self.path_ids
        if n == 0:
            warnings.warn(f"h(0) >= kappa_0 = {levels[0]:g} on paths "
                          f"{path_ids[crossed].tolist()}; they glue at t=0")
        last = crossed & (self.level + 1 == levels.size)
        self.events.extend((int(i), float(self.kappa[i]), t) for i in np.flatnonzero(crossed))
        series["phi"][last, n] = 0.0
        self.level = self.level + (crossed & ~last)
        self.kappa = levels[self.level]
        self.restart(crossed, state.v)
        return replace(state, segment=state.segment + crossed, fallback=state.fallback | last)


class _Operand:
    """Colored noise stacked over both species, in the form on_grid
    names: grid values (on_grid) or coefficients.  A block holds
    (count, 2, P) + form, step-major; its [n] is step n's (2, P) + form."""

    __slots__ = ("array", "on_grid")

    def __init__(self, array: np.ndarray, on_grid: bool):
        self.array = array
        self.on_grid = on_grid

    def __getitem__(self, n: int) -> _Operand:
        return _Operand(self.array[n], self.on_grid)


class MildIntegrator:
    """One-step map of the cutoff system for a fixed parameter set.

    Precomputes semigroup factors, Sobolev weights, noise coloring and
    the Stratonovich correction profile, each stacked over the two
    species; all heavy per-step work is batched numpy.  The cutoff loop
    keeps the cutoff levels (``_Cutoff``), so one integrator serves every
    level.
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
        # colored_noise's coefficient rows, grown to the largest block seen; only
        # columns 1..k_noise are ever written, so the others stay zero
        self._colored = np.zeros((0, space.total_modes))
        self._feed_drift: tuple = (None, None)  # (fallback pattern, drift), see drift
        self._sigma = np.array([params.sigma1, params.sigma2])[:, None, None]  # (2, 1, 1)
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

    def _semigroups(self, dt: float, fallback: np.ndarray, fell: bool) -> np.ndarray:
        """Per-path semigroup factors: fell (fallback.any()) paths take the continuation's."""
        e = self._factors(dt, False)
        return np.where(fallback[:, None], self._factors(dt, True), e) if fell else e

    def v_power(self, v_vals: np.ndarray) -> np.ndarray:
        """max(v, 0)^q, for the direct step and the fixed-point sweep alike."""
        return np.maximum(v_vals, 0.0) ** self.params.q

    def reaction(self, uv_vals: np.ndarray, phi: np.ndarray) -> np.ndarray:
        """The cutoff reaction phi * u * max(v, 0)^q per path, on the grid."""
        phi = phi.reshape((-1,) + (1,) * self.space.d)
        return phi * uv_vals[0] * self.v_power(uv_vals[1])

    def synth(self, coeffs: np.ndarray) -> np.ndarray:
        return self.basis.synthesize(coeffs, self.grid_m)

    def analyze(self, values: np.ndarray) -> np.ndarray:
        return self.basis.analyze(values, self.grid_m)

    def colored_noise(self, dw: np.ndarray) -> _Operand:
        """The coloring (-Laplace)^(-gamma/2) dW of a drawn block dW
        (2, P, count, K_noise) on modes 1..K_noise, step-major (count, 2, P):
        while the block's 2 * count * P * M^d grid values fit STACK_BUDGET,
        its grid values, synthesized in one call; past it, its coefficients,
        which g_dw synthesizes one step at a time.  The coefficients are a
        view of a buffer the integrator reuses, so the next call overwrites
        them.  Bit-equal to a per-step coloring: matmul runs the same BLAS
        call for each (P, .) matrix of a stack."""
        _, paths, count, _ = dw.shape
        rows = count * 2 * paths
        if self._colored.shape[0] < rows:
            self._colored = np.zeros((rows, self.space.total_modes))
        colored = self._colored[:rows].reshape(count, 2, paths, -1)
        np.multiply(self.coloring, dw.transpose(2, 0, 1, 3),
                    out=colored[..., 1:1 + self.k_noise])
        if rows * self.grid_m**self.space.d <= STACK_BUDGET:
            return _Operand(self.synth(colored), True)
        return _Operand(colored, False)

    def g_dw(self, uv_vals: np.ndarray, noise: _Operand) -> np.ndarray:
        """g_gamma(u)[dW] of both species: the grid product of the grid
        values (2, P) + grid with one step's colored noise (step n of a
        colored_noise block is its [n]), projected back to the basis."""
        return self._per_species(
            lambda vals, w: self.analyze(vals * (w if noise.on_grid else self.synth(w))),
            uv_vals, noise.array)

    def to_ito(self, drift: np.ndarray, uv_vals: np.ndarray) -> np.ndarray:
        """The drift (grid values (2, P) + grid) plus the correction
        (sigma^2/2) sum_k lambda_k^(-gamma) phi_k^2 u that turns the
        Stratonovich system into Ito form; the drift itself under the Ito
        interpretation."""
        return drift if self.ito_profile is None else drift + self.ito_profile * uv_vals

    def norm_terms(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(|v|_{H^rho}, |v|^2_{H^{rho+aleph/2}}) per path: what h accumulates."""
        return _norm_terms(v, self.w_rho, self.w_rho_aleph)

    # -- stepping ------------------------------------------------------------

    def _feed_minus_reaction(self, react: np.ndarray, out: np.ndarray):
        """Write b1 - c1 * react and b2 + c2 * react into out[0] and out[1]:
        one species at a time, as a scalar op is far cheaper than a
        broadcast constant.  Elementwise, so the bits do not depend on
        the layout of react or out."""
        p = self.params
        np.subtract(p.b1, p.c1 * react, out=out[0])
        np.add(p.b2, p.c2 * react, out=out[1])

    def forced_drift(self, phi: np.ndarray, eta: np.ndarray, xi: np.ndarray) -> np.ndarray:
        """The drift b1 - c1 * R, b2 + c2 * R of the frozen reaction
        R = phi * eta * max(xi, 0)^q of control rows eta, xi (P, count, K) and
        cutoffs phi (P, count) + (1,) * d, step-major (count, 2, P): composed
        once, each step's slice contiguous, in the form step_raw takes: under
        Ito its coefficients, analyzed in one call; under Stratonovich its
        grid values, to which step_raw adds the correction."""
        react = (phi * (self.synth(eta) * self.v_power(self.synth(xi)))).swapaxes(0, 1)
        drift = np.empty((react.shape[0], 2) + react.shape[1:])
        self._feed_minus_reaction(react, drift.swapaxes(0, 1))
        return drift if self.ito_profile is not None else self.analyze(drift)

    def drift(self, state: _BatchState, react: np.ndarray | None) -> np.ndarray:
        """The state's drift, in step_raw's form, for the reaction's grid
        values react; fallback paths have no reaction and no feed, and an
        uncoupled integrator has the feeds alone (react is then unused, and
        may be None; under Ito they are kept per fallback pattern)."""
        key = None if self.coupled or self.ito_profile is not None else state.fallback.tobytes()
        if key is not None and self._feed_drift[0] == key:
            return self._feed_drift[1]
        drift = np.empty(state.uv.shape[:-1] + (self.grid_m,) * self.space.d)
        if self.coupled:
            self._feed_minus_reaction(react, drift)
        else:  # b -+ c * react with c = 0 is b
            drift[0] = self.params.b1
            drift[1] = self.params.b2
        if state.fell:
            drift[:, state.fallback] = 0.0
        if self.ito_profile is not None:
            return drift
        drift = self._per_species(self.analyze, drift)
        if key is not None:
            drift.flags.writeable = False
            self._feed_drift = (key, drift)
        return drift

    def _per_species(self, fn, *stacked: np.ndarray) -> np.ndarray:
        """fn of the stacked species arrays, whose first holds grid values:
        one call while it holds at most STACK_BUDGET values, else one call
        per species.  Bit-equal either way: matmul runs the same BLAS call
        for each (P, .) matrix of a stack."""
        if stacked[0].size <= STACK_BUDGET:
            return fn(*stacked)
        return np.stack([fn(*(a[j] for a in stacked)) for j in (0, 1)])

    def step_raw(self, state: _BatchState, noise: _Operand | None, dt: float,
                 drift: np.ndarray, uv_vals: np.ndarray | None) -> _BatchState:
        """Advance the coefficients one step: the step map of every driver.
        noise is the step's colored noise (step n of a colored_noise block
        is its [n]); drift the step's drift as its driver composed it: under
        Ito its coefficients, under Stratonovich its grid values, to which
        the step adds the Ito correction (``to_ito``); uv_vals the state's
        grid values (2, P) + grid, or None to synthesize them only if read.
        Fallback paths take the linear continuation's semigroup.  Raises
        NonFinite.

        A term with a zero coefficient is skipped, bit-equal (see the
        module docstring): unless ``noisy``, noise is not read (it may be
        None) and g_dw does not run.
        """
        if uv_vals is None and (self.noisy or self.ito_profile is not None):
            uv_vals = self.synth(state.uv)
        if self.ito_profile is not None:
            drift = self._per_species(self.analyze, self.to_ito(drift, uv_vals))
        # e * ((uv + dt * du) + sigma * g), written op by op into a fresh C-ordered
        # array: d=2 analysis returns K-major coefficients, which mixed into one
        # expression make numpy iterate slowly, and the cutoff loop's H^rho sums
        # reduce in memory order, so a K-major state would round them differently
        uv = np.multiply(drift, dt, out=np.empty(state.uv.shape))
        uv += state.uv
        if self.noisy:
            g = self.g_dw(uv_vals, noise)
            g *= self._sigma
            uv += g
        uv *= self._semigroups(dt, state.fallback, state.fell)
        if not np.isfinite(uv).all():
            raise NonFinite(
                f"non-finite coefficients at step {state.step + 1}",
                step=state.step + 1, time=(state.step + 1) * dt,
            )
        return _BatchState(uv, state.segment, state.fallback, state.step + 1)

    def initial_state(self, u0: np.ndarray, v0: np.ndarray, n_paths: int) -> _BatchState:
        """Batch state at t=0 of n_paths paths; u0 and v0 are one
        coefficient vector for every path or one row per path."""
        uv = np.stack([np.broadcast_to(np.asarray(f, dtype=float), (n_paths, np.shape(f)[-1]))
                       for f in (u0, v0)])
        return _BatchState(uv, np.zeros(n_paths, dtype=np.int64), np.zeros(n_paths, bool), 0)

    # -- norm recording --------------------------------------------------------

    def record_norms(self, uv: np.ndarray, out: dict[str, np.ndarray], n0: int,
                     uv_vals: np.ndarray):
        """Fill columns n0, n0 + 1, ... of each state-only norm series that
        out holds (every column but h and phi, which the cutoff loop writes),
        and compute no other: uv holds the coefficients (count, 2, P, K) of
        consecutive steps and uv_vals their grid values (count, 2, P) + grid.
        Bit-equal to one call per step: each step's rows reduce alone, and
        matmul runs the same BLAS call for each (P, .) matrix of a stack."""
        p = self.params
        u, v = uv[:, 0], uv[:, 1]
        u_vals, v_vals = uv_vals[:, 0], uv_vals[:, 1]
        quad = self.basis.quadrature
        m = self.grid_m
        cols = slice(n0, n0 + uv.shape[0])
        if "u_l2" in out:
            out["u_l2"][:, cols] = np.sqrt((u**2).sum(axis=-1)).T
        if "u_lpstar" in out:
            out["u_lpstar"][:, cols] = (quad(np.abs(u_vals) ** p.p_star, m)
                                        ** (1.0 / p.p_star)).T
        if "v_halpha" in out or "v_halpha_diss" in out:
            halpha, diss_sq = _norm_terms(v, self.w_alpha, self.w_alpha_aleph)
            if "v_halpha" in out:
                out["v_halpha"][:, cols] = halpha.T
            if "v_halpha_diss" in out:
                out["v_halpha_diss"][:, cols] = np.sqrt(diss_sq).T
        if "u_grad_p" in out:
            grad = self.basis.synthesize_gradient(u, m)
            grad_sq = (grad**2).sum(axis=0)
            out["u_grad_p"][:, cols] = quad(np.abs(u_vals) ** (p.p_star - 2.0) * grad_sq, m).T
        if "couple" in out:  # clip-then-power on both factors
            out["couple"][:, cols] = quad(
                np.maximum(u_vals, 0.0) ** p.p_star * np.maximum(v_vals, 0.0) ** p.q, m
            ).T


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


def run_batch(integ: MildIntegrator, state: _BatchState, cutoff: _Cutoff, n_steps: int,
              dt: float, traj: np.ndarray | None, series: dict[str, np.ndarray]) -> _BatchState:
    """The cutoff loop: step by ``step_raw`` on the state drift of the
    cutoff reaction, in plateau blocks where it can, and settle each state
    (h, phi, glue, the state-only columns and ``traj`` (2, P, n_steps+1, K)
    if given); returns the final state.  A block's first state off the plateau read phi only
    before it, so it is settled as a per-step loop settles it, and the
    steps after it are taken again.  A non-finite step ends its block, and
    raises when taken from a clean state."""
    source = WienerSource(integ.noise, integ.space, cutoff.path_ids)
    block = draw_steps(state.uv.shape[1], source.k_noise)
    span = min(block, MAX_PLATEAU_STEPS)  # the steps of a plateau block
    start = end = 0  # the current noise block spans steps [start, end): one opens at step 0
    recorded = record_steps(state.uv.shape[1], integ.grid_m**integ.space.d)
    kept_uv, kept_vals = [], []  # the states of the recording block so far
    uvs, vals, h, n = [state.uv], [integ.synth(state.uv)], cutoff.h[:, None], 0
    rate = np.zeros(h.shape[0])  # the growth of each path's h a step, over the last block

    while True:  # settle the states uvs, steps n + 1 - len(uvs) .. n; all but the last are clean
        first = n + 1 - len(uvs)
        series["h"][:, first:n + 1] = h
        series["phi"][:, first:n] = ~state.fallback[:, None]
        for k, uv, uv_vals in zip(range(first, n + 1), uvs, vals):
            kept_uv.append(uv)
            kept_vals.append(uv_vals)
            if len(kept_uv) == recorded or k == n_steps:
                integ.record_norms(_step_stack(kept_uv), series, k + 1 - len(kept_uv),
                                   _step_stack(kept_vals))
                kept_uv, kept_vals = [], []
            if traj is not None:
                traj[:, :, k] = uv
        series["phi"][:, n] = phi = cutoff.phi(state.fallback)
        if cutoff.glued:
            glued = cutoff.glue(state, series, n, n * dt)
            if glued is not state:  # restarted paths draw from a new segment
                state, phi, end = glued, cutoff.phi(glued.fallback), n
        if n == n_steps:
            return state
        if h.shape[1] > 1:
            rate = (h[:, -1] - h[:, 0]) / (h.shape[1] - 1)
        count = 1
        if span > 1 and cutoff.clean(cutoff.h[:, None], state.fallback)[0]:
            ok = ~state.fallback & (rate > 0)  # the block ends where a path would reach its level
            count = max(1, math.ceil(((cutoff.kappa - cutoff.h)[ok] / rate[ok]).min(initial=span)))
        uv_vals, uvs, vals = vals[-1], [], []
        for k in range(n, min(n + count, n_steps)):
            if k == end:
                start, end = k, min(k + block, n_steps)
                noise = None  # freed first: two blocks held at once raise the peak
                if integ.noisy:
                    noise = integ.colored_noise(
                        source.increment_block(k, end - k, dt, state.segment))
            # react lives until the next step's replaces it: freed inside the step,
            # a 100-step d=2 N=32 16-path run faulted in 74k pages, not 54k
            react = integ.reaction(uv_vals, phi) if integ.coupled else None
            try:
                state = integ.step_raw(state, None if noise is None else noise[k - start], dt,
                                       integ.drift(state, react), uv_vals)
            except NonFinite:
                if not uvs:
                    raise
                break
            uvs.append(state.uv)
            vals.append(uv_vals := integ.synth(state.uv))
        h = cutoff.extend(_step_stack(uvs)[:, 1].swapaxes(0, 1), dt)
        count = len(uvs) if len(uvs) == 1 else 1 + int(np.argmin(np.append(
            cutoff.clean(h[:, :-1], state.fallback), False)))  # to the first state off the plateau
        if count < len(uvs):  # roll back: drop the states, and the noise block, after it
            cutoff.keep(count)
            uvs, vals, h = uvs[:count], vals[:count], h[:, :count]
            state, end = _BatchState(uvs[-1], state.segment, state.fallback, n + count), n + count
        n += count


def _step_stack(arrays: list[np.ndarray]) -> np.ndarray:
    """arrays on a leading step axis; a single array is viewed, not copied."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def _simulate(params: ModelParams, space: SpaceConfig, noise: NoiseConfig,
              u0: SpectralField, v0: SpectralField, levels, glued: bool,
              T: float, dt: float, path_ids, store_trajectory: bool,
              columns) -> BatchRecord:
    """Check the run, step it through the cutoff loop at ``levels`` (glued
    along them if ``glued``) and record the batch: the norm columns asked
    for plus h and phi, stopping steps, glue events and the state at T."""
    n_steps = step_count(T, dt)
    if not levels[0] > 0:  # also rejects NaN
        raise ValidationError([f"cutoff level kappa must be > 0, got {levels[0]}"])
    if unknown := [c for c in columns if c not in NORM_COLUMNS]:
        raise ValidationError([f"unknown norm column(s) {unknown}; the columns are "
                               f"{list(NORM_COLUMNS)}"])
    columns = [c for c in NORM_COLUMNS if c in set(columns) | {"h", "phi"}]
    path_ids = path_id_array(path_ids)
    require_space(space, u0=u0, v0=v0)
    for name, f in (("u0", u0), ("v0", v0)):
        if np.min(get_basis(space).synthesize(f.coeffs)) < -1e-12:
            warnings.warn(f"initial datum {name} is negative somewhere on the grid")
    integ = MildIntegrator(params, space, noise)
    state = integ.initial_state(u0.coeffs, v0.coeffs, path_ids.size)
    cutoff = _Cutoff(integ, state.v, np.asarray(levels, dtype=float), glued, path_ids)
    series = {c: np.empty((path_ids.size, n_steps + 1)) for c in columns}
    traj = np.empty((2, path_ids.size, n_steps + 1, u0.coeffs.size)) if store_trajectory else None
    final = run_batch(integ, state, cutoff, n_steps, dt, traj, series)
    crossed = series["h"] >= levels[0]
    return BatchRecord(
        path_ids=path_ids, dt=dt, series=series,
        stop_step=np.where(crossed.any(axis=-1), crossed.argmax(axis=-1), -1),
        glue_events=tuple(cutoff.events), u0=u0.coeffs.copy(), v0=v0.coeffs.copy(),
        final=final.uv, trajectory=traj, params=params, space=space,
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
    return _simulate(params, space, noise, u0, v0, [kappa], False, T, dt, path_ids,
                     store_trajectory, columns)


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
    if violations := schedule_violations(schedule):
        raise ValidationError(violations)
    return _simulate(params, space, noise, u0, v0, schedule, True, T, dt, path_ids,
                     store_trajectory, columns)


def path_norm_series(space: SpaceConfig, v: np.ndarray, s: float, aleph: float,
                     dt) -> np.ndarray:
    """The running path norm of a coefficient series v of shape (..., n+1, K),
    sup_{m<=n} |v_m|_{H^s} + (int_0^{t_n} |v|^2_{H^{s+aleph/2}})^(1/2);
    trapezoid rule with step dt (a scalar, or one per step)."""
    norm = path_norm(space, v[..., 0, :], s, aleph)
    return np.concatenate([norm.h[..., None], norm.extend(v[..., 1:, :], dt)], axis=-1)


def path_norm(space: SpaceConfig, v: np.ndarray, s: float, aleph: float) -> _PathNorm:
    """The running path norm of ``path_norm_series`` at its first states v
    (..., K), carried (``_PathNorm``): ``extend`` adds the states after."""
    w, w_diss = sobolev_weights(space, s), sobolev_weights(space, s + aleph / 2.0)
    return _PathNorm(lambda x: _norm_terms(x, w, w_diss), v)


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
    if row is not None and not -rows.size <= row < rows.size:
        raise ValidationError([f"row {row} is out of range for {rows.size} paths"])
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
