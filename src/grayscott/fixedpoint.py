"""The solution operator of the linear decoupled system driven by frozen
controls, Picard iteration to a discrete fixed point, and invariant-set
membership diagnostics.

The construction is deliberately pathwise: each path's noise
realization is frozen by its path id and the operator is iterated on it.
A fixed point then satisfies the same discrete update rule as the direct
cutoff simulation under the shared seed.

The solution operator V is causal: step n of a sweep reads its control's
rows up to n.  So Picard's sweeps run as a pipeline (``_sweeps``, whose
one-sweep case is ``apply_V``): sweep k + 1 runs a drawn noise block once
sweep k has, and the sweeps in flight advance through one ``step_raw``
call per step on a leading sweep axis, on noise drawn once for all.  Its
depth is derived from the run (``PIPELINE_BUDGET``, ``STACK_BUDGET``);
at depth 1 it is a loop of one sweep at a time, which every batch wider
than a few paths runs.  A stacked transform runs the same BLAS call for
each (P, .) matrix, so the depth moves no bit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .errors import NoConvergence, NonFinite, ValidationError
from .integrate import (
    STACK_BUDGET,
    MildIntegrator,
    ModelParams,
    _Operand,
    draw_steps,
    path_norm,
    path_norm_series,
    smooth_cutoff,
    step_count,
)
from .noise import NoiseConfig, WienerSource, path_id_array
from .spectral import SpaceConfig, SpectralField, get_basis, require_space

# steps of eta whose grid values kset_functionals holds at once
KSET_CHUNK_STEPS = 16
# values a Picard pipeline of S sweeps in flight holds for the whole run: S + 1
# output pairs (2 x paths x (n_steps + 1) x modes each) and the run's colored
# noise (n_steps x 2 x paths x grid points).  Within it the sweeps of a narrow
# batch trail each other one drawn block apart; past it (every batch wider than
# a few paths) one sweep runs at a time
PIPELINE_BUDGET = 1 << 18


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
    read off xi's running path norm.  One sweep of the Picard pipeline
    (``_sweeps`` at depth 1): per drawn noise block it extends that norm
    over the block's rows of xi and composes their drift (``forced_drift``;
    uncoupled, the feeds' state drift), so no whole-run grid array is
    built, and steps by ``step_raw``.  Only the noise factor and the
    Stratonovich correction depend on the evolving state, and the sweep
    keeps no path norm of it.
    """
    path_ids = path_id_array(path_ids)
    v = [] if kappa > 0 else [f"cutoff level kappa must be > 0, got {kappa}"]  # also rejects NaN
    if path_ids.size != control.eta.shape[0]:
        v.append(f"{path_ids.size} path ids for {control.eta.shape[0]} paths")
    if v:
        raise ValidationError(v)
    require_space(integ.space, control=control, u0=u0, v0=v0)
    _, _, out = next(_sweeps(integ, control.eta, control.xi, u0, v0, kappa, path_ids,
                             control.dt, 1, 1))
    return ControlPair(out[0], out[1], control.dt, integ.space)


class _Sweep:
    """A sweep in flight: the control (eta, xi) it reads, the buffer that
    holds it (None: the caller's), the running path norm of xi that its
    cutoff reads, its output (2, P, n_steps + 1, K) and its next step n,
    the first of its next drawn block."""

    __slots__ = ("eta", "xi", "held", "norm", "out", "n")

    def __init__(self, eta, xi, held, norm, out):
        self.eta, self.xi, self.held, self.norm, self.out, self.n = eta, xi, held, norm, out, 0

    def drift(self, integ: MildIntegrator, stop: int, kappa: float, dt: float) -> np.ndarray:
        """The forced drift of steps n to stop (``forced_drift``), its cutoff
        phi(h / kappa) read off the norm, which moves to step stop - 1."""
        h0 = self.norm.h[:, None]
        h = self.norm.extend(self.xi[:, max(self.n, 1):stop], dt)
        if self.n == 0:
            h = np.concatenate([h0, h], axis=-1)
        phi = smooth_cutoff(h / kappa)
        rows = slice(self.n, stop)
        return integ.forced_drift(phi.reshape(phi.shape + (1,) * integ.space.d),
                                  self.eta[:, rows], self.xi[:, rows])


def _depth(integ: MildIntegrator, n_paths: int, n_steps: int, sweeps: int) -> int:
    """Sweeps a Picard pipeline runs in flight: the most, up to sweeps and to
    the run's drawn blocks, whose S + 1 output pairs and the run's colored
    noise fit PIPELINE_BUDGET, and whose stacked step fits STACK_BUDGET (so
    its transforms take both species in one call); at least one."""
    pair = 2 * n_paths * (n_steps + 1) * integ.space.total_modes
    grid = 2 * n_paths * integ.grid_m**integ.space.d  # one sweep's state on the grid
    noise = n_steps * grid if integ.noisy else 0
    blocks = -(-n_steps // draw_steps(n_paths, integ.k_noise))
    return max(1, min(sweeps, blocks, (PIPELINE_BUDGET - noise) // pair - 1,
                      STACK_BUDGET // grid))


def _sweeps(integ: MildIntegrator, eta: np.ndarray, xi: np.ndarray, u0: SpectralField,
            v0: SpectralField, kappa: float, path_ids: np.ndarray, dt: float, depth: int,
            count: int):
    """Sweep V count times from the control (eta, xi) (P, n_steps + 1, K),
    each sweep on its predecessor's output, up to depth sweeps in flight;
    yields each completed sweep's control and output (2, P, n_steps + 1, K)
    in turn.  Once resumed, it reuses that control's buffer: the caller
    reads both before, and may overwrite the control.

    A pass takes each sweep in flight through its next drawn block, the
    newest starting at block 0, so sweep k + 1 runs block b once sweep k has
    run it.  All of them advance through one ``step_raw`` call per step on a
    leading sweep axis (at depth 1, the plain (2, P) batch), and the
    uncoupled drift is composed on the (2, P) batch and broadcast: ``drift``
    and ``_per_species`` index the species on axis 0.  At depth 1 each
    block's noise is drawn when its sweep reaches it; deeper, once, into the
    run's colored noise on the grid.  A NonFinite at depth > 1 replays from
    the last completed iterate at depth 1, where the sweep that fails
    raises it as a lone sweep does.
    """
    p = integ.params
    n_steps = eta.shape[1] - 1
    source = WienerSource(integ.noise, integ.space, path_ids)
    block = draw_steps(path_ids.size, source.k_noise)
    init = integ.initial_state(u0.coeffs, v0.coeffs, path_ids.size)
    feed = None if integ.coupled else integ.drift(init, None)
    flight, free, held, done = [], [], None, 0
    noise_run, drawn = None, 0
    # a pass's states and, deeper than 1, its sweeps' drifts, step-major; one
    # buffer for all passes, as one per pass cost more resident memory
    states, drifts = np.empty((block, depth) + init.uv.shape), None
    while True:
        joined = len(flight) < min(depth, count - done)
        if joined:
            out = free.pop() if free else np.empty((2,) + eta.shape)
            out[:, :, 0] = init.uv
            flight.append(_Sweep(eta, xi, held, path_norm(integ.space, xi[:, 0], p.rho, p.aleph),
                                 out))
            (eta, xi), held = out, out
            uv = (init.uv if depth == 1 else
                  np.concatenate([uv, init.uv[None]]) if len(flight) > 1 else init.uv[None])
        if not flight:
            return
        lens = [min(block, n_steps - s.n) for s in flight]
        span = max(lens)
        drift = noise = None  # freed first: two passes' held at once raise the peak
        if integ.coupled and depth == 1:
            drift = flight[0].drift(integ, flight[0].n + span, kappa, dt)
        elif integ.coupled:
            for i, (s, c) in enumerate(zip(flight, lens)):
                rows = s.drift(integ, s.n + c, kappa, dt)
                if drifts is None:
                    drifts = np.empty((block, depth) + rows.shape[1:])
                drifts[:c, i] = rows
            drift = drifts[:, :len(flight)]
        if integ.noisy and depth == 1:
            noise = integ.colored_noise(
                source.increment_block(flight[0].n, span, dt, init.segment))
        elif integ.noisy:
            if flight[0].n == drawn:  # the oldest sweep opens a block: draw it for all
                if noise_run is None:
                    noise_run = _Operand(np.empty((n_steps, 2, path_ids.size)
                                                  + (integ.grid_m,) * integ.space.d), True)
                colored = integ.colored_noise(
                    source.increment_block(drawn, lens[0], dt, init.segment))
                noise_run.array[drawn:drawn + lens[0]] = (
                    colored.array if colored.on_grid else integ.synth(colored.array))
                drawn += lens[0]
            noise = noise_run
            at = np.array([s.n for s in flight])[None] + np.arange(span)[:, None]
        state, first = replace(init, uv=uv, step=flight[0].n), 0
        try:
            for j in range(span):
                if j == lens[0]:  # the oldest sweep ended its last, shorter, block
                    state.uv, first = state.uv[1:], 1
                step_noise = None if noise is None else noise[j if depth == 1 else at[j, first:]]
                vals = None
                if j == 0 and joined and depth > 1:
                    # initial_state's uv is not in C order, and a d=1 synthesis of it
                    # rounds otherwise than of its stacked copy: synthesized alone
                    vals = np.concatenate([integ.synth(state.uv[:-1]), integ.synth(init.uv)[None]])
                state = integ.step_raw(state, step_noise, dt,
                                       feed if drift is None else drift[j, first:], vals)
                states[j, first:len(flight)] = state.uv
        except NonFinite:
            if depth == 1:
                raise
            oldest = flight[0]
            free += [s.out for s in flight]
            (eta, xi), held = (oldest.eta, oldest.xi), oldest.held
            flight, depth, noise_run = [], 1, None
            continue
        for i, (s, c) in enumerate(zip(flight, lens)):
            s.out[:, :, s.n + 1:s.n + 1 + c] = states[:c, i].transpose(1, 2, 0, 3)
            s.n += c
        uv = state.uv
        if flight[0].n == n_steps:
            s = flight.pop(0)
            if depth > 1 and not first:
                uv = uv[1:]
            done += 1
            yield s.eta, s.xi, s.out
            if s.held is not None:
                free.append(s.held)


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

    The sweeps run as a pipeline (``_sweeps``), as deep as ``_depth``
    allows: V is causal, so a sweep can run a block once its predecessor
    has.  Every sweep sees the batch that a sweep-at-a-time loop gives it:
    when a completed sweep freezes some rows, the sweeps behind it are
    dropped and the pipeline restarts from it on copies of the rows left.
    So the results do not depend on the depth, bit for bit.
    """
    v = [] if kappa > 0 else [f"cutoff level kappa must be > 0, got {kappa}"]  # also rejects NaN
    if not tol > 0:  # also rejects NaN
        v.append(f"tol must be > 0, got {tol}")
    if isinstance(max_iter, bool) or not isinstance(max_iter, numbers.Integral):
        v.append(f"max_iter must be a whole number, got {max_iter!r}")
    elif max_iter < 1:
        v.append(f"max_iter must be >= 1, got {max_iter}")
    if v:
        raise ValidationError(v)
    path_ids = path_id_array(path_ids)
    require_space(space, u0=u0, v0=v0)
    control = constant_control(u0, v0, T, dt, path_ids.size)
    eta, xi, times = control.eta, control.xi, control.times
    del control  # so the first sweep's control is freed once its residual is read
    n_steps = times.size - 1
    integ = MildIntegrator(params, space, noise)
    residuals: list[list[float]] = [[] for _ in path_ids]
    active, fixed, done = np.arange(path_ids.size), None, 0
    while active.size:
        if done == max_iter:
            i = int(active[0])
            raise NoConvergence(
                f"path {path_ids[i]}: no fixed point after {max_iter} iterations (last "
                f"residual {residuals[i][-1]:.3e})", residuals=residuals[i],
            )
        depth = _depth(integ, active.size, n_steps, max_iter - done)
        for eta, xi, new in _sweeps(integ, eta, xi, u0, v0, kappa, path_ids[active], dt, depth,
                                    max_iter - done):
            done += 1
            # the control becomes the update (negated: the norm squares it)
            eta -= new[0]
            xi -= new[1]
            res = control_m_norm(eta, xi, times, space, params.rho, params.aleph)
            for i, r in zip(active, res):
                residuals[i].append(float(r))
            left = ~(res < tol)
            if left.all():
                continue
            if fixed is None:  # the first rows to freeze: all of them, or a copy
                fixed = new if not left.any() else np.empty_like(new)
            if fixed is not new:
                fixed[:, active[~left]] = new[:, ~left]
            active = active[left]
            eta, xi = new[0][left], new[1][left]  # the next pipeline's control
            del new
            break
    return {"fixed_point": ControlPair(fixed[0], fixed[1], dt, space),
            "iterates": [len(r) for r in residuals], "residuals": residuals}


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
