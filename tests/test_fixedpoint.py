import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import forced_sweep

from grayscott import fixedpoint
from grayscott.errors import NoConvergence, NonFinite, ValidationError
from grayscott.fixedpoint import (
    ControlPair,
    KSetConstants,
    apply_V,
    compute_kset_constants,
    constant_control,
    control_m_norm,
    kset_check,
    kset_functionals,
    picard_solve,
)
from grayscott.integrate import (
    MildIntegrator,
    ModelParams,
    draw_steps,
    simulate_ensemble,
)
from grayscott.noise import NoiseConfig
from grayscott.spectral import Basis, SpaceConfig, constant_field, lp_norm, sobolev_norm

SP = SpaceConfig(d=1, modes_per_axis=16, grid_points_per_axis=32)
NZ = NoiseConfig(gamma1=1.0, gamma2=0.75, seed=21)


def bump(space=SP, base=1.0, amp=0.2):
    f = constant_field(base, space)
    f.coeffs[1] = amp
    return f


class TestApplyV:
    def test_zero_forcing_zero_data(self):
        params = ModelParams(b1=0.0, b2=0.0)
        z = constant_field(0.0, SP)
        control = constant_control(z, z, T=0.05, dt=1e-3, n_paths=1)
        out = apply_V(control, MildIntegrator(params, SP, NZ), z, z, kappa=1e9, path_ids=[0])
        assert np.all(out.eta == 0.0)
        assert np.all(out.xi == 0.0)

    def test_fixed_point_consistency(self):
        params = ModelParams(c1=0.01, c2=0.01)
        u0 = v0 = bump()
        res = picard_solve(params, SP, NZ, u0, v0, 1e9, path_ids=[0],
                           T=0.1, dt=1e-3, tol=1e-12, max_iter=30)
        fp = res["fixed_point"]
        again = apply_V(fp, MildIntegrator(params, SP, NZ), u0, v0, 1e9, path_ids=[0])
        drift = control_m_norm(again.eta - fp.eta, again.xi - fp.xi,
                               fp.times, SP, params.rho, params.aleph)[0]
        assert drift < 1e-10

    def test_cutoff_level_irrelevant_below_threshold(self):
        params = ModelParams(c1=0.05, c2=0.05)
        u0 = v0 = bump()
        control = constant_control(u0, v0, T=0.05, dt=1e-3, n_paths=1)
        integ = MildIntegrator(params, SP, NZ)
        a = apply_V(control, integ, u0, v0, kappa=50.0, path_ids=[4])
        b = apply_V(control, integ, u0, v0, kappa=500.0, path_ids=[4])
        assert np.array_equal(a.eta, b.eta)
        assert np.array_equal(a.xi, b.xi)


class TestForcedSweep:
    """apply_V's sweep composes its drift once per drawn block and keeps no
    path norm, and its trajectory is step_raw's, bit for bit."""

    SP2 = SpaceConfig(d=2, modes_per_axis=8, grid_points_per_axis=16)

    @pytest.mark.parametrize("n_paths", [1, 3])
    @pytest.mark.parametrize("interpretation", ["ito", "stratonovich"])
    @pytest.mark.parametrize("space", [SP, SP2], ids=["d1-N16", "d2-N8"])
    def test_matches_step_raw_sweep(self, space, interpretation, n_paths):
        params = ModelParams(c1=0.2, c2=0.2)
        integ = MildIntegrator(params, space, replace(NZ, interpretation=interpretation))
        u0, v0 = bump(space), bump(space, 1.0, 0.4)
        ids = list(range(5, 5 + n_paths))
        # 150 steps span several drawn blocks and end in a partial one; a second
        # iterate varies in time, and kappa puts its phi on the transition band
        control = apply_V(constant_control(u0, v0, T=0.15, dt=1e-3, n_paths=n_paths),
                          integ, u0, v0, 1e9, ids)
        got = apply_V(control, integ, u0, v0, 1.0, ids)
        want = forced_sweep(control, integ, u0, v0, 1.0, ids)
        for a, b in ((got.eta, want[0]), (got.xi, want[1])):
            assert np.array_equal(a, b)
            assert np.array_equal(np.signbit(a), np.signbit(b))

    def test_keeps_no_path_norm(self, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("a forced sweep computed a path norm term")

        integ = MildIntegrator(ModelParams(c1=0.2, c2=0.2), SP, NZ)
        control = constant_control(bump(), bump(), T=0.05, dt=1e-3, n_paths=2)
        monkeypatch.setattr(MildIntegrator, "norm_terms", refuse)
        out = apply_V(control, integ, bump(), bump(), 1e9, [0, 1])
        assert np.isfinite(out.eta).all() and np.isfinite(out.xi).all()

    def test_noiseless_ito_sweep_synthesizes_only_the_forcing(self, monkeypatch):
        integ = MildIntegrator(ModelParams(sigma1=0.0, sigma2=0.0, c1=0.2, c2=0.2), SP, NZ)
        u0, v0 = bump(), bump(SP, 1.0, 0.4)
        control = apply_V(constant_control(u0, v0, T=0.15, dt=1e-3, n_paths=2),
                          integ, u0, v0, 1e9, [0, 1])
        calls = []
        synthesize = Basis.synthesize
        monkeypatch.setattr(Basis, "synthesize",
                            lambda self, *a: calls.append(a[0].shape) or synthesize(self, *a))
        got = apply_V(control, integ, u0, v0, 1.0, [0, 1])
        block = draw_steps(2, integ.k_noise)
        assert calls == [(2, min(block, 150 - s), SP.total_modes)
                         for s in range(0, 150, block) for _ in ("eta", "xi")]
        want = forced_sweep(control, integ, u0, v0, 1.0, [0, 1])
        for a, b in ((got.eta, want[0]), (got.xi, want[1])):
            assert np.array_equal(a, b)
            assert np.array_equal(np.signbit(a), np.signbit(b))


class TestControlTimes:
    @pytest.mark.parametrize("n_times, dt, needle", [
        (1, 1e-3, "at least 2 time points, got 1"),
        (3, -1e-3, "dt must be finite and > 0, got -0.001"),
        (3, 0.0, "dt must be finite and > 0, got 0.0"),
        (3, math.nan, "dt must be finite and > 0, got nan"),
    ])
    def test_grid_apply_V_cannot_step_rejected(self, n_times, dt, needle):
        shape = (1, n_times, SP.total_modes)
        with pytest.raises(ValidationError, match=re.escape(needle)):
            ControlPair(np.zeros(shape), np.zeros(shape), dt, SP)

    def test_arange_grid_accepted(self):
        # the grid is arange(n + 1) * dt, uneven in its last bits, as the records' are
        control = constant_control(bump(), bump(), T=2.0, dt=1e-3, n_paths=1)
        assert np.array_equal(control.times, np.arange(2001) * 1e-3)
        assert np.ptp(np.diff(control.times)) > 0


class TestPicard:
    def test_linear_problem_converges_after_one_extra_solve(self):
        params = ModelParams(c1=0.0, c2=0.0)
        res = picard_solve(params, SP, NZ, bump(), bump(), 1e9, path_ids=[0],
                           T=0.05, dt=1e-3, tol=1e-8)
        assert res["iterates"][0] == 2
        assert res["residuals"][0][-1] == 0.0

    def test_small_coupling_contraction(self):
        params = ModelParams(c1=0.01, c2=0.01)
        res = picard_solve(params, SP, NZ, bump(), bump(), 1e9, path_ids=[1],
                           T=0.25, dt=1e-3, tol=1e-8, max_iter=20)
        r = res["residuals"][0]
        assert res["iterates"][0] <= 20
        assert r[-1] < 1e-8
        assert all(b < a for a, b in zip(r[1:], r[2:]))  # monotone after iter 2

    @pytest.mark.parametrize("interpretation", ["ito", "stratonovich"])
    def test_fixed_point_matches_direct_simulation(self, interpretation):
        # Picard's fixed point satisfies the update simulate takes, under
        # every noise interpretation the config accepts
        params = ModelParams(c1=0.01, c2=0.01)
        noise = replace(NZ, interpretation=interpretation)
        res = picard_solve(params, SP, noise, bump(), bump(), 1e9, path_ids=[3],
                           T=0.25, dt=2e-3, tol=1e-8)
        rec = simulate_ensemble(params, SP, noise, bump(), bump(), 1e9, T=0.25,
                                dt=2e-3, path_ids=[3], store_trajectory=True)
        fp = res["fixed_point"]
        diff = control_m_norm(fp.eta[0] - rec.trajectory[0, 0], fp.xi[0] - rec.trajectory[1, 0],
                              fp.times, SP, params.rho, params.aleph)
        assert diff < 1e-6

    @settings(derandomize=True, database=None, max_examples=12, deadline=None)
    @given(interpretation=st.sampled_from(["ito", "stratonovich"]), path_id=st.integers(0, 2**16),
           band=st.none() | st.floats(0.1, 0.6))
    def test_fixed_point_matches_simulate_on_and_off_the_plateau(self, interpretation, path_id,
                                                                  band):
        # kappa = 1e9, or a level the path norm passes mid-run (band: how far
        # between h(0) and h(T)), so that phi < 1 on the steps after it: the
        # sweep and the cutoff loop share one phi
        params = ModelParams(c1=0.01, c2=0.01)
        noise = replace(NZ, interpretation=interpretation)
        T, dt, kappa = 0.25, 2e-3, 1e9
        if band is not None:
            h = simulate_ensemble(params, SP, noise, bump(), bump(), kappa, T, dt,
                                  path_ids=[path_id]).series["h"][0]
            kappa = h[0] + band * (h[-1] - h[0])
        res = picard_solve(params, SP, noise, bump(), bump(), kappa, path_ids=[path_id], T=T,
                           dt=dt, tol=1e-8)
        rec = simulate_ensemble(params, SP, noise, bump(), bump(), kappa, T, dt,
                                path_ids=[path_id], store_trajectory=True)
        phi = rec.series["phi"][0]
        assert phi[0] == 1.0 and np.any(phi < 1.0) == (band is not None)
        fp = res["fixed_point"]
        diff = control_m_norm(fp.eta[0] - rec.trajectory[0, 0], fp.xi[0] - rec.trajectory[1, 0],
                              fp.times, SP, params.rho, params.aleph)
        assert diff < 1e-6

    def test_residuals_reproducible(self):
        params = ModelParams(c1=0.01, c2=0.01)
        r1 = picard_solve(params, SP, NZ, bump(), bump(), 1e9, [7], 0.1, 1e-3)
        r2 = picard_solve(params, SP, NZ, bump(), bump(), 1e9, [7], 0.1, 1e-3)
        assert r1["residuals"] == r2["residuals"]

    def test_no_convergence_reported(self):
        params = ModelParams(c1=0.01, c2=0.01)
        with pytest.raises(NoConvergence) as err:
            picard_solve(params, SP, NZ, bump(), bump(), 1e9, [0], 0.1, 1e-3,
                         tol=1e-16, max_iter=3)
        assert len(err.value.residuals) == 3

    @pytest.mark.parametrize("kappa", [0.0, -1.0, math.nan])
    def test_bad_cutoff_level_rejected(self, kappa):
        needle = f"cutoff level kappa must be > 0, got {kappa}"
        control = constant_control(bump(), bump(), T=0.02, dt=1e-3, n_paths=1)
        with pytest.raises(ValidationError, match=re.escape(needle)):
            apply_V(control, MildIntegrator(ModelParams(), SP, NZ), bump(), bump(), kappa, [0])
        with pytest.raises(ValidationError, match=re.escape(needle)):
            picard_solve(ModelParams(), SP, NZ, bump(), bump(), kappa, [0], 0.02, 1e-3)

    @pytest.mark.parametrize("kwargs, needle", [
        ({"max_iter": 0}, "max_iter must be >= 1, got 0"),
        ({"tol": math.nan}, "tol must be > 0, got nan"),
        ({"tol": 0.0}, "tol must be > 0, got 0.0"),
        ({"max_iter": True}, "max_iter must be a whole number, got True"),
        ({"max_iter": 2.5}, "max_iter must be a whole number, got 2.5"),
    ])
    def test_bad_iteration_controls_rejected(self, kwargs, needle):
        with pytest.raises(ValidationError, match=re.escape(needle)):
            picard_solve(ModelParams(), SP, NZ, bump(), bump(), 1e9, [0], 0.01, 1e-3,
                         **kwargs)

    def test_numpy_integer_max_iter_accepted(self):
        params = ModelParams(c1=0.01, c2=0.01)
        with pytest.raises(NoConvergence, match="after 2 iterations") as err:
            picard_solve(params, SP, NZ, bump(), bump(), 1e9, [0], 0.1, 1e-3, tol=1e-16,
                         max_iter=np.int64(2))
        assert len(err.value.residuals) == 2

    def test_batch_matches_per_path_runs(self):
        # sigma=3 makes the paths converge at different iterations
        params = ModelParams(c1=0.05, c2=0.05, sigma1=3.0, sigma2=3.0)
        batch = picard_solve(params, SP, NZ, bump(), bump(), 1e9, range(8), 0.1, 1e-3)
        single = [picard_solve(params, SP, NZ, bump(), bump(), 1e9, [p], 0.1, 1e-3)
                  for p in range(8)]
        assert len(set(batch["iterates"])) > 1
        assert batch["iterates"] == [s["iterates"][0] for s in single]
        for p, s in enumerate(single):
            assert len(batch["residuals"][p]) == batch["iterates"][p]
            for got, want in ((batch["fixed_point"].eta[p], s["fixed_point"].eta[0]),
                              (batch["fixed_point"].xi[p], s["fixed_point"].xi[0])):
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_no_convergence_names_first_unconverged_path(self):
        # per-path counts at this config: path 1 and 3 need 4, path 2 needs 5
        params = ModelParams(c1=0.05, c2=0.05, sigma1=3.0, sigma2=3.0)
        with pytest.raises(NoConvergence, match="path 2:") as err:
            picard_solve(params, SP, NZ, bump(), bump(), 1e9, [1, 2, 3], 0.1, 1e-3,
                         max_iter=4)
        assert len(err.value.residuals) == 4
        assert err.value.residuals[-1] >= 1e-8


class TestPicardPipeline:
    """picard_solve's pipeline of sweeps in flight against its depth-1 loop
    (PIPELINE_BUDGET = 0): the same residual traces, iteration counts and
    fixed point, or the same exception, bit for bit."""

    SP2 = SpaceConfig(d=2, modes_per_axis=4, grid_points_per_axis=8)
    SP8 = SpaceConfig(d=1, modes_per_axis=8, grid_points_per_axis=16)
    # the pathwise-d1 benchmark's fixed point: 350 steps in 6 drawn blocks, 7 sweeps
    PATHWISE = SpaceConfig(d=1, modes_per_axis=32, grid_points_per_axis=64)

    @staticmethod
    def outcome(solve):
        """What solve() returns or raises, in a form == compares bit for bit."""
        try:
            res = solve()
        except (NoConvergence, NonFinite) as err:
            return type(err).__name__, str(err), getattr(err, "residuals", None)
        fp = res["fixed_point"]
        return res["iterates"], res["residuals"], fp.eta.tobytes(), fp.xi.tobytes()

    def both(self, solve):
        """The outcomes of solve() pipelined and at depth 1."""
        pipelined = self.outcome(solve)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fixedpoint, "PIPELINE_BUDGET", 0)
            return pipelined, self.outcome(solve)

    @settings(derandomize=True, database=None, max_examples=30, deadline=None)
    @given(d=st.sampled_from([1, 2]), n_paths=st.integers(1, 4),
           interpretation=st.sampled_from(["ito", "stratonovich"]), coupled=st.booleans(),
           T=st.sampled_from([0.2, 0.256]), first_id=st.integers(0, 2**16),
           tol=st.floats(-7.0, -1.0).map(lambda e: 10.0**e), max_iter=st.integers(2, 10))
    def test_pipeline_matches_depth_one(self, d, n_paths, interpretation, coupled, T, first_id,
                                        tol, max_iter):
        # blocks of 64 steps: T=0.2 ends in a ragged one of 8; at c=5, sigma=3 the
        # paths' residuals lie decades apart, so they retire at different sweeps
        space = self.SP8 if d == 1 else self.SP2
        c = 5.0 if coupled else 0.0
        params = ModelParams(c1=c, c2=c, sigma1=3.0, sigma2=3.0)
        noise = replace(NZ, interpretation=interpretation)
        ids = range(first_id, first_id + n_paths)
        assert fixedpoint._depth(MildIntegrator(params, space, noise), n_paths,
                                 round(T / 1e-3), max_iter) >= 2
        pipelined, serial = self.both(lambda: picard_solve(
            params, space, noise, bump(space), bump(space, 1.0, 0.4), 1.5, ids, T, 1e-3,
            tol=tol, max_iter=max_iter))
        assert pipelined == serial

    def test_overflow_raises_the_depth_one_nonfinite(self):
        # a huge coupling: sweep 1 stays finite and sweep 2 overflows
        params = ModelParams(c1=1e150, c2=1e150)
        with np.errstate(over="ignore", invalid="ignore"):
            pipelined, serial = self.both(lambda: picard_solve(
                params, self.SP8, NZ, bump(self.SP8), bump(self.SP8), 1e9, [0, 1], 0.2, 1e-3))
        assert pipelined[0] == "NonFinite"
        assert pipelined == serial

    def test_stacked_nonfinite_replays_at_depth_one(self, monkeypatch):
        # tol=1e300 freezes both paths after sweep 1, whose output is finite;
        # sweep 2, stacked beside it, overflows: the pipeline replays sweep 1
        # alone and returns what the depth-1 loop returns
        failed = []
        step_raw = MildIntegrator.step_raw

        def spy(self, state, *args):
            try:
                return step_raw(self, state, *args)
            except NonFinite:
                failed.append(state.uv.shape)
                raise

        monkeypatch.setattr(MildIntegrator, "step_raw", spy)
        params = ModelParams(c1=1e150, c2=1e150)
        with np.errstate(over="ignore", invalid="ignore"):
            pipelined, serial = self.both(lambda: picard_solve(
                params, self.SP8, NZ, bump(self.SP8), bump(self.SP8), 1e9, [0, 1], 0.2, 1e-3,
                tol=1e300))
        assert failed == [(2, 2, 2, self.SP8.total_modes)]  # two sweeps in flight
        assert pipelined[0] == [1, 1]
        assert pipelined == serial

    def test_sweep_output_outlives_its_successors_residual(self):
        # 6 sweeps in flight: sweep k's output is sweep k + 1's control, and its
        # buffer is reused only once sweep k + 1's residual has read it
        params = ModelParams()
        noise = replace(NZ, seed=3)
        f = constant_field(1.0, self.PATHWISE)
        assert fixedpoint._depth(MildIntegrator(params, self.PATHWISE, noise), 1, 350, 20) == 6
        pipelined, serial = self.both(lambda: picard_solve(
            params, self.PATHWISE, noise, f, f, 1e6, [0], 0.35, 1e-3))
        assert pipelined[0] == [7]
        assert pipelined == serial

    @pytest.mark.parametrize("interpretation", ["ito", "stratonovich"])
    def test_uncoupled_drift_is_composed_on_the_batch(self, interpretation, monkeypatch):
        # drift and _per_species index the species on axis 0: the feeds are
        # composed on the (2, P) batch and broadcast over the sweeps in flight
        shapes = []
        drift = MildIntegrator.drift
        monkeypatch.setattr(MildIntegrator, "drift", lambda self, state, react: (
            shapes.append(state.uv.shape) or drift(self, state, react)))
        params = ModelParams(c1=0.0, c2=0.0, sigma1=2.0, sigma2=2.0)
        noise = replace(NZ, interpretation=interpretation)
        assert fixedpoint._depth(MildIntegrator(params, self.SP8, noise), 2, 200, 20) >= 2
        pipelined, serial = self.both(lambda: picard_solve(
            params, self.SP8, noise, bump(self.SP8), bump(self.SP8), 1e9, [3, 4], 0.2, 1e-3))
        assert pipelined[0] == [2, 2]
        assert pipelined == serial
        assert shapes and {s[0] for s in shapes} == {2} and {len(s) for s in shapes} == {3}


class TestKSet:
    def test_zero_control_in_any_set(self):
        z = constant_field(0.0, SP)
        control = constant_control(z, z, T=0.1, dt=1e-3, n_paths=1)
        constants = KSetConstants(K1=0.5, K2=0.5, K3=0.5)
        out = kset_check(control, constants, rho=0.25, aleph=2.0, p_star=4.5)
        assert out["in_set"].tolist() == [True]
        assert all(m >= 0 for m in out["margins"][0])

    def test_huge_scaling_fails_k2(self):
        u0 = v0 = bump()
        control = constant_control(u0, v0, T=0.1, dt=1e-3, n_paths=1)
        scaled = ControlPair(1e4 * control.eta, control.xi, control.dt, SP)
        constants = compute_kset_constants(
            u0.l2_norm() ** 2, lp_norm(u0, 4.5) ** 4.5,
            sobolev_norm(v0, 0.25) ** 2, T=0.1, lam=0.0, p_star=4.5)
        out = kset_check(scaled, constants, rho=0.25, aleph=2.0, p_star=4.5)
        assert out["in_set"].tolist() == [False]
        assert out["margins"][0][1] < 0

    def test_constants_formulas(self):
        base = compute_kset_constants(1.0, 2.0, 3.0, T=0.5,
                                      lam=0.0, p_star=4.0, C2=0.0)
        assert base.K2 == pytest.approx(4.0 * 2.0)

        zero = compute_kset_constants(0.0, 0.0, 0.0, T=0.5,
                                      lam=0.3, p_star=4.0)
        assert (zero.K1, zero.K2, zero.K3) == (0.0, 0.0, 0.0)

        twice = compute_kset_constants(1.0, 4.0, 3.0, T=0.5,
                                       lam=0.0, p_star=4.0, C2=0.0)
        assert twice.K2 == pytest.approx(2.0 * base.K2)

    def test_ensemble_invariance_of_calibrated_set(self):
        # the operator maps the set into itself: with constants calibrated
        # on a pilot batch, ensemble means of the output functionals stay
        # below (K1, K2, K3) on a fresh batch
        params = ModelParams(c1=0.05, c2=0.05)
        u0 = v0 = bump()
        T, dt = 0.1, 1e-3
        integ = MildIntegrator(params, SP, NZ)

        def functionals(path_ids):
            control = constant_control(u0, v0, T, dt, len(path_ids))
            v_out = apply_V(control, integ, u0, v0, 1e9, path_ids)
            return kset_check(
                v_out, KSetConstants(math.inf, math.inf, math.inf),
                params.rho, params.aleph, params.p_star,
            )["functionals"]

        pilot = functionals(range(10)).mean(axis=0)
        growth_free = compute_kset_constants(
            u0.l2_norm() ** 2, lp_norm(u0, params.p_star) ** params.p_star,
            sobolev_norm(v0, params.rho) ** 2, T=T,
            lam=params.lam, p_star=params.p_star, C2=0.0)
        constants = compute_kset_constants(
            u0.l2_norm() ** 2, lp_norm(u0, params.p_star) ** params.p_star,
            sobolev_norm(v0, params.rho) ** 2, T=T,
            lam=params.lam, p_star=params.p_star,
            C_T=1.5 * max(pilot[0] / growth_free.K1, pilot[2] / growth_free.K3),
            C_kappa=1.0,
            C2=math.log(max(pilot[1] / (2 * lp_norm(u0, params.p_star)
                                        ** params.p_star), 1.0)) / T,
        )
        fresh = functionals(range(100, 200)).mean(axis=0)
        assert fresh[0] <= constants.K1
        assert fresh[1] <= constants.K2
        assert fresh[2] <= constants.K3

    def test_fixed_point_lies_in_calibrated_set(self):
        params = ModelParams(c1=0.01, c2=0.01)
        u0 = v0 = bump()
        res = picard_solve(params, SP, NZ, u0, v0, 1e9, path_ids=[2],
                           T=0.1, dt=1e-3, tol=1e-8)
        functionals = kset_check(
            res["fixed_point"],
            KSetConstants(K1=math.inf, K2=math.inf, K3=math.inf),
            rho=params.rho, aleph=params.aleph, p_star=params.p_star,
        )["functionals"][0]
        # calibrate scheme constants so the set is tight but containing
        constants = compute_kset_constants(
            u0.l2_norm() ** 2, lp_norm(u0, params.p_star) ** params.p_star,
            sobolev_norm(v0, params.rho) ** 2, T=0.1,
            lam=params.lam, p_star=params.p_star,
            C_T=1.2 * max(functionals[0], functionals[2]),
            C2=0.0,
        )
        out = kset_check(res["fixed_point"], constants, params.rho,
                         params.aleph, params.p_star)
        assert out["in_set"].tolist() == [True]


class TestMemory:
    """Peak traced memory of the fixed-point operations above their entry,
    in units of one control array (P, n_steps + 1, K): neither builds a
    whole-run array of grid values, which at this config would hold four
    control arrays (a 16 x 16 grid for 8 x 8 modes)."""

    SP2 = SpaceConfig(d=2, modes_per_axis=8, grid_points_per_axis=16)

    def control(self):
        return constant_control(bump(self.SP2), bump(self.SP2), T=1.0, dt=1e-3, n_paths=4)

    @staticmethod
    def peak_bytes(fn) -> int:
        fn()  # warm the caches
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            entry = tracemalloc.get_traced_memory()[0]
            fn()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - entry

    def peak_arrays(self, fn, control) -> float:
        return self.peak_bytes(fn) / control.eta.nbytes

    def test_apply_V_peak(self):
        params = ModelParams(c1=0.2, c2=0.2)
        integ = MildIntegrator(params, self.SP2, NZ)
        control = self.control()
        u0 = v0 = bump(self.SP2)
        # the result itself is two control arrays
        assert self.peak_arrays(lambda: apply_V(control, integ, u0, v0, 1e9, range(4)),
                                control) <= 3

    def test_picard_solve_peak(self):
        # the iterate, the active rows' copies and the new iterate are six
        # control arrays; the update reuses the copies
        u0 = v0 = bump(self.SP2)

        def solve():
            picard_solve(ModelParams(c1=0.2, c2=0.2), self.SP2, NZ, u0, v0, 1e9, range(4),
                         T=1.0, dt=1e-3)

        assert self.peak_arrays(solve, self.control()) <= 9.5

    def test_kset_functionals_peak(self):
        control = self.control()
        assert self.peak_arrays(lambda: kset_functionals(control, 0.25, 2.0, 4.5, 0.0),
                                control) <= 3

    def test_picard_pipeline_peak(self):
        # the pathwise-d1 benchmark's fixed point runs 6 sweeps in flight: its
        # peak exceeds the depth-1 loop's by at most PIPELINE_BUDGET values
        space = TestPicardPipeline.PATHWISE
        f = constant_field(1.0, space)

        def solve():
            picard_solve(ModelParams(), space, replace(NZ, seed=3), f, f, 1e6, [0], 0.35, 1e-3)

        pipelined = self.peak_bytes(solve)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fixedpoint, "PIPELINE_BUDGET", 0)
            serial = self.peak_bytes(solve)
        assert pipelined <= serial + 8 * fixedpoint.PIPELINE_BUDGET
