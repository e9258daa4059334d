import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from grayscott.errors import NoConvergence, ValidationError
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
from grayscott.integrate import MildIntegrator, ModelParams, simulate_ensemble
from grayscott.noise import NoiseConfig
from grayscott.spectral import SpaceConfig, constant_field, lp_norm, sobolev_norm

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

    @pytest.mark.parametrize("kwargs, needle", [
        ({"max_iter": 0}, "max_iter must be >= 1, got 0"),
        ({"tol": math.nan}, "tol must be > 0, got nan"),
        ({"tol": 0.0}, "tol must be > 0, got 0.0"),
    ])
    def test_bad_iteration_controls_rejected(self, kwargs, needle):
        with pytest.raises(ValidationError, match=re.escape(needle)):
            picard_solve(ModelParams(), SP, NZ, bump(), bump(), 1e9, [0], 0.01, 1e-3,
                         **kwargs)

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

    def peak_arrays(self, fn, control) -> float:
        fn()  # warm the caches
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            entry = tracemalloc.get_traced_memory()[0]
            fn()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return (peak - entry) / control.eta.nbytes

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
