import json
import math
from dataclasses import replace

import numpy as np
import pytest

from oracles import planar_ode

from grayscott.errors import NonFinite, ScheduleExhausted, ValidationError
from grayscott.cli import main
from grayscott.integrate import (
    MildIntegrator,
    ModelParams,
    path_norm_series,
    pathspace_norm,
    simulate_ensemble,
    simulate_glued,
    smooth_cutoff,
)
from grayscott.noise import NoiseConfig, WienerSource
from grayscott.spectral import (
    SpaceConfig,
    SpectralField,
    constant_field,
    get_basis,
    mode_field,
    sobolev_norm,
)

SP = SpaceConfig(d=1, modes_per_axis=16, grid_points_per_axis=32)
NZ = NoiseConfig(gamma1=1.0, gamma2=0.75, seed=99)


def bump(space, base=1.0, amp=0.2):
    f = constant_field(base, space)
    f.coeffs[1] = amp
    return f


class TestModelParams:
    def test_validation_collects_everything(self):
        with pytest.raises(ValidationError) as err:
            ModelParams(r1=-1.0, q=0.5, aleph=3.0, rho=0.5, alpha=0.0)
        assert len(err.value.violations) >= 4

    def test_defaults_valid(self):
        ModelParams()


class TestSmoothCutoff:
    def test_plateaus_exact(self):
        assert smooth_cutoff(0.3) == 1.0
        assert smooth_cutoff(1.0) == 1.0
        assert smooth_cutoff(2.0) == 0.0
        assert smooth_cutoff(-5.0) == 0.0

    def test_monotone_on_band(self):
        x = np.linspace(1.0, 2.0, 500)
        y = smooth_cutoff(x)
        assert np.all(np.diff(y) <= 0)
        assert np.all((y >= 0) & (y <= 1))

    def test_plateau_array_is_exact_float_ones(self):
        x = np.array([[0.0, -0.5, 1.0], [-1.0, 0.25, 1e-300]])
        y = smooth_cutoff(x)
        assert y.dtype == np.float64 and y.shape == x.shape
        assert np.array_equal(y, np.ones(x.shape))
        assert np.array_equal(smooth_cutoff([0.5, -1.0]), [1.0, 1.0])

    def test_mixed_array_matches_scalar_calls(self):
        x = np.array([0.2, -1.0, 1.0 + 1e-12, 1.3, -1.7, 1.999, 2.0, -3.5, 0.9])
        assert np.array_equal(smooth_cutoff(x), [smooth_cutoff(float(v)) for v in x])

    def test_nan_stays_nan(self):
        with np.errstate(invalid="ignore"):
            y = smooth_cutoff(np.array([0.5, np.nan, 1.5]))
            assert math.isnan(smooth_cutoff(math.nan))
        assert y[0] == 1.0 and math.isnan(y[1]) and y[2] == smooth_cutoff(1.5)


def first_increments(noise, dt, path_id=0):
    source = WienerSource(noise, SP, [path_id])
    return (source.increment_block(0, 1, dt, 1)[:, 0],
            source.increment_block(0, 1, dt, 2)[:, 0])


class TestStepMild:
    """One exponential-Euler step of MildIntegrator.step_raw."""

    def test_pure_semigroup_reduction(self):
        params = ModelParams(sigma1=0.0, sigma2=0.0, c1=0.0, c2=0.0,
                             b1=0.0, b2=0.0, a1=-1.0, a2=0.5, aleph=1.5)
        integ = MildIntegrator(params, SP, NZ)
        u, v = mode_field(SP, 5), mode_field(SP, 2)
        state = integ.initial_state(u.coeffs, v.coeffs, 1e9)
        new = integ.step_raw(state, *first_increments(NZ, 0.01), 0.01)
        lam = get_basis(SP).eigenvalues
        assert new.u[0, 5] == pytest.approx(math.exp((-lam[5] - 1.0) * 0.01), rel=1e-14)
        assert new.v[0, 2] == pytest.approx(
            math.exp((-lam[2] ** 0.75 + 0.5) * 0.01), rel=1e-14)

    def test_matches_simulate_path_one_step(self):
        params = ModelParams()
        u0, v0 = bump(SP), bump(SP)
        rec = simulate_ensemble(params, SP, NZ, u0, v0, 1e9, T=0.002, dt=0.001,
                                path_ids=[0], store_trajectory=True)[0]
        integ = MildIntegrator(params, SP, NZ)
        state = integ.initial_state(u0.coeffs, v0.coeffs, 1e9)
        new = integ.step_raw(state, *first_increments(NZ, 0.001), 0.001)
        assert np.array_equal(new.u[0], rec.trajectory[0][1])
        assert np.array_equal(new.v[0], rec.trajectory[1][1])
        assert new.h[0] == pytest.approx(rec.series["h"][1], rel=1e-14)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_detection(self):
        params = ModelParams(a1=500.0, sigma1=0.0, sigma2=0.0)
        with pytest.raises(NonFinite) as err:
            simulate_ensemble(params, SP, NZ, bump(SP), bump(SP), 1e9, T=4.0, dt=1.0,
                              path_ids=[0], check_gate=False)
        assert err.value.step is not None

    def test_warns_on_negative_initial_data(self):
        params = ModelParams()
        with pytest.warns(UserWarning, match="negative somewhere"):
            simulate_ensemble(params, SP, NZ, mode_field(SP, 2), bump(SP), 1e9,
                              T=0.002, dt=1e-3, path_ids=[0])

    def test_warns_on_inadmissible_parameters(self):
        params = ModelParams(rho=0.0, alpha=0.0)  # fails the alpha window
        with pytest.warns(UserWarning, match="admissible region"):
            simulate_ensemble(params, SP, NZ, bump(SP), bump(SP), 1e9,
                              T=0.002, dt=1e-3, path_ids=[0])


class TestHomogeneousBranch:
    @pytest.mark.parametrize("q", [1.0, 2.0])
    def test_ode_oracle(self, q):
        params = ModelParams(sigma1=0.0, sigma2=0.0, a1=-0.5, a2=-0.4,
                             b1=0.3, b2=0.3, c1=0.5, c2=0.5, q=q)
        u0 = constant_field(0.5, SP)
        v0 = constant_field(0.5, SP)
        rec = simulate_ensemble(params, SP, NZ, u0, v0, 1e9, T=0.5, dt=5e-4,
                                path_ids=[0], check_gate=False)[0]
        _, uT, vT = rec.snapshots[-1]
        sol = planar_ode(params, 0.5, 0.5, 0.5)
        assert uT[0] == pytest.approx(sol.y[0, -1], rel=2e-3)
        assert vT[0] == pytest.approx(sol.y[1, -1], rel=2e-3)
        # homogeneous up to quadrature round-off of the constant drift
        assert np.max(np.abs(uT[1:])) < 1e-15

    def test_semi_implicit_close_to_explicit(self):
        shared = dict(sigma1=0.0, sigma2=0.0, a1=-0.5, a2=-0.4, b1=0.3,
                      b2=0.3, c1=2.0, c2=0.5, q=2.0)
        u0, v0 = constant_field(0.5, SP), constant_field(0.8, SP)
        rec_e = simulate_ensemble(ModelParams(**shared), SP, NZ, u0, v0, 1e9,
                                  T=0.25, dt=1e-3, path_ids=[0], check_gate=False)[0]
        rec_s = simulate_ensemble(ModelParams(scheme="semi_implicit", **shared),
                                  SP, NZ, u0, v0, 1e9, T=0.25, dt=1e-3, path_ids=[0],
                                  check_gate=False)[0]
        sol = planar_ode(ModelParams(**shared), 0.5, 0.8, 0.25)
        for rec in (rec_e, rec_s):
            assert rec.snapshots[-1][1][0] == pytest.approx(sol.y[0, -1], rel=5e-3)


class TestTrivialFixedPoints:
    def test_zero_is_absorbing(self):
        params = ModelParams(b1=0.0, b2=0.0)
        z = constant_field(0.0, SP)
        rec = simulate_ensemble(params, SP, NZ, z, z, 1e9, T=0.05, dt=1e-3, path_ids=[0])[0]
        assert rec.series["u_l2"].max() == 0.0
        assert rec.series["v_halpha"].max() == 0.0

    def test_cutoff_saturation_large_kappa(self):
        rec = simulate_ensemble(ModelParams(), SP, NZ, bump(SP), bump(SP), 1e9,
                                T=0.1, dt=1e-3, path_ids=[0])[0]
        assert np.all(rec.series["phi"] == 1.0)
        assert rec.stop_time == math.inf


class TestCutoffSemantics:
    def crossing_record(self, kappa, **kwargs):
        params = ModelParams(a2=0.4, b2=1.2, sigma2=0.15, c1=0.2, c2=0.2)
        return simulate_ensemble(params, SP, NZ, bump(SP), bump(SP), kappa,
                                 T=1.2, dt=2e-3, path_ids=[0], check_gate=False, **kwargs)[0]

    def test_phi_regions_and_monotonicity(self):
        rec = self.crossing_record(kappa=2.0)
        h, phi = rec.series["h"], rec.series["phi"]
        assert np.all(phi[h <= 2.0] == 1.0)
        assert h.max() > 4.0, "path must cross 2*kappa to exercise the test"
        assert np.all(phi[h >= 4.0] == 0.0)
        band = (h > 2.0) & (h < 4.0)
        assert np.all((phi[band] >= 0) & (phi[band] <= 1))
        interior = (h > 2.4) & (h < 3.6)
        assert interior.any()
        assert np.all((phi[interior] > 0) & (phi[interior] < 1))
        assert np.all(np.diff(phi) <= 1e-12)

    def test_stop_time_monotone_and_prestop_bitequal(self):
        rec_a = self.crossing_record(kappa=2.0, store_trajectory=True)
        rec_b = self.crossing_record(kappa=2.5, store_trajectory=True)
        assert rec_a.stop_time <= rec_b.stop_time
        n = rec_a.stop_step
        assert n is not None and n > 0
        assert np.array_equal(rec_a.trajectory[0][: n + 1], rec_b.trajectory[0][: n + 1])
        assert np.array_equal(rec_a.trajectory[1][: n + 1], rec_b.trajectory[1][: n + 1])


class TestPostCutoffLinearization:
    def test_phi_zero_equals_uncoupled_system(self):
        # with the cutoff fully engaged the reaction drops out exactly,
        # so the step map coincides bitwise with the c = 0 system
        params = ModelParams(c1=0.8, c2=0.8)
        linear = ModelParams(c1=0.0, c2=0.0)
        u0, v0 = bump(SP, 2.0, 0.4), bump(SP, 2.0, 0.4)
        # h(0) = |v0|_{H^rho} > 2 kappa from the first step onwards
        h0 = math.sqrt(float(np.sum(
            (1 + get_basis(SP).eigenvalues) ** 0.25 * v0.coeffs**2)))
        kappa = h0 / 2.5
        rec_cut = simulate_ensemble(params, SP, NZ, u0, v0, kappa, T=0.05, dt=1e-3,
                                    path_ids=[0], store_trajectory=True, check_gate=False)[0]
        rec_lin = simulate_ensemble(linear, SP, NZ, u0, v0, kappa, T=0.05, dt=1e-3,
                                    path_ids=[0], store_trajectory=True, check_gate=False)[0]
        assert np.all(rec_cut.series["phi"] == 0.0)
        assert np.array_equal(rec_cut.trajectory[0], rec_lin.trajectory[0])
        assert np.array_equal(rec_cut.trajectory[1], rec_lin.trajectory[1])


class TestDeterministicOrder:
    def test_noise_free_order_at_least_09(self):
        from grayscott.convergence import strong_order_study

        sp = SpaceConfig(d=1, modes_per_axis=8, grid_points_per_axis=16)
        params = ModelParams(a1=-0.5, a2=-0.4, b1=0.3, b2=0.3, c1=0.5, c2=0.5)
        u0, v0 = bump(sp, 0.5, 0.1), bump(sp, 0.5, 0.1)
        T = 0.25
        dts = [T * 2.0**-j for j in range(8, 13)]
        out = strong_order_study(replace(params, sigma1=0.0, sigma2=0.0), sp,
                                 NoiseConfig(seed=0), u0, v0, T, dts,
                                 n_paths=1, ref_refinement=16)
        assert out["order"] >= 0.9, out

    def test_dt_not_dividing_T_rejected(self):
        from grayscott.convergence import strong_order_study

        sp = SpaceConfig(d=1, modes_per_axis=8, grid_points_per_axis=16)
        u0, v0 = bump(sp, 0.5, 0.1), bump(sp, 0.5, 0.1)
        with pytest.raises(ValidationError, match="not a whole multiple of dt=0.3"):
            strong_order_study(ModelParams(), sp, NoiseConfig(seed=0), u0, v0,
                               T=0.5, dts=[0.3, 0.1], n_paths=2)


class TestEnsembleAndNonNegativity:
    def test_batch_matches_single(self):
        params = ModelParams()
        recs = simulate_ensemble(params, SP, NZ, bump(SP), bump(SP), 1e9,
                                 0.05, 1e-3, [0, 1, 2])
        solo = simulate_ensemble(params, SP, NZ, bump(SP), bump(SP), 1e9,
                                 0.05, 1e-3, path_ids=[1])[0]
        assert np.allclose(recs[1].series["u_l2"], solo.series["u_l2"], rtol=1e-13)

    def test_nonnegativity_small_suite(self):
        params = ModelParams()
        recs = simulate_ensemble(params, SP, NZ, bump(SP), bump(SP), 1e9,
                                 0.2, 1e-3, np.arange(10), store_trajectory=True)
        basis = get_basis(SP)
        tol = 10 * 1e-3
        for rec in recs:
            for coeffs in rec.trajectory:
                vals = basis.synthesize(coeffs)
                assert vals.min() >= -tol


class TestGlueing:
    def test_vacuous_glueing_matches_single(self):
        params = ModelParams()
        glued = simulate_glued(params, SP, NZ, bump(SP), bump(SP), [1e9, 2e9],
                               T=0.1, dt=1e-3, path_ids=[0])[0]
        single = simulate_ensemble(params, SP, NZ, bump(SP), bump(SP), 1e9,
                                   T=0.1, dt=1e-3, path_ids=[0])[0]
        assert glued.glue_events == []
        for col in ("u_l2", "v_halpha", "h"):
            assert np.array_equal(glued.series[col], single.series[col])

    def test_forced_glue_replays_prefix(self):
        params = ModelParams(a2=0.4, b2=1.2, sigma2=0.2, c1=0.2, c2=0.2)
        schedule = [1.8, 2.6, 3.4]
        glued = simulate_glued(params, SP, NZ, bump(SP), bump(SP), schedule,
                               T=1.2, dt=2e-3, path_ids=[0], store_trajectory=True)[0]
        assert len(glued.glue_events) >= 1
        single = simulate_ensemble(params, SP, NZ, bump(SP), bump(SP), schedule[0],
                                   T=1.2, dt=2e-3, path_ids=[0], store_trajectory=True)[0]
        n = single.stop_step
        assert n is not None
        assert glued.glue_events[0] == (schedule[0], single.stop_time)
        assert np.array_equal(glued.trajectory[0][: n + 1], single.trajectory[0][: n + 1])
        # glue times are non-decreasing and tagged with increasing kappa
        kappas = [k for k, _ in glued.glue_events]
        times = [t for _, t in glued.glue_events]
        assert kappas == sorted(kappas) and times == sorted(times)

    def test_schedule_exhausted_raises(self):
        params = ModelParams(a2=0.6, b2=2.0, sigma2=0.2, c1=0.2, c2=0.2)
        with pytest.raises(ScheduleExhausted, match="path 0"):
            simulate_glued(params, SP, NZ, bump(SP), bump(SP), [1.5],
                           T=2.0, dt=2e-3, path_ids=[0], linear_fallback=False)

    def test_linear_fallback_runs_to_T(self):
        params = ModelParams(a2=0.6, b2=2.0, sigma2=0.2, c1=0.2, c2=0.2)
        rec = simulate_glued(params, SP, NZ, bump(SP), bump(SP), [1.5],
                             T=2.0, dt=2e-3, path_ids=[0], linear_fallback=True)[0]
        assert len(rec.glue_events) == 1
        stop = rec.glue_events[0][1]
        past = rec.times > stop
        assert np.all(rec.series["phi"][past] == 0.0)
        assert np.all(np.isfinite(rec.series["u_l2"]))

    def test_batch_matches_single_path_runs(self):
        params = ModelParams(a2=0.4, b2=1.2, sigma2=0.2, c1=0.2, c2=0.2)
        schedule = [1.8, 2.6, 3.4]
        batch = simulate_glued(params, SP, NZ, bump(SP), bump(SP), schedule,
                               T=1.2, dt=2e-3, path_ids=[0, 1, 2, 3])
        assert [r.path_id for r in batch] == [0, 1, 2, 3]
        for rec in batch:
            solo = simulate_glued(params, SP, NZ, bump(SP), bump(SP), schedule,
                                  T=1.2, dt=2e-3, path_ids=[rec.path_id])[0]
            assert rec.glue_events == solo.glue_events
            assert rec.stop_step == solo.stop_step
            for col, values in solo.series.items():
                np.testing.assert_allclose(rec.series[col], values, rtol=1e-12, atol=0)
        # paths cross at different times, so the batch really mixes levels
        assert len({tuple(r.glue_events) for r in batch}) > 1

    def test_nonpositive_levels_rejected(self):
        with pytest.raises(ValidationError, match="kappa must be > 0"):
            simulate_glued(ModelParams(), SP, NZ, bump(SP), bump(SP), [-1.0, 0.0],
                           T=0.01, dt=1e-3, path_ids=[0])
        for kappa in (0.0, math.nan):
            with pytest.raises(ValidationError, match="kappa must be > 0"):
                simulate_ensemble(ModelParams(), SP, NZ, bump(SP), bump(SP), kappa,
                                  T=0.01, dt=1e-3, path_ids=[0])

    def test_exhausted_batch_names_first_path(self):
        params = ModelParams(a2=0.6, b2=2.0, sigma2=0.2, c1=0.2, c2=0.2)
        solo = simulate_glued(params, SP, NZ, bump(SP), bump(SP), [1.5],
                              T=2.0, dt=2e-3, path_ids=[5, 6])
        stops = [r.glue_events[0][1] for r in solo]
        assert stops[0] != stops[1]
        first = solo[int(np.argmin(stops))]
        with pytest.raises(ScheduleExhausted,
                           match=rf"path {first.path_id}: .* at t={min(stops):.6g} "):
            simulate_glued(params, SP, NZ, bump(SP), bump(SP), [1.5],
                           T=2.0, dt=2e-3, path_ids=[5, 6], linear_fallback=False)

    def test_warns_when_first_level_is_reached_at_start(self):
        # v0 = 1 has h(0) = 1 >= kappa_0, so every path glues at t=0
        one = constant_field(1.0, SP)
        with pytest.warns(UserWarning, match=r"h\(0\) >= kappa_0 = 1 on paths \[3, 4\]"):
            recs = simulate_glued(ModelParams(), SP, NZ, one, one, [1.0, 2.0],
                                  T=0.01, dt=1e-3, path_ids=[3, 4])
        assert all(r.glue_events[0] == (1.0, 0.0) for r in recs)

    def test_cli_batch_writes_single_path_events(self, tmp_path):
        doc = {
            "space": {"d": 1, "modes_per_axis": 16, "grid_points_per_axis": 32},
            "model": {"a2": 0.4, "b2": 1.2, "sigma2": 0.2, "c1": 0.2, "c2": 0.2},
            "noise": {"gamma1": 1.0, "gamma2": 0.75, "seed": 99},
            "u0": {"kind": "bump", "value": 1.0, "amplitude": 0.2, "mode": 1},
            "v0": {"kind": "bump", "value": 1.0, "amplitude": 0.2, "mode": 1},
            "kappa_schedule": [1.8, 2.6, 3.4],
            "T": 1.2,
            "dt": 0.002,
        }
        cfg_path = tmp_path / "glue.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["glue", "--config", str(cfg_path), "--paths", "3",
                     "--out", str(out)]) == 0
        rows = (out / "glue_events.csv").read_text().splitlines()
        params = ModelParams(a2=0.4, b2=1.2, sigma2=0.2, c1=0.2, c2=0.2)
        expected = ["path,kappa,stop_time"]
        for pid in range(3):
            solo = simulate_glued(params, SP, NZ, bump(SP), bump(SP), [1.8, 2.6, 3.4],
                                  T=1.2, dt=2e-3, path_ids=[pid])[0]
            expected += [f"{pid},{k:.17g},{t:.17g}" for k, t in solo.glue_events]
        assert rows == expected
        assert len(rows) > 4


@pytest.mark.filterwarnings("ignore::UserWarning")
class TestPathspaceNorm:
    def test_constant_path_closed_form(self):
        params = ModelParams(sigma1=0.0, sigma2=0.0, c1=0.0, c2=0.0,
                             b1=0.0, b2=0.0, a1=0.0, a2=0.0, r1=1e-12, r2=1e-12)
        v0 = mode_field(SP, 1)
        rec = simulate_ensemble(params, SP, NZ, constant_field(0.0, SP), v0, 1e9,
                                T=0.4, dt=1e-3, path_ids=[0], check_gate=False)[0]
        lam1 = get_basis(SP).eigenvalues[1]
        p = params
        for t in (0.1, 0.4):
            expect = (1 + lam1) ** (p.rho / 2) + math.sqrt(t) * (1 + lam1) ** (
                (p.rho + p.aleph / 2) / 2)
            assert pathspace_norm(rec, p.rho, p.aleph, t) == pytest.approx(
                expect, rel=1e-6)

    def test_t_zero_is_sup_only(self):
        rec = simulate_ensemble(ModelParams(), SP, NZ, bump(SP), bump(SP), 1e9,
                                T=0.01, dt=1e-3, path_ids=[0])[0]
        assert pathspace_norm(rec, 0.25, 2.0, 0.0) == pytest.approx(
            sobolev_norm(bump(SP), 0.25))

    def test_nondecreasing_in_t(self):
        rec = simulate_ensemble(ModelParams(), SP, NZ, bump(SP), bump(SP), 1e9,
                                T=0.05, dt=1e-3, path_ids=[0])[0]
        vals = [pathspace_norm(rec, 0.25, 2.0, t) for t in np.linspace(0, 0.05, 11)]
        assert np.all(np.diff(vals) >= -1e-12)

    def test_other_smoothness_needs_trajectory(self):
        rec = simulate_ensemble(ModelParams(), SP, NZ, bump(SP), bump(SP), 1e9,
                                T=0.01, dt=1e-3, path_ids=[0])[0]
        with pytest.raises(ValidationError):
            pathspace_norm(rec, 0.1, 1.5, 0.01)
        rec2 = simulate_ensemble(ModelParams(), SP, NZ, bump(SP), bump(SP), 1e9,
                                 T=0.01, dt=1e-3, path_ids=[0], store_trajectory=True)[0]
        assert pathspace_norm(rec2, 0.1, 1.5, 0.01) > 0

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("aleph", [2.0, 1.5])
    def test_h_is_the_path_norm_series(self, d, aleph):
        space = SP if d == 1 else SpaceConfig(d=2, modes_per_axis=8, grid_points_per_axis=16)
        params = ModelParams(aleph=aleph)
        recs = simulate_ensemble(params, space, NZ, bump(space), bump(space), 1e9,
                                 T=0.05, dt=1e-3, path_ids=range(4), store_trajectory=True)
        for rec in recs:
            h = path_norm_series(space, rec.trajectory[1], params.rho, aleph, 1e-3)
            assert np.array_equal(rec.series["h"], h)

    def test_glued_record_needs_trajectory(self):
        params = ModelParams(a2=0.4, b2=1.2, sigma2=0.2, c1=0.2, c2=0.2)
        rec = simulate_glued(params, SP, NZ, bump(SP), bump(SP), [1.8, 2.6, 3.4],
                             T=1.2, dt=2e-3, path_ids=[0], store_trajectory=True)[0]
        assert rec.glue_events
        with pytest.raises(ValidationError, match="glued record"):
            pathspace_norm(replace(rec, trajectory=None), params.rho, params.aleph, 0.0)
        vals = np.array([pathspace_norm(rec, params.rho, params.aleph, t) for t in rec.times])
        unreset = path_norm_series(SP, rec.trajectory[1], params.rho, params.aleph, 2e-3)
        np.testing.assert_allclose(vals, unreset, rtol=1e-14, atol=0)
        after = rec.times > rec.glue_events[0][1]
        assert after.any() and np.all(vals[after] > rec.series["h"][after])


class TestStratonovichFlag:
    def test_interpretations_differ_and_reproduce(self):
        strat = NoiseConfig(gamma1=1.0, gamma2=0.75, seed=5,
                            interpretation="stratonovich")
        ito = NoiseConfig(gamma1=1.0, gamma2=0.75, seed=5, interpretation="ito")
        rec_s = simulate_ensemble(ModelParams(), SP, strat, bump(SP), bump(SP), 1e9,
                                  0.05, 1e-3, path_ids=[0])[0]
        rec_i = simulate_ensemble(ModelParams(), SP, ito, bump(SP), bump(SP), 1e9,
                                  0.05, 1e-3, path_ids=[0])[0]
        assert not np.array_equal(rec_s.series["u_l2"], rec_i.series["u_l2"])
        rec_s2 = simulate_ensemble(ModelParams(), SP, strat, bump(SP), bump(SP), 1e9,
                                   0.05, 1e-3, path_ids=[0])[0]
        assert np.array_equal(rec_s.series["u_l2"], rec_s2.series["u_l2"])
