import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import full_step, planar_ode

from grayscott.errors import NonFinite, ValidationError
from grayscott.cli import FILE_SERIES, main
from grayscott.estimators import ESTIMATED_COLUMNS
from grayscott.integrate import (
    NORM_COLUMNS,
    MildIntegrator,
    ModelParams,
    draw_steps,
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


def events_of(record, row):
    """The (kappa, t) glue events of one path row of a batch record."""
    return [(kappa, t) for i, kappa, t in record.glue_events if i == row]


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
    return source.increment_block(0, 1, dt, 0)[:, :, 0]


class TestStepMild:
    """One exponential-Euler step of MildIntegrator.step_raw."""

    def test_pure_semigroup_reduction(self):
        params = ModelParams(sigma1=0.0, sigma2=0.0, c1=0.0, c2=0.0,
                             b1=0.0, b2=0.0, a1=-1.0, a2=0.5, aleph=1.5)
        integ = MildIntegrator(params, SP, NZ)
        u, v = mode_field(SP, 5), mode_field(SP, 2)
        state = integ.initial_state(u.coeffs, v.coeffs, 1e9)
        new = integ.step_raw(state, first_increments(NZ, 0.01), 0.01)
        lam = get_basis(SP).eigenvalues
        assert new.u[0, 5] == pytest.approx(math.exp((-lam[5] - 1.0) * 0.01), rel=1e-14)
        assert new.v[0, 2] == pytest.approx(
            math.exp((-lam[2] ** 0.75 + 0.5) * 0.01), rel=1e-14)

    def test_matches_simulate_path_one_step(self):
        params = ModelParams()
        u0, v0 = bump(SP), bump(SP)
        rec = simulate_ensemble(params, SP, NZ, u0, v0, 1e9, T=0.002, dt=0.001,
                                path_ids=[0], store_trajectory=True)
        integ = MildIntegrator(params, SP, NZ)
        state = integ.initial_state(u0.coeffs, v0.coeffs, 1e9)
        new = integ.step_raw(state, first_increments(NZ, 0.001), 0.001)
        assert np.array_equal(new.u[0], rec.trajectory[0, 0, 1])
        assert np.array_equal(new.v[0], rec.trajectory[1, 0, 1])
        assert new.h[0] == pytest.approx(rec.series["h"][0, 1], rel=1e-14)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_detection(self):
        params = ModelParams(a1=500.0, sigma1=0.0, sigma2=0.0)
        dt = 1.0
        with pytest.raises(NonFinite) as err:
            simulate_ensemble(params, SP, NZ, bump(SP), bump(SP), 1e9, T=4.0, dt=dt,
                              path_ids=[0], check_gate=False)
        assert err.value.step is not None
        assert err.value.time == err.value.step * dt

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
                                path_ids=[0], check_gate=False)
        uT, vT = rec.final[:, 0]
        sol = planar_ode(params, 0.5, 0.5, 0.5)
        assert uT[0] == pytest.approx(sol.y[0, -1], rel=2e-3)
        assert vT[0] == pytest.approx(sol.y[1, -1], rel=2e-3)
        # homogeneous up to quadrature round-off of the constant drift
        assert np.max(np.abs(uT[1:])) < 1e-15


class TestTrivialFixedPoints:
    def test_zero_is_absorbing(self):
        params = ModelParams(b1=0.0, b2=0.0)
        z = constant_field(0.0, SP)
        rec = simulate_ensemble(params, SP, NZ, z, z, 1e9, T=0.05, dt=1e-3, path_ids=[0])
        assert rec.series["u_l2"].max() == 0.0
        assert rec.series["v_halpha"].max() == 0.0

    def test_cutoff_saturation_large_kappa(self):
        rec = simulate_ensemble(ModelParams(), SP, NZ, bump(SP), bump(SP), 1e9,
                                T=0.1, dt=1e-3, path_ids=[0])
        assert np.all(rec.series["phi"] == 1.0)
        assert rec.stop_step.tolist() == [-1]


class TestCutoffSemantics:
    def crossing_record(self, kappa, **kwargs):
        params = ModelParams(a2=0.4, b2=1.2, sigma2=0.15, c1=0.2, c2=0.2)
        return simulate_ensemble(params, SP, NZ, bump(SP), bump(SP), kappa,
                                 T=1.2, dt=2e-3, path_ids=[0], check_gate=False, **kwargs)

    def test_phi_regions_and_monotonicity(self):
        rec = self.crossing_record(kappa=2.0)
        h, phi = rec.series["h"][0], rec.series["phi"][0]
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
        n = rec_a.stop_step[0]
        assert 0 < n <= rec_b.stop_step[0]
        assert np.array_equal(rec_a.trajectory[:, 0, : n + 1], rec_b.trajectory[:, 0, : n + 1])


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
                                    path_ids=[0], store_trajectory=True, check_gate=False)
        rec_lin = simulate_ensemble(linear, SP, NZ, u0, v0, kappa, T=0.05, dt=1e-3,
                                    path_ids=[0], store_trajectory=True, check_gate=False)
        assert np.all(rec_cut.series["phi"] == 0.0)
        assert np.array_equal(rec_cut.trajectory, rec_lin.trajectory)


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
        rec = simulate_ensemble(params, SP, NZ, bump(SP), bump(SP), 1e9,
                                0.05, 1e-3, [0, 1, 2])
        solo = simulate_ensemble(params, SP, NZ, bump(SP), bump(SP), 1e9,
                                 0.05, 1e-3, path_ids=[1])
        assert np.allclose(rec.series["u_l2"][1], solo.series["u_l2"][0], rtol=1e-13)

    @pytest.mark.parametrize("d", [1, 2])
    def test_every_sub_batch_replays_every_column(self, d):
        # d=2 is bit-equal; in d=1 the transforms round differently with the batch shape
        space = SpaceConfig() if d == 1 else SpaceConfig(d=2, modes_per_axis=8,
                                                         grid_points_per_axis=16)
        u0, v0 = constant_field(1.0, space), constant_field(1.0, space)
        noise = NoiseConfig(seed=3)
        batch = simulate_ensemble(ModelParams(), space, noise, u0, v0, 1e6, 0.05, 1e-3,
                                  range(200))
        order = np.arange(200)[::-1]
        for sub in [[197]] + [order[i::7] for i in range(7)]:  # every path, in new batches
            rec = simulate_ensemble(ModelParams(), space, noise, u0, v0, 1e6, 0.05, 1e-3, sub)
            assert set(rec.series) == set(NORM_COLUMNS)
            for col in NORM_COLUMNS:
                whole = batch.series[col][rec.path_ids]  # batch row i is path i
                if d == 2:
                    assert np.array_equal(rec.series[col], whole), col
                else:
                    np.testing.assert_allclose(rec.series[col], whole,
                                               rtol=1e-14, atol=0, err_msg=col)

    def test_nonnegativity_small_suite(self):
        params = ModelParams()
        rec = simulate_ensemble(params, SP, NZ, bump(SP), bump(SP), 1e9,
                                0.2, 1e-3, np.arange(10), store_trajectory=True)
        tol = 10 * 1e-3
        assert get_basis(SP).synthesize(rec.trajectory).min() >= -tol


class TestGlueing:
    def test_vacuous_glueing_matches_single(self):
        params = ModelParams()
        glued = simulate_glued(params, SP, NZ, bump(SP), bump(SP), [1e9, 2e9],
                               T=0.1, dt=1e-3, path_ids=[0])
        single = simulate_ensemble(params, SP, NZ, bump(SP), bump(SP), 1e9,
                                   T=0.1, dt=1e-3, path_ids=[0])
        assert glued.glue_events == ()
        for col in ("u_l2", "v_halpha", "h"):
            assert np.array_equal(glued.series[col], single.series[col])

    def test_forced_glue_replays_prefix(self):
        params = ModelParams(a2=0.4, b2=1.2, sigma2=0.2, c1=0.2, c2=0.2)
        schedule = [1.8, 2.6, 3.4]
        glued = simulate_glued(params, SP, NZ, bump(SP), bump(SP), schedule,
                               T=1.2, dt=2e-3, path_ids=[0], store_trajectory=True)
        assert len(glued.glue_events) >= 1
        single = simulate_ensemble(params, SP, NZ, bump(SP), bump(SP), schedule[0],
                                   T=1.2, dt=2e-3, path_ids=[0], store_trajectory=True)
        n = single.stop_step[0]
        assert n >= 0
        assert glued.glue_events[0] == (0, schedule[0], single.times[n])
        assert np.array_equal(glued.trajectory[0, 0, : n + 1], single.trajectory[0, 0, : n + 1])
        # glue times are non-decreasing and tagged with increasing kappa
        kappas = [k for _, k, _ in glued.glue_events]
        times = [t for _, _, t in glued.glue_events]
        assert kappas == sorted(kappas) and times == sorted(times)

    def test_linear_fallback_runs_to_T(self):
        params = ModelParams(a2=0.6, b2=2.0, sigma2=0.2, c1=0.2, c2=0.2)
        rec = simulate_glued(params, SP, NZ, bump(SP), bump(SP), [1.5],
                             T=2.0, dt=2e-3, path_ids=[0])
        assert len(rec.glue_events) == 1
        stop = rec.glue_events[0][2]
        past = rec.times > stop
        assert np.all(rec.series["phi"][0, past] == 0.0)
        assert np.all(np.isfinite(rec.series["u_l2"]))

    def test_batch_matches_single_path_runs(self):
        params = ModelParams(a2=0.4, b2=1.2, sigma2=0.2, c1=0.2, c2=0.2)
        schedule = [1.8, 2.6, 3.4]
        batch = simulate_glued(params, SP, NZ, bump(SP), bump(SP), schedule,
                               T=1.2, dt=2e-3, path_ids=[0, 1, 2, 3])
        assert batch.path_ids.tolist() == [0, 1, 2, 3]
        for i, pid in enumerate(batch.path_ids):
            solo = simulate_glued(params, SP, NZ, bump(SP), bump(SP), schedule,
                                  T=1.2, dt=2e-3, path_ids=[pid])
            assert events_of(batch, i) == events_of(solo, 0)
            assert batch.stop_step[i] == solo.stop_step[0]
            for col, values in solo.series.items():
                np.testing.assert_allclose(batch.series[col][i], values[0], rtol=1e-12, atol=0)
        # paths cross at different times, so the batch really mixes levels
        assert len({tuple(events_of(batch, i)) for i in range(4)}) > 1

    @pytest.mark.parametrize("d", [1, 2])
    def test_glue_replays_across_draw_blocks(self, d):
        # a batch of 16 draws its noise in shorter blocks than one path alone,
        # and its paths glue mid-block; every path replays alone: bit-equal
        # in d=2, within the sub-batch contract's 1e-14 in d=1
        space = SP if d == 1 else SpaceConfig(d=2, modes_per_axis=8, grid_points_per_axis=16)
        params = ModelParams(a2=0.4, b2=1.2, sigma2=0.2, c1=0.2, c2=0.2)
        schedule = [1.8, 2.6, 3.4]
        batch = simulate_glued(params, space, NZ, bump(space), bump(space), schedule,
                               T=0.5, dt=2e-3, path_ids=range(16))
        k_noise = space.total_modes - 1
        block = draw_steps(16, k_noise)
        assert block < draw_steps(1, k_noise)
        glue_steps = {round(t / 2e-3) for _, _, t in batch.glue_events}
        assert any(n % block for n in glue_steps)  # a restart inside a drawn block
        assert len({tuple(events_of(batch, i)) for i in range(16)}) > 1
        for i, pid in enumerate(batch.path_ids):
            solo = simulate_glued(params, space, NZ, bump(space), bump(space), schedule,
                                  T=0.5, dt=2e-3, path_ids=[pid])
            assert events_of(batch, i) == events_of(solo, 0)
            for col, values in solo.series.items():
                if d == 2:
                    assert np.array_equal(batch.series[col][i], values[0]), col
                else:
                    np.testing.assert_allclose(batch.series[col][i], values[0], rtol=1e-14,
                                               atol=0, err_msg=col)

    def test_restart_steps_with_the_new_levels_cutoff(self):
        # h(0) = 1 is past kappa_0 = 0.7, where phi would be < 1, and below
        # kappa_1 = 2: the t=0 restart at kappa_1 steps as a run at kappa_1
        # does (the noise is off, so the new segment does not matter)
        params = ModelParams(sigma1=0.0, sigma2=0.0)
        one = constant_field(1.0, SP)
        assert smooth_cutoff(1.0 / 0.7) < 1.0
        with pytest.warns(UserWarning, match="glue at t=0"):
            glued = simulate_glued(params, SP, NZ, one, one, [0.7, 2.0], T=0.05, dt=1e-3,
                                   path_ids=[0])
        plain = simulate_ensemble(params, SP, NZ, one, one, 2.0, T=0.05, dt=1e-3,
                                  path_ids=[0])
        assert glued.glue_events == ((0, 0.7, 0.0),)
        for col in ("u_l2", "v_halpha", "h"):
            assert np.array_equal(glued.series[col], plain.series[col]), col
        assert np.array_equal(glued.series["phi"][:, 1:], plain.series["phi"][:, 1:])

    def test_nonpositive_levels_rejected(self):
        with pytest.raises(ValidationError, match="kappa_schedule entries must be finite and > 0"):
            simulate_glued(ModelParams(), SP, NZ, bump(SP), bump(SP), [-1.0, 0.0],
                           T=0.01, dt=1e-3, path_ids=[0])
        for kappa in (0.0, math.nan):
            with pytest.raises(ValidationError, match="kappa must be > 0"):
                simulate_ensemble(ModelParams(), SP, NZ, bump(SP), bump(SP), kappa,
                                  T=0.01, dt=1e-3, path_ids=[0])

    @pytest.mark.parametrize("schedule", [[1.8, math.nan], [1.0, math.inf]])
    def test_non_finite_levels_rejected(self, schedule):
        # a NaN after the first level passes a plain b <= a ordering check
        params = ModelParams(a2=0.4, b2=1.2, sigma2=0.2, c1=0.2, c2=0.2)
        with pytest.raises(ValidationError, match=r"kappa_schedule entries must be finite "
                                                  r"and > 0, got \[1\.\d, (nan|inf)\]"):
            simulate_glued(params, SP, NZ, bump(SP), bump(SP), schedule,
                           T=1.2, dt=2e-3, path_ids=[0])

    def test_warns_when_first_level_is_reached_at_start(self):
        # v0 = 1 has h(0) = 1 >= kappa_0, so every path glues at t=0
        one = constant_field(1.0, SP)
        with pytest.warns(UserWarning, match=r"h\(0\) >= kappa_0 = 1 on paths \[3, 4\]"):
            rec = simulate_glued(ModelParams(), SP, NZ, one, one, [1.0, 2.0],
                                 T=0.01, dt=1e-3, path_ids=[3, 4])
        assert all(events_of(rec, i)[0] == (1.0, 0.0) for i in range(2))

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
                                  T=1.2, dt=2e-3, path_ids=[pid])
            expected += [f"{pid},{k:.17g},{t:.17g}" for k, t in events_of(solo, 0)]
        assert rows == expected
        assert len(rows) > 4


class TestGlueProperty:
    """Read from the record alone: between restarts a glued path's h stays
    below its current level, and it restarts at the first step that reaches it."""

    @settings(derandomize=True, database=None, max_examples=20, deadline=None)
    @given(n=st.sampled_from([4, 8]), a2=st.floats(0.0, 0.6), b2=st.floats(0.5, 1.5),
           sigma2=st.floats(0.0, 0.3), c=st.floats(0.0, 0.3), seed=st.integers(0, 2**16),
           first=st.floats(0.5, 2.0), gaps=st.lists(st.floats(0.05, 0.5), max_size=2))
    @pytest.mark.filterwarnings("ignore:h\\(0\\) >= kappa_0")
    def test_h_stays_below_its_level_before_each_restart(self, n, a2, b2, sigma2, c, seed,
                                                         first, gaps):
        space = SpaceConfig(d=1, modes_per_axis=n, grid_points_per_axis=2 * n)
        schedule = np.cumsum([first] + gaps).tolist()
        rec = simulate_glued(ModelParams(a2=a2, b2=b2, sigma2=sigma2, c1=c, c2=c), space,
                             NoiseConfig(gamma1=1.0, gamma2=0.75, seed=seed), bump(space),
                             bump(space), schedule, T=0.4, dt=2e-3, path_ids=[0, 1])
        for i, h in enumerate(rec.series["h"]):
            start = 0
            events = events_of(rec, i)
            for level, (kappa, t) in enumerate(events):
                step = round(t / rec.dt)
                assert kappa == schedule[level]
                assert np.all(h[start:step] < kappa), (i, level)
                assert h[step] >= kappa
                start = step + 1
            if len(events) < len(schedule):  # not yet in the linear fallback
                assert np.all(h[start:] < schedule[len(events)]), i


class TestColumnSets:
    """A run that records fewer norm columns records each of them bit-equal."""

    GLUE_PARAMS = dict(a2=0.4, b2=1.2, sigma2=0.2, c1=0.2, c2=0.2)

    def _runs(self, sp, columns):
        params = ModelParams(**self.GLUE_PARAMS)
        u0, v0 = bump(sp), bump(sp)
        kw = dict(T=0.4, dt=2e-3, path_ids=np.arange(4), columns=columns)
        return (simulate_ensemble(params, sp, NZ, u0, v0, 2.0, check_gate=False, **kw),
                simulate_glued(params, sp, NZ, u0, v0, [1.5, 1.7], **kw))

    @pytest.mark.parametrize("d,n", [(1, 16), (2, 8)])
    def test_subsets_bit_equal_to_full_set(self, d, n):
        sp = SpaceConfig(d=d, modes_per_axis=n, grid_points_per_axis=2 * n)
        full = self._runs(sp, NORM_COLUMNS)
        assert full[1].glue_events  # the glued run restarts paths
        for columns in (FILE_SERIES, ESTIMATED_COLUMNS):
            for rec, rec_full in zip(self._runs(sp, columns), full):
                assert set(rec.series) == set(columns) | {"h", "phi"}
                assert rec.glue_events == rec_full.glue_events
                assert np.array_equal(rec.stop_step, rec_full.stop_step)
                for col, values in rec.series.items():
                    assert np.array_equal(values, rec_full.series[col]), col

    def test_h_and_phi_alone(self):
        rec = simulate_ensemble(ModelParams(), SP, NZ, bump(SP), bump(SP), 1e9,
                                T=0.01, dt=1e-3, path_ids=[0], columns=())
        assert set(rec.series) == {"h", "phi"}

    def test_unknown_column_rejected(self):
        with pytest.raises(ValidationError, match=r"unknown norm column\(s\) \['u_h1'\]"):
            simulate_ensemble(ModelParams(), SP, NZ, bump(SP), bump(SP), 1e9,
                              T=0.01, dt=1e-3, path_ids=[0], columns=("u_l2", "u_h1"))
        with pytest.raises(ValidationError, match=r"unknown norm column\(s\) \['U_L2'\]"):
            simulate_glued(ModelParams(), SP, NZ, bump(SP), bump(SP), [1e9],
                           T=0.01, dt=1e-3, path_ids=[0], columns=("U_L2",))


@pytest.mark.filterwarnings("ignore::UserWarning")
class TestPathspaceNorm:
    def test_constant_path_closed_form(self):
        params = ModelParams(sigma1=0.0, sigma2=0.0, c1=0.0, c2=0.0,
                             b1=0.0, b2=0.0, a1=0.0, a2=0.0, r1=1e-12, r2=1e-12)
        v0 = mode_field(SP, 1)
        rec = simulate_ensemble(params, SP, NZ, constant_field(0.0, SP), v0, 1e9,
                                T=0.4, dt=1e-3, path_ids=[0], check_gate=False)
        lam1 = get_basis(SP).eigenvalues[1]
        p = params
        for t in (0.1, 0.4):
            expect = (1 + lam1) ** (p.rho / 2) + math.sqrt(t) * (1 + lam1) ** (
                (p.rho + p.aleph / 2) / 2)
            assert pathspace_norm(rec, p.rho, p.aleph, t, 0) == pytest.approx(
                expect, rel=1e-6)

    def test_t_zero_is_sup_only(self):
        rec = simulate_ensemble(ModelParams(), SP, NZ, bump(SP), bump(SP), 1e9,
                                T=0.01, dt=1e-3, path_ids=[0])
        assert pathspace_norm(rec, 0.25, 2.0, 0.0, 0) == pytest.approx(
            sobolev_norm(bump(SP), 0.25))

    def test_nondecreasing_in_t(self):
        rec = simulate_ensemble(ModelParams(), SP, NZ, bump(SP), bump(SP), 1e9,
                                T=0.05, dt=1e-3, path_ids=[0])
        vals = [pathspace_norm(rec, 0.25, 2.0, t, 0) for t in np.linspace(0, 0.05, 11)]
        assert np.all(np.diff(vals) >= -1e-12)

    @pytest.mark.parametrize("t", [math.nan, -1e-3, 0.011])
    def test_time_outside_record_rejected(self, t):
        rec = simulate_ensemble(ModelParams(), SP, NZ, bump(SP), bump(SP), 1e9,
                                T=0.01, dt=1e-3, path_ids=[0])
        with pytest.raises(ValidationError, match=r"outside the record range \[0, 0\.01"):
            pathspace_norm(rec, 0.25, 2.0, t, 0)

    def test_other_smoothness_needs_trajectory(self):
        rec = simulate_ensemble(ModelParams(), SP, NZ, bump(SP), bump(SP), 1e9,
                                T=0.01, dt=1e-3, path_ids=[0])
        with pytest.raises(ValidationError):
            pathspace_norm(rec, 0.1, 1.5, 0.01, 0)
        rec2 = simulate_ensemble(ModelParams(), SP, NZ, bump(SP), bump(SP), 1e9,
                                 T=0.01, dt=1e-3, path_ids=[0], store_trajectory=True)
        assert pathspace_norm(rec2, 0.1, 1.5, 0.01, 0) > 0

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("aleph", [2.0, 1.5])
    def test_h_is_the_path_norm_series(self, d, aleph):
        space = SP if d == 1 else SpaceConfig(d=2, modes_per_axis=8, grid_points_per_axis=16)
        params = ModelParams(aleph=aleph)
        rec = simulate_ensemble(params, space, NZ, bump(space), bump(space), 1e9,
                                T=0.05, dt=1e-3, path_ids=range(4), store_trajectory=True)
        for i in range(4):
            h = path_norm_series(space, rec.trajectory[1, i], params.rho, aleph, 1e-3)
            assert np.array_equal(rec.series["h"][i], h)

    def test_glued_record_needs_trajectory(self):
        params = ModelParams(a2=0.4, b2=1.2, sigma2=0.2, c1=0.2, c2=0.2)
        rec = simulate_glued(params, SP, NZ, bump(SP), bump(SP), [1.8, 2.6, 3.4],
                             T=1.2, dt=2e-3, path_ids=[0], store_trajectory=True)
        assert rec.glue_events
        with pytest.raises(ValidationError, match="glued record"):
            pathspace_norm(replace(rec, trajectory=None), params.rho, params.aleph, 0.0, 0)
        vals = np.array([pathspace_norm(rec, params.rho, params.aleph, t, 0)
                         for t in rec.times])
        unreset = path_norm_series(SP, rec.trajectory[1, 0], params.rho, params.aleph, 2e-3)
        np.testing.assert_allclose(vals, unreset, rtol=1e-14, atol=0)
        after = rec.times > rec.glue_events[0][2]
        assert after.any() and np.all(vals[after] > rec.series["h"][0, after])

    def test_every_row_at_once(self):
        # rows 0 and 2 glue before T, row 1 does not: each row keeps its own answer
        params = ModelParams(a2=0.4, b2=1.2, sigma2=0.2, c1=0.2, c2=0.2)
        rec = simulate_glued(params, SP, NZ, bump(SP), bump(SP), [2.0], T=0.21, dt=2e-3,
                             path_ids=[4, 5, 0], store_trajectory=True)
        assert [i for i, _, _ in rec.glue_events] == [0, 2]
        for rho, aleph in ((params.rho, params.aleph), (0.1, 1.5)):
            for t in (0.0, 0.1, 0.21):
                rows = [pathspace_norm(rec, rho, aleph, t, i) for i in range(3)]
                assert np.array_equal(pathspace_norm(rec, rho, aleph, t), rows)
                assert pathspace_norm(rec, rho, aleph, t, -1) == rows[2]
        unglued = rec.series["h"][1, -1]
        assert pathspace_norm(rec, params.rho, params.aleph, 0.21, 1) == unglued
        bare = replace(rec, trajectory=None)
        assert pathspace_norm(bare, params.rho, params.aleph, 0.21, 1) == unglued
        for row in (0, None):
            with pytest.raises(ValidationError, match="glued record"):
                pathspace_norm(bare, params.rho, params.aleph, 0.21, row)


class TestStratonovichFlag:
    def test_interpretations_differ_and_reproduce(self):
        strat = NoiseConfig(gamma1=1.0, gamma2=0.75, seed=5,
                            interpretation="stratonovich")
        ito = NoiseConfig(gamma1=1.0, gamma2=0.75, seed=5, interpretation="ito")
        rec_s = simulate_ensemble(ModelParams(), SP, strat, bump(SP), bump(SP), 1e9,
                                  0.05, 1e-3, path_ids=[0])
        rec_i = simulate_ensemble(ModelParams(), SP, ito, bump(SP), bump(SP), 1e9,
                                  0.05, 1e-3, path_ids=[0])
        assert not np.array_equal(rec_s.series["u_l2"], rec_i.series["u_l2"])
        rec_s2 = simulate_ensemble(ModelParams(), SP, strat, bump(SP), bump(SP), 1e9,
                                   0.05, 1e-3, path_ids=[0])
        assert np.array_equal(rec_s.series["u_l2"], rec_s2.series["u_l2"])


def _refuse(*_args, **_kwargs):
    raise AssertionError("computed a term whose coefficient is zero")


NOISELESS = {"sigma1": 0.0, "sigma2": 0.0}
UNCOUPLED = {"c1": 0.0, "c2": 0.0}
# a run that glues twice and reaches the linear fallback (checked below)
GLUE_PARAMS = {"a2": 0.4, "b2": 1.2, "c1": 0.2, "c2": 0.2, "sigma2": 0.15}
SP_2D = SpaceConfig(d=2, modes_per_axis=8, grid_points_per_axis=16)


class TestZeroCoefficients:
    """A term whose coefficient is exactly zero is not computed, and the
    step does not move a bit for it."""

    def study(self, params, n_paths):
        from grayscott.convergence import strong_order_study

        sp = SpaceConfig(d=1, modes_per_axis=8, grid_points_per_axis=16)
        return strong_order_study(params, sp, NoiseConfig(seed=0), bump(sp, 0.5, 0.1),
                                  bump(sp, 0.5, 0.1), 0.25, [2.0**-5, 2.0**-6],
                                  n_paths=n_paths, ref_refinement=4)

    def glued(self, params):
        rec = simulate_glued(params, SP, NZ, bump(SP), bump(SP), [1.8, 2.5], T=1.2,
                             dt=2e-3, path_ids=[0, 1])
        assert all(len(events_of(rec, i)) == 2 for i in range(2))

    def test_noise_free_drivers_draw_nothing(self, monkeypatch):
        monkeypatch.setattr(WienerSource, "increment_block", _refuse)
        monkeypatch.setattr(MildIntegrator, "g_dw", _refuse)
        params = ModelParams(**{**GLUE_PARAMS, **NOISELESS})
        rec = simulate_ensemble(params, SP, NZ, bump(SP), bump(SP), 1e9, T=0.05, dt=1e-3,
                                path_ids=[0, 1], check_gate=False)
        assert np.array_equal(rec.series["h"][0], rec.series["h"][1])
        self.glued(params)
        assert self.study(params, n_paths=1)["errors"][0] > 0

    def test_uncoupled_drivers_build_no_reaction(self, monkeypatch):
        from grayscott.fixedpoint import apply_V, constant_control

        monkeypatch.setattr(MildIntegrator, "reaction", _refuse)
        monkeypatch.setattr(MildIntegrator, "v_power", _refuse)  # the forcing's factor
        params = ModelParams(**{**GLUE_PARAMS, **UNCOUPLED})
        rec = simulate_ensemble(params, SP, NZ, bump(SP), bump(SP), 1e9, T=0.05, dt=1e-3,
                                path_ids=[0, 1], check_gate=False)
        assert np.all(rec.series["phi"][0] == 1.0)  # still recorded
        self.glued(params)
        assert self.study(params, n_paths=4)["errors"][0] > 0
        control = constant_control(bump(SP), bump(SP), T=0.05, dt=1e-3, n_paths=2)
        out = apply_V(control, MildIntegrator(params, SP, NZ), bump(SP), bump(SP), 1e9, [0, 1])
        assert np.isfinite(out.eta).all() and np.isfinite(out.xi).all()

    def test_uncoupled_step_evaluates_no_cutoff(self, monkeypatch):
        integ = MildIntegrator(ModelParams(**UNCOUPLED), SP, NZ)
        state = integ.initial_state(bump(SP).coeffs, bump(SP).coeffs, [1.0, 2.0])
        monkeypatch.setattr(MildIntegrator, "reaction", _refuse)
        monkeypatch.setattr(MildIntegrator, "phi_of", _refuse)
        dw = WienerSource(NZ, SP, [0, 1]).increment_block(0, 1, 1e-3, 0)[:, :, 0]
        assert np.isfinite(integ.step_raw(state, dw, 1e-3).uv).all()

    @pytest.mark.parametrize("interpretation", ["ito", "stratonovich"])
    @pytest.mark.parametrize("zeros", [NOISELESS, UNCOUPLED, {**NOISELESS, **UNCOUPLED}],
                             ids=["noiseless", "uncoupled", "both"])
    @pytest.mark.parametrize("space", [SP, SP_2D], ids=["d1", "d2"])
    def test_steps_bit_equal_to_the_full_formula(self, space, zeros, interpretation):
        noise = NoiseConfig(gamma1=1.0, gamma2=0.75, seed=99, interpretation=interpretation)
        integ = MildIntegrator(ModelParams(**{**GLUE_PARAMS, **zeros}), space, noise)
        dt, n_steps = 2e-3, 20
        dw = WienerSource(noise, space, [0, 1, 2]).increment_block(0, n_steps, dt, 0)
        start = integ.initial_state(bump(space).coeffs, bump(space, 1.0, 0.4).coeffs, 1.0)
        # kappa puts phi on the transition band; the last path is in the fallback
        kappa = np.full(3, start.h[0] / 1.5)
        start = integ.initial_state(start.u[0], start.v[0], kappa)
        start.fallback[2] = True
        skip = full = start
        for n in range(n_steps):
            skip = integ.step_raw(skip, dw[:, :, n] if integ.noisy else None, dt)
            full = full_step(integ, full, dw[:, :, n], dt)
            assert np.array_equal(skip.uv, full.uv), n
            assert np.array_equal(np.signbit(skip.uv), np.signbit(full.uv)), n
            assert np.array_equal(skip.h, full.h), n
        assert 0.0 < integ.phi_of(skip)[0] < 1.0
