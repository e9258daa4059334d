import json
import math
import re
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    cut_study_states,
    cutoff_step,
    full_step,
    next_norm,
    norm_h,
    per_step_series,
    planar_ode,
    start_norm,
)

from grayscott import noise
from grayscott.cli import FILE_SERIES, main
from grayscott.convergence import strong_order_study
from grayscott.errors import NoConvergence, NonFinite, ValidationError
from grayscott.estimators import ESTIMATED_COLUMNS
from grayscott.fixedpoint import picard_solve
from grayscott.integrate import (
    MAX_PLATEAU_STEPS,
    NORM_COLUMNS,
    MildIntegrator,
    ModelParams,
    _Cutoff,
    _PathNorm,
    draw_steps,
    path_norm_series,
    pathspace_norm,
    record_steps,
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

    @pytest.mark.parametrize("band", [False, True])
    @pytest.mark.parametrize("nan", [False, True])
    def test_phi_of_is_the_cutoff_on_unfallen_paths(self, band, nan):
        integ = MildIntegrator(ModelParams(), SP, NZ)
        state = integ.initial_state(bump(SP).coeffs, bump(SP).coeffs, 3)
        state.fallback[2] = True
        cutoff = _Cutoff(integ, state.v, np.ones(1), False, np.arange(3))
        # h/kappa is 0.5 on every path, or 1/0.7 on path 1; path 2 has fallen back
        cutoff.kappa = cutoff.h[0] * np.array([2.0, 0.7 if band else 2.0, 2.0])
        if nan:  # a NaN h is not on the plateau
            cutoff.h[0] = np.nan
        with np.errstate(invalid="ignore"):
            phi = cutoff.phi(state.fallback)
            full = np.where(state.fallback, 0.0, smooth_cutoff(cutoff.h / cutoff.kappa))
        assert np.array_equal(phi, full, equal_nan=True)
        assert math.isnan(phi[0]) == nan and phi[2] == 0.0 and (phi[1] < 1.0) == band


def first_noise(integ, dt, path_id=0):
    """The colored noise of the first step of path path_id."""
    source = WienerSource(integ.noise, SP, [path_id])
    return integ.colored_noise(source.increment_block(0, 1, dt, 0))[0]


class TestStepMild:
    """One exponential-Euler step of MildIntegrator.step_raw."""

    def test_pure_semigroup_reduction(self):
        params = ModelParams(sigma1=0.0, sigma2=0.0, c1=0.0, c2=0.0,
                             b1=0.0, b2=0.0, a1=-1.0, a2=0.5, aleph=1.5)
        integ = MildIntegrator(params, SP, NZ)
        u, v = mode_field(SP, 5), mode_field(SP, 2)
        state = integ.initial_state(u.coeffs, v.coeffs, 1)
        new, _ = cutoff_step(integ, state, 1e9, start_norm(integ, state.v),
                             first_noise(integ, 0.01), 0.01)
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
        state = integ.initial_state(u0.coeffs, v0.coeffs, 1)
        new, norm = cutoff_step(integ, state, 1e9, start_norm(integ, state.v),
                                first_noise(integ, 0.001), 0.001)
        assert np.array_equal(new.u[0], rec.trajectory[0, 0, 1])
        assert np.array_equal(new.v[0], rec.trajectory[1, 0, 1])
        h = norm_h(norm)
        assert h[0] == pytest.approx(rec.series["h"][0, 1], rel=1e-14)

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


def one_step_g_dw(integ, uv_vals, dw):
    """g_dw of one step's increments dw (2, P, K_noise) as a per-step
    coloring computes it: a fresh zero-padded coefficient array,
    synthesized and analyzed with the step's grid values."""
    colored = np.zeros(dw.shape[:-1] + (integ.space.total_modes,))
    colored[..., 1:1 + integ.k_noise] = integ.coloring * dw
    return integ._per_species(lambda vals, c: integ.analyze(vals * integ.synth(c)),
                              uv_vals, colored)


class TestColoredNoise:
    """A drawn block is colored, and synthesized while it fits
    STACK_BUDGET, once: each step's slice gives the g_dw of a one-step
    block, bit for bit."""

    @pytest.mark.parametrize("d, n, paths, counts, on_grid", [
        (1, 32, 1, (64, 23), True),
        (1, 32, 2, (64, 23), True),
        (2, 8, 4, (32, 7), True),  # 2 * 32 * 4 * 16^2 grid values: the budget itself
        (2, 32, 16, (2, 1), False),  # 131k grid values per step
    ], ids=["d1-P1", "d1-P2", "d2-N8-P4", "d2-N32-P16"])
    def test_block_slices_match_one_step_blocks(self, d, n, paths, counts, on_grid):
        space = SpaceConfig(d=d, modes_per_axis=n, grid_points_per_axis=2 * n)
        integ = MildIntegrator(ModelParams(), space, NZ)
        source = WienerSource(NZ, space, range(paths))
        uv = np.random.default_rng(5).standard_normal((2, paths, space.total_modes))
        vals = integ.synth(uv)
        step0 = 0
        for count in counts:  # a shorter block follows a longer one
            dw = source.increment_block(step0, count, 1e-3, 0)
            block = integ.colored_noise(dw)
            assert block.on_grid == on_grid
            got = [integ.g_dw(vals, block[j]) for j in range(count)]
            for j in range(count):
                one = integ.g_dw(vals, integ.colored_noise(dw[:, :, j:j + 1])[0])
                assert np.array_equal(got[j], one), (count, j)
                assert np.array_equal(got[j], one_step_g_dw(integ, vals, dw[:, :, j]))
            step0 += count

    def test_unnoised_columns_stay_zero(self):
        noise = replace(NZ, mode_cutoff=8)
        space = SpaceConfig(d=1, modes_per_axis=32, grid_points_per_axis=64)
        integ = MildIntegrator(ModelParams(), space, noise)
        vals = integ.synth(np.random.default_rng(5).standard_normal((2, 2, 32)))
        # a longer block, then shorter ones, the last over fewer paths
        for paths, count in ((2, 64), (2, 5), (1, 40)):
            dw = WienerSource(noise, space, range(paths)).increment_block(0, count, 1e-3, 0)
            block = integ.colored_noise(dw)
            assert integ._colored.shape == (256, 32)
            assert not integ._colored[:, 0].any() and not integ._colored[:, 9:].any()
            for j in range(count):
                assert np.array_equal(integ.g_dw(vals[:, :paths], block[j]),
                                      one_step_g_dw(integ, vals[:, :paths], dw[:, :, j]))


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

    @pytest.mark.parametrize("kwargs, needle", [
        ({"dts": []}, "dts must hold at least one step size"),
        ({"dts": [0.05, 0.05]}, "dts must be distinct, got [0.05, 0.05]"),
        ({"n_paths": 0}, "n_paths must be an integer >= 1, got 0"),
        ({"n_paths": -1}, "n_paths must be an integer >= 1, got -1"),
        ({"ref_refinement": 0}, "ref_refinement must be an integer >= 1, got 0"),
        ({"ref_refinement": 2.5}, "ref_refinement must be an integer >= 1, got 2.5"),
        ({"n_paths": True}, "n_paths must be an integer >= 1, got True"),
        ({"ref_refinement": True}, "ref_refinement must be an integer >= 1, got True"),
    ])
    def test_bad_study_arguments_rejected(self, kwargs, needle):
        from grayscott.convergence import strong_order_study

        sp = SpaceConfig(d=1, modes_per_axis=8, grid_points_per_axis=16)
        u0, v0 = bump(sp, 0.5, 0.1), bump(sp, 0.5, 0.1)
        args = {"T": 0.1, "dts": [0.05, 0.025], "n_paths": 2, "ref_refinement": 2, **kwargs}
        with pytest.raises(ValidationError, match=re.escape(needle)):
            strong_order_study(ModelParams(), sp, NoiseConfig(seed=0), u0, v0, **args)

    def test_single_step_size_has_no_order(self):
        from grayscott.convergence import strong_order_study

        sp = SpaceConfig(d=1, modes_per_axis=8, grid_points_per_axis=16)
        u0, v0 = bump(sp, 0.5, 0.1), bump(sp, 0.5, 0.1)
        out = strong_order_study(ModelParams(), sp, NoiseConfig(seed=0), u0, v0, T=0.1,
                                 dts=[0.05], n_paths=2, ref_refinement=2)
        assert out["errors"][0] > 0 and math.isnan(out["order"])


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


class TestSubBatchReplay:
    """Any sub-batch of any small valid run replays its paths: every
    series column, glue event, stopping step and final state, bit-equal in
    d=2 and within 1e-14 relative in d=1, where the transforms round
    differently with the batch shape."""

    @settings(derandomize=True, database=None, max_examples=50, deadline=None)
    @given(data=st.data(), d=st.sampled_from([1, 2]),
           interpretation=st.sampled_from(["ito", "stratonovich"]),
           a2=st.floats(0.0, 0.6), b2=st.floats(0.5, 1.5), sigma2=st.floats(0.0, 0.3),
           c=st.one_of(st.just(0.0), st.floats(0.05, 0.5)), seed=st.integers(0, 2**16),
           n_steps=st.integers(1, 40), levels=st.lists(st.floats(1.001, 1.5), min_size=1,
                                                         max_size=3),
           glued=st.booleans())
    def test_sub_batch_replays_the_batch(self, data, d, interpretation, a2, b2, sigma2, c,
                                         seed, n_steps, levels, glued):
        space = (SpaceConfig(d=1, modes_per_axis=data.draw(st.sampled_from([4, 8]), label="N"))
                 if d == 1 else SpaceConfig(d=2, modes_per_axis=4, grid_points_per_axis=8))
        params = ModelParams(a2=a2, b2=b2, sigma2=sigma2, c1=c, c2=c)
        noise = NoiseConfig(gamma1=1.0, gamma2=0.75, seed=seed, interpretation=interpretation)
        u0, v0 = bump(space), bump(space)
        ids = data.draw(st.lists(st.integers(0, 2**20), min_size=2, max_size=6, unique=True),
                        label="path ids")
        sub = data.draw(st.lists(st.sampled_from(ids), min_size=1, unique=True), label="sub")
        # levels above h(0), as multiples of it: each a factor over the one before
        h0 = path_norm_series(space, v0.coeffs[None], params.rho, params.aleph, 1.0)[0]
        schedule = (h0 * np.cumprod(levels)).tolist()
        dt = 2e-3

        def run(path_ids):
            if glued:
                return simulate_glued(params, space, noise, u0, v0, schedule, n_steps * dt,
                                      dt, path_ids)
            return simulate_ensemble(params, space, noise, u0, v0, schedule[0], n_steps * dt,
                                     dt, path_ids, check_gate=False)

        batch, rec = run(ids), run(sub)
        rows = [ids.index(pid) for pid in sub]
        assert rec.path_ids.tolist() == sub
        assert rec.stop_step.tolist() == batch.stop_step[rows].tolist()
        assert [events_of(rec, i) for i in range(len(sub))] == [events_of(batch, r)
                                                                for r in rows]
        final = batch.final[:, rows]
        if d == 2:
            assert np.array_equal(rec.final, final)
        else:  # relative to each state's size: a coefficient may be at roundoff, 1e-20
            scale = np.abs(final).max(axis=-1, keepdims=True)
            assert (np.abs(rec.final - final) <= 1e-14 * scale).all()
        for col in NORM_COLUMNS:
            got, want = rec.series[col], batch.series[col][rows]
            if d == 2:
                assert np.array_equal(got, want), col
            else:
                np.testing.assert_allclose(got, want, rtol=1e-14, atol=0, err_msg=col)


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
        for row in (3, -4):
            with pytest.raises(ValidationError, match=f"row {row} is out of range for 3 paths"):
                pathspace_norm(rec, params.rho, params.aleph, 0.21, row)


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
        state = integ.initial_state(bump(SP).coeffs, bump(SP).coeffs, 2)
        monkeypatch.setattr(MildIntegrator, "reaction", _refuse)
        monkeypatch.setattr(_Cutoff, "phi", _refuse)
        noise = integ.colored_noise(WienerSource(NZ, SP, [0, 1]).increment_block(0, 1, 1e-3, 0))
        assert np.isfinite(integ.step_raw(state, noise[0], 1e-3, integ.drift(state, None),
                                          integ.synth(state.uv)).uv).all()

    @pytest.mark.parametrize("interpretation", ["ito", "stratonovich"])
    @pytest.mark.parametrize("zeros", [NOISELESS, UNCOUPLED, {**NOISELESS, **UNCOUPLED}],
                             ids=["noiseless", "uncoupled", "both"])
    @pytest.mark.parametrize("space", [SP, SP_2D], ids=["d1", "d2"])
    def test_steps_bit_equal_to_the_full_formula(self, space, zeros, interpretation):
        noise = NoiseConfig(gamma1=1.0, gamma2=0.75, seed=99, interpretation=interpretation)
        integ = MildIntegrator(ModelParams(**{**GLUE_PARAMS, **zeros}), space, noise)
        dt, n_steps = 2e-3, 20
        colored = integ.colored_noise(
            WienerSource(noise, space, [0, 1, 2]).increment_block(0, n_steps, dt, 0))
        start = integ.initial_state(bump(space).coeffs, bump(space, 1.0, 0.4).coeffs, 3)
        # kappa puts phi on the transition band; the last path is in the fallback
        kappa = np.full(3, norm_h(start_norm(integ, start.v))[0] / 1.5)
        start.fallback[2] = True
        skip = full = start
        skip_norm = full_norm = start_norm(integ, start.v)
        cutoff = _Cutoff(integ, start.v, kappa[:1], False, np.arange(3))  # the loop's
        for n in range(n_steps):
            skip, skip_norm = cutoff_step(integ, skip, kappa, skip_norm,
                                          colored[n] if integ.noisy else None, dt)
            cutoff.extend(skip.v[:, None], dt)
            full, full_norm = full_step(integ, full, kappa, full_norm, colored[n], dt)
            assert np.array_equal(skip.uv, full.uv), n
            assert np.array_equal(np.signbit(skip.uv), np.signbit(full.uv)), n
            assert np.array_equal(cutoff.h, norm_h(full_norm)), n
        assert 0.0 < cutoff.phi(skip.fallback)[0] < 1.0

    def test_studies_evaluate_no_cutoff_and_keep_no_path_norm(self, monkeypatch):
        monkeypatch.setattr(_Cutoff, "phi", _refuse)
        monkeypatch.setattr(MildIntegrator, "norm_terms", _refuse)
        assert self.study(ModelParams(**NOISELESS), n_paths=1)["errors"][0] > 0
        assert self.study(ModelParams(**UNCOUPLED), n_paths=4)["errors"][0] > 0

    @pytest.mark.parametrize("interpretation", ["ito", "stratonovich"])
    def test_uncoupled_drift_follows_the_fallback_rows(self, interpretation):
        noise = NoiseConfig(gamma1=1.0, gamma2=0.75, seed=99, interpretation=interpretation)
        integ = MildIntegrator(ModelParams(**{**GLUE_PARAMS, **UNCOUPLED}), SP, noise)
        dt, n_steps = 2e-3, 20
        colored = integ.colored_noise(
            WienerSource(noise, SP, [0, 1, 2]).increment_block(0, n_steps, dt, 0))
        skip = full = integ.initial_state(bump(SP).coeffs, bump(SP, 1.0, 0.4).coeffs, 3)
        skip_norm = full_norm = start_norm(integ, full.v)
        cutoff = _Cutoff(integ, skip.v, np.array([1e9]), False, np.arange(3))  # the loop's
        falls = {6: 2, 13: 0}  # rows fall back at different steps: the pattern changes twice
        patterns = set()
        for n in range(n_steps):
            if n in falls:
                skip.fallback[falls[n]] = full.fallback[falls[n]] = True
            skip, skip_norm = cutoff_step(integ, skip, 1e9, skip_norm, colored[n], dt)
            cutoff.extend(skip.v[:, None], dt)
            full, full_norm = full_step(integ, full, 1e9, full_norm, colored[n], dt)
            assert np.array_equal(skip.uv, full.uv), n
            assert np.array_equal(np.signbit(skip.uv), np.signbit(full.uv)), n
            assert np.array_equal(cutoff.h, norm_h(full_norm)), n
            patterns.add(integ._feed_drift[0])
        if interpretation == "ito":
            assert len(patterns) == 3
            assert not integ._feed_drift[1].flags.writeable
        else:  # the correction reads the state: nothing is kept
            assert patterns == {None}


class TestStudyStep:
    """The convergence study steps the uncut system with no path norm, bit
    for bit as step_raw steps the cutoff system at level 1e12."""

    @pytest.mark.parametrize("n_paths", [1, 3])
    @pytest.mark.parametrize("interpretation", ["ito", "stratonovich"])
    @pytest.mark.parametrize("zeros", [NOISELESS, UNCOUPLED, {}],
                             ids=["noiseless", "uncoupled", "none"])
    @pytest.mark.parametrize("space", [SpaceConfig(d=1, modes_per_axis=8,
                                                   grid_points_per_axis=16), SP_2D],
                             ids=["d1-N8", "d2-N8"])
    def test_matches_the_cut_step_raw_study(self, monkeypatch, space, zeros, interpretation,
                                            n_paths):
        from grayscott import convergence

        params = ModelParams(**{"a2": 0.4, "c1": 0.5, "c2": 0.5, **zeros})
        noise = NoiseConfig(gamma1=1.0, gamma2=0.75, seed=99, interpretation=interpretation)
        u0, v0 = bump(space, 0.5, 0.1), bump(space, 0.5, 0.3)
        args = (params, space, noise, u0, v0, 0.25, [2.0**-5, 2.0**-6, 2.0**-7])
        seen = []
        error = convergence._state_error
        monkeypatch.setattr(convergence, "_state_error",
                            lambda a, b: seen.append((a, b)) or error(a, b))
        out = convergence.strong_order_study(*args, n_paths=n_paths, ref_refinement=4)
        ref, *levels = cut_study_states(*args, n_paths=n_paths, ref_refinement=4)
        assert out["errors"] == [float(np.sqrt(np.mean(error(st, ref) ** 2)))
                                 for st in levels]
        assert len(seen) == len(levels)
        for got, want in zip([seen[0][1]] + [a for a, _ in seen], [ref] + levels):
            assert np.array_equal(got.uv, want.uv)
            assert np.array_equal(np.signbit(got.uv), np.signbit(want.uv))


class TestUncutStep:
    """At any level kappa at or above a path's running max of h the cutoff
    is exactly 1, so the cut step is the study's uncut one, bit for bit."""

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(space=st.sampled_from([SpaceConfig(d=1, modes_per_axis=8, grid_points_per_axis=16),
                                  SP_2D]),
           interpretation=st.sampled_from(["ito", "stratonovich"]),
           coupling=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1),
           above=st.lists(st.floats(1.0, 1e6), min_size=3, max_size=3))
    def test_uncut_step_is_the_cut_step_at_levels_above_h(self, space, interpretation,
                                                          coupling, seed, above):
        params = ModelParams(a2=0.4, c1=coupling, c2=coupling)
        noise = NoiseConfig(gamma1=1.0, gamma2=0.75, seed=seed, interpretation=interpretation)
        integ = MildIntegrator(params, space, noise)
        dt, n_steps = 2e-3, 8
        colored = integ.colored_noise(
            WienerSource(noise, space, [0, 1, 2]).increment_block(0, n_steps, dt, 0))
        start = integ.initial_state(bump(space, 0.5, 0.1).coeffs,
                                    bump(space, 0.5, 0.3).coeffs, 3)

        def uncut_step(state, noise):  # as the study steps: the uncut reaction's drift
            vals = integ.synth(state.uv)
            react = vals[0] * integ.v_power(vals[1])
            return integ.step_raw(state, noise, dt, integ.drift(state, react), vals)

        uncut, norm = [start], start_norm(integ, start.v)
        h_max = norm_h(norm)
        for n in range(n_steps - 1):  # the last step's phi reads h up to step n_steps - 1
            uncut.append(uncut_step(uncut[-1], colored[n]))
            norm = next_norm(integ, norm, uncut[-1].v, dt)
            h_max = np.maximum(h_max, norm_h(norm))
        uncut.append(uncut_step(uncut[-1], colored[n_steps - 1]))
        kappa = h_max * np.array(above)
        cut, cut_norm = start, start_norm(integ, start.v)
        for n in range(n_steps):
            cut, cut_norm = cutoff_step(integ, cut, kappa, cut_norm, colored[n], dt)
            assert np.array_equal(cut.uv, uncut[n + 1].uv), n
            assert np.array_equal(np.signbit(cut.uv), np.signbit(uncut[n + 1].uv)), n


class TestOneStepMap:
    """Every driver advances its paths by MildIntegrator.step_raw, and the
    batch state carries no path norm and no cutoff level: only the cutoff
    loop keeps them."""

    def test_every_driver_steps_through_step_raw(self, monkeypatch):
        from grayscott.convergence import strong_order_study
        from grayscott.fixedpoint import apply_V, constant_control, picard_solve
        from grayscott.integrate import step_count

        calls = []
        step = MildIntegrator.step_raw

        def counted(integ, state, *args):
            calls.append(state.step)
            return step(integ, state, *args)

        monkeypatch.setattr(MildIntegrator, "step_raw", counted)
        params, dt, n_steps = ModelParams(**GLUE_PARAMS), 1e-3, 150
        simulate_ensemble(params, SP, NZ, bump(SP), bump(SP), 1e9, T=n_steps * dt, dt=dt,
                          path_ids=[0, 1], check_gate=False)
        assert calls == list(range(n_steps))
        calls.clear()
        rec = simulate_glued(params, SP, NZ, bump(SP), bump(SP), [1.3, 1.5], T=n_steps * dt,
                             dt=dt, path_ids=[0, 1])
        # a restart inside a plateau block rolls it back: the steps after it
        # are taken again, each from the state the last call before it made
        taken = []
        for n in calls:
            del taken[n:]
            taken.append(n)
        assert rec.glue_events and taken == list(range(n_steps))
        calls.clear()
        control = constant_control(bump(SP), bump(SP), T=n_steps * dt, dt=dt, n_paths=2)
        apply_V(control, MildIntegrator(params, SP, NZ), bump(SP), bump(SP), 1.0, [0, 1])
        assert calls == list(range(n_steps))
        calls.clear()
        res = picard_solve(params, SP, NZ, bump(SP), bump(SP), 1e9, path_ids=[0], T=0.05, dt=dt)
        assert calls == list(range(50)) * res["iterates"][0]
        calls.clear()
        sp = SpaceConfig(d=1, modes_per_axis=8, grid_points_per_axis=16)
        dts = [2.0**-5, 2.0**-6]
        strong_order_study(params, sp, NZ, bump(sp, 0.5, 0.1), bump(sp, 0.5, 0.1), 0.25, dts,
                           n_paths=2, ref_refinement=4)
        assert len(calls) == sum(step_count(0.25, dt) for dt in [min(dts) / 4] + dts)

    def test_batch_state_has_no_path_norm(self):
        from dataclasses import fields

        from grayscott.integrate import _BatchState

        names = {f.name for f in fields(_BatchState)} | set(dir(_BatchState))
        assert not names & {"sup", "intg", "last_diss_sq", "h", "kappa", "level"}


class TestPathIds:
    """Every run entry point checks its path ids in one place."""

    @pytest.mark.parametrize("ids, needle", [
        ([], "non-empty and 1-D"),
        ([[0, 1]], "non-empty and 1-D"),
        ([0.7], "whole numbers"),
        ([2**63], "within int64"),
        ([2**64 - 1], "within int64"),
        ([1e19], "within int64"),
        (np.array([2**63], dtype=np.uint64), "within int64"),
        (["3"], r"int or float numbers, got \['3'\]"),
        (["a"], r"int or float numbers, got \['a'\]"),
        ([None], r"int or float numbers, got \[None\]"),
        ([True, False], r"int or float numbers, got \[True, False\]"),
    ], ids=["empty", "2-D", "fraction", "2**63", "2**64-1", "1e19", "uint64-2**63", "str-digit",
            "str", "None", "bool"])
    @pytest.mark.parametrize("entry", ["simulate_ensemble", "simulate_glued", "apply_V",
                                       "picard_solve", "WienerSource"])
    def test_bad_path_ids_raise(self, entry, ids, needle):
        from grayscott.fixedpoint import apply_V, constant_control, picard_solve

        params, T, dt = ModelParams(), 0.01, 1e-3
        runs = {
            "simulate_ensemble": lambda: simulate_ensemble(
                params, SP, NZ, bump(SP), bump(SP), 1e9, T, dt, ids, check_gate=False),
            "simulate_glued": lambda: simulate_glued(
                params, SP, NZ, bump(SP), bump(SP), [1e9], T, dt, ids),
            "apply_V": lambda: apply_V(
                constant_control(bump(SP), bump(SP), T, dt, np.size(ids)),
                MildIntegrator(params, SP, NZ), bump(SP), bump(SP), 1e9, ids),
            "picard_solve": lambda: picard_solve(
                params, SP, NZ, bump(SP), bump(SP), 1e9, ids, T, dt),
            "WienerSource": lambda: WienerSource(NZ, SP, ids),
        }
        with pytest.raises(ValidationError, match=f"path_ids must be .*{needle}"):
            runs[entry]()


class TestFieldSpace:
    """Every run entry point rejects initial data or a control on another
    space than the run's."""

    @pytest.mark.parametrize("other", [
        SpaceConfig(d=1, modes_per_axis=8, grid_points_per_axis=16),
        SpaceConfig(d=2, modes_per_axis=4, grid_points_per_axis=8),  # 16 modes, as SP
    ], ids=["d1-N8", "d2-N4"])
    @pytest.mark.parametrize("entry, field", [
        (entry, field)
        for entry in ("simulate_ensemble", "simulate_glued", "strong_order_study", "apply_V",
                      "picard_solve")
        for field in ("u0", "v0")] + [("apply_V", "control")])
    def test_field_on_another_space_raises(self, entry, field, other):
        from grayscott.convergence import strong_order_study
        from grayscott.fixedpoint import apply_V, constant_control, picard_solve

        params, T, dt = ModelParams(), 0.01, 1e-3
        f = {"u0": bump(SP), "v0": bump(SP), "control": constant_control(bump(SP), bump(SP),
                                                                        T, dt, 1)}
        f[field] = (constant_control(bump(other), bump(other), T, dt, 1)
                    if field == "control" else bump(other))
        u0, v0 = f["u0"], f["v0"]
        runs = {
            "simulate_ensemble": lambda: simulate_ensemble(
                params, SP, NZ, u0, v0, 1e9, T, dt, [0], check_gate=False),
            "simulate_glued": lambda: simulate_glued(params, SP, NZ, u0, v0, [1e9], T, dt, [0]),
            "strong_order_study": lambda: strong_order_study(
                params, SP, NZ, u0, v0, T, [5e-3], n_paths=1, ref_refinement=2),
            "apply_V": lambda: apply_V(f["control"], MildIntegrator(params, SP, NZ), u0, v0,
                                       1e9, [0]),
            "picard_solve": lambda: picard_solve(params, SP, NZ, u0, v0, 1e9, [0], T, dt),
        }
        want = f"{field} is on {other} ({other.total_modes} modes), the run on {SP} (16 modes)"
        with pytest.raises(ValidationError, match=re.escape(want)):
            runs[entry]()


class TestBlockRecord:
    """The time loop writes h and phi at every step and the state-only
    columns once per recording block, bit for bit as a per-step record."""

    @pytest.mark.parametrize("glue", [False, True], ids=["ensemble", "glued"])
    @pytest.mark.parametrize("space, paths", [(SP, 16), (SP_2D, 4)], ids=["d1", "d2"])
    def test_columns_match_the_per_step_record(self, space, paths, glue):
        params = ModelParams(**GLUE_PARAMS)
        integ = MildIntegrator(params, space, NZ)
        n_steps, dt = 150, 2e-3
        block = record_steps(paths, integ.grid_m**space.d)
        assert (n_steps + 1) % block and n_steps + 1 > 2 * block  # 16 or 8 steps a block
        u0, v0 = bump(space), bump(space)
        levels = [1.3, 1.5] if glue else [1.0]  # h(0) is past 1.0: phi starts on its band
        if glue:
            rec = simulate_glued(params, space, NZ, u0, v0, levels, T=n_steps * dt, dt=dt,
                                 path_ids=range(paths))
            assert any(round(t / dt) % block for _, _, t in rec.glue_events)
            assert any(len(events_of(rec, i)) == len(levels) for i in range(paths))
        else:
            rec = simulate_ensemble(params, space, NZ, u0, v0, levels[0], T=n_steps * dt,
                                    dt=dt, path_ids=range(paths), check_gate=False)
            assert np.any(rec.series["phi"] < 1.0)
        want = per_step_series(integ, u0.coeffs, v0.coeffs, levels, n_steps, dt,
                               np.arange(paths), glue)
        for col in NORM_COLUMNS:
            assert np.array_equal(rec.series[col], want[col]), col

    def _record_calls(self, monkeypatch) -> list:
        calls = []
        record = MildIntegrator.record_norms

        def counted(integ, uv, out, n0, uv_vals):
            calls.append((n0, uv.shape[0], uv.flags.owndata or uv_vals.flags.owndata))
            return record(integ, uv, out, n0, uv_vals)

        monkeypatch.setattr(MildIntegrator, "record_norms", counted)
        return calls

    @pytest.mark.parametrize("space, paths, n_steps, block", [
        (SP, 16, 150, 16),  # 2 * 16 * 32 grid values a step
        (SpaceConfig(d=2, modes_per_axis=32, grid_points_per_axis=64), 9, 3, 1),  # 73,728
    ], ids=["d1-blocks", "d2-past-budget"])
    def test_one_record_call_per_block(self, monkeypatch, space, paths, n_steps, block):
        calls = self._record_calls(monkeypatch)
        simulate_ensemble(ModelParams(), space, NZ, bump(space), bump(space), 1e9,
                          T=n_steps * 1e-3, dt=1e-3, path_ids=range(paths), check_gate=False)
        assert [n0 for n0, _, _ in calls] == list(range(0, n_steps + 1, block))
        assert sum(count for _, count, _ in calls) == n_steps + 1
        if block == 1:  # a step past RECORD_BUDGET is recorded from views of its arrays
            assert not any(copied for _, _, copied in calls)

    def test_nonfinite_mid_block_names_its_step(self, monkeypatch):
        bad, dt = 100, 1e-3  # inside the recording block of steps 96..111
        draw = WienerSource.increment_block

        def poisoned(source, step0, count, dt_, segment):
            dw = draw(source, step0, count, dt_, segment)
            if step0 <= bad < step0 + count:
                dw[:, 0, bad - step0] = np.nan
            return dw

        monkeypatch.setattr(WienerSource, "increment_block", poisoned)
        calls = self._record_calls(monkeypatch)
        with pytest.raises(NonFinite) as err:
            simulate_ensemble(ModelParams(), SP, NZ, bump(SP), bump(SP), 1e9, T=0.15, dt=dt,
                              path_ids=range(16), check_gate=False)
        assert (err.value.step, err.value.time) == (bad + 1, (bad + 1) * dt)
        assert [n0 for n0, _, _ in calls] == [0, 16, 32, 48, 64, 80]


def _counted_steps(monkeypatch) -> list:
    """The step of each state that step_raw is called on, in call order."""
    calls = []
    step = MildIntegrator.step_raw

    def counted(integ, state, *args):
        calls.append(state.step)
        return step(integ, state, *args)

    monkeypatch.setattr(MildIntegrator, "step_raw", counted)
    return calls


def _retaken(calls: list) -> set:
    """The steps a rolled-back block takes again from."""
    return {n for last, n in zip(calls, calls[1:]) if n <= last}


class TestPlateauBlocks:
    """The cutoff loop steps whole blocks while every path is on the
    plateau, and rolls a block back to its first state off it: bit for bit
    the per-step record of tests/oracles.py."""

    @pytest.mark.parametrize("space", [SP, SP_2D], ids=["d1", "d2"])
    def test_glue_and_redraw_inside_a_block(self, monkeypatch, space):
        params = ModelParams(**GLUE_PARAMS)
        integ = MildIntegrator(params, space, NZ)
        n_steps, dt, levels = 150, 2e-3, [1.3, 1.5]
        calls = _counted_steps(monkeypatch)
        rec = simulate_glued(params, space, NZ, bump(space), bump(space), levels,
                             T=n_steps * dt, dt=dt, path_ids=[0, 1])
        drawn = draw_steps(2, space.total_modes - 1)
        glue_steps = {round(t / dt) for _, _, t in rec.glue_events}
        # a block rolled back to a restart whose new segment is redrawn mid-block
        assert any(n % drawn for n in glue_steps & _retaken(calls))
        want = per_step_series(integ, bump(space).coeffs, bump(space).coeffs, levels, n_steps,
                               dt, np.arange(2), True)
        for col in NORM_COLUMNS:
            assert np.array_equal(rec.series[col], want[col]), col

    def test_unglued_run_leaves_the_plateau_inside_a_block(self, monkeypatch):
        # the first block, of MAX_PLATEAU_STEPS states, leaves it at state 10
        params = ModelParams(**GLUE_PARAMS)
        integ = MildIntegrator(params, SP, NZ)
        n_steps, dt, left = 60, 1e-3, 10
        free = simulate_ensemble(params, SP, NZ, bump(SP), bump(SP), 1e9, T=n_steps * dt,
                                 dt=dt, path_ids=[0], check_gate=False)
        kappa = (free.series["h"][0, left - 1] + free.series["h"][0, left]) / 2
        calls = _counted_steps(monkeypatch)
        rec = simulate_ensemble(params, SP, NZ, bump(SP), bump(SP), kappa, T=n_steps * dt,
                                dt=dt, path_ids=[0], check_gate=False)
        assert left in _retaken(calls) and np.any(rec.series["phi"] < 1.0)
        want = per_step_series(integ, bump(SP).coeffs, bump(SP).coeffs, [kappa], n_steps, dt,
                               np.arange(1), False)
        for col in NORM_COLUMNS:
            assert np.array_equal(rec.series[col], want[col]), col

    def test_glue_at_exactly_its_level_inside_a_block(self):
        # a level equal to the path norm at step 37: the path reaches it there
        params = ModelParams(**GLUE_PARAMS)
        integ = MildIntegrator(params, SP, NZ)
        n_steps, dt, at = 60, 1e-3, 37
        assert at % MAX_PLATEAU_STEPS not in (0, MAX_PLATEAU_STEPS - 1)
        free = simulate_ensemble(params, SP, NZ, bump(SP), bump(SP), 1e9, T=n_steps * dt,
                                 dt=dt, path_ids=[0], check_gate=False)
        levels = [free.series["h"][0, at], 1e9]
        rec = simulate_glued(params, SP, NZ, bump(SP), bump(SP), levels, T=n_steps * dt,
                             dt=dt, path_ids=[0])
        assert rec.glue_events == ((0, levels[0], at * dt),)
        want = per_step_series(integ, bump(SP).coeffs, bump(SP).coeffs, levels, n_steps, dt,
                               np.arange(1), True)
        for col in NORM_COLUMNS:
            assert np.array_equal(rec.series[col], want[col]), col

    def test_rollback_before_the_next_drawn_noise_block(self, monkeypatch):
        # 16 paths draw 34 steps of noise a block.  Draws 50x the size at step
        # 32 make h jump at state 33, past a level the block from state 32 was
        # not expected to reach: it has drawn the next noise block at step 34
        # when it is rolled back to state 33, whose step reads the block before
        params = ModelParams(**GLUE_PARAMS)
        integ = MildIntegrator(params, SP, NZ)
        n_steps, dt, paths = 60, 1e-3, 16
        assert draw_steps(paths, SP.total_modes - 1) == 34 and MAX_PLATEAU_STEPS == 32
        draw = WienerSource.increment_block

        def jump(source, step0, count, dt_, segment):
            dw = draw(source, step0, count, dt_, segment)
            if step0 <= 32 < step0 + count:
                dw[:, :, 32 - step0] *= 50.0
            return dw

        monkeypatch.setattr(WienerSource, "increment_block", jump)
        free = simulate_ensemble(params, SP, NZ, bump(SP), bump(SP), 1e9, T=n_steps * dt,
                                 dt=dt, path_ids=range(paths), check_gate=False)
        kappa = (free.series["h"][:, 32].max() + free.series["h"][:, 33].max()) / 2
        calls = _counted_steps(monkeypatch)
        rec = simulate_ensemble(params, SP, NZ, bump(SP), bump(SP), kappa, T=n_steps * dt,
                                dt=dt, path_ids=range(paths), check_gate=False)
        assert 34 in calls[:calls.index(33, 34)] and 33 in _retaken(calls)
        want = per_step_series(integ, bump(SP).coeffs, bump(SP).coeffs, [kappa], n_steps, dt,
                               np.arange(paths), False)
        for col in NORM_COLUMNS:
            assert np.array_equal(rec.series[col], want[col]), col

    def _poison(self, monkeypatch, steps, segment=None):
        """NaN draws at the given steps, in segment ``segment`` or in every one."""
        draw = WienerSource.increment_block

        def poisoned(source, step0, count, dt_, seg):
            dw = draw(source, step0, count, dt_, seg)
            rows = np.ones(dw.shape[1], bool) if segment is None else seg == segment
            for n in steps:
                if step0 <= n < step0 + count:
                    dw[:, rows, n - step0] = np.nan
            return dw

        monkeypatch.setattr(WienerSource, "increment_block", poisoned)

    def test_nonfinite_inside_a_block_names_the_per_step_step(self, monkeypatch):
        params, dt, bad = ModelParams(), 1e-3, 20  # step 20 is inside the block of states 17..32
        integ = MildIntegrator(params, SP, NZ)
        self._poison(monkeypatch, [bad])
        calls = _counted_steps(monkeypatch)
        with pytest.raises(NonFinite) as err:
            simulate_ensemble(params, SP, NZ, bump(SP), bump(SP), 1e9, T=0.05, dt=dt,
                              path_ids=[0], check_gate=False)
        assert calls.count(bad) == 2  # ended its block, then raised when taken again
        with pytest.raises(NonFinite) as oracle:
            per_step_series(integ, bump(SP).coeffs, bump(SP).coeffs, [1e9], 50, dt,
                            np.arange(1), False)
        assert (err.value.step, err.value.time) == (oracle.value.step, oracle.value.time)
        assert (err.value.step, err.value.time) == (bad + 1, (bad + 1) * dt)

    def test_nonfinite_after_a_restart_inside_a_block_is_rolled_back(self, monkeypatch):
        # the path reaches its first level at state 10, inside the first block
        params = ModelParams(**GLUE_PARAMS)
        integ = MildIntegrator(params, SP, NZ)
        n_steps, dt, glue = 60, 1e-3, 10
        free = simulate_ensemble(params, SP, NZ, bump(SP), bump(SP), 1e9, T=n_steps * dt,
                                 dt=dt, path_ids=[0], check_gate=False)
        levels = [(free.series["h"][0, glue - 1] + free.series["h"][0, glue]) / 2, 1e9]
        clean = simulate_glued(params, SP, NZ, bump(SP), bump(SP), levels, T=n_steps * dt,
                               dt=dt, path_ids=[0])
        assert clean.glue_events == ((0, levels[0], glue * dt),)
        # the draws of the step after the restart, in the old segment only: the
        # block takes it before it sees the restart, and drops it
        self._poison(monkeypatch, [glue + 1], segment=0)
        calls = _counted_steps(monkeypatch)
        rec = simulate_glued(params, SP, NZ, bump(SP), bump(SP), levels, T=n_steps * dt,
                             dt=dt, path_ids=[0])
        assert glue + 1 in calls[:calls.index(glue, glue + 1)] and glue in _retaken(calls)
        assert rec.glue_events == clean.glue_events
        want = per_step_series(integ, bump(SP).coeffs, bump(SP).coeffs, levels, n_steps, dt,
                               np.arange(1), True)
        for col in NORM_COLUMNS:
            assert np.array_equal(rec.series[col], want[col]), col
            assert np.array_equal(rec.series[col], clean.series[col]), col


class TestPathNormKernel:
    """One kernel keeps the running path norm: extended over any split of a
    series, with blocks rolled back and rows restarted, it has the bits of
    the whole-series call on each row's states since its last restart."""

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(data=st.data(), paths=st.integers(1, 3), n=st.integers(1, 40),
           per_step_dt=st.booleans())
    def test_block_splits_match_the_whole_series(self, data, paths, n, per_step_dt):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        v = rng.normal(size=(paths, n + 1, SP.total_modes)) * rng.uniform(0.1, 10.0)
        dt = rng.uniform(1e-4, 1e-2, n) if per_step_dt else 2e-3
        steps_dt = (lambda a, b: dt[a:b]) if per_step_dt else (lambda a, b: dt)
        cuts = sorted(data.draw(st.sets(st.integers(2, n + 1), max_size=6), label="cuts") | {n + 1})
        params = ModelParams()
        norm = _PathNorm(MildIntegrator(params, SP, NZ).norm_terms, v[:, 0])
        got, restarts = [norm.h[:, None]], [[0] for _ in range(paths)]
        for a, b in zip([1] + cuts, cuts):  # states a..b-1, and some after them rolled back
            more = data.draw(st.integers(0, n + 1 - b), label="rolled back")
            h = norm.extend(v[:, a:b + more], steps_dt(a - 1, b - 1 + more))
            norm.keep(b - a)
            got.append(h[:, :b - a])
            rows = np.array(data.draw(st.lists(st.booleans(), min_size=paths, max_size=paths),
                                      label="restarted"))
            norm.restart(rows, v[:, b - 1])  # h at b - 1 was taken before the restart
            for i in np.flatnonzero(rows):
                restarts[i].append(b - 1)
        got = np.concatenate(got, axis=1)
        for i in range(paths):
            want = [path_norm_series(SP, v[i, :1], params.rho, params.aleph, dt)]
            for r, e in zip(restarts[i], restarts[i][1:] + [n]):
                want.append(path_norm_series(SP, v[i, r:e + 1], params.rho, params.aleph,
                                             steps_dt(r, e))[1:])
            assert np.array_equal(got[i], np.concatenate(want)), (i, restarts[i])


def _draw_threads(monkeypatch) -> list[str]:
    """The name of the thread of each noise draw, in draw order."""
    names = []
    keyed = noise._keyed_normals

    def spy(*args):
        names.append(threading.current_thread().name)
        return keyed(*args)

    monkeypatch.setattr(noise, "_keyed_normals", spy)
    return names


def _no_draw_ahead(monkeypatch):
    """Every source a bare one: opening it starts no worker."""
    monkeypatch.setattr(WienerSource, "__enter__", lambda source: source)
    monkeypatch.setattr(WienerSource, "__exit__", lambda source, *exc: None)


class TestDrawAhead:
    """The drivers open their source, which draws the next noise block on
    its worker thread: bit for bit the run drawn in the caller's thread,
    and no worker outlives the run, however it ends."""

    WIDE = range(560)  # 560 paths x 15 modes: every block is drawn ahead
    MAIN = threading.main_thread().name

    def _both(self, monkeypatch, run):
        """run() drawing ahead, then with every source bare."""
        names = _draw_threads(monkeypatch)
        entry = threading.active_count()
        ahead = run()
        assert threading.active_count() == entry
        assert any(n != self.MAIN for n in names)  # some blocks came from the worker
        assert names.count(self.MAIN) > 1  # and some requests missed them
        with pytest.MonkeyPatch.context() as mp:
            _no_draw_ahead(mp)
            return ahead, run()

    def test_glued_run_with_restarts(self, monkeypatch):
        params = ModelParams(**GLUE_PARAMS)

        def run():
            return simulate_glued(params, SP, NZ, bump(SP), bump(SP), [1.3, 1.5], T=0.1,
                                  dt=2e-3, path_ids=self.WIDE)

        ahead, bare = self._both(monkeypatch, run)
        assert ahead.glue_events and ahead.glue_events == bare.glue_events
        assert np.array_equal(ahead.final, bare.final)
        for col in NORM_COLUMNS:
            assert np.array_equal(ahead.series[col], bare.series[col]), col

    def test_picard_solve_at_depth_one(self, monkeypatch):
        # each sweep restarts at step 0, and misses the block drawn past its end
        params = ModelParams(c1=0.2, c2=0.2)

        def run():
            return picard_solve(params, SP, NZ, bump(SP), bump(SP), 1e9, self.WIDE, T=0.02,
                                dt=1e-3, tol=1e-6)

        ahead, bare = self._both(monkeypatch, run)
        assert ahead["iterates"] == bare["iterates"] and ahead["residuals"] == bare["residuals"]
        for name in ("eta", "xi"):
            assert np.array_equal(getattr(ahead["fixed_point"], name),
                                  getattr(bare["fixed_point"], name))

    def test_no_worker_outlives_a_run(self, monkeypatch):
        names = _draw_threads(monkeypatch)
        entry = threading.active_count()
        simulate_ensemble(ModelParams(), SP, NZ, bump(SP), bump(SP), 1e9, T=0.01, dt=1e-3,
                          path_ids=self.WIDE, check_gate=False)
        assert threading.active_count() == entry
        strong_order_study(ModelParams(c1=0.0, c2=0.0), SP, NZ, bump(SP), bump(SP), 0.016,
                           [0.004, 0.002], n_paths=560, ref_refinement=2)
        assert threading.active_count() == entry
        assert any(n != self.MAIN for n in names)

    def test_no_worker_outlives_a_nonfinite_run(self, monkeypatch):
        draw = WienerSource.increment_block

        def poisoned(source, step0, count, dt_, seg):
            dw = draw(source, step0, count, dt_, seg)
            if step0 <= 5 < step0 + count:
                dw[:, 0, 5 - step0] = np.nan
            return dw

        monkeypatch.setattr(WienerSource, "increment_block", poisoned)
        entry = threading.active_count()
        with pytest.raises(NonFinite):
            simulate_ensemble(ModelParams(), SP, NZ, bump(SP), bump(SP), 1e9, T=0.02,
                              dt=1e-3, path_ids=self.WIDE, check_gate=False)
        assert threading.active_count() == entry
        with pytest.raises(NonFinite):
            picard_solve(ModelParams(c1=0.2, c2=0.2), SP, NZ, bump(SP), bump(SP), 1e9,
                         self.WIDE, T=0.02, dt=1e-3)
        assert threading.active_count() == entry

    def test_no_worker_outlives_a_solve_without_convergence(self):
        entry = threading.active_count()
        with pytest.raises(NoConvergence):
            picard_solve(ModelParams(c1=0.2, c2=0.2), SP, NZ, bump(SP), bump(SP), 1e9,
                         self.WIDE, T=0.02, dt=1e-3, tol=1e-300, max_iter=2)
        assert threading.active_count() == entry
