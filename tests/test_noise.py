import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import counter_normals

from grayscott.errors import ValidationError
from grayscott.integrate import MildIntegrator, ModelParams
from grayscott.noise import (
    NoiseConfig,
    WienerSource,
    aggregate_increments,
    coloring_weights,
    hilbert_schmidt_sum,
    hs_tail_sum,
    squared_eigenfunction_sum,
)
from grayscott.spectral import SpaceConfig, SpectralField, constant_field, get_basis, mode_field

SP = SpaceConfig(d=1, boundary="neumann", modes_per_axis=16, grid_points_per_axis=32)
CFG = NoiseConfig(gamma1=1.0, gamma2=0.75, seed=123)


def step_increments(config, step, dt, path_id, segment=0):
    source = WienerSource(config, SP, [path_id])
    return tuple(source.increment_block(step, 1, dt, segment)[:, 0, 0])


class TestSampling:
    def test_determinism(self):
        a1, a2 = step_increments(CFG, 4, 0.001, path_id=7)
        b1, b2 = step_increments(CFG, 4, 0.001, path_id=7)
        assert np.array_equal(a1, b1)
        assert np.array_equal(a2, b2)
        assert a1.shape == (15,)

    def test_distinct_keys_differ(self):
        base, _ = step_increments(CFG, 0, 0.001, path_id=0)
        other_path, _ = step_increments(CFG, 0, 0.001, path_id=1)
        other_step, _ = step_increments(CFG, 1, 0.001, path_id=0)
        other_seed, _ = step_increments(
            NoiseConfig(gamma1=1.0, gamma2=0.75, seed=124), 0, 0.001, 0)
        for arr in (other_path, other_step, other_seed):
            assert not np.array_equal(base, arr)

    def test_sample_mean_clt_band(self):
        dt = 0.01
        source = WienerSource(CFG, SP, np.arange(2000))
        block = source.increment_block(0, 50, dt, 0)[0]  # 1e5 draws per mode
        mean = block.reshape(-1, block.shape[-1]).mean(axis=0)
        band = 3.0 * math.sqrt(dt / 1e5)
        assert np.all(np.abs(mean) < band)
        var = block.reshape(-1, block.shape[-1]).var(axis=0)
        assert np.all(np.abs(var - dt) < 5.0 * dt * math.sqrt(2.0 / 1e5))

    def test_process_independence(self):
        dt = 0.01
        source = WienerSource(CFG, SP, np.arange(2000))
        b1, b2 = source.increment_block(0, 50, dt, 0).reshape(2, -1, 15)
        cov = (b1 * b2).mean(axis=0)
        assert np.all(np.abs(cov) < 3.0 * dt / math.sqrt(1e5))

    def test_refinement_tree_aggregation(self):
        source = WienerSource(CFG, SP, [0, 1, 2])
        fine = source.increment_block(0, 16, 0.001, 0)[0]
        coarse = aggregate_increments(fine, 4)
        assert coarse.shape == (3, 4, 15)
        assert np.array_equal(coarse[:, 0], fine[:, :4].sum(axis=1))
        halved = aggregate_increments(fine, 2)
        again = aggregate_increments(halved, 2)
        # re-association of the same children; equal up to round-off
        assert np.max(np.abs(again - coarse)) < 1e-15
        # summed pairs carry the coarse variance
        var = halved.var()
        assert abs(var - 0.002) < 5 * 0.002 * math.sqrt(2.0 / halved.size)

    def test_segments_are_fresh_streams(self):
        a, _ = step_increments(CFG, 3, 0.01, path_id=5, segment=0)
        b, _ = step_increments(CFG, 3, 0.01, path_id=5, segment=1)
        assert not np.array_equal(a, b)


class TestNoiseAddress:
    def test_per_path_segments_equal_stacked_scalar_segments(self):
        paths = np.array([0, 3, 7, 12])
        segments = np.array([0, 2, 1, 4])
        steps = np.arange(5, 12)
        for process in (1, 2):
            mixed = counter_normals(9, paths, process, segments, steps, 15)
            stacked = np.concatenate([
                counter_normals(9, paths[i:i + 1], process, int(segments[i]), steps, 15)
                for i in range(paths.size)
            ])
            assert np.array_equal(mixed, stacked)
        # a uniform segment array is the scalar segment
        assert np.array_equal(counter_normals(9, paths, 1, np.full(4, 2), steps, 15),
                              counter_normals(9, paths, 1, 2, steps, 15))
        source = WienerSource(CFG, SP, paths)
        block = source.increment_block(3, 2, 0.01, segments)[1]
        for i, pid in enumerate(paths):
            solo = WienerSource(CFG, SP, [pid])
            assert np.array_equal(block[i],
                                  solo.increment_block(3, 2, 0.01, int(segments[i]))[1, 0])

    def test_source_rekeys_when_segment_changes(self):
        paths = np.array([1, 5, 8, 13])
        source = WienerSource(CFG, SP, paths)
        source.increment_block(0, 2, 0.01, 0)
        segment = np.array([0, 1, 0, 2])  # a glue restart of paths 5 and 13
        for step0 in (2, 5):
            block = source.increment_block(step0, 3, 0.01, segment)
            for process in (1, 2):
                fresh = counter_normals(CFG.seed, paths, process, segment,
                                        np.arange(step0, step0 + 3), 15)
                assert np.array_equal(block[process - 1], np.sqrt(0.01) * fresh)
            new = WienerSource(CFG, SP, paths)
            assert np.array_equal(block, new.increment_block(step0, 3, 0.01, segment.copy()))
            segment[0] = 4  # an in-place change is a new segment too

    def test_cutoff_beyond_usable_modes_rejected(self):
        # the source and the integrator size the noise from the same rule
        sp = SpaceConfig(d=1, modes_per_axis=8, grid_points_per_axis=16)
        noise = NoiseConfig(mode_cutoff=40)
        for build in (lambda: WienerSource(noise, sp, [0, 1]),
                      lambda: MildIntegrator(ModelParams(), sp, noise)):
            with pytest.raises(ValidationError, match="mode_cutoff 40 exceeds the 7 usable"):
                build()

    def test_block_slices_equal_single_steps(self):
        source = WienerSource(CFG, SP, [0, 4, 9])
        block = source.increment_block(6, 10, 0.002, 1)
        for k in range(10):
            one = source.increment_block(6 + k, 1, 0.002, 1)
            assert np.array_equal(block[:, :, k], one[:, :, 0])

    @pytest.mark.parametrize("step0, dt, count, segment, needle", [
        (0, math.nan, 1, 0, "dt must be > 0, got nan"),
        (0, 0.0, 1, 0, "dt must be > 0, got 0.0"),
        (0, 0.01, -1, 0, "count must be >= 1, got -1"),
        (0, 0.01, 0, 0, "count must be >= 1, got 0"),
        (-3, 0.01, 1, 0, "step0 must be >= 0, got -3"),
        (0, 0.01, 1, -1, "segment must be >= 0, got -1"),
        (0, 0.01, 1, np.array([0, -1]), r"segment must be >= 0, got \[ 0 -1\]"),
        (0, 0.01, 1, np.zeros(3, dtype=np.int64),
         r"segment must be one value or one per path \(2\), got shape \(3,\)"),
    ], ids=["nan-1-dt must be > 0, got nan", "0.0-1-dt must be > 0, got 0.0",
            "0.01--1-count must be >= 1, got -1", "0.01-0-count must be >= 1, got 0",
            "negative step0", "negative segment", "negative segment in array",
            "segment per path of another batch"])
    def test_bad_block_rejected(self, step0, dt, count, segment, needle):
        source = WienerSource(CFG, SP, [0, 1])
        with pytest.raises(ValidationError, match=needle):
            source.increment_block(step0, count, dt, segment)


class TestBlockedDraws:
    """The time loop draws the noise of several steps per call; these are
    the properties that make that bit-equal to one-step draws."""

    PATHS = np.array([1, 5, 8, 13])

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(step0=st.integers(0, 2**40),
           cuts=st.lists(st.integers(1, 9), min_size=1, max_size=6),
           segment=st.integers(0, 5))
    def test_any_split_equals_one_block(self, step0, cuts, segment):
        source = WienerSource(CFG, SP, self.PATHS)
        whole = source.increment_block(step0, sum(cuts), 0.01, segment)
        parts, step = [], step0
        for count in cuts:
            parts.append(source.increment_block(step, count, 0.01, segment))
            step += count
        assert np.array_equal(np.concatenate(parts, axis=2), whole)

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(step0=st.integers(0, 10**6), block=st.integers(2, 64), data=st.data())
    def test_redraw_after_segment_change_mid_block(self, step0, block, data):
        source = WienerSource(CFG, SP, self.PATHS)
        segment = np.zeros(4, dtype=np.int64)
        ahead = source.increment_block(step0, block, 0.01, segment)
        k = data.draw(st.integers(1, block - 1), label="glue step in the block")
        glued = np.array(data.draw(st.lists(st.booleans(), min_size=4, max_size=4),
                                   label="rows that glue"))
        segment = segment + glued
        rest = source.increment_block(step0 + k, block - k, 0.01, segment)
        fresh = WienerSource(CFG, SP, self.PATHS)
        assert np.array_equal(rest, fresh.increment_block(step0 + k, block - k, 0.01, segment))
        # the other rows keep theirs
        assert np.array_equal(rest[:, ~glued], ahead[:, ~glued, k:])

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(data=st.data(), step0=st.integers(0, 2**40), count=st.integers(1, 9))
    def test_sub_batch_and_permutation_keep_rows(self, data, step0, count):
        # Picard drops converged paths from its batch: the rows that remain,
        # in any order, must draw what they drew in the full batch
        whole = WienerSource(CFG, SP, self.PATHS).increment_block(step0, count, 0.01, 0)
        rows = data.draw(st.permutations(range(self.PATHS.size)), label="row order")
        rows = rows[:data.draw(st.integers(1, self.PATHS.size), label="rows kept")]
        sub = WienerSource(CFG, SP, self.PATHS[rows]).increment_block(step0, count, 0.01, 0)
        assert np.array_equal(sub, whole[:, rows])


def integrator(gamma1=1.0, sigma1=0.1, interpretation="ito"):
    noise = NoiseConfig(gamma1=gamma1, gamma2=0.75, seed=123, interpretation=interpretation)
    return MildIntegrator(ModelParams(sigma1=sigma1), SP, noise)


class TestMultiplicationOperator:
    """g_gamma(u)[h] as MildIntegrator.g_dw, on the scheme's product grid."""

    def g(self, u, h, gamma):
        # process 1 is row 0 of the stacked (species, path) arrays
        integ = integrator(gamma1=gamma)
        vals = integ.synth(np.stack([u.coeffs, u.coeffs])[:, None])
        return integ.g_dw(vals, np.stack([h, h])[:, None])[0, 0]

    def test_single_mode_on_constant(self):
        h = np.zeros(15)
        h[2] = 1.0  # noise mode 2 is eigen index 3
        out = self.g(constant_field(1.0, SP), h, gamma=1.5)
        assert out[3] == pytest.approx((9 * math.pi**2) ** -0.75, rel=1e-12)
        mask = np.arange(16) != 3
        assert np.max(np.abs(out[mask])) < 1e-14

    def test_zero_h_gives_zero(self):
        out = self.g(mode_field(SP, 2), np.zeros(15), gamma=1.0)
        assert np.all(out == 0.0)

    def test_trig_product_identity(self):
        h = np.zeros(15)
        h[0] = 1.0  # eigen index 1
        out = self.g(mode_field(SP, 1), h, gamma=1.0)
        lam1 = math.pi**2
        assert out[0] == pytest.approx(lam1**-0.5, rel=1e-12)
        assert out[2] == pytest.approx(lam1**-0.5 / math.sqrt(2), rel=1e-12)

    def test_noise_term_linearity(self):
        # the step's noise term sigma * g(u)[dW] vanishes at sigma = 0 and
        # is linear in sigma
        dw1, dw2 = step_increments(CFG, 0, 0.01, path_id=0)
        u = constant_field(1.0, SP)
        new = {}
        for sigma in (0.0, 0.5, 1.0):
            integ = MildIntegrator(ModelParams(sigma1=sigma, sigma2=0.0), SP, CFG)
            state = integ.initial_state(u.coeffs, u.coeffs, 1e9)
            dw = np.stack([dw1, dw2])[:, None]
            new[sigma] = integ.step_raw(state, dw, 0.01).u[0]
            if sigma == 0.0:
                quiet = integ.step_raw(state, 0 * dw, 0.01).u[0]
                assert np.array_equal(new[0.0], quiet)
        half, one = new[0.5] - new[0.0], new[1.0] - new[0.0]
        assert np.max(np.abs(one)) > 1e-3
        assert np.allclose(2.0 * half, one, rtol=1e-14)


class TestStratonovichCorrection:
    """The Stratonovich-to-Ito drift as added by MildIntegrator.to_ito."""

    def correction(self, u, gamma, sigma, interpretation="stratonovich"):
        integ = integrator(gamma1=gamma, sigma1=sigma, interpretation=interpretation)
        vals = integ.synth(np.stack([u.coeffs, u.coeffs])[:, None])
        drift = integ.to_ito(np.zeros(vals.shape), vals)
        return integ.analyze(drift[0, 0])  # process 1

    def test_ito_mode_is_zero(self):
        out = self.correction(constant_field(1.0, SP), 1.0, 0.5, interpretation="ito")
        assert np.all(out == 0.0)

    def test_direct_summation_on_constant(self):
        # oracle: (sigma^2/2) sum_k lambda_k^-gamma 2 cos^2(k pi x), projected
        sigma, gamma = 0.6, 1.2
        out = self.correction(constant_field(1.0, SP), gamma, sigma)
        basis = get_basis(SP)
        m = SP.dealias_points(1.0)
        x = basis.plan(m).nodes
        direct = np.zeros_like(x)
        for k in range(1, 16):
            lam = (math.pi * k) ** 2
            direct += lam**-gamma * 2.0 * np.cos(k * math.pi * x) ** 2
        direct *= 0.5 * sigma**2
        assert np.allclose(out, basis.analyze(direct, m), atol=1e-13)

    def test_linearity_in_u(self):
        rng = np.random.default_rng(2)
        u = SpectralField(rng.standard_normal(16), SP)
        u2 = SpectralField(2.0 * u.coeffs, SP)
        one = self.correction(u, 1.0, 0.3)
        two = self.correction(u2, 1.0, 0.3)
        assert np.allclose(2.0 * one, two, rtol=1e-13)


class TestBurkholderSanity:
    def g_matrix(self, space, u_coeffs, gamma, k_noise):
        """Rows: coefficients of the projected product u * colored mode."""
        basis = get_basis(space)
        w = coloring_weights(space, gamma, k_noise)
        m = space.dealias_points(1.0)
        eye = np.eye(w.size, space.total_modes, 1)
        prods = basis.analyze(
            basis.synthesize(u_coeffs, m)[None, ...] * basis.synthesize(eye, m), m
        )
        return w[:, None] * prods

    def test_sup_of_martingale_bounded_and_stable(self):
        # frozen u makes the integral a linear image of the Brownian path,
        # so sup_s |int g dW|^2 is computable per path in one matmul
        sp = SpaceConfig(d=1, modes_per_axis=64, grid_points_per_axis=128)
        u = constant_field(1.0, sp)
        u.coeffs[1] = 0.5
        t, n_steps, n_paths = 0.1, 20, 10_000
        cfg = NoiseConfig(gamma1=1.0, gamma2=0.75, seed=77)
        fitted = {}
        for k_noise in (31, 62):
            source = WienerSource(
                NoiseConfig(gamma1=1.0, gamma2=0.75, seed=77, mode_cutoff=k_noise),
                sp, np.arange(n_paths))
            inc = source.increment_block(0, n_steps, t / n_steps, 0)[0]
            w_path = np.cumsum(inc, axis=1)
            g = self.g_matrix(sp, u.coeffs, cfg.gamma1, k_noise)
            mart = w_path @ g
            lhs = float(np.mean(np.max(np.sum(mart**2, axis=-1), axis=-1)))
            rhs = t * hilbert_schmidt_sum(u, cfg.gamma1, k_noise)
            c = lhs / rhs
            assert math.isfinite(lhs)
            assert 1.0 <= c <= 4.0 + 0.2  # Doob gives 4 for the square
            fitted[k_noise] = c
        assert abs(fitted[62] - fitted[31]) / fitted[31] < 0.1


class TestTraceClassDiagnostics:
    def test_tail_sum_verdicts(self):
        assert hs_tail_sum(0.3 + 0.5 + 0.5, 0.3, SP)["converged"] is True
        assert hs_tail_sum(0.3 + 0.5 - 0.25, 0.3, SP)["converged"] is False

    def test_zeta_four(self):
        out = hs_tail_sum(2.0, 0.0, SP, n_terms=10_000)
        assert out["value"] == pytest.approx(math.pi**4 / 90.0, abs=1e-6)
        assert out["converged"] is True

    def test_mode_cutoff_stability(self):
        sp = SpaceConfig(d=1, modes_per_axis=64, grid_points_per_axis=128)
        u = constant_field(1.0, sp)
        u.coeffs[1] = 0.4
        half = hilbert_schmidt_sum(u, gamma=1.0, k_noise=31)
        full = hilbert_schmidt_sum(u, gamma=1.0, k_noise=62)
        assert abs(full - half) / full < 0.05

    def test_squared_sum_matches_weights(self):
        vals = squared_eigenfunction_sum(SP, 1.0, None, 32)
        basis = get_basis(SP)
        total = basis.quadrature(vals, 32)
        w = coloring_weights(SP, 1.0, None)
        assert total == pytest.approx(float(np.sum(w**2)), rel=1e-12)
