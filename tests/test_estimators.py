import math
from dataclasses import replace

import numpy as np
import pytest

from oracles import linear_second_moment, planar_ode_with_coupling_integral

from grayscott.errors import ValidationError
from grayscott.estimators import (
    ESTIMATED_COLUMNS,
    estimate_coupling,
    estimate_u_L2,
    estimate_u_pstar,
    estimate_v_Halpha,
    reduce_mean,
    stroock_varopoulos_check,
    trace_diagnostic,
)
from grayscott.integrate import BatchRecord, ModelParams, simulate_ensemble
from grayscott.noise import NoiseConfig
from grayscott.spectral import SpaceConfig, SpectralField, constant_field, get_basis

SP = SpaceConfig(d=1, modes_per_axis=16, grid_points_per_axis=32)
NZ = NoiseConfig(gamma1=1.0, gamma2=0.75, seed=17)


def bump(space=SP, base=1.0, amp=0.2):
    f = constant_field(base, space)
    f.coeffs[1] = amp
    return f


def frozen_record(n_paths, T, n_steps, u_coeffs, v_coeffs, params, space=SP):
    """Hand-built record of n_paths paths frozen in time on [0, T]."""
    basis = get_basis(space)
    lam = basis.eigenvalues
    m = space.dealias_points(max(params.q, 1.0))
    u_vals = basis.synthesize(u_coeffs, m)
    v_vals = basis.synthesize(v_coeffs, m)
    grad = basis.synthesize_gradient(u_coeffs, m)
    grad_term = float(basis.quadrature(
        np.abs(u_vals) ** (params.p_star - 2.0) * np.sum(grad**2, axis=0), m))
    couple = float(basis.quadrature(
        np.maximum(u_vals, 0.0) ** params.p_star * np.maximum(v_vals, 0.0) ** params.q, m))
    wa = (1 + lam) ** params.alpha
    wad = (1 + lam) ** (params.alpha + params.aleph / 2)
    values = {
        "u_l2": float(np.linalg.norm(u_coeffs)),
        "u_lpstar": float(basis.quadrature(np.abs(u_vals) ** params.p_star, m)
                          ** (1 / params.p_star)),
        "v_halpha": float(np.sqrt(np.sum(wa * v_coeffs**2))),
        "v_halpha_diss": float(np.sqrt(np.sum(wad * v_coeffs**2))),
        "h": 0.0,
        "phi": 1.0,
        "u_grad_p": grad_term,
        "couple": couple,
    }
    series = {c: np.full((n_paths, n_steps + 1), x) for c, x in values.items()}
    final = np.stack([np.tile(c, (n_paths, 1)) for c in (u_coeffs, v_coeffs)])
    return BatchRecord(np.arange(n_paths), T / n_steps, series, np.full(n_paths, -1), (),
                       u_coeffs, v_coeffs, final, None, params, space)


def first_paths(record, m):
    """The record of the batch's first m paths."""
    return replace(record, path_ids=record.path_ids[:m], stop_step=record.stop_step[:m],
                   series={c: s[:m] for c, s in record.series.items()},
                   final=record.final[:, :m])


class TestReduceMean:
    def test_ci_definition(self):
        vals = [1.0, 2.0, 3.0, 4.0]
        rep = reduce_mean("x", vals)
        assert rep.estimate == 2.5
        assert rep.ci_halfwidth == pytest.approx(
            1.96 * np.std(vals, ddof=1) / 2.0)

    def test_needs_two_paths(self):
        with pytest.raises(ValidationError):
            reduce_mean("x", [1.0])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        vals = rng.standard_normal(257)
        a = reduce_mean("x", vals)
        b = reduce_mean("x", rng.permutation(vals))
        assert a.estimate == b.estimate
        assert a.ci_halfwidth == b.ci_halfwidth


class TestMomentEstimators:
    def test_deterministic_paths_zero_ci(self):
        params = ModelParams(sigma1=0.0, sigma2=0.0)
        recs = simulate_ensemble(params, SP, NZ, bump(), bump(), 1e9,
                                 0.05, 1e-3, [0, 1, 2])
        rep = estimate_u_L2(recs)
        assert rep.ci_halfwidth == 0.0

    def test_zero_solution_estimates_zero(self):
        params = ModelParams(b1=0.0, b2=0.0, c1=1.0)
        z = constant_field(0.0, SP)
        recs = simulate_ensemble(params, SP, NZ, z, z, 1e9, 0.05, 1e-3, [0, 1])
        assert estimate_u_L2(recs).estimate == 0.0
        assert estimate_coupling(recs).estimate == 0.0

    def test_linear_moment_recursion_oracle(self):
        # explicit linear update admits an exact covariance recursion
        sp = SpaceConfig(d=1, modes_per_axis=8, grid_points_per_axis=16)
        params = ModelParams(a1=-0.5, b1=0.0, b2=0.0, c1=0.0, c2=0.0,
                             sigma1=0.4, sigma2=0.0)
        nz = NoiseConfig(gamma1=1.0, gamma2=0.75, seed=8)
        u0 = bump(sp, base=1.0, amp=0.3)
        v0 = constant_field(0.0, sp)
        dt, n_steps, n_paths = 2e-3, 40, 10_000
        rec = simulate_ensemble(params, sp, nz, u0, v0, 1e9, n_steps * dt, dt,
                                np.arange(n_paths))
        expected = linear_second_moment(sp, params, nz.gamma1, None,
                                        u0.coeffs, dt, n_steps)
        for n in (10, 25, 40):
            samples = rec.series["u_l2"][:, n] ** 2
            mean = samples.mean()
            hw = 1.96 * samples.std(ddof=1) / math.sqrt(n_paths)
            assert abs(mean - expected[n]) < max(3 * hw, 1e-12), f"step {n}"

    def test_sup_estimate_dominates_fixed_time(self):
        params = ModelParams(a1=-0.5, c1=0.0, c2=0.0, b1=0.0, b2=0.0,
                             sigma1=0.3, sigma2=0.0)
        recs = simulate_ensemble(params, SP, NZ, bump(), constant_field(0.0, SP),
                                 1e9, 0.05, 1e-3, np.arange(64))
        rep = estimate_u_L2(recs, u0_l2_sq=bump().l2_norm() ** 2)
        assert rep.estimate >= bump().l2_norm() ** 2 - 1e-12
        assert rep.extras["fitted_C"] > 0

    def test_pstar_constant_field_zero_gradient(self):
        params = ModelParams()
        rec = frozen_record(3, 1.0, 10, constant_field(2.0, SP).coeffs,
                            constant_field(1.0, SP).coeffs, params)
        out = estimate_u_pstar(rec)
        assert out["gradient"].estimate == 0.0
        assert out["sup"].estimate == pytest.approx(2.0**params.p_star, rel=1e-12)

    def test_pstar_two_reduces_to_l2_quantity(self):
        params = ModelParams(p_star=2.0)
        u = bump()
        rec = frozen_record(2, 0.5, 5, u.coeffs, u.coeffs, params)
        out = estimate_u_pstar(rec)
        l2 = estimate_u_L2(rec)
        assert out["sup"].estimate == pytest.approx(l2.estimate, rel=1e-10)

    def test_pstar_single_mode_gradient_oracle(self):
        # frozen u = eps phi_1, p* = 2: integral term is T eps^2 lambda_1
        eps, T = 0.25, 0.8
        params = ModelParams(p_star=2.0)
        coeffs = np.zeros(SP.total_modes)
        coeffs[1] = eps
        out = estimate_u_pstar(frozen_record(2, T, 16, coeffs, coeffs, params))
        lam1 = get_basis(SP).eigenvalues[1]
        assert out["gradient"].estimate == pytest.approx(T * eps**2 * lam1, rel=1e-12)

    def test_v_halpha_frozen_closed_form(self):
        params = ModelParams()
        T = 0.6
        coeffs = np.zeros(SP.total_modes)
        coeffs[1] = 1.0
        out = estimate_v_Halpha(frozen_record(2, T, 12, coeffs, coeffs, params))
        lam1 = get_basis(SP).eigenvalues[1]
        assert out["sup"].estimate == pytest.approx((1 + lam1) ** params.alpha,
                                                    rel=1e-12)
        assert out["dissipation"].estimate == pytest.approx(
            T * (1 + lam1) ** (params.alpha + params.aleph / 2), rel=1e-12)

    def test_coupling_zero_when_v_zero(self):
        params = ModelParams(b2=0.0, c1=0.0, c2=0.0)
        recs = simulate_ensemble(params, SP, NZ, bump(), constant_field(0.0, SP),
                                 1e9, 0.05, 1e-3, [0, 1])
        assert estimate_coupling(recs).estimate == 0.0

    def test_coupling_matches_ode_oracle(self):
        params = ModelParams(sigma1=0.0, sigma2=0.0, a1=-0.5, a2=-0.4,
                             b1=0.3, b2=0.3, c1=0.5, c2=0.5, q=2.0)
        u0 = constant_field(0.5, SP)
        v0 = constant_field(0.5, SP)
        recs = simulate_ensemble(params, SP, NZ, u0, v0, 1e9, 0.5, 5e-4, [0, 1],
                                 check_gate=False)
        got = estimate_coupling(recs).estimate
        *_, acc = planar_ode_with_coupling_integral(params, 0.5, 0.5, 0.5,
                                                    params.p_star)
        assert got == pytest.approx(acc, rel=1e-3)

    def test_coupling_jensen_gap(self):
        params = ModelParams()
        recs = simulate_ensemble(params, SP, NZ, bump(), bump(), 1e9,
                                 0.05, 1e-3, np.arange(32))
        linear = estimate_coupling(recs, m=1)
        squared = estimate_coupling(recs, m=2)
        assert squared.estimate > linear.estimate**2

    def test_ci_shrinks_like_sqrt_m(self):
        params = ModelParams(c1=0.0, c2=0.0, b1=0.0, b2=0.0, a1=-0.3,
                             sigma1=0.4, sigma2=0.2)
        sp = SpaceConfig(d=1, modes_per_axis=8, grid_points_per_axis=16)
        recs = simulate_ensemble(params, sp, NZ, bump(sp), bump(sp), 1e9,
                                 0.02, 1e-3, np.arange(10_000))
        scaled = []
        for m in (100, 1000, 10_000):
            rep = estimate_u_L2(first_paths(recs, m))
            scaled.append(rep.ci_halfwidth * math.sqrt(m))
        base = scaled[-1]
        for s in scaled:
            assert abs(s - base) / base < 0.2

    @pytest.mark.parametrize("estimate,column", [
        (estimate_u_L2, "u_l2"),
        (estimate_u_pstar, "u_lpstar"),
        (estimate_u_pstar, "u_grad_p"),
        (estimate_v_Halpha, "v_halpha"),
        (estimate_v_Halpha, "v_halpha_diss"),
        (estimate_coupling, "couple"),
    ])
    def test_missing_column_named(self, estimate, column):
        columns = [c for c in ESTIMATED_COLUMNS if c != column]
        recs = simulate_ensemble(ModelParams(), SP, NZ, bump(), bump(), 1e9, 0.01, 1e-3,
                                 [0, 1], columns=columns)
        with pytest.raises(ValidationError, match=rf"lack the norm column\(s\) \['{column}'\]; "
                                                  "simulate with columns"):
            estimate(recs)


class TestBoundednessSweep:
    def test_subexponential_growth_in_horizon(self):
        sp = SpaceConfig(d=1, modes_per_axis=16, grid_points_per_axis=32)
        params = ModelParams()
        horizons = (0.25, 0.5, 1.0)
        quantities = {"q1": [], "q2": [], "q3": []}
        for T in horizons:
            recs = simulate_ensemble(params, sp, NZ, bump(sp), bump(sp), 1e9,
                                     T, 2e-3, np.arange(100))
            ps = params.p_star
            u2 = estimate_u_pstar(recs)
            v2 = estimate_v_Halpha(recs)
            quantities["q1"].append(estimate_u_L2(recs).estimate)
            quantities["q2"].append(
                u2["sup"].estimate + ps * (ps - 1) * u2["gradient"].estimate)
            quantities["q3"].append(
                v2["sup"].estimate + 2.0 * v2["dissipation"].estimate)
        for name, vals in quantities.items():
            assert all(math.isfinite(v) and v > 0 for v in vals), name
            # fit exp envelope on the first doubling, check the second
            rate = max(math.log(vals[1] / vals[0]), 0.0) / 0.25
            envelope = vals[1] * math.exp(rate * 0.5) * 1.5
            assert vals[2] <= envelope, (name, vals, envelope)


class TestStroockVaropoulos:
    def test_constant_is_degenerate(self):
        times = np.linspace(0, 1, 5)
        coeffs = np.broadcast_to(constant_field(2.0, SP).coeffs, (5, SP.total_modes))
        out = stroock_varopoulos_check(times, coeffs, SP, gamma=2.0, theta=0.25)
        assert out["degenerate"] is True
        assert out["rhs"] == 0.0

    def test_scaling_invariance(self):
        times = np.linspace(0, 1, 5)
        coeffs = np.broadcast_to(bump(base=1.0, amp=0.5).coeffs,
                                 (5, SP.total_modes)).copy()
        one = stroock_varopoulos_check(times, coeffs, SP, 2.0, 0.25)
        three = stroock_varopoulos_check(times, 3.0 * coeffs, SP, 2.0, 0.25)
        assert three["lhs"] == pytest.approx(3.0**4 * one["lhs"], rel=1e-10)
        assert three["rhs"] == pytest.approx(3.0**4 * one["rhs"], rel=1e-10)
        assert three["ratio"] == pytest.approx(one["ratio"], rel=1e-10)

    def test_refinement_stability(self):
        times = np.linspace(0, 1, 5)
        coeffs = np.broadcast_to(bump(base=1.0, amp=0.5).coeffs,
                                 (5, SP.total_modes)).copy()
        coarse = stroock_varopoulos_check(times, coeffs, SP, 2.0, 0.25,
                                          points_per_axis=32)
        fine = stroock_varopoulos_check(times, coeffs, SP, 2.0, 0.25,
                                        points_per_axis=64)
        assert abs(fine["ratio"] - coarse["ratio"]) / coarse["ratio"] < 0.1

    def test_parameter_validation(self):
        times = np.linspace(0, 1, 3)
        coeffs = np.zeros((3, SP.total_modes))
        with pytest.raises(ValidationError):
            stroock_varopoulos_check(times, coeffs, SP, gamma=2.0, theta=0.6)


class TestTraceDiagnostic:
    def test_zero_field(self):
        assert trace_diagnostic(constant_field(0.0, SP), 1.0, 2.0, None) == 0.0

    def test_constant_field_direct_sum(self):
        gamma = 1.3
        got = trace_diagnostic(constant_field(1.0, SP), gamma, 2.0, None)
        expect = 2.0 * sum((math.pi**2 * k**2) ** -gamma for k in range(1, 16))
        assert got == pytest.approx(expect, rel=1e-10)

    def test_monotone_in_gamma(self):
        u = bump()
        vals = [trace_diagnostic(u, g, 3.0, None) for g in (0.8, 1.0, 1.5, 2.5)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
