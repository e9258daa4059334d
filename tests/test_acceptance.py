"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS line once its assertions hold; budgets
are desk scale and every expected value is either analytic or produced
by an independent oracle (adaptive ODE solve, direct summation,
shared-increment refinement).
"""

import json
import math

import numpy as np
import pytest

from oracles import planar_ode

from grayscott.cli import main as cli_main
from grayscott.convergence import strong_order_study
from grayscott.estimators import (
    estimate_u_L2,
    estimate_u_pstar,
    estimate_v_Halpha,
)
from grayscott.fixedpoint import control_m_norm, picard_solve
from grayscott.integrate import ModelParams, simulate_ensemble
from grayscott.noise import NoiseConfig, WienerSource, hilbert_schmidt_sum, hs_tail_sum
from grayscott.paramgate import check_spaces, evaluate_gate
from grayscott.spectral import (
    SpaceConfig,
    SpectralField,
    constant_field,
    get_basis,
    lp_norm,
    semigroup_factors,
    sobolev_norm,
)

D1 = SpaceConfig(d=1, modes_per_axis=32, grid_points_per_axis=64)
NOISE_D1 = NoiseConfig(gamma1=1.0, gamma2=0.75, seed=1)


def bump(space, base=1.0, amp=0.2, mode=1):
    f = constant_field(base, space)
    f.coeffs[mode] = amp
    return f


def ok(criterion, detail=""):
    print(f"ACCEPTANCE {criterion}: PASS {detail}".rstrip())


def test_01_spectral_exactness():
    rng = np.random.default_rng(2024)
    basis = get_basis(D1)
    lam = basis.eigenvalues
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(0, 32))
        t = float(rng.uniform(0.0, 0.5))
        r, a = float(rng.uniform(0.1, 2.0)), float(rng.uniform(-1.0, 1.0))
        factors = semigroup_factors(D1, r, a, t)
        worst = max(worst, abs(factors[k] - math.exp((-r * lam[k] + a) * t)))
    assert worst <= 1e-13

    rel = 0.0
    for sp in (D1, SpaceConfig(d=2, modes_per_axis=8, grid_points_per_axis=16)):
        b = get_basis(sp)
        coeffs = rng.standard_normal(sp.total_modes)
        back = b.analyze(b.synthesize(coeffs))
        rel = max(rel, float(np.linalg.norm(back - coeffs) / np.linalg.norm(coeffs)))
    assert rel <= 1e-12
    ok(1, f"(semigroup err {worst:.1e}, round trip {rel:.1e})")


def test_02_eigenvalue_asymptotics():
    cases = [
        (1, "neumann", 256), (1, "periodic", 257),
        (2, "neumann", 24), (2, "periodic", 25),
    ]
    for d, boundary, n in cases:
        sp = SpaceConfig(d=d, boundary=boundary, modes_per_axis=n,
                         grid_points_per_axis=2 * n)
        ev = get_basis(sp).eigenvalues
        k = np.arange(10, ev.size)
        slope = float(np.polyfit(np.log(k), np.log(ev[k]), 1)[0])
        assert abs(slope - 2.0 / d) < 0.15, (d, boundary, slope)
    ok(2)


def test_03_ito_isometry():
    sp = SpaceConfig(d=1, modes_per_axis=64, grid_points_per_axis=128)
    u = bump(sp, base=1.0, amp=0.5)
    gamma, t, n_steps, n_paths = 1.0, 0.1, 10, 10_000
    noise = NoiseConfig(gamma1=gamma, gamma2=0.75, seed=33)
    basis = get_basis(sp)
    source = WienerSource(noise, sp, np.arange(n_paths))

    # integral of g(u) dW over [0, t] for frozen u: g(u)[W_t] by linearity
    w_t = source.increment_block(0, n_steps, t / n_steps, 0)[0].sum(axis=1)
    idx = np.arange(1, sp.total_modes)
    lam = basis.eigenvalues[idx]
    z = np.zeros((n_paths, sp.total_modes))
    z[:, idx] = lam ** (-gamma / 2.0) * w_t
    m = basis.dealias_points(1.0)
    prod = basis.analyze(basis.synthesize(u.coeffs, m) * basis.synthesize(z, m), m)
    mc = float(np.mean(np.sum(prod**2, axis=-1)))

    hs = t * hilbert_schmidt_sum(u, gamma, None)
    rel = abs(mc - hs) / hs
    assert rel < 0.05, (mc, hs)
    ok(3, f"(MC {mc:.5g} vs HS {hs:.5g}, rel {rel:.3f})")


def test_04_homogeneous_ode_oracle():
    shared = dict(sigma1=0.0, sigma2=0.0, a1=-0.5, a2=-0.4, b1=0.3, b2=0.3,
                  c1=0.5, c2=0.5)
    cases = [
        (SpaceConfig(d=1, modes_per_axis=4, grid_points_per_axis=8),
         ModelParams(q=1.0, **shared)),
        (SpaceConfig(d=1, modes_per_axis=4, grid_points_per_axis=8),
         ModelParams(q=2.0, **shared)),
        (SpaceConfig(d=2, modes_per_axis=4, grid_points_per_axis=8),
         ModelParams(q=2.0, aleph=2.0, rho=0.0, alpha=0.0, **shared)),
    ]
    noise = NoiseConfig(seed=0)
    worst = 0.0
    for sp, params in cases:
        u0, v0 = constant_field(0.5, sp), constant_field(0.5, sp)
        rec = simulate_ensemble(params, sp, noise, u0, v0, 1e9, T=1.0, dt=1e-4,
                                path_ids=[0], check_gate=False)[0]
        _, uT, vT = rec.snapshots[-1]
        sol = planar_ode(params, 0.5, 0.5, 1.0)
        err = max(abs(uT[0] - sol.y[0, -1]) / abs(sol.y[0, -1]),
                  abs(vT[0] - sol.y[1, -1]) / abs(sol.y[1, -1]))
        worst = max(worst, err)
        assert err <= 1e-4, (sp.d, params.q, err)
    ok(4, f"(worst rel err {worst:.2e})")


def test_05_strong_order_linear():
    sp = SpaceConfig(d=1, modes_per_axis=16, grid_points_per_axis=32)
    params = ModelParams(c1=0.0, c2=0.0, b1=0.0, b2=0.0, a1=-0.3, a2=-0.3,
                         sigma1=0.4, sigma2=0.4)
    noise = NoiseConfig(gamma1=1.0, gamma2=0.75, seed=11)
    u0 = bump(sp, 1.0, 0.3)
    v0 = bump(sp, 1.0, 0.3)
    T = 0.25
    dts = [T * 2.0**-j for j in range(8, 13)]
    out = strong_order_study(params, sp, noise, u0, v0, T, dts,
                             n_paths=256, ref_refinement=8)
    assert all(e > 0 and math.isfinite(e) for e in out["errors"])
    assert out["order"] >= 0.45, out
    ok(5, f"(observed order {out['order']:.2f})")


def test_06_nonnegativity():
    params = ModelParams()  # admissible d=1 defaults
    sp = SpaceConfig(d=1, modes_per_axis=16, grid_points_per_axis=32)
    noise = NoiseConfig(gamma1=1.0, gamma2=0.75, seed=3)
    dt, T = 1e-3, 0.5
    recs = simulate_ensemble(params, sp, noise, bump(sp), bump(sp), 1e9,
                             T, dt, np.arange(100), store_trajectory=True)
    basis = get_basis(sp)
    tol = 10.0 * dt
    violations = 0
    global_min = math.inf
    for rec in recs:
        for coeffs in rec.trajectory:
            vals = basis.synthesize(coeffs)
            global_min = min(global_min, float(vals.min()))
            violations += int(np.count_nonzero(vals < -tol))
    assert violations == 0, f"{violations} grid values below -{tol}"
    ok(6, f"(min over paths/steps/grid {global_min:.3e}, tolerance -{tol})")


def test_07_cutoff_semantics():
    params = ModelParams(a2=0.4, b2=1.2, sigma2=0.15, c1=0.2, c2=0.2)
    sp = SpaceConfig(d=1, modes_per_axis=16, grid_points_per_axis=32)
    noise = NoiseConfig(gamma1=1.0, gamma2=0.75, seed=14)
    kappa = 2.0
    recs = simulate_ensemble(params, sp, noise, bump(sp), bump(sp), kappa,
                             T=1.2, dt=2e-3, path_ids=np.arange(20),
                             check_gate=False)
    crossed_twice = 0
    for rec in recs:
        h, phi = rec.series["h"], rec.series["phi"]
        assert np.all(phi[h <= kappa] == 1.0)
        assert np.all(phi[h >= 2 * kappa] == 0.0)
        assert np.all(np.diff(phi) <= 1e-12)
        crossed_twice += int(h.max() >= 2 * kappa)
    assert crossed_twice > 0, "suite must exercise the h >= 2 kappa region"

    a = simulate_ensemble(params, sp, noise, bump(sp), bump(sp), kappa,
                          T=1.2, dt=2e-3, path_ids=[0], store_trajectory=True,
                          check_gate=False)[0]
    b = simulate_ensemble(params, sp, noise, bump(sp), bump(sp), 2.5,
                          T=1.2, dt=2e-3, path_ids=[0], store_trajectory=True,
                          check_gate=False)[0]
    n = a.stop_step
    assert n is not None
    assert np.array_equal(a.trajectory[0][: n + 1], b.trajectory[0][: n + 1])
    assert np.array_equal(a.trajectory[1][: n + 1], b.trajectory[1][: n + 1])
    ok(7, f"({crossed_twice}/20 paths fully crossed; prefix bit-equal)")


def test_08_fixed_point_direct_equivalence():
    params = ModelParams(c1=0.01, c2=0.01)
    sp = SpaceConfig(d=1, modes_per_axis=16, grid_points_per_axis=32)
    noise = NoiseConfig(gamma1=1.0, gamma2=0.75, seed=8)
    T, dt = 0.25, 2e-3
    worst = 0.0
    res = picard_solve(params, sp, noise, bump(sp), bump(sp), 1e9,
                       range(10), T, dt, tol=1e-8, max_iter=20)
    fp = res["fixed_point"]
    for path_id in range(10):
        assert res["iterates"][path_id] <= 20
        assert res["residuals"][path_id][-1] < 1e-8
        rec = simulate_ensemble(params, sp, noise, bump(sp), bump(sp), 1e9,
                                T, dt, path_ids=[path_id], store_trajectory=True)[0]
        diff = float(control_m_norm(fp.eta[path_id] - rec.trajectory[0],
                                    fp.xi[path_id] - rec.trajectory[1],
                                    fp.times, sp, params.rho, params.aleph))
        worst = max(worst, diff)
        assert diff < 1e-6, (path_id, diff)
    ok(8, f"(worst M-norm gap {worst:.2e} over 10 seeds)")


def _moment_bound_quantities(records, params, u0, v0):
    r1 = estimate_u_L2(records)
    r2 = estimate_u_pstar(records)
    r3 = estimate_v_Halpha(records)
    ps = params.p_star
    q1 = r1.estimate
    q2 = r2["sup"].estimate + ps * (ps - 1) * r2["gradient"].estimate
    q3 = r3["sup"].estimate + 2.0 * r3["dissipation"].estimate
    hw = (
        r1.ci_halfwidth,
        r2["sup"].ci_halfwidth + ps * (ps - 1) * r2["gradient"].ci_halfwidth,
        r3["sup"].ci_halfwidth + 2.0 * r3["dissipation"].ci_halfwidth,
    )
    derived = check_spaces(params.q, params.aleph, params.alpha,
                           records[0].space.d, ps).derived
    p1 = derived["p_star1"]
    u0_term = lp_norm(u0, p1) ** (2 * p1) if (p1 is not None and p1 >= 1) else 0.0
    rhs = (
        1.0 + u0.l2_norm() ** 2,
        1.0 + lp_norm(u0, ps) ** ps,
        sobolev_norm(v0, params.alpha) ** 2 + u0_term + 1.0,
    )
    return (q1, q2, q3), hw, rhs


def test_09_moment_bound_estimates():
    cases = [
        ("d1", ModelParams(),
         SpaceConfig(d=1, modes_per_axis=32, grid_points_per_axis=64),
         NoiseConfig(gamma1=1.0, gamma2=0.75, seed=100)),
        ("d2q2", ModelParams(q=2.0, aleph=2.0, rho=0.0, alpha=0.0),
         SpaceConfig(d=2, modes_per_axis=8, grid_points_per_axis=16),
         NoiseConfig(gamma1=1.25, gamma2=1.2, seed=100)),
    ]
    n_paths, T, dt = 500, 0.5, 2e-3
    for label, params, sp, noise in cases:
        u0, v0 = bump(sp), bump(sp)
        pilot = simulate_ensemble(params, sp, noise, u0, v0, 1e9, T, dt,
                                  np.arange(n_paths))
        q, hw, rhs = _moment_bound_quantities(pilot, params, u0, v0)
        for i in range(3):
            assert math.isfinite(q[i]) and q[i] > 0
            assert hw[i] < 0.2 * q[i], (label, i, hw[i], q[i])
        fitted = [q[i] / rhs[i] for i in range(3)]

        fresh_noise = NoiseConfig(gamma1=noise.gamma1, gamma2=noise.gamma2,
                                  seed=noise.seed + 1)
        fresh = simulate_ensemble(params, sp, fresh_noise, u0, v0, 1e9, T, dt,
                                  np.arange(n_paths))
        q2, _, _ = _moment_bound_quantities(fresh, params, u0, v0)
        refit = [q2[i] / rhs[i] for i in range(3)]
        for c_old, c_new in zip(fitted, refit):
            assert abs(c_new - c_old) / c_old <= 0.5, (label, fitted, refit)
    ok(9)


def test_10_parameter_gate_fidelity():
    special = evaluate_gate(q=2.0, aleph=2.0, alpha=0.0, d=2, p_star0=4.5,
                            gamma1=1.25, gamma2=1.2, rho=0.0)
    assert special.special_case_d2q2 and special.overall

    strict = check_spaces(q=1.4, aleph=1.5, alpha=0.1, d=2, p_star0=5.0)
    cond = next(c for c in strict.conditions if c.name == "q-upper-bound")
    assert cond.satisfied is False
    assert cond.margin == pytest.approx(0.0, abs=1e-15)

    vacuous = check_spaces(q=11.0, aleph=2.0, alpha=0.25, d=1, p_star0=5.0)
    cond = next(c for c in vacuous.conditions if c.name == "q-upper-bound")
    assert cond.satisfied is True and math.isinf(cond.margin)
    assert "no upper bound" in cond.note
    ok(10)


def test_11_hilbert_schmidt_tail_criterion():
    for d, delta2 in ((1, 0.3), (2, 0.4)):
        sp = SpaceConfig(d=d, modes_per_axis=8, grid_points_per_axis=16)
        boundary = delta2 + d / 2.0
        offsets = np.linspace(0.05, 0.5, 10)
        for off in offsets:
            above = hs_tail_sum(boundary + off, delta2, sp, n_terms=16384)
            below = hs_tail_sum(boundary - off, delta2, sp, n_terms=16384)
            assert above["converged"] is True, (d, off)
            assert below["converged"] is False, (d, off)

    sp1 = SpaceConfig(d=1, modes_per_axis=8, grid_points_per_axis=16)
    out = hs_tail_sum(2.0, 0.0, sp1, n_terms=10_000)
    assert abs(out["value"] - math.pi**4 / 90.0) < 1e-6
    ok(11, f"(zeta(4) partial sum off by {abs(out['value'] - math.pi**4 / 90):.1e})")


def test_12_cli_determinism(tmp_path):
    doc = {
        "space": {"d": 1, "modes_per_axis": 8, "grid_points_per_axis": 16},
        "paths": 2,
        "T": 0.02,
        "dt": 0.001,
        "field_dumps": True,
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert cli_main(["simulate", "--config", str(cfg), "--seed", "9",
                     "--out", str(out1)]) == 0
    assert cli_main(["simulate", "--config", str(cfg), "--seed", "9",
                     "--out", str(out2)]) == 0
    names = sorted(p.name for p in out1.iterdir() if p.name != "manifest.json")
    assert names, "expected numeric artifacts"
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    ok(12, f"({len(names)} artifacts byte-identical)")
