import math

import numpy as np
import pytest

from grayscott.errors import NegativePowerOnZeroMode, ValidationError
from grayscott.integrate import MildIntegrator, ModelParams
from grayscott.noise import NoiseConfig
from grayscott.spectral import (
    SpaceConfig,
    SpectralField,
    apply_fractional_laplacian,
    constant_field,
    get_basis,
    lp_norm,
    mode_field,
    semigroup_step,
    sobolev_norm,
)

SP1 = SpaceConfig(d=1, boundary="neumann", modes_per_axis=16, grid_points_per_axis=32)

# measured once over all reference builds, asserted thereafter
EIGENFUNCTION_SUP_C0 = 1.5


def all_spaces(n1=16, n2=8):
    return [
        SpaceConfig(d=1, boundary="neumann", modes_per_axis=n1, grid_points_per_axis=2 * n1),
        SpaceConfig(d=1, boundary="periodic", modes_per_axis=n1 + 1, grid_points_per_axis=2 * n1),
        SpaceConfig(d=2, boundary="neumann", modes_per_axis=n2, grid_points_per_axis=2 * n2),
        SpaceConfig(d=2, boundary="periodic", modes_per_axis=n2 + 1, grid_points_per_axis=2 * n2),
    ]


class TestConfigValidation:
    def test_rejects_bad_dimension_and_grid(self):
        with pytest.raises(ValidationError) as err:
            SpaceConfig(d=3, modes_per_axis=1, grid_points_per_axis=0)
        assert len(err.value.violations) >= 2

    def test_even_periodic_needs_finer_grid(self):
        with pytest.raises(ValidationError):
            SpaceConfig(d=1, boundary="periodic", modes_per_axis=8, grid_points_per_axis=8)
        SpaceConfig(d=1, boundary="periodic", modes_per_axis=8, grid_points_per_axis=9)


class TestEigensystem:
    def test_neumann_analytic_eigenpair(self):
        es = get_basis(SP1)
        assert es.eigenvalues[3] == pytest.approx(9 * math.pi**2, rel=1e-14)
        basis = get_basis(SP1)
        x = basis.plan(32).nodes
        vals = basis.synthesize(mode_field(SP1, 3).coeffs, 32)
        assert np.allclose(vals, math.sqrt(2) * np.cos(3 * math.pi * x), atol=1e-13)

    def test_periodic_first_eigenvalue(self):
        sp = SpaceConfig(d=1, boundary="periodic", modes_per_axis=9, grid_points_per_axis=18)
        es = get_basis(sp)
        assert es.eigenvalues[1] == pytest.approx(4 * math.pi**2, rel=1e-14)
        assert es.eigenvalues[2] == pytest.approx(4 * math.pi**2, rel=1e-14)

    def test_sorted_with_constant_first(self):
        for sp in all_spaces():
            es = get_basis(sp)
            assert es.eigenvalues[0] == 0.0
            assert np.all(np.diff(es.eigenvalues) >= 0)
            assert np.all(es.mode_labels[0] == 0)

    @pytest.mark.parametrize("boundary", ["neumann", "periodic"])
    def test_d2_spectral_growth(self, boundary):
        n = 24 if boundary == "neumann" else 25
        sp = SpaceConfig(d=2, boundary=boundary, modes_per_axis=n,
                         grid_points_per_axis=2 * n)
        ev = get_basis(sp).eigenvalues
        k = np.arange(10, ev.size)
        slope = np.polyfit(np.log(k), np.log(ev[k]), 1)[0]
        assert abs(slope - 1.0) < 0.15

    def test_eigenfunction_sup_bound(self):
        for sp in all_spaces():
            basis = get_basis(sp)
            vals = basis.synthesize(np.eye(sp.total_modes))
            sups = np.max(np.abs(vals.reshape(sp.total_modes, -1)), axis=1)
            lam = basis.eigenvalues
            bound = EIGENFUNCTION_SUP_C0 * np.maximum(lam, 1.0) ** ((sp.d - 1) / 2.0)
            assert np.all(sups <= bound + 1e-9)


class TestRoundTrip:
    def test_parseval_round_trip(self):
        rng = np.random.default_rng(3)
        for sp in all_spaces():
            basis = get_basis(sp)
            coeffs = rng.standard_normal(sp.total_modes)
            back = basis.analyze(basis.synthesize(coeffs))
            assert np.max(np.abs(back - coeffs)) < 1e-12 * np.linalg.norm(coeffs)

    def test_parseval_identity(self):
        rng = np.random.default_rng(4)
        f = SpectralField(rng.standard_normal(SP1.total_modes), SP1)
        assert lp_norm(f, 2) == pytest.approx(f.l2_norm(), abs=1e-12)

    def test_field_from_values(self):
        basis = get_basis(SP1)
        x = basis.plan(32).nodes
        coeffs = basis.analyze(2.0 + np.cos(math.pi * x), 32)
        assert coeffs[0] == pytest.approx(2.0, abs=1e-13)
        assert coeffs[1] == pytest.approx(1 / math.sqrt(2), abs=1e-13)


class TestFractionalLaplacian:
    def test_eigenfunction_scaling(self):
        out = apply_fractional_laplacian(mode_field(SP1, 3), 1.0)
        assert out.coeffs[3] == pytest.approx(9 * math.pi**2, rel=1e-14)

    def test_zero_mode_annihilated(self):
        out = apply_fractional_laplacian(mode_field(SP1, 0), 1.0)
        assert np.all(out.coeffs == 0.0)

    def test_fractional_power(self):
        out = apply_fractional_laplacian(mode_field(SP1, 3), 0.75)
        assert out.coeffs[3] == pytest.approx((9 * math.pi**2) ** 0.75, rel=1e-14)

    def test_composition_on_mean_free_fields(self):
        rng = np.random.default_rng(5)
        coeffs = rng.standard_normal(SP1.total_modes)
        coeffs[0] = 0.0
        f = SpectralField(coeffs, SP1)
        a = apply_fractional_laplacian(apply_fractional_laplacian(f, 0.6), -0.35)
        b = apply_fractional_laplacian(f, 0.25)
        assert np.allclose(a.coeffs, b.coeffs, rtol=1e-12)

    def test_zero_mode_policies(self):
        f = constant_field(2.0, SP1)
        dropped = apply_fractional_laplacian(f, -0.5)
        assert np.all(dropped.coeffs == 0.0)

        shifted_space = SpaceConfig(d=1, modes_per_axis=16, grid_points_per_axis=32,
                                    zero_mode="shift")
        g = constant_field(2.0, shifted_space)
        assert apply_fractional_laplacian(g, -0.5).coeffs[0] == pytest.approx(2.0)

        reject_space = SpaceConfig(d=1, modes_per_axis=16, grid_points_per_axis=32,
                                   zero_mode="reject")
        h = constant_field(2.0, reject_space)
        with pytest.raises(NegativePowerOnZeroMode):
            apply_fractional_laplacian(h, -0.5)


class TestSemigroup:
    def test_heat_on_eigenmode(self):
        gen = {"r": 1.0, "a": 0.0}
        out = semigroup_step(mode_field(SP1, 4), **gen, t=0.05)
        assert out.coeffs[4] == pytest.approx(math.exp(-16 * math.pi**2 * 0.05), rel=1e-14)

    def test_identity_at_time_zero(self):
        rng = np.random.default_rng(6)
        f = SpectralField(rng.standard_normal(SP1.total_modes), SP1)
        gen = {"r": 2.0, "a": -1.0, "aleph": 1.5}
        assert np.array_equal(semigroup_step(f, **gen, t=0.0).coeffs, f.coeffs)

    def test_componentwise_two_modes(self):
        f = SpectralField(np.zeros(SP1.total_modes), SP1)
        f.coeffs[1] = 1.0
        f.coeffs[2] = 1.0
        gen = {"r": 0.5, "a": -1.0}
        out = semigroup_step(f, **gen, t=0.1)
        lam = get_basis(SP1).eigenvalues
        for k in (1, 2):
            assert out.coeffs[k] == pytest.approx(
                math.exp((-0.5 * lam[k] - 1.0) * 0.1), rel=1e-14)

    def test_semigroup_property(self):
        rng = np.random.default_rng(7)
        f = SpectralField(rng.standard_normal(SP1.total_modes), SP1)
        gen = {"r": 1.3, "a": 0.4, "aleph": 1.7}
        once = semigroup_step(f, **gen, t=0.3)
        twice = semigroup_step(semigroup_step(f, **gen, t=0.1), **gen, t=0.2)
        assert np.max(np.abs(once.coeffs - twice.coeffs)) < 1e-13 * f.l2_norm()


class TestNorms:
    def test_sobolev_constant_mode(self):
        f = mode_field(SP1, 0)
        for s in (-1.5, 0.0, 2.0):
            assert sobolev_norm(f, s) == pytest.approx(1.0, rel=1e-14)

    def test_sobolev_single_mode(self):
        assert sobolev_norm(mode_field(SP1, 3), 1.0) == pytest.approx(
            math.sqrt(1 + 9 * math.pi**2), rel=1e-14)

    def test_sobolev_zero_is_l2(self):
        rng = np.random.default_rng(8)
        f = SpectralField(rng.standard_normal(SP1.total_modes), SP1)
        assert sobolev_norm(f, 0.0) == pytest.approx(f.l2_norm(), rel=1e-14)

    def test_lp_constant(self):
        f = constant_field(-1.7, SP1)
        assert lp_norm(f, 3.0) == pytest.approx(1.7, rel=1e-13)

    def test_lp_p2_matches_parseval(self):
        rng = np.random.default_rng(9)
        for sp in all_spaces():
            f = SpectralField(rng.standard_normal(sp.total_modes), sp)
            assert abs(lp_norm(f, 2.0) - f.l2_norm()) < 1e-10

    def test_lp_quartic_cosine(self):
        # int_0^1 4 cos^4(pi x) dx = 3/2
        f = mode_field(SP1, 1)
        assert lp_norm(f, 4.0) == pytest.approx(1.5**0.25, rel=1e-12)


class TestProducts:
    """The integrator's Galerkin product: synthesize on its dealiased grid
    (2N points at q = 2), multiply, analyze."""

    def test_cosine_square_identity(self):
        # 2 cos^2(pi x) = 1 + cos(2 pi x)
        integ = MildIntegrator(ModelParams(), SP1, NoiseConfig())
        c1 = mode_field(SP1, 1).coeffs
        prod = integ.analyze(integ.synth(c1) * integ.synth(c1))
        assert prod[0] == pytest.approx(1.0, abs=1e-13)
        assert prod[2] == pytest.approx(1 / math.sqrt(2), abs=1e-13)
        mask = np.ones(SP1.total_modes, dtype=bool)
        mask[[0, 2]] = False
        assert np.max(np.abs(prod[mask])) < 1e-13

    def test_cubic_product_with_dealias(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal(SP1.total_modes)
        b = rng.standard_normal(SP1.total_modes)
        c = rng.standard_normal(SP1.total_modes)
        basis = get_basis(SP1)
        integ = MildIntegrator(ModelParams(), SP1, NoiseConfig())
        prod = integ.analyze(integ.synth(a) * integ.synth(b) * integ.synth(c))
        m_exact = 4 * SP1.modes_per_axis
        vals = (basis.synthesize(a, m_exact) * basis.synthesize(b, m_exact)
                * basis.synthesize(c, m_exact))
        assert np.allclose(prod, basis.analyze(vals, m_exact), atol=1e-11)
