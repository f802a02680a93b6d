import numpy as np
import pytest

from btflow.energies import (
    CouplingMatrix,
    energy_dirichlet,
    energy_quadratic,
    energy_report,
    entropy_boltzmann,
    gradient_norm_sq,
    pressure,
)
from btflow.errors import DimensionMismatch
from btflow.measures import DensityVector, Grid1D


def disjoint_bumps(n=32):
    """Two unit-mass species on disjoint halves of [0, 1], height 2 each."""
    g = Grid1D(n, 0.0, 1.0)
    u1 = np.zeros(n)
    u1[: n // 2] = 2.0
    u2 = np.zeros(n)
    u2[n // 2 :] = 2.0
    return DensityVector(g, np.stack([u1, u2]))


class TestCouplingMatrix:
    def test_lambda_min_matches_numpy(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 3, 5):
            b = rng.normal(size=(n, n))
            a = CouplingMatrix(b + b.T)
            assert a.lambda_min == pytest.approx(np.linalg.eigvalsh(a.entries).min(), abs=1e-10)

    def test_uniform_matrix_rank_deficient(self):
        a = CouplingMatrix.uniform(3)
        assert a.symmetric
        assert a.lambda_min == pytest.approx(0.0, abs=1e-12)
        assert not a.positive_definite

    def test_identity_positive_definite(self):
        assert CouplingMatrix.identity(2).positive_definite

    def test_asymmetric_flagged(self):
        a = CouplingMatrix(np.array([[1.0, 2.0], [0.0, 1.0]]))
        assert not a.symmetric

    def test_derived_fields_are_not_arguments(self):
        with pytest.raises(TypeError):
            CouplingMatrix(np.eye(2), lambda_min=-1.0)
        with pytest.raises(TypeError):
            CouplingMatrix(np.eye(2), symmetric=False)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatch):
            CouplingMatrix(np.ones((2, 3)))


class TestEnergyQuadratic:
    def test_single_species_uniform(self):
        g = Grid1D(16, 0.0, 1.0)
        u = DensityVector(g, np.ones((1, 16)))
        assert energy_quadratic(u, CouplingMatrix.identity(1)) == pytest.approx(0.5)

    def test_disjoint_bumps_identity_coupling(self):
        u = disjoint_bumps()
        # each species has int u^2 = 2, so E = (2 + 2)/2 = 2
        assert energy_quadratic(u, CouplingMatrix.identity(2)) == pytest.approx(2.0)

    def test_pure_cross_coupling_disjoint_supports(self):
        u = disjoint_bumps()
        a = CouplingMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert energy_quadratic(u, a) == pytest.approx(0.0)

    def test_coercivity_lower_bound(self):
        rng = np.random.default_rng(1)
        g = Grid1D(24, 0.0, 1.0)
        a = CouplingMatrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
        for _ in range(10):
            vals = rng.uniform(0.05, 1.0, (2, 24))
            vals /= g.h * vals.sum(axis=1, keepdims=True)
            u = DensityVector(g, vals)
            lower = 0.5 * a.lambda_min * g.h * float((vals**2).sum())
            assert energy_quadratic(u, a) >= lower - 1e-12

    def test_dimension_mismatch(self):
        u = disjoint_bumps()
        with pytest.raises(DimensionMismatch):
            energy_quadratic(u, CouplingMatrix.identity(3))


class TestEntropy:
    def test_uniform_unit_interval(self):
        g = Grid1D(16, 0.0, 1.0)
        u = DensityVector(g, np.ones((1, 16)))
        assert entropy_boltzmann(u) == pytest.approx(-1.0)

    def test_half_support_height_two(self):
        g = Grid1D(16, 0.0, 1.0)
        vals = np.zeros(16)
        vals[:8] = 2.0
        u = DensityVector(g, vals[None, :])
        assert entropy_boltzmann(u) == pytest.approx(np.log(2.0) - 1.0)

    def test_additivity_over_species(self):
        g = Grid1D(16, 0.0, 1.0)
        u = DensityVector(g, np.ones((2, 16)))
        assert entropy_boltzmann(u) == pytest.approx(-2.0)

    def test_zero_cells_contribute_zero(self):
        g = Grid1D(4, 0.0, 1.0)
        vals = np.array([[4.0, 0.0, 0.0, 0.0]])
        u = DensityVector(g, vals)
        assert np.isfinite(entropy_boltzmann(u))

    def test_jensen_lower_bound(self):
        # the uniform density minimizes the entropy at log(1/|Omega|) - 1
        rng = np.random.default_rng(2)
        g = Grid1D(32, 0.0, 2.0)
        bound = 2 * (np.log(1.0 / g.length) - 1.0)  # N = 2 species
        for _ in range(10):
            vals = rng.uniform(0.01, 1.0, (2, 32))
            vals /= g.h * vals.sum(axis=1, keepdims=True)
            assert entropy_boltzmann(DensityVector(g, vals)) >= bound - 1e-12


class TestDirichlet:
    def test_constant_density_zero(self):
        g = Grid1D(16, 0.0, 1.0)
        u = DensityVector(g, np.ones((1, 16)))
        assert energy_dirichlet(u) == 0.0

    def test_cosine_mode_discrete_value(self):
        # u = 1 + eps cos(m pi (c+1/2)/n): the interface differences are
        # -2 eps sin(m pi/(2n)) sin(m pi k/n), and sum_k sin^2 = n/2 gives
        # E = eps^2 n sin^2(m pi /(2n)) / h exactly
        n, eps, m = 64, 1e-3, 3
        g = Grid1D(n, 0.0, 1.0)
        u = 1.0 + eps * np.cos(m * np.pi * (np.arange(n) + 0.5) / n)
        u /= g.h * u.sum()
        expected = eps**2 * n * np.sin(m * np.pi / (2 * n)) ** 2 / g.h
        assert energy_dirichlet(DensityVector(g, u[None, :])) == pytest.approx(
            expected, rel=1e-6
        )

    def test_single_cell_spike(self):
        g = Grid1D(16, 0.0, 1.0)
        vals = np.zeros(16)
        vals[7] = 1.0 / g.h
        u = DensityVector(g, vals[None, :])
        # two interfaces each contribute h (height/h)^2
        assert energy_dirichlet(u) == pytest.approx(1.0 / g.h**3)

    def test_gradient_norm_is_twice_dirichlet(self):
        rng = np.random.default_rng(3)
        g = Grid1D(20, 0.0, 1.0)
        vals = rng.uniform(0.1, 1.0, (2, 20))
        vals /= g.h * vals.sum(axis=1, keepdims=True)
        u = DensityVector(g, vals)
        assert gradient_norm_sq(u) == pytest.approx(2.0 * energy_dirichlet(u))


class TestPressure:
    def test_identity_coupling(self):
        u = disjoint_bumps()
        np.testing.assert_allclose(pressure(u, CouplingMatrix.identity(2)), u.values)

    def test_uniform_coupling_shares_pressure(self):
        u = disjoint_bumps()
        p = pressure(u, CouplingMatrix.uniform(2))
        np.testing.assert_allclose(p[0], p[1])
        np.testing.assert_allclose(p[0], 0.5 * u.values.sum(axis=0))

    def test_constant_state_matrix_vector(self):
        g = Grid1D(8, 0.0, 1.0)
        u = DensityVector(g, np.ones((2, 8)))
        a = CouplingMatrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(pressure(u, a), 3.0)

    def test_linearity(self):
        rng = np.random.default_rng(4)
        g = Grid1D(12, 0.0, 1.0)
        a = CouplingMatrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
        x = rng.uniform(0.1, 1.0, (2, 12))
        y = rng.uniform(0.1, 1.0, (2, 12))
        x /= g.h * x.sum(axis=1, keepdims=True)
        y /= g.h * y.sum(axis=1, keepdims=True)
        mix = DensityVector(g, 0.25 * x + 0.75 * y)
        expected = 0.25 * pressure(DensityVector(g, x), a) + 0.75 * pressure(
            DensityVector(g, y), a
        )
        np.testing.assert_allclose(pressure(mix, a), expected, atol=1e-14)


def test_energy_report_bundle():
    u = disjoint_bumps()
    a = CouplingMatrix.identity(2)
    rep = energy_report(u, a)
    assert rep.e_quadratic == pytest.approx(energy_quadratic(u, a))
    assert rep.h_boltzmann == pytest.approx(entropy_boltzmann(u))
    assert rep.e_dirichlet == pytest.approx(energy_dirichlet(u))
