import math

import numpy as np
import pytest

import btflow.fdref as fdref_module
from btflow.energies import CouplingMatrix
from btflow.errors import CFLViolation, DimensionMismatch, NonpositiveTime
from btflow.fdref import (
    OracleProfile,
    barenblatt,
    barenblatt_peak_time,
    barenblatt_support_halfwidth,
    bt4_stable_dt,
    bt_stable_dt,
    l1_error,
    l1_error_vector,
    linf_error,
    run_bt4_fd,
    run_bt_fd,
    step_bt4_fd,
    step_bt_fd,
)
from btflow.measures import Density, DensityVector, Grid1D, mass, normalize
from conftest import smooth_pair

T0 = barenblatt_peak_time()


class TestBarenblatt:
    def test_unit_mass_and_peak_normalization(self):
        g = Grid1D(256, -2.0, 2.0)
        b = barenblatt(T0, g)
        assert mass(b) == pytest.approx(1.0, abs=1e-8)
        assert b.values.max() == pytest.approx(1.0, abs=5e-3)

    def test_self_similarity_exponents(self):
        # alpha = beta = 1/3: the profile at 8t is the profile at t with
        # x -> x/2 and height halved; matched stretched grids see it exactly
        n = 200
        g1 = Grid1D(n, -1.0, 1.0)
        g2 = Grid1D(n, -2.0, 2.0)
        t = 0.02  # support well inside [-1, 1]
        assert barenblatt_support_halfwidth(t) < 1.0
        b1 = barenblatt(t, g1)
        b2 = barenblatt(8.0 * t, g2)
        np.testing.assert_allclose(b2.values, 0.5 * b1.values, atol=1e-10)

    def test_discrete_pde_residual_second_order(self):
        # substitute the profile into the conservative flux form; the
        # interior residual (away from the front) decays at second order
        def residual(n):
            g = Grid1D(n, -2.0, 2.0)
            t = T0
            dt = 1e-6
            b0 = barenblatt(t - dt, g).values
            b1 = barenblatt(t + dt, g).values
            mid = barenblatt(t, g).values
            dudt = (b1 - b0) / (2.0 * dt)
            ubar = 0.5 * (mid[1:] + mid[:-1])
            flux = ubar * np.diff(mid) / g.h
            div = np.zeros(n)
            div[:-1] += flux
            div[1:] -= flux
            div /= g.h
            interior = mid > 0.2 * mid.max()
            return np.abs(dudt - div)[interior].max()

        r64, r128, r256 = residual(64), residual(128), residual(256)
        assert r64 / r128 >= 3.0
        assert r128 / r256 >= 3.0

    def test_nonpositive_time(self):
        with pytest.raises(NonpositiveTime):
            barenblatt(0.0, Grid1D(32, -1.0, 1.0))

    @pytest.mark.parametrize(
        "evaluate, value",
        [
            (lambda g: barenblatt(math.nan, g), "t .*nan"),
            (lambda g: barenblatt(math.inf, g), "t .*inf"),
            (lambda g: OracleProfile("barenblatt").evaluate(math.nan, g), "t .*nan"),
            (lambda g: OracleProfile("heat_kernel", variance0=math.nan).evaluate(0.01, g), "variance .*nan"),
            (lambda g: OracleProfile("heat_kernel").evaluate(math.inf, g), "variance .*inf"),
            (lambda g: OracleProfile("heat_kernel").evaluate(math.nan, g), "variance .*nan"),
        ],
    )
    def test_non_finite_time_or_variance(self, evaluate, value):
        # NaN raised InvalidDensity for a negative density, t = inf an empty support
        with pytest.raises(NonpositiveTime, match=value):
            evaluate(Grid1D(32, -1.0, 1.0))

    @pytest.mark.parametrize("center, value", [(math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf")])
    def test_center_names_its_cause(self, center, value):
        # NaN raised InvalidDensity for a negative density
        with pytest.raises(ValueError, match=f"center .*{value}$"):
            barenblatt(T0, Grid1D(32, -1.0, 1.0), center=center)

    def test_oracle_profile_dispatch(self):
        g = Grid1D(128, -3.0, 3.0)
        b = OracleProfile("barenblatt").evaluate(T0, g)
        assert mass(b) == pytest.approx(1.0, abs=1e-8)
        hk = OracleProfile("heat_kernel", variance0=0.04).evaluate(0.01, g)
        assert mass(hk) == pytest.approx(1.0, abs=1e-10)
        with pytest.raises(ValueError):
            OracleProfile("unknown").evaluate(1.0, g)


class TestStepBtFd:
    def test_constant_state_fixed(self, pd_matrix):
        g = Grid1D(16, 0.0, 1.0)
        u = DensityVector(g, np.ones((2, 16)))
        out = step_bt_fd(u, pd_matrix, 0.5 * bt_stable_dt(u, pd_matrix))
        np.testing.assert_array_equal(out.values, u.values)

    def test_cfl_violation(self, unit_matrix):
        g = Grid1D(32, -2.0, 2.0)
        u = DensityVector(g, barenblatt(T0, g).values[None, :])
        with pytest.raises(CFLViolation):
            step_bt_fd(u, unit_matrix, 10.0 * bt_stable_dt(u, unit_matrix))

    def test_mass_conserved(self, pd_matrix):
        rng = np.random.default_rng(0)
        g = Grid1D(40, 0.0, 1.0)
        vals = rng.uniform(0.2, 1.0, (2, 40))
        vals /= g.h * vals.sum(axis=1, keepdims=True)
        u = DensityVector(g, vals)
        out = step_bt_fd(u, pd_matrix, 0.9 * bt_stable_dt(u, pd_matrix))
        np.testing.assert_allclose(g.h * out.values.sum(axis=1), 1.0, atol=1e-13)

    def test_barenblatt_convergence_ratio(self, unit_matrix):
        def err(n):
            g = Grid1D(n, -2.0, 2.0)
            u0 = DensityVector(g, barenblatt(T0, g).values[None, :])
            uf = run_bt_fd(u0, unit_matrix, 0.02)
            return l1_error(uf.species(0), barenblatt(T0 + 0.02, g))

        e64, e128, e256 = err(64), err(128), err(256)
        assert e64 / e128 >= 1.8
        assert e128 / e256 >= 1.8

    def test_step_budget_admits_a_run_that_needs_all_of_it(self, pd_matrix, monkeypatch):
        u0 = smooth_pair(16)
        steps = []
        flux = fdref_module._bt_flux_divergence
        monkeypatch.setattr(fdref_module, "_bt_flux_divergence", lambda *args: steps.append(1) or flux(*args))
        full = run_bt_fd(u0, pd_matrix, 1e-2)
        needed = len(steps)
        assert needed > 1
        monkeypatch.setattr(fdref_module, "MAX_STEPS", needed)
        np.testing.assert_array_equal(run_bt_fd(u0, pd_matrix, 1e-2).values, full.values)
        monkeypatch.setattr(fdref_module, "MAX_STEPS", needed - 1)
        with pytest.raises(RuntimeError, match="step budget"):
            run_bt_fd(u0, pd_matrix, 1e-2)

    def test_identity_coupling_decouples_exactly(self):
        rng = np.random.default_rng(1)
        g = Grid1D(32, 0.0, 1.0)
        vals = rng.uniform(0.2, 1.0, (2, 32))
        vals /= g.h * vals.sum(axis=1, keepdims=True)
        pair = DensityVector(g, vals)
        a2 = CouplingMatrix.identity(2)
        a1 = CouplingMatrix.identity(1)
        dt = 0.5 * bt_stable_dt(pair, a2)
        together = step_bt_fd(pair, a2, dt)
        alone0 = step_bt_fd(DensityVector(g, vals[:1]), a1, dt)
        alone1 = step_bt_fd(DensityVector(g, vals[1:]), a1, dt)
        np.testing.assert_array_equal(together.values[0], alone0.values[0])
        np.testing.assert_array_equal(together.values[1], alone1.values[0])

    def test_reflection_equivariance(self, pd_matrix):
        rng = np.random.default_rng(2)
        g = Grid1D(32, 0.0, 1.0)
        vals = rng.uniform(0.2, 1.0, (2, 32))
        vals /= g.h * vals.sum(axis=1, keepdims=True)
        dt = 0.5 * bt_stable_dt(DensityVector(g, vals), pd_matrix)
        fwd = step_bt_fd(DensityVector(g, vals), pd_matrix, dt)
        rev = step_bt_fd(DensityVector(g, vals[:, ::-1]), pd_matrix, dt)
        np.testing.assert_array_equal(fwd.values[:, ::-1], rev.values)


class TestStepBt4Fd:
    def test_constant_state_fixed(self, pd_matrix):
        g = Grid1D(16, 0.0, 1.0)
        u = DensityVector(g, np.ones((2, 16)))
        out = step_bt4_fd(u, pd_matrix, 0.5 * bt4_stable_dt(u))
        np.testing.assert_array_equal(out.values, u.values)

    def test_linearized_cosine_decay_matches_symbol(self, unit_matrix):
        # around u = 1 the semi-discrete rate of mode m is
        # -(k2 + k2^2) with k2 = (4/h^2) sin^2(m pi/(2n)); with explicit
        # Euler each step multiplies the amplitude by (1 + dt * rate)
        n, m, delta = 32, 2, 1e-6
        g = Grid1D(n, 0.0, 1.0)
        mode = np.cos(m * np.pi * (np.arange(n) + 0.5) / n)
        u = DensityVector(g, (1.0 + delta * mode)[None, :])
        dt = 0.5 * bt4_stable_dt(u)
        steps = 50
        state = u
        for _ in range(steps):
            state = step_bt4_fd(state, unit_matrix, dt)
        amp = 2.0 * g.h * float(state.values[0] @ mode)  # mode projection
        k2 = 4.0 / g.h**2 * np.sin(m * np.pi / (2 * n)) ** 2
        rate = -(k2 + k2**2)
        expected = delta * (1.0 + dt * rate) ** steps
        assert amp == pytest.approx(expected, rel=0.1)

    def test_energy_decay_on_smooth_data(self, pd_matrix):
        rng = np.random.default_rng(3)
        g = Grid1D(48, 0.0, 1.0)
        x = g.centers()
        vals = np.stack(
            [
                1.0 + 0.3 * np.cos(np.pi * x) + 0.1 * np.cos(2 * np.pi * x),
                1.0 - 0.2 * np.cos(np.pi * x) + 0.05 * np.sin(np.pi * x) ** 2,
            ]
        )
        vals /= g.h * vals.sum(axis=1, keepdims=True)
        u0 = DensityVector(g, vals)
        _, energies = run_bt4_fd(u0, pd_matrix, 100)
        assert np.all(np.diff(energies) <= 1e-12)

    def test_mass_conserved(self, pd_matrix):
        g = Grid1D(32, 0.0, 1.0)
        x = g.centers()
        vals = np.stack([1.0 + 0.2 * np.sin(2 * np.pi * x), 1.0 - 0.1 * np.cos(np.pi * x)])
        vals /= g.h * vals.sum(axis=1, keepdims=True)
        u0 = DensityVector(g, vals)
        uf, _ = run_bt4_fd(u0, pd_matrix, 50)
        np.testing.assert_allclose(g.h * uf.values.sum(axis=1), 1.0, atol=1e-12)

    def test_run_needs_a_step(self, unit_matrix):
        u0 = DensityVector(Grid1D(16, 0.0, 1.0), np.ones((1, 16)))
        for n_steps in (0, -1):
            with pytest.raises(ValueError, match="n_steps"):
                run_bt4_fd(u0, unit_matrix, n_steps)

    def test_cfl_violation(self, unit_matrix):
        g = Grid1D(32, 0.0, 1.0)
        u = DensityVector(g, np.ones((1, 32)))
        with pytest.raises(CFLViolation):
            step_bt4_fd(u, unit_matrix, 10.0 * bt4_stable_dt(u))


class TestErrors:
    def test_equal_densities_zero(self):
        g = Grid1D(16, 0.0, 1.0)
        u = normalize(1.0 + g.centers(), g)
        assert l1_error(u, u) == 0.0
        assert linf_error(u, u) == 0.0

    def test_unit_bump_mass(self):
        g = Grid1D(16, 0.0, 1.0)
        u = normalize(np.ones(16), g)
        bumped = u.values.copy()
        bumped[3] += 0.5
        bumped[10] -= 0.5  # keep unit mass
        v = Density(g, bumped)
        assert l1_error(u, v) == pytest.approx(2 * 0.5 * g.h)
        assert linf_error(u, v) == pytest.approx(0.5)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(4)
        g = Grid1D(20, 0.0, 1.0)
        for _ in range(10):
            a, b, c = (normalize(rng.uniform(0.1, 1.0, 20), g) for _ in range(3))
            assert l1_error(a, c) <= l1_error(a, b) + l1_error(b, c) + 1e-12

    def test_grid_mismatch(self):
        u = normalize(np.ones(8), Grid1D(8, 0.0, 1.0))
        v = normalize(np.ones(16), Grid1D(16, 0.0, 1.0))
        with pytest.raises(DimensionMismatch):
            l1_error(u, v)

    @pytest.mark.parametrize(
        "error, u, v",
        [
            (linf_error, Density(Grid1D(8, 0.0, 1.0), np.ones(8)), Density(Grid1D(16, 0.0, 1.0), np.ones(16))),
            (l1_error_vector, DensityVector(Grid1D(8, 0.0, 1.0), np.ones((1, 8))),
             DensityVector(Grid1D(16, 0.0, 1.0), np.ones((1, 16)))),
            (l1_error_vector, DensityVector(Grid1D(8, 0.0, 1.0), np.ones((1, 8))),
             DensityVector(Grid1D(8, 0.0, 1.0), np.ones((2, 8)))),
        ],
        ids=["linf_grids", "vector_grids", "vector_species"],
    )
    def test_mismatch_raises(self, error, u, v):
        with pytest.raises(DimensionMismatch):
            error(u, v)

    def test_vector_error(self):
        g = Grid1D(8, 0.0, 1.0)
        u = DensityVector(g, np.ones((2, 8)))
        assert l1_error_vector(u, u) == 0.0
