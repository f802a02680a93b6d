import numpy as np
import pytest

from btflow.energies import CouplingMatrix
from btflow.errors import EstimateFailed, KernelUnderflow, NotPositiveDefinite
from btflow.fdref import barenblatt, barenblatt_peak_time, l1_error, l1_error_vector
from btflow.jko import (
    JKOOptions,
    JKOSchedule,
    jko_step_entropic,
    jko_step_lagrangian,
    optimality_residual,
    pool_adjacent_violators,
    run_jko,
)
from btflow.measures import DensityVector, Grid1D, normalize
from btflow.transport1d import w2_exact, w2_product
from conftest import smooth_pair

T0 = barenblatt_peak_time()


def barenblatt_state(n=128):
    g = Grid1D(n, -2.0, 2.0)
    return g, DensityVector(g, barenblatt(T0, g).values[None, :])


class TestSchedule:
    def test_uniform(self):
        s = JKOSchedule.uniform(0.1, 5)
        assert s.n_steps == 5
        assert s.horizon == pytest.approx(0.5)
        assert s.sup_tau == pytest.approx(0.1)
        np.testing.assert_allclose(s.times(), 0.1 * np.arange(6), atol=1e-15)

    def test_positive_steps_required(self):
        with pytest.raises(ValueError):
            JKOSchedule(np.array([0.1, -0.1]))


class TestPAV:
    def test_already_monotone_unchanged(self):
        y = np.array([0.0, 1.0, 2.0])
        np.testing.assert_array_equal(pool_adjacent_violators(y), y)

    def test_single_violation_pools(self):
        np.testing.assert_allclose(
            pool_adjacent_violators(np.array([1.0, 3.0, 2.0])), [1.0, 2.5, 2.5]
        )

    def test_reversed_pools_to_mean(self):
        y = np.arange(5.0)[::-1]
        np.testing.assert_allclose(pool_adjacent_violators(y), np.full(5, 2.0))

    def test_projection_optimality(self):
        # the projection is characterized by being monotone, mass-preserving
        # on pools, and no worse than nearby monotone candidates
        rng = np.random.default_rng(0)
        y = rng.normal(size=40)
        x = pool_adjacent_violators(y)
        assert np.all(np.diff(x) >= -1e-12)
        base = np.sum((x - y) ** 2)
        for _ in range(50):
            cand = np.maximum.accumulate(y + 0.1 * rng.normal(size=40))
            assert base <= np.sum((cand - y) ** 2) + 1e-12


class TestLagrangianStep:
    def test_tau_zero_limit(self, unit_matrix):
        g = Grid1D(256, 0.0, 1.0)
        u = normalize(1.0 + 0.25 * np.cos(np.pi * g.centers()), g)
        u0 = DensityVector(g, u.values[None, :])
        out, report = jko_step_lagrangian(u0, unit_matrix, 1e-8)
        assert report.w2_increment <= 1e-6
        assert w2_product(u0, out) <= 1e-3  # representation gap only

    def test_barenblatt_single_step_accuracy(self, unit_matrix):
        g, u0 = barenblatt_state(128)
        tau = 1e-3
        out, report = jko_step_lagrangian(u0, unit_matrix, tau)
        assert report.converged
        assert l1_error(out.species(0), barenblatt(T0 + tau, g)) <= 0.02

    def test_energy_never_increases(self, pd_matrix):
        u0 = smooth_pair(64)
        out, report = jko_step_lagrangian(u0, pd_matrix, 1e-3)
        assert report.energy_after <= report.energy_before + 1e-12

    def test_permutation_equivariance_bitwise(self):
        u0 = smooth_pair(64)
        a = CouplingMatrix(np.array([[2.0, 1.0], [1.0, 3.0]]))
        a_swapped = CouplingMatrix(np.array([[3.0, 1.0], [1.0, 2.0]]))
        u0_swapped = DensityVector(u0.grid, u0.values[::-1])
        out, _ = jko_step_lagrangian(u0, a, 1e-3)
        out_swapped, _ = jko_step_lagrangian(u0_swapped, a_swapped, 1e-3)
        np.testing.assert_array_equal(out.values, out_swapped.values[::-1])

    def test_identical_species_stay_identical(self):
        g = Grid1D(64, 0.0, 1.0)
        u = normalize(1.0 + 0.3 * np.sin(np.pi * g.centers()), g)
        u0 = DensityVector(g, np.stack([u.values, u.values]))
        out, _ = jko_step_lagrangian(u0, CouplingMatrix.identity(2), 1e-3)
        np.testing.assert_array_equal(out.values[0], out.values[1])

    def test_rank_deficient_matrix_rejected(self):
        u0 = smooth_pair(32)
        with pytest.raises(NotPositiveDefinite):
            jko_step_lagrangian(u0, CouplingMatrix.uniform(2), 1e-3)

    def test_fourth_order_option_decays_augmented_energy(self, pd_matrix):
        u0 = smooth_pair(64)
        opts = JKOOptions(include_dirichlet=True)
        _, record = run_jko(
            u0, pd_matrix, JKOSchedule.uniform(1e-5, 5), opts=opts, strict=False
        )
        assert np.all(np.diff(record.energy) <= 1e-12)


class TestEntropicStep:
    def test_tau_zero_blur(self, unit_matrix):
        g = Grid1D(64, 0.0, 1.0)
        u = normalize(np.exp(-0.5 * (g.centers() - 0.5) ** 2 / 0.01), g)
        u0 = DensityVector(g, u.values[None, :])
        eps = 1e-3
        out, _ = jko_step_entropic(u0, unit_matrix, 1e-9, eps)
        assert w2_exact(out.species(0), u) <= 2 * np.sqrt(eps)

    def test_constant_near_fixed_point(self, unit_matrix):
        g = Grid1D(64, 0.0, 1.0)
        u0 = DensityVector(g, np.ones((1, 64)))
        out, _ = jko_step_entropic(u0, unit_matrix, 1e-3, 1e-3)
        # boundary blur leaves an O(sqrt(eps)) layer; the bulk stays flat
        assert g.h * np.abs(out.values - 1.0).sum() <= 0.02
        assert np.abs(out.values - 1.0).max() <= 0.12

    def test_mass_exact(self, pd_matrix):
        u0 = smooth_pair(64)
        out, _ = jko_step_entropic(u0, pd_matrix, 1e-3, 1e-3)
        np.testing.assert_allclose(u0.grid.h * out.values.sum(axis=1), 1.0, atol=1e-12)

    def test_kernel_underflow(self, unit_matrix):
        g = Grid1D(128, 0.0, 1.0)
        u0 = DensityVector(g, np.ones((1, 128)))
        with pytest.raises(KernelUnderflow):
            jko_step_entropic(u0, unit_matrix, 1e-3, 1e-8)

    def test_positive_definite_required(self):
        u0 = smooth_pair(32)
        with pytest.raises(NotPositiveDefinite):
            jko_step_entropic(u0, CouplingMatrix.uniform(2), 1e-3, 1e-3)

    def test_cross_solver_single_step(self, pd_matrix):
        u0 = smooth_pair(128)
        ul, _ = jko_step_lagrangian(u0, pd_matrix, 1e-3)
        ue, _ = jko_step_entropic(u0, pd_matrix, 1e-3, 1e-3)
        assert l1_error_vector(ul, ue) <= 5e-2


class TestOptimalityResidual:
    def test_energy_minimum_has_small_residual(self, pd_matrix):
        # with a huge step size the minimizer is the unconstrained energy
        # minimum (uniform for this coupling), where the field is constant
        u0 = smooth_pair(64)
        out, _ = jko_step_lagrangian(u0, pd_matrix, 1e6)
        res = optimality_residual(u0, out, pd_matrix, 1e6)
        assert res.worst <= 0.02

    def test_minimizer_residual_refines(self, pd_matrix):
        prev = None
        for n, tol in ((32, 4e-13), (64, 2e-13)):
            u0 = smooth_pair(n)
            out, _ = jko_step_lagrangian(
                u0, pd_matrix, 1e-3, JKOOptions(tol_obj_rel=tol, max_iterations=20000)
            )
            worst = optimality_residual(u0, out, pd_matrix, 1e-3).worst
            if prev is not None:
                assert prev / worst >= 1.5
            prev = worst

    def test_perturbed_state_residual_bounded_away(self, pd_matrix):
        u0 = smooth_pair(128)
        out, _ = jko_step_lagrangian(u0, pd_matrix, 1e-3)
        base = optimality_residual(u0, out, pd_matrix, 1e-3).worst
        vals = out.values * (1.0 + 0.05 * np.sin(4 * np.pi * u0.grid.centers()))
        vals /= u0.grid.h * vals.sum(axis=1, keepdims=True)
        perturbed = DensityVector(u0.grid, vals)
        assert optimality_residual(u0, perturbed, pd_matrix, 1e-3).worst >= 10.0 * base


class TestRunJKO:
    def test_zero_steps_returns_initial(self, unit_matrix):
        # A zero-step run would return the initial state with a record that
        # ran no checks; the schedule refuses it before run_jko is reached.
        _, u0 = barenblatt_state(64)
        with pytest.raises(ValueError, match="at least one step"):
            run_jko(u0, unit_matrix, JKOSchedule(np.zeros(0)))

    def test_estimates_hold_on_barenblatt_run(self, unit_matrix):
        _, u0 = barenblatt_state(128)
        traj, record = run_jko(u0, unit_matrix, JKOSchedule.uniform(1e-3, 25))
        assert record.all_passed()
        assert len(traj) == 26
        names = {c.name for c in record.checks}
        assert names == {"energy_monotone", "telescoped_w2", "hoelder_half", "entropy_dissipation"}

    def test_strict_mode_raises_on_violation(self, unit_matrix, monkeypatch):
        _, u0 = barenblatt_state(64)
        import btflow.jko as jko_module

        def fail_check(record, *args, **kwargs):
            from btflow.diagnostics import CheckResult

            return record.add_check(CheckResult("energy_monotone", False, -1.0, 0.0))

        monkeypatch.setattr(jko_module, "check_energy_monotone", fail_check)
        with pytest.raises(EstimateFailed):
            run_jko(u0, unit_matrix, JKOSchedule.uniform(1e-3, 2))

    def test_entropic_solver_runs(self, pd_matrix):
        u0 = smooth_pair(64)
        traj, record = run_jko(
            u0, pd_matrix, JKOSchedule.uniform(1e-3, 3), solver="entropic", strict=False
        )
        assert len(traj) == 4
        assert record.meta["solver"] == "entropic"

    def test_unknown_solver(self, pd_matrix):
        u0 = smooth_pair(32)
        with pytest.raises(ValueError):
            run_jko(u0, pd_matrix, JKOSchedule.uniform(1e-3, 1), solver="magic")

    def test_mass_and_positivity_along_run(self, pd_matrix):
        u0 = smooth_pair(64)
        traj, _ = run_jko(u0, pd_matrix, JKOSchedule.uniform(1e-3, 10), strict=False)
        for state in traj:
            assert state.values.min() >= 0.0
            np.testing.assert_allclose(
                u0.grid.h * state.values.sum(axis=1), 1.0, atol=1e-9
            )
