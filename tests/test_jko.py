import os
import pickle
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import btflow.jko as jko_module
from btflow.energies import CouplingMatrix
from btflow.errors import (
    EstimateFailed,
    InfiniteInitialEntropy,
    KernelUnderflow,
    NonpositiveTime,
    NotPositiveDefinite,
    ScalingOverflow,
)
from btflow.fdref import barenblatt, barenblatt_peak_time, l1_error, l1_error_vector
from btflow.jko import (
    STEP_FLOOR,
    STEP_GROWTH,
    JKOSchedule,
    _dot,
    _lagrangian_minimize,
    _LagrangianResult,
    _project_monotone,
    _prox_newton,
    _Quadrature,
    _quadrature_grid,
    _quantile_state,
    _stationarity,
    _tridiagonal_inverse,
    jko_step_entropic,
    jko_step_lagrangian,
    optimality_residual,
    pool_adjacent_violators,
    run_jko,
)
from btflow.measures import DensityVector, Grid1D, _deposit_all, _energy_position_gradient, normalize, to_quantiles
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

    @pytest.mark.parametrize("taus", [[np.nan], [np.inf], [1e-3, np.nan]])
    def test_finite_steps_required(self, taus):
        with pytest.raises(NonpositiveTime):
            JKOSchedule(np.array(taus))


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

    def test_energy_increase_raises(self, pd_matrix, monkeypatch):
        # the guard behind the descent's monotone iterates: a result above the start fails the step
        minimize = jko_module._lagrangian_minimize

        def raised(*args):
            result = minimize(*args)
            result.energy += 1.0
            return result

        monkeypatch.setattr(jko_module, "_lagrangian_minimize", raised)
        with pytest.raises(EstimateFailed, match="energy increased"):
            jko_step_lagrangian(smooth_pair(32), pd_matrix, 1e-3)

    def test_rank_deficient_matrix_rejected(self):
        u0 = smooth_pair(32)
        with pytest.raises(NotPositiveDefinite):
            jko_step_lagrangian(u0, CouplingMatrix.uniform(2), 1e-3)

    def test_fourth_order_option_decays_augmented_energy(self, pd_matrix):
        u0 = smooth_pair(64)
        _, record = run_jko(u0, pd_matrix, JKOSchedule.uniform(1e-5, 5), strict=False, dirichlet=True)
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

    def test_kernel_product_underflow_on_zero_cells(self, unit_matrix):
        # the CLI barenblatt preset: 40 of 64 cells on [-2, 2] are empty, and
        # the kernel mass reaching the far ones underflows to 0 at eps = 1e-3
        g = Grid1D(64, -2.0, 2.0)
        u0 = DensityVector.from_species([barenblatt(barenblatt_peak_time(), g)])
        assert np.sum(u0.values == 0.0) == 40
        with pytest.raises(KernelUnderflow, match="kernel product underflows"):
            jko_step_entropic(u0, unit_matrix, 1e-3, 1e-3)

    def test_prox_overflow_names_the_scaling(self, unit_matrix, monkeypatch):
        # the barenblatt preset at eps 2.14e-3: the kernel side xi of the two end
        # cells is subnormal (3.1e-320) but not 0, and nu / xi overflows in the first pass
        monkeypatch.setattr(jko_module, "SINKHORN_INNER_CAP", 2)
        g = Grid1D(64, -2.0, 2.0)
        u0 = DensityVector.from_species([barenblatt(barenblatt_peak_time(), g)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ScalingOverflow, match="species 1 is not finite on 2 cells: nu / xi overflows"):
                jko_step_entropic(u0, unit_matrix, 3.0, 2.14e-3)

    def test_stiff_step_on_one_spot_converges(self, pd_matrix):
        # both species on one spot, tau / eps = 100: in the nearly empty cells the
        # prox roots lie far below their warm starts, and the step still converges
        g = Grid1D(64, 0.0, 1.0)
        bump = normalize(np.exp(-((g.centers() - 0.5) ** 2) / (2 * 0.01)) + 1e-3, g)
        u0 = DensityVector.from_species([bump, bump])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u1, report = jko_step_entropic(u0, pd_matrix, 5e-2, 5e-4)
        assert report.converged
        # measured 2.3e-3
        assert l1_error_vector(u1, jko_step_lagrangian(u0, pd_matrix, 5e-2)[0]) <= 1e-2

    def test_positive_definite_required(self):
        u0 = smooth_pair(32)
        with pytest.raises(NotPositiveDefinite):
            jko_step_entropic(u0, CouplingMatrix.uniform(2), 1e-3, 1e-3)

    def test_cross_solver_single_step(self, pd_matrix):
        u0 = smooth_pair(128)
        ul, _ = jko_step_lagrangian(u0, pd_matrix, 1e-3)
        ue, _ = jko_step_entropic(u0, pd_matrix, 1e-3, 1e-3)
        assert l1_error_vector(ul, ue) <= 5e-2


BAD_STEP_ARGUMENTS = [
    ("entropic", 1e-3, np.nan, ValueError, "eps"),
    ("entropic", 1e-3, np.inf, ValueError, "eps"),
    ("entropic", 1e-3, 0.0, ValueError, "eps"),
    ("entropic", -1e-3, 1e-3, NonpositiveTime, "tau"),
    ("entropic", 0.0, 1e-3, NonpositiveTime, "tau"),
    ("entropic", np.nan, 1e-3, NonpositiveTime, "tau"),
    ("entropic", np.inf, 1e-3, NonpositiveTime, "tau"),
    ("lagrangian", -1e-3, None, NonpositiveTime, "tau"),
    ("lagrangian", 0.0, None, NonpositiveTime, "tau"),
    ("lagrangian", np.nan, None, NonpositiveTime, "tau"),
    ("lagrangian", np.inf, None, NonpositiveTime, "tau"),
    # a bool is no number: True would pass as 1
    ("entropic", 1e-3, True, ValueError, "eps"),
    ("entropic", True, 1e-3, NonpositiveTime, "tau"),
    ("lagrangian", True, None, NonpositiveTime, "tau"),
]


@pytest.mark.parametrize("solver, tau, eps, error, name", BAD_STEP_ARGUMENTS)
def test_bad_step_arguments_name_their_cause(pd_matrix, solver, tau, eps, error, name):
    u0 = smooth_pair(32)
    with pytest.raises(ValueError, match=f"^{name} must be finite and positive") as excinfo:
        if solver == "entropic":
            jko_step_entropic(u0, pd_matrix, tau, eps)
        else:
            jko_step_lagrangian(u0, pd_matrix, tau)
    assert excinfo.type is error  # not KernelUnderflow, itself a ValueError


class TestOptimalityResidual:
    def test_energy_minimum_has_small_residual(self, pd_matrix):
        # with a huge step size the minimizer is the unconstrained energy
        # minimum (uniform for this coupling), where the field is constant
        u0 = smooth_pair(64)
        out, _ = jko_step_lagrangian(u0, pd_matrix, 1e6)
        res = optimality_residual(u0, out, pd_matrix, 1e6)
        assert res <= 0.02

    def test_minimizer_residual_refines(self, pd_matrix, monkeypatch):
        monkeypatch.setattr(jko_module, "TOL_STATIONARITY", 1e-6)
        monkeypatch.setattr(jko_module, "MAX_ITERATIONS", 20000)
        prev = None
        for n in (32, 64):
            u0 = smooth_pair(n)
            out, report = jko_step_lagrangian(u0, pd_matrix, 1e-3)
            assert report.converged
            worst = optimality_residual(u0, out, pd_matrix, 1e-3)
            if prev is not None:
                assert prev / worst >= 1.5
            prev = worst

    def test_perturbed_state_residual_bounded_away(self, pd_matrix):
        u0 = smooth_pair(128)
        out, _ = jko_step_lagrangian(u0, pd_matrix, 1e-3)
        base = optimality_residual(u0, out, pd_matrix, 1e-3)
        vals = out.values * (1.0 + 0.05 * np.sin(4 * np.pi * u0.grid.centers()))
        vals /= u0.grid.h * vals.sum(axis=1, keepdims=True)
        perturbed = DensityVector(u0.grid, vals)
        assert optimality_residual(u0, perturbed, pd_matrix, 1e-3) >= 10.0 * base


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
        assert names == {
            "energy_monotone",
            "telescoped_w2",
            "hoelder_half",
            "entropy_dissipation",
            "inner_solver_converged",
        }

    def test_strict_mode_raises_on_violation(self, unit_matrix, monkeypatch):
        _, u0 = barenblatt_state(64)
        import btflow.jko as jko_module

        def fail_check(record, *args, **kwargs):
            return record.check("energy_monotone", 1.0)

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
        # no quantile levels, so no 1/L term in the Hoelder tolerance
        assert record.meta["L"] is None
        hoelder = next(c for c in record.checks if c.name == "hoelder_half")
        assert hoelder.tolerance == 1e-6 + 2.0 * u0.grid.h

    def test_entropic_solver_rejects_dirichlet(self, pd_matrix):
        # the entropic step descends the quadratic energy alone
        with pytest.raises(ValueError, match="dirichlet"):
            run_jko(smooth_pair(32), pd_matrix, JKOSchedule.uniform(1e-3, 1), solver="entropic", dirichlet=True)

    @pytest.mark.parametrize("n_levels", [2.5, 2.7, True, 0, -3, "8"])
    def test_level_count_must_be_a_positive_integer(self, n_levels):
        # one count rule; through int(), to_quantiles ran True as 1 level and 2.7 as 2
        with pytest.raises(ValueError, match="^n_levels must be an integer of at least 1"):
            to_quantiles(smooth_pair(32).species(0), n_levels)

    def test_unknown_solver(self, pd_matrix):
        u0 = smooth_pair(32)
        with pytest.raises(ValueError):
            run_jko(u0, pd_matrix, JKOSchedule.uniform(1e-3, 1), solver="magic")

    def test_one_lagrangian_step_is_the_public_step(self, pd_matrix):
        u0 = smooth_pair(32)
        u1, report = jko_step_lagrangian(u0, pd_matrix, 1e-3)
        traj, record = run_jko(u0, pd_matrix, JKOSchedule.uniform(1e-3, 1), strict=False)
        assert np.array_equal(traj[1].values, u1.values)
        assert record.w2_increments[0] == report.w2_increment
        assert record.meta["inner_iterations_max"] == report.inner_iterations
        assert record.energy.tolist() == [report.energy_before, report.energy_after]

    def test_entropic_residuals_come_from_the_step_reports(self, pd_matrix, monkeypatch):
        step, residual = jko_module.jko_step_entropic, jko_module.optimality_residual
        reports, calls = [], []

        def tapped_step(*args):
            u_next, report = step(*args)
            reports.append(report)
            return u_next, report

        def counted_residual(*args):
            calls.append(1)
            return residual(*args)

        monkeypatch.setattr(jko_module, "jko_step_entropic", tapped_step)
        monkeypatch.setattr(jko_module, "optimality_residual", counted_residual)
        u0 = smooth_pair(32)
        _, record = run_jko(
            u0, pd_matrix, JKOSchedule.uniform(1e-3, 3), solver="entropic", strict=False
        )
        assert np.array_equal(record.residuals, [r.optimality_residual for r in reports])
        assert len(calls) == 3  # once per step

    def test_entropic_steps_go_through_the_module_global(self, pd_matrix, monkeypatch):
        # the benchmark worker reads step convergence by wrapping jko.jko_step_entropic:
        # a run that bypassed the name would leave its sweep counter at 0 unseen
        u0, schedule = smooth_pair(32), JKOSchedule.uniform(1e-3, 3)
        plain = run_jko(u0, pd_matrix, schedule, solver="entropic", strict=False)
        step, calls = jko_module.jko_step_entropic, []

        def counted(*args, **kwargs):
            calls.append(1)
            return step(*args, **kwargs)

        monkeypatch.setattr(jko_module, "jko_step_entropic", counted)
        tapped = run_jko(u0, pd_matrix, schedule, solver="entropic", strict=False)
        assert len(calls) == schedule.n_steps  # once per step
        assert pickle.dumps(tapped) == pickle.dumps(plain)  # trajectory and record, bit for bit

    @pytest.mark.parametrize("solver", ["lagrangian", "entropic"])
    def test_overflowing_initial_energy_raises_typed(self, solver):
        # the energy overflowed with a bare RuntimeWarning under -W error::RuntimeWarning
        g = Grid1D(16, 0.0, 1.0)
        u0 = DensityVector.from_species([normalize(1.0 + 0.25 * np.cos(np.pi * g.centers()), g)])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(InfiniteInitialEntropy):
                run_jko(u0, CouplingMatrix([[1e308]]), JKOSchedule.uniform(1e-3, 2), solver=solver)

    def test_runs_leave_numpy_ma_unimported(self):
        # numpy.ma costs about 8 ms to import; np.unique in the Hoelder check imported it
        script = """
import sys
import numpy as np
from btflow.energies import CouplingMatrix
from btflow.jko import JKOSchedule, run_jko
from btflow.measures import DensityVector, Grid1D, normalize
g = Grid1D(32, 0.0, 1.0)
u0 = DensityVector.from_species([normalize(1.0 + s * 0.25 * np.cos(np.pi * g.centers()), g) for s in (1.0, -1.0)])
for solver in ("lagrangian", "entropic"):
    run_jko(u0, CouplingMatrix([[2.0, 1.0], [1.0, 2.0]]), JKOSchedule.uniform(1e-3, 3), solver=solver, strict=False)
assert "numpy.ma" not in sys.modules
"""
        env = os.environ | {"PYTHONPATH": str(Path(jko_module.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_mass_and_positivity_along_run(self, pd_matrix):
        u0 = smooth_pair(64)
        traj, _ = run_jko(u0, pd_matrix, JKOSchedule.uniform(1e-3, 10), strict=False)
        for state in traj:
            assert state.values.min() >= 0.0
            np.testing.assert_allclose(
                u0.grid.h * state.values.sum(axis=1), 1.0, atol=1e-9
            )


def _gradient_per_species(positions, sensitivity, grid):
    """Reference: the slab-adjoint gradient one species and one slab at a time."""
    n_species, n_levels = positions.shape
    q = 1.0 / n_levels
    inner_edges = grid.edges()[1:-1]
    grad = np.zeros_like(positions)
    tiny = 1e-13 * max(1.0, grid.length)

    def slab_endpoint_grads(s0, s1, a, b):
        width = b - a
        ok = width > tiny
        lo = np.searchsorted(inner_edges, a, side="right")
        hi = np.searchsorted(inner_edges, b, side="left")
        jump_sum = s0[hi] - s0[lo]
        jump_mom = s1[hi] - s1[lo]
        with np.errstate(divide="ignore", invalid="ignore"):
            ga = np.where(ok, (jump_sum * b - jump_mom) / width**2, 0.0)
            gb = np.where(ok, (jump_mom - jump_sum * a) / width**2, 0.0)
        return ga, gb

    for i in range(n_species):
        jumps = np.diff(sensitivity[i])
        s0 = np.concatenate(([0.0], np.cumsum(jumps)))
        s1 = np.concatenate(([0.0], np.cumsum(jumps * inner_edges)))
        x = positions[i]
        ga, gb = slab_endpoint_grads(s0, s1, x[:-1], x[1:])
        grad[i, :-1] += q * ga
        grad[i, 1:] += q * gb
        gap0 = x[1] - x[0]
        if x[0] - gap0 > grid.x_min:
            g1, g2 = x[0] - gap0, x[0] - 0.5 * gap0
            ga1, gb1 = slab_endpoint_grads(s0, s1, np.array([g1]), np.array([g2]))
            ga2, gb2 = slab_endpoint_grads(s0, s1, np.array([g2]), np.array([x[0]]))
            grad[i, 0] += (q / 8.0) * (2.0 * ga1[0] + 1.5 * gb1[0])
            grad[i, 1] += (q / 8.0) * (-ga1[0] - 0.5 * gb1[0])
            grad[i, 0] += (3.0 * q / 8.0) * (1.5 * ga2[0] + gb2[0])
            grad[i, 1] += (3.0 * q / 8.0) * (-0.5 * ga2[0])
        else:
            g2 = x[0] - 0.5 * gap0
            c = 0.0 if g2 <= grid.x_min else 1.0
            g2 = max(g2, grid.x_min)
            ga, gb = slab_endpoint_grads(s0, s1, np.array([g2]), np.array([x[0]]))
            grad[i, 0] += 0.5 * q * (1.5 * c * ga[0] + gb[0])
            grad[i, 1] += 0.5 * q * (-0.5 * c * ga[0])
        gap1 = x[-1] - x[-2]
        if x[-1] + gap1 < grid.x_max:
            g2, g1 = x[-1] + 0.5 * gap1, x[-1] + gap1
            ga3, gb3 = slab_endpoint_grads(s0, s1, np.array([x[-1]]), np.array([g2]))
            ga4, gb4 = slab_endpoint_grads(s0, s1, np.array([g2]), np.array([g1]))
            grad[i, -1] += (3.0 * q / 8.0) * (ga3[0] + 1.5 * gb3[0])
            grad[i, -2] += (3.0 * q / 8.0) * (-0.5 * gb3[0])
            grad[i, -1] += (q / 8.0) * (1.5 * ga4[0] + 2.0 * gb4[0])
            grad[i, -2] += (q / 8.0) * (-0.5 * ga4[0] - gb4[0])
        else:
            g2 = x[-1] + 0.5 * gap1
            c = 0.0 if g2 >= grid.x_max else 1.0
            g2 = min(g2, grid.x_max)
            ga, gb = slab_endpoint_grads(s0, s1, np.array([x[-1]]), np.array([g2]))
            grad[i, -1] += 0.5 * q * (ga[0] + 1.5 * c * gb[0])
            grad[i, -2] += 0.5 * q * (-0.5 * c * gb[0])
    return grad


END_KINDS = ("interior", "wall", "clipped")


def _last_edge_row(grid):
    """A quantile row whose outer end ghost knot 2X_L - X_{L-1} lands exactly on the
    grid's last edge, which on Grid1D(49, 0, 1) falls 1.1e-16 short of the wall."""
    last = grid.edges()[-1]
    x = np.concatenate((np.linspace(0.3, 0.6, 8), last - np.array([0.125, 0.0625])))
    assert last < grid.x_max and x[-1] + (x[-1] - x[-2]) == last
    return x


@st.composite
def slab_states(draw):
    """Quantile positions of 1-3 species, each end interior, wall-adjacent or
    clipped (its ghost knot beyond the wall), plus a sensitivity field."""
    n_species = draw(st.integers(1, 3))
    n_levels = draw(st.integers(2, 64))
    x_min, x_max = draw(st.sampled_from([(0.0, 1.0), (-2.0, 2.0)]))
    grid = Grid1D(draw(st.integers(2, 80)), x_min, x_max)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for _ in range(n_species):
        x = np.sort(rng.uniform(0.25, 0.75, n_levels))
        if draw(st.booleans()):  # repeated positions: degenerate slabs
            x = np.round(x * 16.0) / 16.0
        x = x_min + grid.length * x
        front, end = draw(st.sampled_from(END_KINDS)), draw(st.sampled_from(END_KINDS))
        if front == "clipped":
            x[0] = x_min
        elif front == "wall":  # 2X0-X1 below the wall, 1.5X0-0.5X1 above it
            x[0] = x_min + 0.4 * (x[1] - x_min)
        if end == "clipped":
            x[-1] = x_max
        elif end == "wall":
            x[-1] = x_max - 0.4 * (x_max - x[-2])
        rows.append(x)
    return np.stack(rows), 10.0 * rng.normal(size=(n_species, grid.n_cells)), grid


class TestFusedGradient:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(slab_states())
    def test_matches_per_species_loop_bit_for_bit(self, state):
        positions, sensitivity, grid = state
        fused = _energy_position_gradient(positions, sensitivity, grid, grid.edges()[1:-1])
        assert np.array_equal(fused, _gradient_per_species(positions, sensitivity, grid))

    @pytest.mark.parametrize("front", END_KINDS)
    @pytest.mark.parametrize("end", END_KINDS)
    def test_each_end_branch(self, front, end):
        grid = Grid1D(16, 0.0, 1.0)
        x = np.array([0.3, 0.3, 0.4, 0.45, 0.6, 0.6])
        x[0] = {"interior": 0.2, "wall": 0.4 * x[1], "clipped": 0.0}[front]
        x[-1] = {"interior": 0.8, "wall": 1.0 - 0.4 * (1.0 - x[-2]), "clipped": 1.0}[end]
        positions = np.stack([x, 0.5 * x + 0.25])
        sens = np.random.default_rng(3).normal(size=(2, 16))
        fused = _energy_position_gradient(positions, sens, grid, grid.edges()[1:-1])
        assert np.array_equal(fused, _gradient_per_species(positions, sens, grid))

    def test_end_knot_on_the_last_edge(self):
        grid = Grid1D(49, 0.0, 1.0)
        edges = grid.edges()
        x = _last_edge_row(grid)
        positions = np.stack([x, 0.5 * x + 0.25])
        sens = np.random.default_rng(4).normal(size=(2, 49))
        fused = _energy_position_gradient(positions, sens, grid, edges[1:-1])
        assert np.array_equal(fused, _gradient_per_species(positions, sens, grid))
        # the gradient is the derivative of the energy of the deposit, whose end
        # rule is the same: moving X_L inward keeps the end interior
        inward = positions.copy()
        inward[0, -1] -= 1e-7
        energy_drop = grid.h * np.sum(sens * (_deposit_all(positions, grid, edges) - _deposit_all(inward, grid, edges)))
        assert energy_drop / 1e-7 == pytest.approx(fused[0, -1], rel=1e-4)


class TestProxNewton:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.integers(1, 40),
        st.floats(1e-6, 1e4),
        st.sampled_from(["below", "above", "floor"]),
        # l = c + log(alpha): moderate, below -765 (e^l underflows), above 736
        st.sampled_from([0.0, 800.0, -800.0]),
        st.integers(0, 2**32 - 1),
    )
    def test_warm_start_solves_and_matches_cold_start(self, n, alpha, start, shift, seed):
        rng = np.random.default_rng(seed)
        xi = np.exp(rng.uniform(-30.0, 5.0, n))
        beta = rng.uniform(-20.0, 20.0, n) + shift
        c = np.log(xi) - beta
        cold = _prox_newton(xi, alpha, beta, 1e-12, c)
        root = c - alpha * cold  # log(nu) at the root, also where nu underflows
        y0 = {
            "below": root - rng.uniform(0.0, 30.0, n),
            "above": root + rng.uniform(0.0, 30.0, n),
            "floor": np.full(n, np.log(1e-300)),
        }[start]
        warm = _prox_newton(xi, alpha, beta, 1e-12, y0)
        if shift > 0.0:
            # nu = e^(c - alpha nu) is e^c to rounding, and e^c is 0 in floating point
            assert np.array_equal(cold, np.exp(c)) and np.array_equal(warm, np.exp(c))
            return
        y = np.log(warm)
        if shift == 0.0:
            assert np.all(np.abs(y + alpha * np.exp(y) - c) < 1e-12)
        else:
            # the terms near 800 round at about 1e-13 each: read the residual in w = alpha nu
            w = alpha * warm
            assert np.all(np.abs(w + np.log(w) - np.log(alpha) - c) < 1e-12)
        np.testing.assert_allclose(warm, cold, rtol=1e-12, atol=0.0)


class TestEntropicConvergence:
    def test_inner_cap_reported(self, pd_matrix, monkeypatch):
        u0 = smooth_pair(32)
        _, report = jko_step_entropic(u0, pd_matrix, 1e-3, 1e-3)
        assert report.converged is True
        monkeypatch.setattr(jko_module, "SINKHORN_INNER_CAP", 2)
        _, report = jko_step_entropic(u0, pd_matrix, 1e-3, 1e-3)
        assert report.converged is False
        _, record = run_jko(
            u0, pd_matrix, JKOSchedule.uniform(1e-3, 1), solver="entropic", strict=False
        )
        assert record.meta["inner_converged"] is False

    def test_run_records_inner_iterations(self, pd_matrix, monkeypatch):
        u0 = smooth_pair(32)
        reports = []
        step = jko_module.jko_step_entropic

        def tapped(*args):
            u_next, report = step(*args)
            reports.append(report)
            return u_next, report

        monkeypatch.setattr(jko_module, "jko_step_entropic", tapped)
        schedule = JKOSchedule.uniform(1e-3, 2)
        _, record = run_jko(u0, pd_matrix, schedule, solver="entropic", strict=False)
        assert record.meta["inner_iterations_max"] == max(r.inner_iterations for r in reports)
        assert record.meta["inner_converged"] is True
        _, record = run_jko(u0, pd_matrix, schedule, strict=False)
        assert type(record.meta["inner_iterations_max"]) is int
        assert record.meta["inner_iterations_max"] >= 1
        assert record.meta["inner_converged"] is True


def _deposit_cdf(positions: np.ndarray, grid: Grid1D) -> np.ndarray:
    """Reference: the cumulative slab deposition of one species at the grid's edges."""
    L = positions.size
    mlev = (np.arange(L) + 0.5) / L
    edges = grid.edges()
    lo, hi = grid.x_min, grid.x_max
    if L > 1:
        q = 1.0 / L
        gap0 = positions[1] - positions[0]
        gap1 = positions[-1] - positions[-2]
        if positions[0] - gap0 > lo:  # interior front: quadratic tail
            left_x = [positions[0] - gap0, positions[0] - 0.5 * gap0]
            left_m = [0.0, q / 8.0]
        else:  # wall-adjacent: constant-density extension
            left_x = [max(lo, positions[0] - 0.5 * gap0)]
            left_m = [0.0]
        if positions[-1] + gap1 < hi:
            right_x = [positions[-1] + 0.5 * gap1, positions[-1] + gap1]
            right_m = [1.0 - q / 8.0, 1.0]
        else:
            right_x = [min(hi, positions[-1] + 0.5 * gap1)]
            right_m = [1.0]
        knots_x = np.concatenate((left_x, positions, right_x))
        knots_m = np.concatenate((left_m, mlev, right_m))
        G = np.interp(edges, knots_x, knots_m)
        G[edges < knots_x[0]] = 0.0
        G[edges >= knots_x[-1]] = 1.0
    else:
        G = np.where(edges >= positions[0], 1.0, 0.0)
    G[0] = 0.0
    G[-1] = 1.0
    return G


@st.composite
def deposit_states(draw):
    """Quantile positions of 1-3 species on 1-64 levels, each end interior,
    wall-adjacent (ghost knot beyond the wall) or touching the wall."""
    n_species = draw(st.integers(1, 3))
    n_levels = draw(st.integers(1, 64))
    x_min, x_max = draw(st.sampled_from([(0.0, 1.0), (-2.0, 2.0)]))
    grid = Grid1D(draw(st.integers(2, 80)), x_min, x_max)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for _ in range(n_species):
        x = np.sort(rng.uniform(0.2, 0.8, n_levels))
        if draw(st.booleans()):  # repeated positions
            x = np.round(x * 8.0) / 8.0
        x = x_min + grid.length * x
        if n_levels > 1:
            front, end = draw(st.sampled_from(END_KINDS)), draw(st.sampled_from(END_KINDS))
            if front == "clipped":
                x[0] = x_min
            elif front == "wall":
                x[0] = x_min + 0.4 * (x[1] - x_min)
            if end == "clipped":
                x[-1] = x_max
            elif end == "wall":
                x[-1] = x_max - 0.4 * (x_max - x[-2])
        rows.append(x)
    return np.stack(rows), grid


class TestDepositAll:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(deposit_states())
    def test_matches_per_species_deposition(self, state):
        positions, grid = state
        cdf = np.stack([_deposit_cdf(row, grid) for row in positions])
        # h times the density is the mass between consecutive edges
        batched = grid.h * _deposit_all(positions, grid, grid.edges())
        assert np.abs(batched - (cdf[:, 1:] - cdf[:, :-1])).max() <= 1e-15

    def test_end_knot_on_the_last_edge(self):
        # the end is interior: its outer knot lies inside the wall, on the last edge
        grid = Grid1D(49, 0.0, 1.0)
        x = _last_edge_row(grid)
        batched = grid.h * _deposit_all(x[None], grid, grid.edges())[0]
        assert np.abs(batched - np.diff(_deposit_cdf(x, grid))).max() <= 1e-15


@st.composite
def descent_problems(draw):
    """A smooth positive pair on 16-64 cells, a step size and a coupling."""
    n = draw(st.integers(16, 64))
    grid = Grid1D(n, 0.0, 1.0)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = grid.centers()
    rows = []
    for _ in range(2):
        c = rng.uniform(-0.3, 0.3, 3)
        rows.append(normalize(1.0 + c[0] * np.cos(np.pi * x) + c[1] * np.cos(2 * np.pi * x)
                              + c[2] * np.sin(np.pi * x), grid))
    off = rng.uniform(-0.9, 0.9)
    a = CouplingMatrix(np.array([[1.0 + rng.uniform(0, 2), off], [off, 1.0 + rng.uniform(0, 2)]]))
    tau = float(10.0 ** draw(st.floats(-4.0, -2.0)))
    return DensityVector.from_species(rows), a, tau


def _fista_reference(x_prev, tau, quad):
    """Reference: the descent in the Euclidean metric alone, as it ran before
    the Hessian metric (monotone FISTA with adaptive restart, stationarity
    stop at the longest accepted step), under the solver's current
    TOL_STATIONARITY and MAX_ITERATIONS."""
    n_levels = x_prev.shape[1]
    prox_weight = 1.0 / (tau * n_levels)
    lo, hi = quad.grid.x_min, quad.grid.x_max
    max_step = tau * n_levels
    base = quad.densities(x_prev)

    def objective(x):
        d = x - x_prev
        state = quad.densities(x)
        return 0.5 * prox_weight * _dot(d, d) + quad.energy(state, base), state

    def gradient(x, state):
        return prox_weight * (x - x_prev) + quad.gradient(x, state)

    x, obj, state_x = x_prev, 0.0, base
    grad = quad.gradient(x, base)
    target = jko_module.TOL_STATIONARITY * np.sqrt(_dot(grad, grad))
    y, obj_y, grad_y = x, obj, grad
    t, step, test_step = 1.0, max_step, 0.0
    converged = False
    iterations = 0
    while iterations < jko_module.MAX_ITERATIONS:
        iterations += 1
        while step >= STEP_FLOOR * max_step:
            z = _project_monotone(y - step * grad_y, lo, hi)
            d = z - y
            obj_z, state = objective(z)
            if obj_z <= obj_y + _dot(grad_y, d) + _dot(d, d) / (2.0 * step):
                break
            step *= 0.5
        else:
            break
        if obj_z > obj:
            if y is x:
                step *= 0.5
            if grad is None:
                grad = gradient(x, state_x)
            y, obj_y, grad_y, t = x, obj, grad, 1.0
            continue
        test_step = max(test_step, step)
        stalled = np.array_equal(z, x)
        if _dot(y - z, z - x) > 0.0:
            t = 1.0
        short = _dot(d, d) <= (step * target) ** 2
        x_old = x
        x, obj, grad, state_x = z, obj_z, None, state
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        momentum, t = (t - 1.0) / t_next, t_next
        if momentum == 0.0 or short or stalled:
            grad = gradient(x, state_x)
            if _stationarity(x, grad, test_step, lo, hi) <= target:
                converged = True
                break
            if stalled:
                break
        step = min(step * STEP_GROWTH, max_step)
        if momentum == 0.0:
            y, obj_y, grad_y = x, obj, grad
        else:
            y = _project_monotone(x + momentum * (x - x_old), lo, hi)
            obj_y, state_y = objective(y)
            grad_y = gradient(y, state_y)
    return _LagrangianResult(x, iterations, converged, quad.energy(state_x))


STRESS_KINDS = ("cosines", "bumps", "wall_blocks", "gaussians_floor")


def stress_density(kind, grid, rng):
    """One species' initial density of the given kind."""
    x = (grid.centers() - grid.x_min) / grid.length
    if kind == "cosines":
        c = rng.uniform(-0.3, 0.3, 3)
        raw = 1.0 + c[0] * np.cos(np.pi * x) + c[1] * np.cos(2 * np.pi * x) + c[2] * np.sin(np.pi * x)
    elif kind == "bumps":  # compact support away from the walls
        center, width = rng.uniform(0.35, 0.65), rng.uniform(0.1, 0.25)
        raw = np.maximum(1.0 - ((x - center) / width) ** 2, 0.0) ** rng.uniform(0.5, 2.0)
    elif kind == "wall_blocks":  # a block on a wall, and maybe a second block
        raw = np.where(x < rng.uniform(0.2, 0.5), 1.0, 0.0)
        if rng.uniform() < 0.5:
            raw += np.where(np.abs(x - rng.uniform(0.6, 0.85)) < 0.1, rng.uniform(0.5, 2.0), 0.0)
        raw = raw if rng.uniform() < 0.5 else raw[::-1]
    else:  # two Gaussians plus a floor
        centers, var = rng.uniform(0.15, 0.85, 2), rng.uniform(0.003, 0.02)
        raw = np.exp(-0.5 * (x - centers[0]) ** 2 / var) + np.exp(-0.5 * (x - centers[1]) ** 2 / var)
        raw += rng.uniform(1e-3, 0.1)
    return normalize(raw, grid)


@st.composite
def stress_problems(draw):
    """Descent problems over four input kinds: 16-200 cells, 1-3 species, a
    random SPD coupling, tau in [1e-4, 1e-1] and a stationarity tolerance of
    1e-5 or 1e-6."""
    kind = draw(st.sampled_from(STRESS_KINDS))
    # sizes from the seed, so the examples spread over the ranges instead of
    # gathering at the smallest sizes
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_species = int(rng.integers(1, 4))
    grid = Grid1D(int(rng.integers(16, 201)), 0.0, 1.0)
    u0 = DensityVector.from_species([stress_density(kind, grid, rng) for _ in range(n_species)])
    b = rng.uniform(-1.0, 1.0, (n_species, n_species))
    a = CouplingMatrix(b @ b.T + rng.uniform(0.05, 1.0) * np.eye(n_species))
    tau = float(10.0 ** rng.uniform(-4.0, -1.0))
    return u0, a, tau, float(rng.choice([1e-5, 1e-6]))


def descent_setup(u0, a):
    x_prev = _quantile_state(u0)
    return x_prev, _Quadrature(a, u0.grid, _quadrature_grid(x_prev, u0.grid), False)


class TestDescent:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(descent_problems())
    def test_feasible_monotone_and_honest(self, problem):
        u0, a, tau = problem
        grid = u0.grid
        x_prev = _quantile_state(u0)
        quad = _Quadrature(a, grid, _quadrature_grid(x_prev, grid), False)
        steps, stationarity = [], jko_module._stationarity

        def tapped(x, grad, step, lo, hi):
            steps.append(step)
            return stationarity(x, grad, step, lo, hi)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(jko_module, "_stationarity", tapped)
            result = _lagrangian_minimize(x_prev, tau, quad)
        x = result.positions
        assert np.all(np.diff(x, axis=1) >= 0.0)
        assert x.min() >= grid.x_min and x.max() <= grid.x_max
        # objective relative to its start, summed like the solver's
        base = quad.densities(x_prev)
        state = quad.densities(x)
        prox = np.sum((x - x_prev) ** 2) / (2.0 * tau * grid.n_cells)
        assert prox + quad.energy(state, base) <= 0.0
        if result.converged:
            # the last stop test is the one that passed, at a step no longer than tau * L
            assert steps[-1] <= tau * grid.n_cells
            g_prev = quad.gradient(x_prev, base)
            grad = (x - x_prev) / (tau * grid.n_cells) + quad.gradient(x, state)
            measure = _stationarity(x, grad, steps[-1], grid.x_min, grid.x_max)
            scale = np.sqrt(np.sum(g_prev * g_prev, axis=-1).sum())  # summed as the solver does
            assert measure <= jko_module.TOL_STATIONARITY * scale

    def test_iterates_never_raise_the_objective(self, pd_matrix, monkeypatch):
        # the descent is deterministic, so capping it after k iterations
        # returns its k-th iterate (without the monotone guard, two of the
        # first 60 raise the objective on this problem)
        u0 = smooth_pair(64)
        x_prev = _quantile_state(u0)
        quad = _Quadrature(pd_matrix, u0.grid, _quadrature_grid(x_prev, u0.grid), False)
        base = quad.densities(x_prev)
        previous = 0.0
        for k in range(1, 60):
            monkeypatch.setattr(jko_module, "MAX_ITERATIONS", k)
            x = _lagrangian_minimize(x_prev, 1e-3, quad).positions
            value = np.sum((x - x_prev) ** 2) / (2e-3 * 64) + quad.energy(quad.densities(x), base)
            assert value <= previous
            previous = value

    def test_iteration_cap_is_not_convergence(self, pd_matrix, monkeypatch):
        monkeypatch.setattr(jko_module, "MAX_ITERATIONS", 1)
        u0 = smooth_pair(32)
        _, report = jko_step_lagrangian(u0, pd_matrix, 1e-3)
        assert report.converged is False
        _, record = run_jko(u0, pd_matrix, JKOSchedule.uniform(1e-3, 2), strict=False)
        assert record.meta["inner_converged"] is False
        check = next(c for c in record.checks if c.name == "inner_solver_converged")
        assert not check.passed and check.margin == -2.0

    def test_stalled_line_search_is_not_convergence(self, pd_matrix, monkeypatch):
        # every candidate costs more than the model allows, so no step length
        # passes the upper bound: the descent must report failure, not success,
        # after one iteration in the Hessian metric and one in the Euclidean
        energy = _Quadrature.energy

        def no_descent(self, state, base=None):
            value = energy(self, state, base)
            return value if base is None or state is base else value + 1.0

        monkeypatch.setattr(_Quadrature, "energy", no_descent)
        u0 = smooth_pair(32)
        out, report = jko_step_lagrangian(u0, pd_matrix, 1e-3)
        assert report.converged is False
        assert report.inner_iterations == 2
        _, record = run_jko(u0, pd_matrix, JKOSchedule.uniform(1e-3, 1), strict=False)
        assert record.meta["inner_converged"] is False
        with pytest.raises(EstimateFailed, match="inner_solver_converged"):
            run_jko(u0, pd_matrix, JKOSchedule.uniform(1e-3, 1))


class TestMetricDescent:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(stress_problems())
    def test_converges_wherever_the_reference_does(self, problem):
        u0, a, tau, tol = problem
        x_prev, quad = descent_setup(u0, a)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(jko_module, "TOL_STATIONARITY", tol)
            result = _lagrangian_minimize(x_prev, tau, quad)
            base = quad.densities(x_prev)
            d = result.positions - x_prev
            assert np.sum(d * d) / (2.0 * tau * x_prev.shape[1]) + quad.energy(quad.densities(result.positions), base) <= 0.0
            if not result.converged:
                assert not _fista_reference(x_prev, tau, quad).converged

    def test_iteration_budget(self, pd_matrix):
        x_prev, quad = descent_setup(smooth_pair(128), pd_matrix)
        result = _lagrangian_minimize(x_prev, 1e-3, quad)
        assert result.converged and result.iterations <= 30
        reference = _fista_reference(x_prev, 1e-3, quad)
        assert reference.iterations > 100  # what the Euclidean metric needs
        h = quad.grid.h
        assert h * np.abs(quad.deposit(result.positions) - quad.deposit(reference.positions)).sum() <= 1e-6

    @pytest.mark.parametrize("name, value", [("METRIC_ITERATIONS", 3)])  # out of metric iterations
    def test_restart_is_the_reference_descent(self, pd_matrix, monkeypatch, name, value):
        x_prev, quad = descent_setup(smooth_pair(64), pd_matrix)
        reference = _fista_reference(x_prev, 1e-3, quad)
        spent = []
        descend = jko_module._descend

        def tapped(*args):
            result = descend(*args)
            spent.append(result.iterations)
            return result

        monkeypatch.setattr(jko_module, name, value)
        monkeypatch.setattr(jko_module, "_descend", tapped)
        result = _lagrangian_minimize(x_prev, 1e-3, quad)
        assert len(spent) == 2  # the metric descent, then the restart
        assert np.array_equal(result.positions, reference.positions)
        assert result.converged and reference.converged
        assert result.energy == reference.energy
        assert result.iterations == spent[0] + reference.iterations

    def test_unconverged_restart_keeps_the_lower_descent(self, pd_matrix, monkeypatch):
        # both descents run out of iterations, and the metric one gets further
        x_prev, quad = descent_setup(smooth_pair(64), pd_matrix)
        base = quad.densities(x_prev)
        found = []
        descend = jko_module._descend

        def tapped(*args):
            found.append(descend(*args))
            return found[-1]

        def objective(result):  # f relative to f(x_prev), summed like the solver's
            d = result.positions - x_prev
            return np.sum(d * d) / (2e-3 * 64) + quad.energy(quad.densities(result.positions), base)

        monkeypatch.setattr(jko_module, "METRIC_ITERATIONS", 3)
        monkeypatch.setattr(jko_module, "MAX_ITERATIONS", 6)
        monkeypatch.setattr(jko_module, "_descend", tapped)
        result = _lagrangian_minimize(x_prev, 1e-3, quad)
        assert len(found) == 2 and not any(r.converged for r in found)
        metric, fallback = found
        assert objective(metric) < objective(fallback)
        assert np.array_equal(result.positions, metric.positions) and result.energy == metric.energy
        assert not result.converged and result.iterations == 6

    def test_tridiagonal_inverse(self):
        rng = np.random.default_rng(5)
        off = rng.normal(size=(3, 40))
        dominance = np.pad(np.abs(off), ((0, 0), (1, 0))) + np.pad(np.abs(off), ((0, 0), (0, 1)))
        diag = rng.uniform(1.0, 2.0, (3, 41)) + dominance
        diag[2], off[2] = diag[0], off[0]
        inverse = _tridiagonal_inverse(diag, off)
        for i in range(3):
            dense = np.diag(diag[i]) + np.diag(off[i], 1) + np.diag(off[i], -1)
            np.testing.assert_allclose(inverse[i] @ dense, np.eye(41), rtol=0.0, atol=1e-14)
        assert np.array_equal(inverse[2], inverse[0])  # equal rows, equal inverses


class TestInnerConvergedCheck:
    def test_entropic_cap_fails_the_run(self, pd_matrix, monkeypatch):
        u0 = smooth_pair(32)
        schedule = JKOSchedule.uniform(1e-3, 1)
        _, record = run_jko(u0, pd_matrix, schedule, solver="entropic", strict=False)
        assert {c.name: c.passed for c in record.checks}["inner_solver_converged"]
        monkeypatch.setattr(jko_module, "SINKHORN_INNER_CAP", 2)
        _, record = run_jko(u0, pd_matrix, schedule, solver="entropic", strict=False)
        assert not {c.name: c.passed for c in record.checks}["inner_solver_converged"]
        with pytest.raises(EstimateFailed, match="inner_solver_converged"):
            run_jko(u0, pd_matrix, schedule, solver="entropic", strict=True)


def _sweep_reference(u_prev, a, tau, eps, dens, scaling, marginal, cap=500):
    """Reference: one Gauss-Seidel sweep of the per-species scaling loops.

    Each species in turn runs its own scaling loop to 1e-12 (at most ``cap``
    iterations) against the frozen marginals of the others in ``dens``, then
    writes its exact-mass marginal there.  ``dens``, ``scaling`` and
    ``marginal`` are updated in place; returns whether a loop hit its cap.
    """
    grid = u_prev.grid
    h = grid.h
    x = grid.centers()
    kernel = np.exp(-((x[:, None] - x[None, :]) ** 2) / eps)
    mu = u_prev.values * h
    capped = False
    for i in range(u_prev.n_species):
        frozen = a.entries[i] @ dens - a.entries[i, i] * dens[i]
        alpha = 2.0 * tau * a.entries[i, i] / (eps * h)
        beta = (2.0 * tau / eps) * frozen
        b, nu = scaling[i], marginal[i]
        for _ in range(cap):
            xi = kernel @ (mu[i] / (kernel @ b))
            assert xi.min() > 0.0
            nu_new = _prox_newton(xi, alpha, beta, 1e-12, np.log(np.maximum(nu, 1e-300)))
            b = nu_new / xi
            delta = float(np.abs(nu_new - nu).sum())
            nu = nu_new
            if delta < 1e-12:
                break
        else:
            capped = True
        scaling[i], marginal[i] = b, nu
        dens[i] = b * (kernel @ (mu[i] / (kernel @ b))) / h
    return capped


def _step_reference(u_prev, a, tau, eps):
    """Reference: the entropic step as Gauss-Seidel sweeps, repeated until a
    sweep moves the densities by less than 1e-9 in L1.  Returns the
    normalized densities and whether the last sweep's loops all converged."""
    h = u_prev.grid.h
    dens = u_prev.values.copy()
    scaling, marginal = np.ones_like(dens), dens * h
    for _ in range(2000):
        prev = dens.copy()
        capped = _sweep_reference(u_prev, a, tau, eps, dens, scaling, marginal)
        if h * np.abs(dens - prev).sum() < 1e-9:
            return dens / (h * dens.sum(axis=1))[:, None], not capped
    raise AssertionError("the reference sweeps did not settle")


@st.composite
def entropic_problems(draw):
    """Smooth positive pairs and triples on 16-128 cells with a coupling of
    smallest eigenvalue lambda_min, and a step size and regularization."""
    n_species = draw(st.integers(2, 3))
    grid = Grid1D(draw(st.integers(16, 128)), 0.0, 1.0)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = grid.centers()
    rows = [
        normalize(1.0 + rng.uniform(0.0, 0.3) * np.cos(np.pi * x + rng.uniform(0.0, 2.0 * np.pi)), grid)
        for _ in range(n_species)
    ]
    # lambda_min I + v v^T: eigenvalues lambda_min (N - 1 times) and lambda_min + |v|^2
    v = rng.uniform(0.2, 1.0, n_species)
    a = CouplingMatrix(draw(st.floats(0.02, 1.0)) * np.eye(n_species) + np.outer(v, v))
    tau = float(10.0 ** draw(st.floats(-3.0, np.log10(5e-2))))
    eps = float(10.0 ** draw(st.floats(np.log10(5e-4), np.log10(2e-3))))
    return DensityVector.from_species(rows), a, tau, eps


class TestJointScaling:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(entropic_problems())
    def test_matches_the_sweep_reference(self, problem):
        u0, a, tau, eps = problem
        out, report = jko_step_entropic(u0, a, tau, eps)
        ref, ref_converged = _step_reference(u0, a, tau, eps)
        assert report.converged and ref_converged
        assert u0.grid.h * np.abs(out.values - ref).sum() <= 1e-8

    # at tau / eps = 100 the scaling vectors of the unshifted pressures sit
    # near exp(-2 tau p / eps) ~ e^-600, and the loop used to run into NaN
    @pytest.mark.parametrize(
        "n_species, tau, eps",
        [(2, 1e-3, 1e-3), (2, 1e-2, 5e-4), (2, 5e-2, 5e-4), (3, 5e-3, 2e-3), (3, 2e-2, 1e-3)],
    )
    def test_returned_state_is_a_fixed_point_of_a_sweep(self, n_species, tau, eps):
        u0, a = _shifted_cosines(n_species)
        grid = u0.grid
        out, report = jko_step_entropic(u0, a, tau, eps)
        assert report.converged
        dens = out.values.copy()
        # from cold scaling vectors a loop needs more than the sweeps' 500
        # iterations at the larger tau / eps
        start = np.ones_like(dens), u0.values * grid.h
        assert not _sweep_reference(u0, a, tau, eps, dens, *start, cap=20000)
        # 1e-9 is the sweeps' own stopping tolerance
        assert grid.h * np.abs(dens - out.values).sum() < 1e-9

    def test_mixing_cuts_the_passes_of_a_stiff_step(self):
        # the plain joint loop took 7,530 passes on this fixed-point case
        u0, a = _shifted_cosines(2)
        _, report = jko_step_entropic(u0, a, 5e-2, 5e-4)
        assert report.converged and report.inner_iterations <= 1500

    def test_a_mix_that_raises_the_objective_is_dropped(self):
        # with every mix kept, this stiff triple (tau / eps = 86) was carried to a state where
        # passes crept by less than 1e-12, 0.13 in L1 from the fixed point of the sweeps
        grid = Grid1D(93, 0.0, 1.0)
        x = grid.centers()
        bumps = [
            (0.37852650257401244, 0.03908753427737696, 0.001389597177586275),
            (0.38577224830370904, 0.038924972305969724, 0.11727796533775454),
            (0.46616195954175266, 0.024746395949243355, 0.0037219479865215448),
        ]
        u0 = DensityVector.from_species(
            [normalize(np.exp(-((x - c) ** 2) / (2.0 * var)) + floor, grid) for c, var, floor in bumps]
        )
        w = np.array([0.2476784, 0.92773846, 0.70163633])
        a = CouplingMatrix(0.1238956852466354 * np.eye(3) + np.outer(w, w))
        tau, eps = 0.03240654431965732, 0.000377844647137751
        out, report = jko_step_entropic(u0, a, tau, eps)
        assert report.converged
        dens = out.values.copy()
        assert not _sweep_reference(u0, a, tau, eps, dens, np.ones_like(dens), u0.values * grid.h, cap=20000)
        assert grid.h * np.abs(dens - out.values).sum() < 1e-9

    def test_mixing_cuts_the_passes_per_step_of_a_smooth_run(self, pd_matrix):
        # the parabolic_cross benchmark's pair: 124 plain passes per step
        schedule = JKOSchedule.uniform(1e-3, 4)
        _, record = run_jko(smooth_pair(128), pd_matrix, schedule, solver="entropic", eps=1e-3)
        assert record.meta["inner_converged"] and record.meta["inner_iterations_max"] <= 60


def _shifted_cosines(n_species):
    """Cosine bumps shifted by 2 pi / N on 96 cells, and the coupling I + 1 1^T."""
    grid = Grid1D(96, 0.0, 1.0)
    x = grid.centers()
    u0 = DensityVector.from_species(
        [normalize(1.0 + 0.25 * np.cos(np.pi * x + 2.0 * np.pi * i / n_species), grid) for i in range(n_species)]
    )
    return u0, CouplingMatrix(np.eye(n_species) + np.ones((n_species, n_species)))
