"""Convergence against the exact Barenblatt profile under grid refinement.

Each solver runs the N = 1 porous-medium flow on [-2, 2] from the profile at
its peak time to 0.1 later, at doubling cell counts, and is compared with the
exact profile there in L1.  The splitting scheme solves the same equation for
its pressure when the profile is split at x = 0 into two unit-mass species.

Each test asserts, per doubling, an error ratio of at least RATIO_MARGIN times
the smallest measured one, and at the coarsest grid an error of at most
BOUND_MARGIN times the measured one.  The measured errors are in the
comments.
"""

import numpy as np

from btflow.energies import CouplingMatrix
from btflow.fdref import barenblatt, barenblatt_peak_time, l1_error, run_bt_fd
from btflow.hyperbolic import run_hyperbolic
from btflow.jko import JKOSchedule, run_jko
from btflow.measures import DensityVector, Grid1D

T0 = barenblatt_peak_time()
T_FINAL = 0.1
RATIO_MARGIN = 0.8
BOUND_MARGIN = 1.2


def barenblatt_start(n_cells: int) -> tuple[Grid1D, np.ndarray]:
    grid = Grid1D(n_cells, -2.0, 2.0)
    return grid, barenblatt(T0, grid).values


def exact_error(density, grid: Grid1D) -> float:
    return l1_error(density, barenblatt(T0 + T_FINAL, grid))


def assert_converges(errors: list, measured: list):
    ratios = [coarse / fine for coarse, fine in zip(errors, errors[1:])]
    smallest = min(a / b for a, b in zip(measured, measured[1:]))
    assert min(ratios) >= RATIO_MARGIN * smallest, (errors, ratios)
    assert errors[0] <= BOUND_MARGIN * measured[0], errors


def test_finite_difference_reference_converges():
    # measured 1.78e-3, 4.05e-4, 1.26e-4, 3.40e-5 (ratios 4.4, 3.2, 3.7)
    errors = []
    for n in (64, 128, 256, 512):
        grid, values = barenblatt_start(n)
        u = run_bt_fd(DensityVector(grid, values[None, :]), CouplingMatrix(np.eye(1)), T_FINAL)
        errors.append(exact_error(u.species(0), grid))
    assert_converges(errors, [1.78e-3, 4.05e-4, 1.26e-4, 3.40e-5])


def test_splitting_pressure_converges():
    # measured 1.27e-3, 2.86e-4, 8.79e-5 (ratios 4.4, 3.3)
    errors = []
    for n in (64, 128, 256):
        grid, values = barenblatt_start(n)
        x = grid.centers()
        u0 = DensityVector(grid, np.stack([2.0 * values * (x < 0.0), 2.0 * values * (x > 0.0)]))
        run = run_hyperbolic(u0, "splitting", t_final=T_FINAL)
        errors.append(exact_error(run.pressures[-1], grid))
    assert_converges(errors, [1.27e-3, 2.86e-4, 8.79e-5])


def test_lagrangian_solver_converges():
    # tau 2e-3, 50 steps; measured 5.41e-3, 4.18e-3, 2.95e-3, 1.83e-3 (ratios 1.29, 1.42, 1.61),
    # about order 0.5: most of it is the quantile representation of the start
    errors = []
    for n in (64, 128, 256, 512):
        grid, values = barenblatt_start(n)
        u0 = DensityVector(grid, values[None, :])
        trajectory, record = run_jko(u0, CouplingMatrix(np.eye(1)), JKOSchedule.uniform(2e-3, 50), strict=False)
        assert record.meta["inner_converged"]
        errors.append(exact_error(trajectory[-1].species(0), grid))
    assert_converges(errors, [5.41e-3, 4.18e-3, 2.95e-3, 1.83e-3])
