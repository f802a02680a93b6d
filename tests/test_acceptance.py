"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
Expensive benchmark runs are shared through session fixtures.
"""

import numpy as np
import pytest
from scipy.optimize import linprog

import btflow.jko as jko_module
from btflow.energies import CouplingMatrix
from btflow.fdref import (
    barenblatt,
    barenblatt_peak_time,
    l1_error,
    l1_error_vector,
    run_bt4_fd,
    run_bt_fd,
)
from btflow.hyperbolic import run_hyperbolic, split_state
from btflow.jko import (
    JKOSchedule,
    jko_step_entropic,
    jko_step_lagrangian,
    optimality_residual,
    run_jko,
)
from btflow.measures import DensityVector, Grid1D, normalize
from btflow.skt import SKTConfig, build_mobility, joint_stable_dt, product_gaussian, run_skt_scenario, step_joint_fd
from btflow.transport1d import kantorovich_potential_1d, w2_exact
from conftest import smooth_pair

T0 = barenblatt_peak_time()
A_UNIT = CouplingMatrix(np.array([[1.0]]))
A_PD = CouplingMatrix(np.array([[2.0, 1.0], [1.0, 2.0]]))


def report(criterion: str, passed: bool, detail: str):
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


# --- shared benchmark runs -------------------------------------------------


@pytest.fixture(scope="session")
def barenblatt_run():
    """N=1 closure benchmark: n=256, L=256, tau=1e-3, 250 steps."""
    grid = Grid1D(256, -2.0, 2.0)
    u0 = DensityVector(grid, barenblatt(T0, grid).values[None, :])
    trajectory, record = run_jko(
        u0, A_UNIT, JKOSchedule.uniform(1e-3, 250), strict=False
    )
    return grid, trajectory, record


@pytest.fixture(scope="session")
def pd_benchmark_run():
    """N=2 positive definite benchmark to t = 0.05 (Lagrangian run_jko)."""
    u0 = smooth_pair(128)
    trajectory, record = run_jko(
        u0, A_PD, JKOSchedule.uniform(1e-3, 50), strict=False
    )
    return u0, trajectory, record


@pytest.fixture(scope="session")
def segregated_state():
    grid = Grid1D(256, 0.0, 1.0)
    x = grid.centers()
    u1 = np.where((x > 0.15) & (x < 0.42), 1.0, 0.0)
    u1 /= grid.h * u1.sum()
    u2 = u1[::-1].copy()
    return DensityVector(grid, np.stack([u1, u2]))


@pytest.fixture(scope="session")
def splitting_run(segregated_state):
    return run_hyperbolic(segregated_state, "splitting", t_final=0.2, strict=False)


@pytest.fixture(scope="session")
def transport_run(segregated_state):
    return run_hyperbolic(
        segregated_state, "pressure_transport", t_final=0.2, strict=False
    )


# --- criteria ---------------------------------------------------------------


def test_criterion_01_ot_exactness_vs_lp():
    """w2_exact matches a brute-force transport LP on random 8-cell pairs."""

    def lp_w2_squared(u, v):
        n = u.grid.n_cells
        x = u.grid.centers()
        cost = ((x[:, None] - x[None, :]) ** 2).ravel()
        rows = []
        for i in range(n):
            r = np.zeros((n, n))
            r[i, :] = 1.0
            rows.append(r.ravel())
        for j in range(n):
            r = np.zeros((n, n))
            r[:, j] = 1.0
            rows.append(r.ravel())
        res = linprog(
            cost,
            A_eq=np.array(rows),
            b_eq=np.concatenate([u.values * u.grid.h, v.values * v.grid.h]),
            bounds=(0, None),
            method="highs",
        )
        assert res.success
        return res.fun

    import time

    rng = np.random.default_rng(42)
    grid = Grid1D(8, 0.0, 1.0)
    tic = time.time()
    worst = 0.0
    for _ in range(20):
        u = normalize(rng.uniform(0.05, 1.0, 8), grid)
        v = normalize(rng.uniform(0.05, 1.0, 8), grid)
        worst = max(worst, abs(w2_exact(u, v) ** 2 - lp_w2_squared(u, v)))
    elapsed = time.time() - tic
    report(
        "criterion 1 (1D OT exactness)",
        worst <= 1e-8 and elapsed < 1.0,
        f"worst |w2^2 - LP| = {worst:.3g}, runtime {elapsed:.2f}s",
    )


def test_criterion_02_kantorovich_identity():
    """|int |grad phi|^2 u - W2^2| small and refining at factor >= 1.5."""

    def residual(n, seed):
        grid = Grid1D(n, 0.0, 1.0)
        rng = np.random.default_rng(seed)
        c = rng.uniform(-0.3, 0.3, 3)
        x = grid.centers()
        u = normalize(1.0 + c[0] * np.cos(np.pi * x) + c[1] * np.sin(2 * np.pi * x), grid)
        v = normalize(1.0 + c[2] * np.cos(3 * np.pi * x), grid)
        phi = kantorovich_potential_1d(u, v)
        return abs(grid.h * np.sum(phi.gradient**2 * u.values) - w2_exact(u, v) ** 2)

    bound = 2.0 * (1.0 / 128 + 1.0 / 128) * 1.0
    worst = max(residual(128, seed) for seed in range(10))
    ratios = [residual(128, seed) / max(residual(256, seed), 1e-18) for seed in range(10)]
    ok = worst <= bound and min(ratios) >= 1.5
    report(
        "criterion 2 (Kantorovich identity)",
        ok,
        f"worst residual {worst:.3g} <= {bound:.3g}, min refinement ratio {min(ratios):.2f}",
    )


def test_criterion_03_jko_barenblatt_closure(barenblatt_run):
    """Terminal L1 error vs the self-similar oracle after 250 steps."""
    grid, trajectory, _ = barenblatt_run
    err = l1_error(trajectory[-1].species(0), barenblatt(T0 + 0.25, grid))
    report("criterion 3 (JKO-Barenblatt closure)", err <= 5e-2, f"terminal L1 = {err:.4f}")


def test_criterion_04_cross_solver_agreement():
    """Lagrangian vs entropic steps stay within 5e-2 in L1 over 50 steps."""
    u_lagr = u_entr = smooth_pair(128)
    worst = 0.0
    for _ in range(50):
        u_lagr, _ = jko_step_lagrangian(u_lagr, A_PD, 1e-3)
        u_entr, _ = jko_step_entropic(u_entr, A_PD, 1e-3, 1e-3)
        worst = max(worst, l1_error_vector(u_lagr, u_entr))
    report("criterion 4 (cross-solver agreement)", worst <= 5e-2, f"worst L1 gap = {worst:.4f}")


def test_criterion_05_jko_fd_closure(pd_benchmark_run):
    """run_jko vs the explicit finite-difference reference at t = 0.05."""
    u0, trajectory, _ = pd_benchmark_run
    u_fd = run_bt_fd(u0, A_PD, 0.05)
    gap = l1_error_vector(trajectory[-1], u_fd)
    report("criterion 5 (JKO-FD closure)", gap <= 5e-2, f"L1 gap = {gap:.4f}")


def test_criterion_06_estimate_suite(barenblatt_run, pd_benchmark_run):
    """Energy/telescoped/Hoelder/dissipation checks plus residual refinement."""
    failures = []
    for label, (_, _, record) in (("barenblatt", barenblatt_run), ("pd", pd_benchmark_run)):
        for check in record.checks:
            if not check.passed:
                failures.append(f"{label}:{check.name}")
    ratios = []
    prev = None
    for n in (32, 64, 128):
        u0 = smooth_pair(n)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(jko_module, "TOL_STATIONARITY", 1e-6)
            mp.setattr(jko_module, "MAX_ITERATIONS", 30000)
            out, _ = jko_step_lagrangian(u0, A_PD, 1e-3)
        worst = optimality_residual(u0, out, A_PD, 1e-3)
        if prev is not None:
            ratios.append(prev / worst)
        prev = worst
    ok = not failures and min(ratios) >= 1.5
    report(
        "criterion 6 (estimate suite)",
        ok,
        f"check failures: {failures or 'none'}; residual ratios {[f'{r:.2f}' for r in ratios]}",
    )


def test_criterion_07_hyperbolic_invariants(segregated_state, splitting_run):
    """TV decay, fraction bounds, segregation and pressure consistency."""
    run = splitting_run
    problems = [c.name for c in run.record.checks if not c.passed]
    final = run.trajectory[-1]
    threshold = 1e-8 * final.values.max()
    overlap = int(np.sum((final.values[0] > threshold) & (final.values[1] > threshold)))
    if overlap > 2:
        problems.append(f"support overlap {overlap} cells")
    p0 = split_state(segregated_state).pressure
    reference = run_bt_fd(DensityVector(p0.grid, p0.values[None, :]), A_UNIT, 0.2)
    pressure_gap = l1_error(run.pressures[-1], reference.species(0))
    if pressure_gap > 5e-2:
        problems.append(f"pressure gap {pressure_gap:.3g}")
    report(
        "criterion 7 (hyperbolic invariants)",
        not problems,
        f"overlap {overlap} cells, pressure L1 {pressure_gap:.2g}, checks {problems or 'all pass'}",
    )


def test_criterion_08_metric_speed_bound(transport_run):
    """W2(u^k, u^{k+1}) <= sqrt(2) W2(p_k, p_{k+1}) + 1e-8 at every step."""
    record = transport_run.record
    excess = record.w2_increments - np.sqrt(2.0) * record.meta["pressure_increments"]
    worst = float(excess.max())
    report(
        "criterion 8 (metric-speed bound)",
        worst <= 1e-8,
        f"worst excess = {worst:.3g} over {excess.size} steps",
    )


def test_criterion_09_skt_entropy_growth():
    """Relative entropy: tiny start, tenfold growth, monotone after contact."""
    import time

    tic = time.time()
    run = run_skt_scenario(SKTConfig(), strict=False)
    elapsed = time.time() - tic
    ent = run.record.entropy
    t = run.record.times
    problems = [c.name for c in run.record.checks if not c.passed]
    if run.contact_time is None:
        problems.append("no diagonal contact")
    if elapsed > 600:
        problems.append(f"runtime {elapsed:.0f}s")
    report(
        "criterion 9 (SKT entropy growth)",
        not problems,
        f"H: {ent[0]:.2g} -> {ent[-1]:.3g}, contact t={run.contact_time}, "
        f"mass drift {run.record.meta['mass_series_max_drift']:.2g}, {elapsed:.1f}s",
    )


def test_criterion_10_skt_symmetry():
    """Swap-reflection symmetry of the scheme preserved to 1e-12 for 100 steps."""
    cfg = SKTConfig()
    grid = cfg.grid()
    mobility = build_mobility(grid, cfg.sigma, cfg.c_floor)
    p = product_gaussian(grid, cfg.center, cfg.variance)
    for _ in range(100):
        p = step_joint_fd(p, mobility, 0.5 * joint_stable_dt(p, mobility))
    err = float(np.abs(p.values - p.values[::-1, ::-1].T).max())
    report("criterion 10 (SKT symmetry)", err <= 1e-12, f"asymmetry after 100 steps = {err:.2g}")


def test_criterion_11_fourth_order_properties():
    """Fourth-order stepper: exact mass, nonincreasing augmented energy."""
    grid = Grid1D(64, 0.0, 1.0)
    x = grid.centers()
    vals = np.stack(
        [
            1.0 + 0.3 * np.cos(np.pi * x) + 0.1 * np.cos(2 * np.pi * x),
            1.0 - 0.2 * np.cos(np.pi * x) + 0.05 * np.sin(np.pi * x) ** 2,
        ]
    )
    vals /= grid.h * vals.sum(axis=1, keepdims=True)
    u0 = DensityVector(grid, vals)
    u_final, energies = run_bt4_fd(u0, A_PD, 100)
    mass_drift = float(np.abs(grid.h * u_final.values.sum(axis=1) - 1.0).max())
    worst_rise = float(np.diff(energies).max())
    ok = mass_drift <= 1e-12 and worst_rise <= 0.0
    report(
        "criterion 11 (fourth-order properties)",
        ok,
        f"mass drift {mass_drift:.2g}, worst energy rise {worst_rise:.3g}",
    )
