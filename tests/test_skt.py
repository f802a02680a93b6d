import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import btflow.skt as skt_module
from btflow.errors import (
    CFLViolation,
    DimensionMismatch,
    EstimateFailed,
    InvalidDensity,
    NegativityDetected,
    NonpositiveTime,
)
from btflow.fdref import OracleProfile, l1_error
from btflow.measures import Grid2D, JointDensity, normalize
from btflow.skt import (
    CONTACT_BAND_MASS,
    MarginalPair,
    MobilityField,
    SKTConfig,
    _Decoupled,
    _relative_entropy,
    _Stencil,
    build_mobility,
    compare_correlated_vs_decoupled,
    constant_mobility,
    decoupled_stable_dt,
    joint_stable_dt,
    marginals,
    product_gaussian,
    relative_entropy,
    run_skt_scenario,
    step_decoupled_fd,
    step_joint_fd,
)


def square_grid(n=32, lo=-5.0, hi=5.0):
    return Grid2D(n, n, lo, hi)


class TestMobility:
    def test_peak_on_diagonal(self):
        g = square_grid(16)
        mob = build_mobility(g, sigma=0.5, c_floor=0.1)
        z = 1.0 / (0.5 * np.sqrt(2 * np.pi))
        np.testing.assert_allclose(np.diag(mob.values), 0.1 + z, atol=1e-12)
        assert mob.upper_bound == pytest.approx(0.1 + z)

    def test_far_field_floor(self):
        g = square_grid(32)
        mob = build_mobility(g, sigma=0.3, c_floor=0.05)
        assert mob.values[0, -1] == pytest.approx(0.05, abs=1e-12)
        assert mob.lower_bound >= 0.05

    def test_halving_sigma_doubles_peak(self):
        g = square_grid(16)
        m1 = build_mobility(g, sigma=0.4, c_floor=0.1)
        m2 = build_mobility(g, sigma=0.2, c_floor=0.1)
        peak1 = m1.upper_bound - 0.1
        peak2 = m2.upper_bound - 0.1
        assert peak2 == pytest.approx(2.0 * peak1, rel=1e-12)

    def test_swap_symmetry(self):
        g = square_grid(16)
        mob = build_mobility(g, sigma=0.3, c_floor=0.1)
        np.testing.assert_allclose(mob.values, mob.values.T, atol=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            build_mobility(square_grid(8), sigma=-1.0, c_floor=0.1)
        with pytest.raises(DimensionMismatch):
            MobilityField(square_grid(8), np.ones((8, 7)))

    @pytest.mark.parametrize(
        "build, value",
        [
            (lambda g: build_mobility(g, sigma=math.nan, c_floor=0.1), "sigma .*nan"),
            (lambda g: build_mobility(g, sigma=0.3, c_floor=math.nan), "c_floor .*nan"),
            (lambda g: build_mobility(g, sigma=True, c_floor=0.1), "sigma .*True"),
            (lambda g: constant_mobility(g, math.nan), "found nan"),
            (lambda g: MobilityField(g, np.where(np.eye(8) > 0, np.nan, 1.0)), "found nan"),
        ],
    )
    def test_non_finite_inputs_rejected(self, build, value):
        # each built an all-NaN mobility, and sigma=True ran as 1
        with pytest.raises(ValueError, match=value):
            build(square_grid(8))


class TestStepJointFd:
    def test_constant_density_fixed(self):
        g = Grid2D(16, 16, 0.0, 1.0)
        p = JointDensity(g, np.ones((16, 16)))
        mob = constant_mobility(g, 1.0)
        out = step_joint_fd(p, mob, 0.5 * joint_stable_dt(p, mob))
        np.testing.assert_array_equal(out.values, p.values)

    def test_mass_conserved(self):
        g = square_grid(32)
        p = product_gaussian(g, (-1.0, 1.0), 0.5)
        mob = build_mobility(g, 0.5, 0.2)
        out = p
        for _ in range(20):
            out = step_joint_fd(out, mob, 0.5 * joint_stable_dt(out, mob))
        assert g.h1 * g.h2 * out.values.sum() == pytest.approx(1.0, abs=1e-12)

    def test_rotation_equivariance_constant_mobility(self):
        # with M constant the dynamics is the 2D porous-medium flow; a
        # quarter-turn symmetric state stays symmetric (the sequential axis
        # sweeps add in a fixed order, so drift is a few ulp per step)
        g = Grid2D(32, 32, -1.0, 1.0)
        p = product_gaussian(g, (0.0, 0.0), 0.05)
        mob = constant_mobility(g, 1.0)
        state = p
        for _ in range(10):
            state = step_joint_fd(state, mob, 0.5 * joint_stable_dt(state, mob))
        assert np.abs(state.values - np.rot90(state.values)).max() <= 1e-12

    def test_swap_reflection_equivariance(self):
        cfg = SKTConfig(n1=32, n2=32)
        g = cfg.grid()
        mob = build_mobility(g, cfg.sigma, cfg.c_floor)
        p = product_gaussian(g, cfg.center, cfg.variance)

        def sym(v):
            return v[::-1, ::-1].T

        state = p
        for _ in range(50):
            state = step_joint_fd(state, mob, 0.5 * joint_stable_dt(state, mob))
        assert np.abs(state.values - sym(state.values)).max() <= 1e-12

    def test_cfl_violation(self):
        g = square_grid(16)
        p = product_gaussian(g, (0.0, 0.0), 1.0)
        mob = constant_mobility(g, 1.0)
        with pytest.raises(CFLViolation):
            step_joint_fd(p, mob, 10.0 * joint_stable_dt(p, mob))

    def test_sharp_mobility_jump_goes_negative_within_the_bound(self):
        # joint_stable_dt takes M and p at one cell while the fluxes average M over
        # faces, so half the bound (the runs' CFL_SAFETY) undershoots to -3.08 here;
        # this pins that behaviour until the bound is taken over the face averages
        g = Grid2D(4, 4, -1.0, 1.0)
        v = np.zeros((4, 4))
        v[3, 2] = 1.0 / (g.h1 * g.h2)
        p = JointDensity(g, v)
        mob = build_mobility(g, sigma=0.125, c_floor=0.125)
        with pytest.raises(NegativityDetected, match=r"negative cell -3\.07568"):
            step_joint_fd(p, mob, 0.5 * joint_stable_dt(p, mob))
        assert step_joint_fd(p, mob, 0.25 * joint_stable_dt(p, mob)).values.min() >= 0.0

    def test_lone_cell_drains_to_zero_at_twice_the_bound(self):
        # on a constant mobility a lone interior cell loses exactly its value at
        # 2 stable_dt, and the step clamps the rounding to 0; a step 1e-7 longer
        # undershoots by 1e-7 of the cell, far below the clamp's -1e-13 max(1, max p)
        for n in range(3, 12):
            g = Grid2D(n, n, 0.0, 1.0)
            stencil = _Stencil(constant_mobility(g))
            for cell in {(1, 1), (n // 2, n // 2), (n - 2, 1)}:
                v = np.zeros((n, n))
                v[cell] = 1.0 / (g.h1 * g.h2)
                new, low, _ = stencil.step(v, 2.0 * stencil.stable_dt(v))
                assert low == 0.0 and new[cell] == 0.0 and new.min() == 0.0, (n, cell)
                with pytest.raises(NegativityDetected):
                    stencil.step(v, 2.0000001 * stencil.stable_dt(v))

    def test_nan_cell_raises_invalid_density(self):
        g = Grid2D(4, 4, 0.0, 1.0)
        v = np.ones((4, 4))
        v[1, 1] = np.nan
        with pytest.raises(InvalidDensity, match="by nan"):
            _Stencil(constant_mobility(g)).step(v, 1e-3)

    def test_axis_swap_symmetry_on_unequal_counts(self):
        # the axes share one domain but not a cell count, so h1 != h2: axis 1
        # steps with h1 and axis 2 with h2, and transposing the grid and the
        # state transposes the mobility, the step bound and the step, and
        # swaps the marginals
        g, g_t = Grid2D(24, 32, -2.0, 2.0), Grid2D(32, 24, -2.0, 2.0)
        mob, mob_t = build_mobility(g, 0.4, 0.2), build_mobility(g_t, 0.4, 0.2)
        np.testing.assert_array_equal(mob_t.values, mob.values.T)
        p = product_gaussian(g, (0.3, -0.5), 0.4)
        p_t = JointDensity(g_t, p.values.T.copy())
        dt = joint_stable_dt(p, mob)
        assert joint_stable_dt(p_t, mob_t) == dt
        q, q_t = step_joint_fd(p, mob, 0.5 * dt), step_joint_fd(p_t, mob_t, 0.5 * dt)
        np.testing.assert_allclose(q_t.values, q.values.T, rtol=1e-13, atol=0.0)
        m, m_t = marginals(q), marginals(q_t)
        np.testing.assert_allclose(m_t.u1.values, m.u2.values, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(m_t.u2.values, m.u1.values, rtol=1e-13, atol=0.0)
        assert relative_entropy(q) > 0.0
        assert relative_entropy(q_t) == pytest.approx(relative_entropy(q), rel=1e-10)


class TestMarginals:
    def test_product_recovers_factors(self):
        g = square_grid(24)
        gx = g.axis1()
        u = normalize(np.exp(-0.5 * (gx.centers() + 1.0) ** 2), gx)
        v = normalize(np.exp(-0.5 * (gx.centers() - 2.0) ** 2 / 0.5), gx)
        p = JointDensity(g, np.outer(u.values, v.values))
        pair = marginals(p)
        np.testing.assert_allclose(pair.u1.values, u.values, atol=1e-12)
        np.testing.assert_allclose(pair.u2.values, v.values, atol=1e-12)

    def test_symmetric_joint_equal_marginals(self):
        g = square_grid(16)
        c1, c2 = g.centers()
        vals = np.exp(-0.5 * (c1[:, None] ** 2 + c2[None, :] ** 2))
        vals /= g.h1 * g.h2 * vals.sum()
        pair = marginals(JointDensity(g, vals))
        np.testing.assert_allclose(pair.u1.values, pair.u2.values, atol=1e-14)

    def test_unit_masses(self):
        g = square_grid(16)
        p = product_gaussian(g, (-2.0, 2.0), 0.4)
        pair = marginals(p)
        assert g.h1 * pair.u1.values.sum() == pytest.approx(1.0, abs=1e-12)
        assert g.h2 * pair.u2.values.sum() == pytest.approx(1.0, abs=1e-12)


class TestRelativeEntropy:
    def test_product_density_zero(self):
        g = square_grid(24)
        p = product_gaussian(g, (-1.0, 1.0), 0.5)
        assert abs(relative_entropy(p)) <= 1e-12

    def test_uniform_diagonal_log_n(self):
        # p uniform on the n diagonal cells of an n x n grid has marginals
        # uniform over rows/columns, so H = log n exactly
        n = 4
        g = Grid2D(n, n, 0.0, 1.0)
        vals = np.diag(np.full(n, (1.0 / n) / (g.h1 * g.h2)))  # mass 1/n per diagonal cell
        p = JointDensity(g, vals)
        assert relative_entropy(p) == pytest.approx(np.log(n), abs=1e-12)

    def test_mixture_monotone_in_correlation(self):
        n = 16
        g = Grid2D(n, n, 0.0, 1.0)
        product = np.ones((n, n))
        diagonal = np.diag(np.full(n, n))
        values = []
        for epsilon in (0.0, 0.25, 0.5):
            mix = (1 - epsilon) * product + epsilon * diagonal
            values.append(relative_entropy(JointDensity(g, mix)))
        assert values[0] <= 1e-12
        assert values[0] < values[1] < values[2]

    def test_negative_value_raises(self, monkeypatch):
        # twice a product density, let past the marginals' mass check: the separated
        # sum gives -2 log 2, which no unit-mass density can reach
        monkeypatch.setattr(skt_module, "MASS_TOL_1D", 2.0)
        g = square_grid(12)
        p = product_gaussian(g, (-1.0, 1.0), 0.5)
        with pytest.raises(EstimateFailed, match="fell below -1e-12"):
            _relative_entropy(2.0 * p.values, float(p.values.min()), g)

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        g = square_grid(12)
        vals = rng.uniform(0.1, 1.0, (12, 12))
        vals /= g.h1 * g.h2 * vals.sum()
        assert relative_entropy(JointDensity(g, vals)) >= -1e-12


class TestScenario:
    def test_default_scenario_checks(self):
        cfg = SKTConfig(n1=64, n2=64, t_final=0.5, dt_cap=1e-2, snapshot_times=(0.5,))
        run = run_skt_scenario(cfg)
        assert run.record.all_passed()
        ent = run.record.entropy
        assert ent[0] <= 1e-6
        assert ent[-1] > 10 * max(ent[0], 0.0)
        assert run.contact_time is not None
        assert len(run.snapshots) == 1
        assert len(run.marginal_snapshots) == 1
        meta = run.record.meta
        assert meta["steps"] == len(run.record.times) - 1
        assert 0.0 < meta["dt_min"] <= meta["dt_max"] <= cfg.dt_cap

    def test_entropy_monotone_after_contact(self):
        cfg = SKTConfig(n1=64, n2=64, t_final=0.4, dt_cap=1e-2)
        run = run_skt_scenario(cfg)
        t = run.record.times
        ent = run.record.entropy
        after = ent[t >= run.contact_time]
        assert np.diff(after).min() >= -1e-9

    def test_step_budget(self, monkeypatch):
        # c_floor 1e9: no step is longer than CFL_SAFETY min(h)^2 area / (4 c_floor) = 4.9e-9,
        # so the config alone is refused before any step (it once stepped without end);
        # c_floor 100: the config alone asks for 10.2 steps and the run takes 71
        def step(self, v, dt):
            raise AssertionError("stepped a run that cannot fit the step budget")

        monkeypatch.setattr(skt_module, "MAX_STEPS", 50)
        runs = (run_skt_scenario, compare_correlated_vs_decoupled)
        with monkeypatch.context() as m:
            m.setattr(_Stencil, "step", step)
            for run in runs:
                with pytest.raises(RuntimeError, match=r"needs at least 2\.05e\+07 steps"):
                    run(SKTConfig(n1=16, n2=16, t_final=0.1, c_floor=1e9))
        for run in runs:
            with pytest.raises(RuntimeError, match=r"skt run exceeded the step budget$"):
                run(SKTConfig(n1=16, n2=16, t_final=0.5, c_floor=100.0, dt_cap=1.0))

    def test_entropy_growth_check_not_vacuous(self):
        # the product start has H0 of order 1e-16, so "ten times H0" alone
        # would pass for any entropy build-up, however small
        cfg = SKTConfig(n1=48, n2=48, t_final=1e-3)
        run = run_skt_scenario(cfg, strict=False)
        growth = next(c for c in run.record.checks if c.name == "entropy_grows_tenfold")
        assert 0.0 < run.record.entropy[-1] < 1e-5
        assert not growth.passed and growth.tolerance == 0.0
        with pytest.raises(EstimateFailed):
            run_skt_scenario(cfg)

    def test_run_matches_public_steps_bit_for_bit(self):
        cfg = SKTConfig(n1=48, n2=48, t_final=0.2, dt_cap=1e-2, snapshot_times=(0.05, 0.2))
        run = run_skt_scenario(cfg, strict=False)
        g = cfg.grid()
        mob = build_mobility(g, cfg.sigma, cfg.c_floor)
        p = product_gaussian(g, cfg.center, cfg.variance)
        c1, c2 = g.centers()
        band = np.abs(c1[:, None] - c2[None, :]) < 2.0 * cfg.sigma
        area = g.h1 * g.h2
        times, entropies, masses, snapshots = [0.0], [relative_entropy(p)], [area * p.values.sum()], []
        contact, pending, t = None, list(cfg.snapshot_times), 0.0
        while t < cfg.t_final:
            dt = min(skt_module.CFL_SAFETY * joint_stable_dt(p, mob), cfg.dt_cap, cfg.t_final - t)
            if pending and t + dt > pending[0] - 1e-12:
                dt = max(pending[0] - t, 1e-12)
            p = step_joint_fd(p, mob, dt)
            t += dt
            times.append(t)
            entropies.append(relative_entropy(p))
            masses.append(area * p.values.sum())
            if contact is None and area * p.values[band].sum() > CONTACT_BAND_MASS:
                contact = t
            if pending and t >= pending[0] - 1e-12:
                snapshots.append((t, p))
                pending.pop(0)
        np.testing.assert_array_equal(run.record.times, times)
        np.testing.assert_array_equal(run.record.entropy, entropies)
        assert run.contact_time == contact
        assert run.record.meta["mass_series_max_drift"] == np.abs(np.asarray(masses) - 1.0).max()
        assert len(run.snapshots) == len(run.marginal_snapshots) == len(snapshots) == 2
        for (ts, snap), (tm, pair), (t_ref, p_ref) in zip(
            run.snapshots, run.marginal_snapshots, snapshots
        ):
            assert ts == tm == t_ref
            np.testing.assert_array_equal(snap.values, p_ref.values)
            ref = marginals(p_ref)
            np.testing.assert_array_equal(pair.u1.values, ref.u1.values)
            np.testing.assert_array_equal(pair.u2.values, ref.u2.values)

    def test_run_drifts_from_the_product_form_by_rounding_only(self, monkeypatch):
        cfg = SKTConfig(n1=48, n2=48, t_final=0.2, dt_cap=1e-2, snapshot_times=(0.05, 0.2))
        run = run_skt_scenario(cfg, strict=False)

        def product_form_step(stencil, v, dt):
            new = former_joint_step(stencil.m, stencil.grid.h1, stencil.grid.h2, v, dt)
            return new, skt_module._clamp_undershoot(new, v), float(new.sum())

        monkeypatch.setattr(_Stencil, "step", product_form_step)
        former = run_skt_scenario(cfg, strict=False)
        assert run.record.meta["steps"] == former.record.meta["steps"] == 20
        # measured: 1.67e-16 on cells up to 0.33, and 4.44e-16
        state_gap = np.abs(run.snapshots[-1][1].values - former.snapshots[-1][1].values).max()
        assert state_gap <= 1.7e-16
        assert np.abs(run.record.entropy - former.record.entropy).max() <= 4.5e-16


class TestSKTConfig:
    @pytest.mark.parametrize(
        "kwargs, error",
        [
            ({"t_final": 0.0}, NonpositiveTime),
            ({"t_final": -1.0}, NonpositiveTime),
            ({"t_final": math.inf}, NonpositiveTime),
            ({"t_final": math.nan}, NonpositiveTime),
            ({"t_final": "1"}, NonpositiveTime),
            ({"dt_cap": 0.0}, NonpositiveTime),
            ({"dt_cap": math.nan}, NonpositiveTime),
            ({"sigma": 0.0}, ValueError),
            ({"c_floor": -1.0}, ValueError),
            ({"variance": math.inf}, ValueError),
            ({"snapshot_times": (-0.1,)}, ValueError),
            ({"t_final": 0.5, "snapshot_times": (0.25, 1.0)}, ValueError),
            ({"t_final": True}, NonpositiveTime),
            ({"dt_cap": True}, NonpositiveTime),
            ({"snapshot_times": (math.nan,)}, ValueError),
            ({"snapshot_times": (True,)}, ValueError),
            ({"variance": -0.45}, ValueError),  # would run a U-shaped "Gaussian"
            ({"variance": 0.0}, ValueError),
            ({"variance": math.nan}, ValueError),
            ({"variance": True}, ValueError),
            ({"sigma": math.nan}, ValueError),  # built an all-NaN mobility once run
            ({"sigma": True}, ValueError),
            ({"c_floor": math.nan}, ValueError),
            ({"c_floor": True}, ValueError),
            ({"center": (1.0,)}, ValueError),  # would raise IndexError only once run
            ({"center": (1.0, 2.0, 3.0)}, ValueError),
            ({"center": (True, 2.0)}, ValueError),
            ({"center": (math.inf, 2.0)}, ValueError),
            ({"center": "ab"}, ValueError),
        ],
        ids=lambda v: ",".join(f"{k}={x!r}" for k, x in v.items()) if isinstance(v, dict) else None,
    )
    def test_invalid_config_rejected(self, kwargs, error):
        # configs are built, never run: a zero step would never advance time
        with pytest.raises(error):
            SKTConfig(**kwargs)

    def test_snapshot_defaults_to_t_final(self):
        assert SKTConfig().snapshot_times == (1.0,)
        assert SKTConfig(t_final=0.3).snapshot_times == (0.3,)
        assert SKTConfig(t_final=0.3, snapshot_times=()).snapshot_times == ()


@st.composite
def joint_states(draw, square=False):
    """Unit-mass joint densities on 4-24 cells per axis, with zero cells."""
    n1 = draw(st.integers(4, 24))
    n2 = n1 if square else draw(st.integers(4, 24))
    cell = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
    vals = np.array(draw(st.lists(cell, min_size=n1 * n2, max_size=n1 * n2))).reshape(n1, n2)
    assume(vals.any())
    g = Grid2D(n1, n2, -1.0, 1.0)
    return g, vals / (g.h1 * g.h2 * vals.sum())


@st.composite
def mobilities(draw, g):
    """Constant or diagonal-bump mobility, the bump at least two cells wide.

    The explicit bound assumes M varies little between neighbouring cells.
    """
    if draw(st.booleans()):
        return constant_mobility(g, draw(st.floats(0.1, 4.0)))
    h = max(g.h1, g.h2)
    return build_mobility(g, draw(st.floats(2.0 * h, 1.0)), draw(st.floats(0.01, 1.0)))


def swap_reflect(v):
    return v[::-1, ::-1].T


def former_joint_step(m, h1, h2, v, dt):
    """The explicit joint step in the product form: the face flux is
    (p_b - p_a) M_bar ((p_a + p_b) / 2) / h, and each axis adds its own
    divergence times dt / h."""
    n2 = m.shape[1]
    row_faces = np.zeros_like(m)
    row_faces[:, :-1] = 0.5 * (m[:, 1:] + m[:, :-1])
    flat, size = v.ravel(), v.size
    new = v.copy()
    for s, h, mbar in ((n2, h1, (0.5 * (m[1:] + m[:-1])).ravel()), (1, h2, row_faces.ravel()[:-1])):
        hi, lo = flat[s:], flat[:-s]
        face = np.zeros(size + s)
        face[s:size] = (hi - lo) * (mbar * (0.5 * (hi + lo))) / h
        new += ((face[s:] - face[:size]) * (dt / h)).reshape(v.shape)
    return new


def squares_joint_step(m, h1, h2, v, dt):
    """The explicit joint step in the p^2 form: the face flux is
    c (p_b^2 - p_a^2) with c = (M_bar / 2) / h^2, and the two divergences are
    summed before the one factor dt."""
    sq = v * v
    c1 = 0.25 * (m[1:] + m[:-1]) / (h1 * h1)
    c2 = 0.25 * (m[:, 1:] + m[:, :-1]) / (h2 * h2)
    f1, f2 = c1 * (sq[1:] - sq[:-1]), c2 * (sq[:, 1:] - sq[:, :-1])
    d1, d2 = np.zeros_like(v), np.zeros_like(v)
    d1[:-1] += f1
    d1[1:] -= f1
    d2[:, :-1] += f2
    d2[:, 1:] -= f2
    return v + (d1 + d2) * dt


class TestStepperProperties:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.data())
    def test_step_conserves_mass_and_sign(self, data):
        g, vals = data.draw(joint_states())
        mob = data.draw(mobilities(g))
        p = JointDensity(g, vals)
        out = step_joint_fd(p, mob, 0.5 * joint_stable_dt(p, mob))
        assert abs(g.h1 * g.h2 * out.values.sum() - 1.0) <= 1e-12
        assert out.values.min() >= 0.0

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def test_step_keeps_swap_reflection_symmetry(self, data):
        g, vals = data.draw(joint_states(square=True))
        mob = data.draw(mobilities(g))
        p = JointDensity(g, 0.5 * (vals + swap_reflect(vals)))
        out = step_joint_fd(p, mob, 0.5 * joint_stable_dt(p, mob)).values
        assert np.abs(out - swap_reflect(out)).max() <= 1e-12 * max(1.0, float(p.values.max()))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.data())
    def test_step_matches_squares_form_bit_for_bit(self, data):
        g, vals = data.draw(joint_states())
        mob = data.draw(mobilities(g))
        dt = 0.5 * joint_stable_dt(JointDensity(g, vals), mob)
        new, _, _ = _Stencil(mob).step(vals, dt)
        np.testing.assert_array_equal(new, squares_joint_step(mob.values, g.h1, g.h2, vals, dt))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.data())
    def test_step_within_rounding_of_the_product_form(self, data):
        # p grad p = grad(p^2 / 2): the two forms agree in exact arithmetic
        g, vals = data.draw(joint_states())
        mob = data.draw(mobilities(g))
        dt = 0.5 * joint_stable_dt(JointDensity(g, vals), mob)
        new, _, _ = _Stencil(mob).step(vals, dt)
        gap = np.abs(new - former_joint_step(mob.values, g.h1, g.h2, vals, dt)).max()
        assert gap <= 2.0 * np.finfo(float).eps * max(1.0, float(vals.max()))

    def test_relative_entropy_ignores_stale_work_on_zero_cells(self):
        g = Grid2D(6, 5, -1.0, 1.0)
        vals = np.arange(30.0).reshape(6, 5) % 7  # zero cells, none in a full row or column
        vals /= g.h1 * g.h2 * vals.sum()
        h = _relative_entropy(vals, 0.0, g, np.full(vals.shape, np.nan))
        pos = vals > 0.0
        prod = np.outer(vals.sum(axis=1) * g.h2, vals.sum(axis=0) * g.h1)
        direct = g.h1 * g.h2 * np.sum(vals[pos] * np.log(vals[pos] / prod[pos]))
        assert h == relative_entropy(JointDensity(g, vals))
        assert h == pytest.approx(direct, rel=1e-12, abs=1e-12)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(joint_states())
    def test_relative_entropy_matches_masked_formula(self, state):
        g, vals = state
        h = relative_entropy(JointDensity(g, vals))
        u1 = vals.sum(axis=1) * g.h2
        u2 = vals.sum(axis=0) * g.h1
        pos = vals > 0.0
        direct = g.h1 * g.h2 * np.sum(vals[pos] * np.log(vals[pos] / np.outer(u1, u2)[pos]))
        assert h >= -1e-12
        assert h == pytest.approx(direct, rel=1e-12, abs=1e-12)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(joint_states())
    def test_relative_entropy_zero_on_products(self, state):
        g, vals = state
        prod = np.outer(vals.sum(axis=1), vals.sum(axis=0))
        assert abs(relative_entropy(JointDensity(g, prod / (g.h1 * g.h2 * prod.sum())))) <= 1e-12


@st.composite
def marginal_pairs(draw):
    """Two unit-mass marginals on a square grid of 4-32 cells, each with a run of zero cells."""
    n = draw(st.integers(4, 32))
    g = Grid2D(n, n, -1.0, 1.0)
    species = []
    for axis in (g.axis1(), g.axis2()):
        vals = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n)))
        start = draw(st.integers(0, n - 2))
        vals[start : start + draw(st.integers(1, n - 1))] = 0.0
        assume(vals.any())
        species.append(normalize(vals, axis))
    return g, MarginalPair(*species)


class TestDecoupled:
    @pytest.mark.parametrize("variant", ["quadratic", "entropy"])
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_step_conserves_mass_and_sign(self, data, variant):
        # the step clamps at zero, so unit mass also shows the clamp removed
        # nothing beyond rounding
        g, pair = data.draw(marginal_pairs())
        mob = data.draw(mobilities(g))
        out = step_decoupled_fd(pair, mob, 0.5 * decoupled_stable_dt(pair, mob, variant), variant)
        for u, h in ((out.u1.values, g.h1), (out.u2.values, g.h2)):
            assert u.min() >= 0.0
            assert abs(h * u.sum() - 1.0) <= 1e-12

    def test_advance_far_above_its_bound_raises(self):
        # the joint step's undershoot rule: a negative cell beyond rounding is not clamped away
        g = square_grid(32)
        gx = g.axis1()
        u = normalize(np.exp(-0.5 * gx.centers() ** 2 / 0.3), gx)
        pair = _Decoupled(constant_mobility(g, 1.0), "entropy")
        a1, _, bound = pair.rates(u.values, u.values)
        with pytest.raises(NegativityDetected):
            pair.advance(u.values, a1, 100.0 * bound)

    def test_swap_symmetry_exact(self):
        g = square_grid(32)
        gx = g.axis1()
        u1 = normalize(np.exp(-0.5 * (gx.centers() + 1.5) ** 2 / 0.3), gx)
        u2 = normalize(np.exp(-0.5 * (gx.centers() - 1.5) ** 2 / 0.3), gx)
        mob = build_mobility(g, 0.4, 0.2)
        pair = MarginalPair(u1, u2)
        swapped = MarginalPair(u2, u1)
        dt = 0.5 * decoupled_stable_dt(pair, mob, "quadratic")
        out = step_decoupled_fd(pair, mob, dt, "quadratic")
        out_swapped = step_decoupled_fd(swapped, mob, dt, "quadratic")
        np.testing.assert_array_equal(out.u1.values, out_swapped.u2.values)
        np.testing.assert_array_equal(out.u2.values, out_swapped.u1.values)

    def test_entropy_variant_heat_equation(self):
        # with M = 1 the entropy variant is the unit heat equation for each
        # species: compare against the exact kernel on a large domain
        g = Grid2D(256, 256, -8.0, 8.0)
        gx = g.axis1()
        var0 = 0.25
        u0 = OracleProfile("heat_kernel", variance0=var0).evaluate(0.0, gx)
        pair = MarginalPair(u0, u0)
        mob = constant_mobility(g, 1.0)
        t, t_final = 0.0, 0.05
        while t < t_final:
            dt = min(0.9 * decoupled_stable_dt(pair, mob, "entropy"), t_final - t)
            pair = step_decoupled_fd(pair, mob, dt, "entropy")
            t += dt
        exact = OracleProfile("heat_kernel", variance0=var0).evaluate(t_final, gx)
        assert l1_error(pair.u1, exact) <= 5e-2

    def test_far_supports_reduce_to_floor_coefficient(self):
        # species far from each other only see the mobility floor, so the
        # nonlocal coefficient collapses to c_floor * int u_other^2
        g = square_grid(64)
        gx = g.axis1()
        u1 = normalize(np.exp(-0.5 * (gx.centers() + 3.0) ** 2 / 0.1), gx)
        u2 = normalize(np.exp(-0.5 * (gx.centers() - 3.0) ** 2 / 0.1), gx)
        mob = build_mobility(g, 0.2, 0.1)
        coef, _, _ = _Decoupled(mob, "quadratic").rates(u1.values, u2.values)
        expected = 0.1 * g.h2 * float((u2.values**2).sum())
        support1 = u1.values > 1e-6 * u1.values.max()
        np.testing.assert_allclose(coef[support1], expected, rtol=1e-6)

    def test_mass_conserved(self):
        g = square_grid(32)
        gx = g.axis1()
        u1 = normalize(np.exp(-0.5 * gx.centers() ** 2), gx)
        u2 = normalize(np.exp(-0.5 * (gx.centers() - 1.0) ** 2), gx)
        mob = build_mobility(g, 0.4, 0.2)
        pair = MarginalPair(u1, u2)
        for _ in range(10):
            pair = step_decoupled_fd(pair, mob, 0.5 * decoupled_stable_dt(pair, mob, "quadratic"))
        assert gx.h * pair.u1.values.sum() == pytest.approx(1.0, abs=1e-12)
        assert gx.h * pair.u2.values.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("variant", ["quadratic", "entropy"])
    def test_step_above_the_bound_raises_cfl_violation(self, variant):
        g = square_grid(16)
        gx = g.axis1()
        pair = MarginalPair(normalize(np.exp(-0.5 * gx.centers() ** 2), gx), normalize(np.ones(16), gx))
        mob = build_mobility(g, 0.4, 0.2)
        bound = decoupled_stable_dt(pair, mob, variant)
        step_decoupled_fd(pair, mob, bound, variant)
        with pytest.raises(CFLViolation):
            step_decoupled_fd(pair, mob, 1.0000001 * bound, variant)

    def test_unknown_variant(self):
        g = square_grid(16)
        gx = g.axis1()
        u = normalize(np.ones(16), gx)
        with pytest.raises(ValueError):
            step_decoupled_fd(MarginalPair(u, u), constant_mobility(g), 1e-6, "cubic")
        with pytest.raises(ValueError):
            decoupled_stable_dt(MarginalPair(u, u), constant_mobility(g), "bogus")


    def test_non_square_grid_rejected(self, monkeypatch):
        g = Grid2D(16, 24, -5.0, 5.0)
        pair = MarginalPair(normalize(np.ones(16), g.axis1()), normalize(np.ones(24), g.axis2()))
        for variant in ("quadratic", "entropy"):
            with pytest.raises(DimensionMismatch, match="square grid"):
                decoupled_stable_dt(pair, constant_mobility(g), variant)
            with pytest.raises(DimensionMismatch, match="square grid"):
                step_decoupled_fd(pair, constant_mobility(g), 1e-6, variant)
        monkeypatch.setattr(skt_module, "N_COMPARE", 2)
        with pytest.raises(DimensionMismatch, match="square grid"):
            compare_correlated_vs_decoupled(SKTConfig(n1=16, n2=24, t_final=0.01))
        with pytest.raises(ValueError, match="cubic"):
            compare_correlated_vs_decoupled(SKTConfig(n1=16, n2=16, t_final=0.01), "cubic")


class TestComparison:
    def test_gap_zero_at_start_then_grows(self, monkeypatch):
        monkeypatch.setattr(skt_module, "N_COMPARE", 4)
        cfg = SKTConfig(n1=48, n2=48, t_final=0.3, dt_cap=1e-2)
        report = compare_correlated_vs_decoupled(cfg)
        assert report.l1_gaps[0] <= 1e-6
        assert report.l1_gaps[-1] > report.l1_gaps[0]

    def test_far_supports_small_gap_short_horizon(self, monkeypatch):
        monkeypatch.setattr(skt_module, "N_COMPARE", 3)
        cfg = SKTConfig(
            n1=48, n2=48, center=(-2.5, 2.5), variance=0.2, t_final=0.05, dt_cap=1e-2
        )
        report = compare_correlated_vs_decoupled(cfg)
        assert report.l1_gaps[-1] <= 1e-3

    def test_gaps_match_public_steps_bit_for_bit(self, monkeypatch):
        monkeypatch.setattr(skt_module, "N_COMPARE", 4)
        cfg = SKTConfig(n1=32, n2=32, t_final=0.2, dt_cap=1e-2)
        report = compare_correlated_vs_decoupled(cfg)
        g = cfg.grid()
        mob = build_mobility(g, cfg.sigma, cfg.c_floor)
        p = product_gaussian(g, cfg.center, cfg.variance)
        pair = marginals(p)
        gaps, t = [], 0.0
        for target in report.times:
            while t < target:
                dt = min(
                    skt_module.CFL_SAFETY * joint_stable_dt(p, mob),
                    skt_module.CFL_SAFETY * decoupled_stable_dt(pair, mob, "quadratic"),
                    cfg.dt_cap,
                    target - t,
                )
                p = step_joint_fd(p, mob, dt)
                pair = step_decoupled_fd(pair, mob, dt, "quadratic")
                t += dt
            mj = marginals(p)
            gap = g.h1 * np.abs(mj.u1.values - pair.u1.values).sum()
            gaps.append(gap + g.h2 * np.abs(mj.u2.values - pair.u2.values).sum())
        np.testing.assert_array_equal(report.l1_gaps, gaps)
