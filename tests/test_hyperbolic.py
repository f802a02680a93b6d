import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from btflow import hyperbolic
from btflow.errors import CFLViolation, EstimateFailed, InvalidDensity, NonpositiveTime
from btflow.fdref import barenblatt, barenblatt_peak_time, l1_error, run_bt_fd
from btflow.hyperbolic import (
    CFL_SAFETY,
    SUPPORT_EPS,
    PressureFraction,
    _off_support_fill,
    _recover,
    _split,
    _stable_dt,
    _transport,
    pressure_transport_step,
    recover_species,
    run_hyperbolic,
    split_state,
    splitting_stable_dt,
    step_splitting,
    tv,
)
from btflow.measures import MASS_TOL_1D, Density, DensityVector, Grid1D, normalize
from btflow.transport1d import _plans, w2_exact, w2_product

T0 = barenblatt_peak_time()


def segregated_pair(n=128, lo=0.15, hi=0.42):
    """Mirror-symmetric disjoint blocks: the colliding-fronts benchmark."""
    g = Grid1D(n, 0.0, 1.0)
    x = g.centers()
    u1 = np.where((x > lo) & (x < hi), 1.0, 0.0)
    u1 /= g.h * u1.sum()
    u2 = u1[::-1].copy()
    return DensityVector(g, np.stack([u1, u2]))


def cosine_triple(n=64):
    """Three overlapping cosine profiles: fractions vary across every cell."""
    g = Grid1D(n, 0.0, 1.0)
    x = g.centers()
    return DensityVector.from_species([normalize(1.0 + sign * 0.25 * np.cos(np.pi * x), g) for sign in (1, -1, 1)])


class TestSplitState:
    def test_equal_species_gives_half_fraction(self):
        g = Grid1D(32, 0.0, 1.0)
        u = normalize(1.0 + 0.5 * np.sin(np.pi * g.centers()), g)
        pair = DensityVector(g, np.stack([u.values, u.values]))
        pf = split_state(pair)
        np.testing.assert_allclose(pf.pressure.values, u.values)
        np.testing.assert_allclose(pf.fractions[0], 0.5)

    def test_segregated_fractions_binary(self):
        pair = segregated_pair()
        pf = split_state(pair)
        on = pf.pressure.values > 0
        assert set(np.round(pf.fractions[0][on], 12)) <= {0.0, 1.0}

    def test_round_trip_identity(self):
        rng = np.random.default_rng(0)
        g = Grid1D(40, 0.0, 1.0)
        vals = rng.uniform(0.1, 1.0, (3, 40))
        vals /= g.h * vals.sum(axis=1, keepdims=True)
        u = DensityVector(g, vals)
        back = recover_species(split_state(u))
        np.testing.assert_allclose(back.values, u.values, atol=1e-12)

    def test_zero_pressure_cells_round_trip_to_zero(self):
        pair = segregated_pair()
        back = recover_species(split_state(pair))
        np.testing.assert_allclose(back.values, pair.values, atol=1e-12)


class TestTV:
    def test_constant_zero(self):
        assert tv(np.full(10, 3.7)) == 0.0

    def test_monotone_telescopes(self):
        f = np.array([0.0, 0.5, 0.7, 2.0])
        assert tv(f) == pytest.approx(2.0)

    def test_hat(self):
        assert tv(np.array([0.0, 1.0, 0.0])) == pytest.approx(2.0)


class TestStepSplitting:
    def test_flat_pressure_is_fixed(self):
        g = Grid1D(32, 0.0, 1.0)
        p = normalize(np.ones(32), g)
        r = (0.3 + 0.4 * (g.centers() > 0.5))[None, :]
        pf = PressureFraction(p, r)
        out = step_splitting(pf, 1e-4)
        np.testing.assert_array_equal(out.pressure.values, p.values)
        np.testing.assert_array_equal(out.fractions, r)

    def test_pressure_follows_porous_medium_oracle(self):
        g = Grid1D(128, -2.0, 2.0)
        p0 = barenblatt(T0, g)
        pf = PressureFraction(p0, np.full((1, 128), 0.5))
        t, t_final = 0.0, 0.01
        while t < t_final:
            dt = min(0.45 * splitting_stable_dt(pf), t_final - t)
            pf = step_splitting(pf, dt)
            t += dt
        assert l1_error(pf.pressure, barenblatt(T0 + t_final, g)) <= 2e-3

    def test_interface_moves_at_characteristic_speed(self):
        # on a frozen pressure gradient the fraction interface advects with
        # velocity -p_x; one short step shifts the r-mass by v dt
        g = Grid1D(64, 0.0, 1.0)
        x = g.centers()
        p = normalize(0.5 + 0.3 * x, g)
        slope = (p.values[1] - p.values[0]) / g.h  # uniform for linear data
        r = np.where(x < 0.5, 1.0, 0.0)[None, :]
        pf = PressureFraction(p, r)
        dt = 0.2 * splitting_stable_dt(pf)
        out = step_splitting(pf, dt)
        drift = g.h * float(out.fractions.sum() - r.sum())
        assert drift == pytest.approx(-slope * dt, rel=0.1)

    def test_tv_and_bounds_preserved(self):
        pair = segregated_pair(64)
        pf = split_state(pair)
        tv_p, tv_r = tv(pf.pressure.values), tv(pf.fractions[0])
        for _ in range(200):
            pf = step_splitting(pf, 0.45 * splitting_stable_dt(pf))
            assert tv(pf.pressure.values) <= tv_p + 1e-10
            assert tv(pf.fractions[0]) <= tv_r + 1e-10
            assert pf.fractions.min() >= 0.0 and pf.fractions.max() <= 1.0
            tv_p, tv_r = tv(pf.pressure.values), tv(pf.fractions[0])

    def test_pressure_mass_checked_every_step(self):
        g = Grid1D(32, 0.0, 1.0)
        p = Density(g, np.ones(32))
        object.__setattr__(p, "values", np.full(32, 1.0 + 1e-9))  # off unit mass past Density's check
        with pytest.raises(InvalidDensity):
            step_splitting(PressureFraction(p, np.full((1, 32), 0.5)), 1e-4)

    def test_cfl_violation(self):
        pair = segregated_pair(64)
        pf = split_state(pair)
        with pytest.raises(CFLViolation):
            step_splitting(pf, 100.0 * splitting_stable_dt(pf))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_fractions_rejected(self, bad):
        g = Grid1D(8, 0.0, 1.0)
        r = np.full((2, 8), 0.25)
        r[1, 3] = bad
        with pytest.raises(InvalidDensity, match=rf"fractions must be finite, found \[{bad}\]"):
            PressureFraction(normalize(np.ones(8), g), r)


class TestPressureTransport:
    def test_identity_transport(self):
        pair = segregated_pair(64)
        p = split_state(pair).pressure
        out = pressure_transport_step(pair, p, p)
        np.testing.assert_allclose(out.values, pair.values, atol=1e-13)

    def test_translation_is_equality_case(self):
        g = Grid1D(64, 0.0, 2.0)
        x = g.centers()
        u1 = np.where((x > 0.2) & (x < 0.5), 1.0, 0.0)
        u1 /= g.h * u1.sum()
        u2 = np.where((x > 0.5) & (x < 0.8), 1.0, 0.0)
        u2 /= g.h * u2.sum()
        pair = DensityVector(g, np.stack([u1, u2]))
        shift_cells = 16
        shift = shift_cells * g.h
        p_prev = split_state(pair).pressure
        p_next = Density(g, np.roll(p_prev.values, shift_cells))
        out = pressure_transport_step(pair, p_prev, p_next)
        np.testing.assert_allclose(out.values, np.roll(pair.values, shift_cells, axis=1), atol=1e-12)
        assert w2_product(pair, out) == pytest.approx(np.sqrt(2.0) * shift, abs=1e-12)

    def test_projection_identity_and_metric_bound(self):
        pair = segregated_pair(128)
        pf = split_state(pair)
        pf_next = step_splitting(pf, 0.4 * splitting_stable_dt(pf))
        out = pressure_transport_step(pair, pf.pressure, pf_next.pressure)
        avg = out.values.mean(axis=0)
        np.testing.assert_allclose(avg, pf_next.pressure.values, atol=1e-12)
        lhs = w2_product(pair, out)
        rhs = np.sqrt(2.0) * w2_exact(pf.pressure, pf_next.pressure)
        assert lhs <= rhs + 1e-12

    def test_expanding_front_keeps_segregation(self):
        g = Grid1D(128, -2.0, 2.0)
        p0 = barenblatt(T0, g)
        sup = p0.values > 0
        mid = np.argmax(g.centers() > 0.0)
        u1 = np.where(np.arange(128) < mid, 2.0 * p0.values, 0.0)
        u2 = np.where(np.arange(128) >= mid, 2.0 * p0.values, 0.0)
        u1 /= g.h * u1.sum()
        u2 /= g.h * u2.sum()
        pair = DensityVector(g, np.stack([u1, u2]))
        p_next = barenblatt(T0 + 5e-4, g)
        out = pressure_transport_step(pair, Density(g, pair.values.mean(axis=0)), p_next)
        overlap = np.sum((out.values[0] > 1e-8) & (out.values[1] > 1e-8))
        assert overlap <= 2

    def test_pressure_mismatch_rejected(self):
        pair = segregated_pair(64)
        g = pair.grid
        wrong = normalize(np.ones(64), g)
        with pytest.raises(ValueError):
            pressure_transport_step(pair, wrong, wrong)


class TestRunHyperbolic:
    def test_equal_species_stay_equal(self):
        g = Grid1D(64, 0.0, 1.0)
        u = normalize(1.0 + 0.4 * np.cos(np.pi * g.centers()), g)
        pair = DensityVector(g, np.stack([u.values, u.values]))
        run = run_hyperbolic(pair, "splitting", t_final=0.01)
        final = run.trajectory[-1]
        np.testing.assert_array_equal(final.values[0], final.values[1])
        np.testing.assert_allclose(
            final.values[0], run.pressures[-1].values, atol=1e-12
        )

    def test_sum_consistency_with_standalone_pressure(self, unit_matrix):
        pair = segregated_pair(128)
        run = run_hyperbolic(pair, "splitting", t_final=0.02)
        total = run.trajectory[-1].values.sum(axis=0)
        np.testing.assert_allclose(total, 2.0 * run.pressures[-1].values, atol=1e-9)
        # independent porous-medium reference for the pressure itself
        p0 = split_state(pair).pressure
        ref = run_bt_fd(DensityVector(p0.grid, p0.values[None, :]), unit_matrix, 0.02)
        assert l1_error(run.pressures[-1], ref.species(0)) <= 1e-4

    def test_splitting_checks_pass(self):
        pair = segregated_pair(128)
        run = run_hyperbolic(pair, "splitting", t_final=0.02)
        assert run.record.all_passed()
        assert "p" in run.record.tv and "r_1" in run.record.tv

    def test_transport_scheme_metric_speed(self):
        pair = segregated_pair(128)
        run = run_hyperbolic(pair, "pressure_transport", t_final=0.02)
        assert run.record.all_passed()
        names = {c.name for c in run.record.checks}
        assert "metric_speed" in names

    def test_transported_species_hold_unit_mass_at_every_step(self):
        # two 69-cell blocks 34 cells apart on 256 cells: about 8,000 plan pushes
        g = Grid1D(256, 0.0, 1.0)
        cells = np.arange(256)
        u0 = DensityVector.from_species(
            [normalize(((cells >= lo) & (cells < lo + 69)).astype(float), g) for lo in (41, 144)]
        )
        run = run_hyperbolic(u0, "pressure_transport", t_final=0.02, snapshot_every=1)
        assert len(run.trajectory) == run.record.meta["steps"] + 1
        species = np.stack([state.values for state in run.trajectory])
        assert np.abs(g.h * species.sum(axis=-1) - 1.0).max() <= MASS_TOL_1D
        for state in run.trajectory:
            split_state(DensityVector(g, state.values))

    def test_segregation_preserved_along_run(self):
        pair = segregated_pair(128)
        run = run_hyperbolic(pair, "splitting", t_final=0.02, snapshot_every=500)
        for state in run.trajectory:
            thr = 1e-8 * state.values.max()
            overlap = np.sum((state.values[0] > thr) & (state.values[1] > thr))
            assert overlap <= 2

    @pytest.mark.parametrize("u0", [segregated_pair(64), cosine_triple()], ids=["segregated", "cosine"])
    def test_schemes_agree_on_species(self, u0):
        # a donor-cell flux and an optimal plan are independent constructions of one step
        runs = [run_hyperbolic(u0, s, t_final=0.01) for s in ("splitting", "pressure_transport")]
        split, plan = (run.trajectory[-1].values for run in runs)
        assert u0.grid.h * np.abs(split - plan).sum() <= 1e-10

    def test_unknown_scheme(self):
        pair = segregated_pair(32)
        with pytest.raises(ValueError):
            run_hyperbolic(pair, "spectral")

    @pytest.mark.parametrize(
        "times",
        [
            {"t_final": 0.0},
            {"t_final": -0.01},
            {"t_final": np.inf},
            {"t_final": np.nan},
            {"dt": 0.0},
            {"dt": -1e-4},
            {"dt": np.nan},
            {"dt": np.inf},
        ],
    )
    def test_degenerate_times_rejected(self, times, monkeypatch):
        # a small step budget keeps a run that does start from spinning
        monkeypatch.setattr(hyperbolic, "MAX_STEPS", 10)
        pair = segregated_pair(32)
        name = next(iter(times))
        with pytest.raises(NonpositiveTime, match=name):
            run_hyperbolic(pair, "pressure_transport", **({"t_final": 0.01} | times))


def step_by_hand(u0, scheme, t_final, states=None):
    """run_hyperbolic spelled out with the public step functions.

    If given, the list ``states`` collects (u, p) after every step, starting
    with the initial state.
    """
    pf = split_state(u0)
    pf = PressureFraction(pf.pressure, pf.fractions[:, _off_support_fill(pf.pressure.values > SUPPORT_EPS)])
    u = recover_species(pf) if scheme == "splitting" else u0
    if states is not None:
        states.append((u, pf.pressure))
    t, times, dts, w2_u, w2_p = 0.0, [0.0], [], [], []
    tv_p, tv_r = [tv(pf.pressure.values)], [tv(pf.fractions[0])]
    while t < t_final:
        dt = min(CFL_SAFETY * splitting_stable_dt(pf), t_final - t)
        pf_new = step_splitting(pf, dt)
        if scheme == "splitting":
            u_new = recover_species(pf_new)
        else:
            u_new = pressure_transport_step(u, pf.pressure, pf_new.pressure)
        w2_u.append(w2_product(u, u_new))
        w2_p.append(w2_exact(pf.pressure, pf_new.pressure))
        t += dt
        times.append(t)
        dts.append(dt)
        tv_p.append(tv(pf_new.pressure.values))
        tv_r.append(tv(pf_new.fractions[0]))
        pf, u = pf_new, u_new
        if states is not None:
            states.append((u, pf.pressure))
    return u, pf.pressure, times, dts, w2_u, w2_p, tv_p, tv_r


@pytest.mark.parametrize("scheme", ["splitting", "pressure_transport"])
def test_run_matches_public_steps_bit_for_bit(scheme):
    pair = segregated_pair(64)
    run = run_hyperbolic(pair, scheme, t_final=0.007)
    u, p, times, dts, w2_u, w2_p, tv_p, tv_r = step_by_hand(pair, scheme, 0.007)
    rec = run.record
    assert 150 <= len(dts) <= 250
    assert np.array_equal(rec.times, times)
    assert np.array_equal(rec.w2_increments, w2_u)
    assert np.array_equal(rec.meta["pressure_increments"], w2_p)
    assert np.array_equal(rec.tv["p"], tv_p)
    assert np.array_equal(rec.tv["r_1"], tv_r)
    assert np.array_equal(run.trajectory[-1].values, u.values)
    assert np.array_equal(run.pressures[-1].values, p.values)
    assert rec.meta["steps"] == len(dts)
    assert (rec.meta["dt_min"], rec.meta["dt_max"]) == (min(dts), max(dts))


def chunk_boundary_t_final(n_steps):
    """A t_final that the automatic steps from segregated_pair(64) reach in n_steps steps."""
    times = step_by_hand(segregated_pair(64), "splitting", 1.2e-3)[2]
    return 0.5 * (times[n_steps - 1] + times[n_steps])


@pytest.mark.parametrize("chunk", [16, 1, 5])
@pytest.mark.parametrize("snapshot_every", [1, 7, 0])
@pytest.mark.parametrize("scheme", ["splitting", "pressure_transport"])
@pytest.mark.parametrize("case", ["below_one_chunk", "one_chunk", "two_chunks", "two_chunks_and_one"])
def test_chunk_boundaries_match_public_steps(case, scheme, snapshot_every, chunk, monkeypatch):
    monkeypatch.setattr(hyperbolic, "CHUNK_STEPS", chunk)
    n_steps = {
        "below_one_chunk": max(chunk - 1, 1),
        "one_chunk": chunk,
        "two_chunks": 2 * chunk,
        "two_chunks_and_one": 2 * chunk + 1,
    }[case]
    t_final = chunk_boundary_t_final(n_steps)
    pair = segregated_pair(64)
    run = run_hyperbolic(pair, scheme, t_final=t_final, snapshot_every=snapshot_every)
    states = []
    _, _, times, _, w2_u, w2_p, tv_p, tv_r = step_by_hand(pair, scheme, t_final, states)
    rec = run.record
    assert rec.meta["steps"] == n_steps == len(states) - 1
    assert np.array_equal(rec.times, times)
    assert np.array_equal(rec.w2_increments, w2_u)
    assert np.array_equal(rec.meta["pressure_increments"], w2_p)
    assert np.array_equal(rec.tv["p"], tv_p)
    assert np.array_equal(rec.tv["r_1"], tv_r)
    kept = [k for k in range(n_steps + 1) if snapshot_every and k % snapshot_every == 0]
    kept = kept if snapshot_every else [0]
    if kept[-1] != n_steps:
        kept.append(n_steps)
    assert len(run.trajectory) == len(run.pressures) == len(kept)
    for k, u, p in zip(kept, run.trajectory, run.pressures):
        assert np.array_equal(u.values, states[k][0].values)
        assert np.array_equal(p.values, states[k][1].values)


def fault_at(real, step, fault):
    """A wrapper of the kernel real that applies fault(out, k) to its output once it reaches step.

    For _split the output is (p_new, r_new) of one step; for _transport it is
    the stacked species, whose row k is the state after step ``step``.
    """
    done = [0]  # steps computed so far

    def wrapped(*args):
        out = real(*args)
        n = 1 if isinstance(out, tuple) else len(out) - 1
        if done[0] < step <= done[0] + n:
            fault(out, step - done[0])
        done[0] += n
        return out

    return wrapped


def add_pressure_mass(out, k):
    out[0][30] += 1e-9


def push_fraction_sum_above_one(out, k):
    out[1][0, 30] = 1.5


def shift_within_species(species, k):
    """Move mass within species 1 between two cells: masses stay, the average leaves the pressure."""
    species[k, 0, 20] -= 0.5
    species[k, 0, 40] += 0.5


# kernel, fault, error, and the step a run names: the average check reads the state a push leaves
FAULTS = {
    "pressure_mass": ("_split", add_pressure_mass, EstimateFailed, 7),
    "fraction_sum": ("_split", push_fraction_sum_above_one, InvalidDensity, 7),
    "species_average": ("_transport", shift_within_species, InvalidDensity, 8),
}


@pytest.mark.parametrize("chunk", [16, 5, 1])
@pytest.mark.parametrize(
    "fault, scheme",
    [(f, s) for f in FAULTS for s in ("splitting", "pressure_transport") if (f, s) != ("species_average", "splitting")],
)
def test_chunk_checks_catch_a_bad_step(fault, scheme, chunk, monkeypatch):
    kernel, apply, error, failing_step = FAULTS[fault]
    real = getattr(hyperbolic, kernel)
    pair = segregated_pair(64)
    t_final = chunk_boundary_t_final(40)
    # the public steps check their one step: that is the error a run must raise
    monkeypatch.setattr(hyperbolic, kernel, fault_at(real, 7, apply))
    with pytest.raises(error):
        step_by_hand(pair, scheme, t_final)
    monkeypatch.setattr(hyperbolic, kernel, fault_at(real, 7, apply))
    monkeypatch.setattr(hyperbolic, "CHUNK_STEPS", chunk)
    with pytest.raises(error, match=rf"\(step {failing_step}\)$"):
        run_hyperbolic(pair, scheme, t_final=t_final)


@pytest.mark.parametrize("chunk", [16, 5, 1])
@pytest.mark.parametrize("scheme", ["splitting", "pressure_transport"])
def test_nan_pressure_raises_on_its_own_step(scheme, chunk, monkeypatch):
    real, calls = hyperbolic._split, []

    def split(p, *args):
        calls.append(len(calls) + 1)
        if len(calls) == 7:
            p = p.copy()
            p[30] = np.nan
        return real(p, *args)

    monkeypatch.setattr(hyperbolic, "_split", split)
    monkeypatch.setattr(hyperbolic, "CHUNK_STEPS", chunk)
    with pytest.raises(InvalidDensity, match="pressure values must be nonnegative"):
        run_hyperbolic(segregated_pair(64), scheme, t_final=chunk_boundary_t_final(40))
    assert len(calls) == 7


@st.composite
def species_with_zero_runs(draw):
    """2-3 unit-mass species on 8-64 cells, empty on one shared run of cells."""
    n = draw(st.integers(8, 64))
    cell = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
    rows = np.array(draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=2, max_size=3)))
    start = draw(st.integers(0, n - 1))
    rows[:, start : start + draw(st.integers(1, n // 2))] = 0.0
    assume(rows.any(axis=1).all())
    g = Grid1D(n, 0.0, 1.0)
    return DensityVector.from_species([normalize(row, g) for row in rows])


def split_once(u):
    """One splitting step of split_state(u) at CFL_SAFETY times the stable step."""
    pf = split_state(u)
    p, h = pf.pressure.values, u.grid.h
    slope = np.diff(p) / h
    r = pf.fractions[:, _off_support_fill(p > SUPPORT_EPS)]
    return p, _split(p, r, CFL_SAFETY * _stable_dt(p, slope, h), slope, h)


class TestKernelProperties:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(species_with_zero_runs())
    def test_split_keeps_pressure_mass_sign_and_fractions(self, u):
        p, (p_new, r_new) = split_once(u)
        h = u.grid.h
        assert abs(h * p_new.sum() - h * p.sum()) <= 1e-12
        assert p_new.min() >= 0.0
        assert r_new.min() >= 0.0 and r_new.max() <= 1.0
        assert r_new.sum(axis=0).max() <= 1.0 + 1e-12

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(species_with_zero_runs())
    def test_transport_keeps_species_mass_sign_and_average(self, u):
        p, (p_next, _) = split_once(u)
        h = u.grid.h
        u_next = _transport(u.values, _plans(p[None] * h, p_next[None] * h))[1]
        assert np.abs(h * u_next.sum(axis=1) - h * u.values.sum(axis=1)).max() <= MASS_TOL_1D
        assert u_next.min() >= 0.0
        np.testing.assert_allclose(u_next.mean(axis=0), p_next, rtol=0.0, atol=1e-12)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(species_with_zero_runs())
    def test_split_is_one_plan_transport(self, u):
        p, (p_next, r_next) = split_once(u)
        h = u.grid.h
        u_split = _recover(p_next, r_next)
        u_plan = _transport(u.values, _plans(p[None] * h, p_next[None] * h))[1]
        assert h * np.abs(u_split - u_plan).sum() <= 1e-12
        assert np.abs(h * u_split.sum(axis=1) - h * u.values.sum(axis=1)).max() <= 1e-13

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(species_with_zero_runs())
    def test_short_splitting_run_passes_every_check(self, u):
        assert run_hyperbolic(u, "splitting", t_final=1e-3).record.all_passed()
