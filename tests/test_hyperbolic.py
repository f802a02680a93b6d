import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from btflow import hyperbolic
from btflow.diagnostics import MONOTONE_TOL_REL
from btflow.errors import CFLViolation, DimensionMismatch, EstimateFailed, InvalidDensity, NonpositiveTime
from btflow.fdref import barenblatt, barenblatt_peak_time, l1_error, run_bt_fd
from btflow.hyperbolic import (
    CFL_SAFETY,
    PressureFraction,
    _fill,
    _fractions,
    _pressure_step,
    _recover,
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


def tail_below_1e_12():
    """Two species on 400 cells, each a block over a floor of 2e-13 before normalizing.

    Off the blocks the species total is about 9e-13.
    """
    g = Grid1D(400, 0.0, 4.0)
    x = g.centers()
    blocks = [x < 0.5, (x > 0.6) & (x < 1.0)]
    return DensityVector.from_species([normalize(np.where(block, 1.0, 2e-13), g) for block in blocks])


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

    def test_tail_below_1e_12_round_trips(self):
        # a tail below 1e-12 is part of a valid input: zeroed, each species would miss unit mass by 1.55e-12
        u = tail_below_1e_12()
        back = recover_species(split_state(u))
        np.testing.assert_allclose(back.values, u.values, rtol=0.0, atol=1e-16)

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

    @pytest.mark.parametrize(
        "r, error",
        [
            (np.full((2, 8), 0.25) - np.eye(2, 8), InvalidDensity),  # a negative fraction
            (np.full((2, 8), 0.6), InvalidDensity),  # fractions summing past 1
            (np.full((2, 7), 0.25), DimensionMismatch),  # one cell short of the pressure grid
        ],
        ids=["negative", "sum_above_one", "short"],
    )
    def test_bad_fractions_rejected(self, r, error):
        with pytest.raises(error):
            PressureFraction(normalize(np.ones(8), Grid1D(8, 0.0, 1.0)), r)


class TestPressureTransport:
    def test_identity_transport(self):
        pair = segregated_pair(64)
        p = split_state(pair).pressure
        out = pressure_transport_step(pair, p, p)
        np.testing.assert_allclose(out.values, pair.values, atol=1e-13)

    def test_grid_mismatch(self):
        pair = segregated_pair(64)
        p = split_state(pair).pressure
        other = Density(Grid1D(64, 0.0, 2.0), 0.5 * p.values)
        with pytest.raises(DimensionMismatch):
            pressure_transport_step(pair, p, other)

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

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_metric_speed_is_an_identity_for_the_plan_transport(self, seed):
        # each species' push along the monotone pressure plan is itself monotone, so
        # optimal, and with the species average equal to p the pushes' costs sum to
        # N W2(p)^2.  A plan segment's mass is a difference of cumulative masses near 1,
        # off by about eps, and below the CFL bound it moves at most one cell, so the
        # 2n segments of each of the N species' and N pressure costs bound the rounding.
        n, n_species = 96, 3
        g = Grid1D(n, 0.0, 1.0)
        rng = np.random.default_rng(seed)
        u0 = DensityVector.from_species([normalize(rng.uniform(0.0, 1.0, n), g) for _ in range(n_species)])
        run = run_hyperbolic(u0, "pressure_transport", t_final=0.01)
        w2_u, w2_p = run.record.w2_increments, run.record.meta["pressure_increments"]
        assert run.record.meta["steps"] > 300
        gap = np.abs(w2_u**2 - n_species * w2_p**2)
        assert gap.max() <= 4 * n_species * n * np.finfo(float).eps * g.h**2

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

    @pytest.mark.parametrize("scheme", ["splitting", "pressure_transport"])
    def test_tail_below_1e_12_runs_and_passes(self, scheme):
        run = run_hyperbolic(tail_below_1e_12(), scheme)  # strict: a failing check raises
        assert run.record.all_passed()

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
            {"t_final": True},
            {"dt": True},
        ],
    )
    def test_degenerate_times_rejected(self, times, monkeypatch):
        # a small step budget keeps a run that does start from spinning
        monkeypatch.setattr(hyperbolic, "MAX_STEPS", 10)
        pair = segregated_pair(32)
        name = next(iter(times))
        with pytest.raises(NonpositiveTime, match=name):
            run_hyperbolic(pair, "pressure_transport", **({"t_final": 0.01} | times))

    @pytest.mark.parametrize("scheme", ["splitting", "pressure_transport"])
    def test_step_budget_exceeded_raises(self, scheme, monkeypatch):
        monkeypatch.setattr(hyperbolic, "MAX_STEPS", 3)
        with pytest.raises(RuntimeError, match="exceeded the step budget"):
            run_hyperbolic(segregated_pair(32), scheme, t_final=0.01)

    @pytest.mark.parametrize("every", [-1, True, 2.5, "2"])
    def test_snapshot_every_must_be_a_count(self, every, monkeypatch):
        # -1 and True would keep every step, and 2.5 no step count at all
        monkeypatch.setattr(hyperbolic, "MAX_STEPS", 10)
        with pytest.raises(ValueError, match="^snapshot_every must be an integer of at least 0"):
            run_hyperbolic(segregated_pair(32), "splitting", t_final=0.01, snapshot_every=every)


def closest_supported(on):
    """Per cell of the boolean row on, the closest cell of on, ties left; every cell itself if on is empty."""
    idx = np.flatnonzero(on)
    return np.array([min(idx, key=lambda j: (abs(c - j), j)) if idx.size else c for c in range(on.size)])


def own_fractions(values, on):
    """u_i / sum_j u_j of the (N, n) species values for i < N on the cells on, constant off them."""
    total = values.sum(axis=0)
    return (values[:-1] / np.where(on, total, 1.0))[:, closest_supported(on)]


def step_by_hand(u0, scheme, t_final, states=None):
    """run_hyperbolic spelled out with the public step functions.

    The splitting scheme's TV(r_1) reads the fractions of step_splitting;
    the plan transport's reads its species' own fractions, on the cells
    whose species total is a normal float.  If given, the list ``states``
    collects (u, p) after every step, starting with the initial state.
    """
    pf = split_state(u0)
    u = recover_species(pf) if scheme == "splitting" else u0

    def fraction(pf, u):
        if scheme == "splitting":
            return pf.fractions[0]
        return own_fractions(u.values, u.values.sum(axis=0) >= np.finfo(float).tiny)[0]

    if states is not None:
        states.append((u, pf.pressure))
    t, times, dts, w2_u, w2_p = 0.0, [0.0], [], [], []
    tv_p, tv_r = [tv(pf.pressure.values)], [tv(fraction(pf, u))]
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
        tv_r.append(tv(fraction(pf_new, u_new)))
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


def gapped_pair():
    """The benchmark's hyperbolic input shape on 64 cells: two 17-cell blocks with a 9-cell empty gap."""
    g = Grid1D(64, 0.0, 1.0)
    cells = np.arange(64)
    blocks = [(cells >= lo) & (cells < lo + 17) for lo in (10, 36)]
    return DensityVector.from_species([normalize(block.astype(float), g) for block in blocks])


@pytest.mark.parametrize("chunk", [16, 5, 1])
@pytest.mark.parametrize("scheme", ["splitting", "pressure_transport"])
def test_gapped_pair_matches_public_steps(scheme, chunk, monkeypatch):
    pair = gapped_pair()
    states = []
    _, _, times, _, w2_u, w2_p, tv_p, tv_r = step_by_hand(pair, scheme, 1e-3, states)
    monkeypatch.setattr(hyperbolic, "CHUNK_STEPS", chunk)
    run = run_hyperbolic(pair, scheme, t_final=1e-3)
    rec = run.record
    assert rec.meta["steps"] == len(states) - 1 > 2 * 16
    assert np.array_equal(rec.times, times)
    assert np.array_equal(rec.w2_increments, w2_u)
    assert np.array_equal(rec.meta["pressure_increments"], w2_p)
    assert np.array_equal(rec.tv["p"], tv_p)
    assert np.array_equal(rec.tv["r_1"], tv_r)
    assert np.array_equal(run.trajectory[-1].values, states[-1][0].values)
    assert np.array_equal(run.pressures[-1].values, states[-1][1].values)
    # the fronts enter new cells while the gap between the blocks is open, on steps that
    # start inside a chunk of 16 and of 5; the fill maps each gap cell to its closer block
    on = [2 * p.values >= np.finfo(float).tiny for _, p in states]  # the species total is a normal float
    inside = [k for k in range(1, len(on)) if k % 16 and k % 5 and not np.array_equal(on[k], on[k - 1])]
    assert inside
    idx = np.flatnonzero(on[inside[0]])
    gap = np.setdiff1d(np.arange(idx[0], idx[-1]), idx)
    assert gap.size > 0
    left, right = gap[0] - 1, gap[-1] + 1
    assert np.array_equal(_fill(on[inside[0]])[gap], np.where(gap - left <= right - gap, left, right))


def fault_at(real, step, fault):
    """A wrapper of the kernel real that applies fault(state) to the state after step once it reaches it.

    _pressure_step makes one step and writes its pressure into its second
    argument; _fractions and _transport return the stacked states of their
    steps, row 0 the state they start from.
    """
    done = [0]  # steps computed so far

    def wrapped(*args):
        out = real(*args)
        after = [args[1]] if real is _pressure_step else out[1:]
        if done[0] < step <= done[0] + len(after):
            fault(after[step - done[0] - 1])
        done[0] += len(after)
        return out

    return wrapped


def add_pressure_mass(p):
    p[30] += 1e-9


def push_fraction_sum_above_one(r):
    r[0, 30] = 1.5


def shift_within_species(u):
    """Move mass within species 1 between two cells: masses stay, the average leaves the pressure."""
    u[0, 20] -= 0.5
    u[0, 40] += 0.5


def trade_between_species(u):
    """Species 1 and 2 trade mass both ways between two cells: every species mass and cell total stays."""
    u[:, 20] += [-0.5, 0.5]
    u[:, 40] += [0.5, -0.5]


# kernel, fault, error, the step a run names, and the schemes that run the kernel:
# the average check reads the state a push leaves
FAULTS = {
    "pressure_mass": ("_pressure_step", add_pressure_mass, EstimateFailed, 7, ("splitting", "pressure_transport")),
    "fraction_sum": ("_fractions", push_fraction_sum_above_one, InvalidDensity, 7, ("splitting",)),
    "species_average": ("_transport", shift_within_species, InvalidDensity, 8, ("pressure_transport",)),
}


@pytest.mark.parametrize("chunk", [16, 5, 1])
@pytest.mark.parametrize("fault, scheme", [(f, s) for f, (*_, schemes) in FAULTS.items() for s in schemes])
def test_chunk_checks_catch_a_bad_step(fault, scheme, chunk, monkeypatch):
    kernel, apply, error, failing_step, _ = FAULTS[fault]
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
def test_transport_tv_reads_its_own_species(chunk, monkeypatch):
    """A push that swaps species between cells keeps every mass, cell total and the average,
    so no step check sees it; the TV of the run's own fractions and the metric speed do."""
    pair = segregated_pair(64)
    t_final = chunk_boundary_t_final(40)
    monkeypatch.setattr(hyperbolic, "_transport", fault_at(_transport, 7, trade_between_species))
    monkeypatch.setattr(hyperbolic, "CHUNK_STEPS", chunk)
    run = run_hyperbolic(pair, "pressure_transport", t_final=t_final, strict=False)
    failed = {c.name: c.margin for c in run.record.checks if not c.passed}
    assert set(failed) == {"tv_monotone[r_1]", "metric_speed"}
    assert failed["tv_monotone[r_1]"] < -0.5
    assert np.argmax(np.diff(run.record.tv["r_1"])) == 6  # the rise into the state after step 7
    monkeypatch.setattr(hyperbolic, "_transport", fault_at(_transport, 7, trade_between_species))
    with pytest.raises(EstimateFailed, match=r"tv_monotone\[r_1\]"):
        run_hyperbolic(pair, "pressure_transport", t_final=t_final)


@pytest.mark.parametrize("chunk", [16, 5, 1])
@pytest.mark.parametrize("scheme", ["splitting", "pressure_transport"])
def test_nan_pressure_raises_on_its_own_step(scheme, chunk, monkeypatch):
    t_final = chunk_boundary_t_final(40)  # before the patch: it steps through the public step functions
    real, calls = hyperbolic._pressure_step, []

    def pressure_step(p, *args):
        calls.append(len(calls) + 1)
        if len(calls) == 7:
            p = p.copy()
            p[30] = np.nan
        return real(p, *args)

    monkeypatch.setattr(hyperbolic, "_pressure_step", pressure_step)
    monkeypatch.setattr(hyperbolic, "CHUNK_STEPS", chunk)
    with pytest.raises(InvalidDensity, match="pressure values must be nonnegative"):
        run_hyperbolic(segregated_pair(64), scheme, t_final=t_final)
    assert len(calls) == 7


def overlapping_blocks(case):
    """Input ``case`` of a seeded sequence: 2-3 species on 32-96 cells, each one block of constant height."""
    rng = np.random.default_rng(0)
    for _ in range(case + 1):
        n, n_species = rng.integers(32, 97), rng.integers(2, 4)
        g = Grid1D(int(n), 0.0, 1.0)
        rows = []
        for _ in range(n_species):
            lo, w = rng.integers(2, n // 2), rng.integers(4, n // 2)
            row = np.zeros(n)
            row[lo : min(lo + w, n - 2)] = rng.uniform(0.5, 2.0)
            rows.append(normalize(row, g))
    return DensityVector.from_species(rows)


# input of overlapping_blocks, and a cut-off on the species total whose support would let
# the own-fraction TV rise beyond the check's tolerance (case 10 is the closest call for tiny)
SUPPORT_CUTOFFS = {11: 0.0, 20: 1e-12, 10: None}


@pytest.mark.parametrize("case", SUPPORT_CUTOFFS)
def test_transport_tv_support_is_the_normal_totals(case):
    run = run_hyperbolic(overlapping_blocks(case), "pressure_transport", t_final=0.003, snapshot_every=1)
    assert run.record.all_passed()  # and the strict run raised nothing
    values = [u.values for u in run.trajectory]

    def series(on):
        return np.array([[tv(r) for r in own_fractions(v, on(v.sum(axis=0)))] for v in values])

    tv_r = series(lambda total: total >= np.finfo(float).tiny)
    for i in range(1, len(values[0])):
        assert np.array_equal(run.record.tv[f"r_{i}"], tv_r[:, i - 1])
    cutoff = SUPPORT_CUTOFFS[case]
    if cutoff is not None:
        cut = series(lambda total: total > cutoff)
        assert (np.diff(cut, axis=0).max(axis=0) > MONOTONE_TOL_REL * cut[0]).any()


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
    """One splitting step of split_state(u) at CFL_SAFETY times the stable step: p and (p_new, r_new)."""
    pf = split_state(u)
    p = pf.pressure.values
    pressure, moved = np.empty((2, p.size)), np.empty((1, p.size - 1))
    pressure[0] = p
    _pressure_step(p, pressure[1], moved[0], u.grid.h, np.inf, CFL_SAFETY)
    return p, (pressure[1], _fractions(pressure, moved, pf.fractions)[1])


class TestKernelProperties:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(1, 40).flatmap(lambda n: st.lists(st.lists(st.booleans(), min_size=n, max_size=n), max_size=6)))
    def test_fill_is_the_closest_supported_cell(self, rows):
        n = len(rows[0]) if rows else 1
        on = np.array(rows + [[False] * n, [True] * n])
        assert np.array_equal(_fill(on), [closest_supported(row) for row in on])

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

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(species_with_zero_runs())
    def test_stable_dt_bounds_the_transport_cfl(self, u):
        # the transport CFL h / max|p_x| never binds, so the stable step leaves it out
        pf = split_state(u)
        p, h = pf.pressure.values, u.grid.h
        assert splitting_stable_dt(pf) <= h / np.abs(np.diff(p) / h).max()

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(species_with_zero_runs())
    def test_short_splitting_run_passes_every_check(self, u):
        assert run_hyperbolic(u, "splitting", t_final=1e-3).record.all_passed()
