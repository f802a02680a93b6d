import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from btflow.errors import DegenerateSupport, DimensionMismatch
from btflow.measures import Density, DensityVector, Grid1D, normalize, to_quantiles
from btflow.transport1d import (
    _plans,
    _plans_cost,
    kantorovich_potential_1d,
    monotone_plan,
    optimal_map_1d,
    w2_exact,
    w2_product,
)


def lp_w2_squared(u: Density, v: Density) -> float:
    """Brute-force optimal transport LP on the cell-center cost matrix."""
    n = u.grid.n_cells
    a = u.values * u.grid.h
    b = v.values * v.grid.h
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
        cost, A_eq=np.array(rows), b_eq=np.concatenate([a, b]), bounds=(0, None), method="highs"
    )
    assert res.success
    return res.fun


def random_density(rng, grid):
    return normalize(rng.uniform(0.05, 1.0, grid.n_cells), grid)


class TestW2Exact:
    def test_identity_of_indiscernibles(self):
        g = Grid1D(16, 0.0, 1.0)
        u = normalize(1.0 + g.centers(), g)
        assert w2_exact(u, u) == 0.0

    def test_pure_translation(self):
        g = Grid1D(16, 0.0, 1.0)
        a = np.zeros(16)
        a[:4] = 4.0
        b = np.zeros(16)
        b[8:12] = 4.0
        assert w2_exact(Density(g, a), Density(g, b)) == pytest.approx(0.5, abs=1e-14)

    def test_two_cell_against_enumeration(self):
        # masses (3/4, 1/4) vs (1/4, 3/4) at centers 0.25, 0.75: the optimal
        # coupling moves 1/2 across distance 1/2, cost 1/8
        g = Grid1D(2, 0.0, 1.0)
        u = Density(g, np.array([1.5, 0.5]))
        v = Density(g, np.array([0.5, 1.5]))
        assert w2_exact(u, v) ** 2 == pytest.approx(0.125, abs=1e-14)
        assert w2_exact(u, v) ** 2 == pytest.approx(lp_w2_squared(u, v), abs=1e-10)

    def test_agrees_with_lp_on_coarse_grids(self):
        rng = np.random.default_rng(3)
        g = Grid1D(8, 0.0, 1.0)
        for _ in range(5):
            u, v = random_density(rng, g), random_density(rng, g)
            assert w2_exact(u, v) ** 2 == pytest.approx(lp_w2_squared(u, v), abs=1e-8)

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        g = Grid1D(12, 0.0, 1.0)
        u, v = random_density(rng, g), random_density(rng, g)
        assert w2_exact(u, v) == pytest.approx(w2_exact(v, u), abs=1e-15)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(5)
        g = Grid1D(20, 0.0, 1.0)
        for _ in range(20):
            u, v, w = (random_density(rng, g) for _ in range(3))
            assert w2_exact(u, w) <= w2_exact(u, v) + w2_exact(v, w) + 1e-9

    def test_grid_mismatch(self):
        u = normalize(np.ones(8), Grid1D(8, 0.0, 1.0))
        v = normalize(np.ones(8), Grid1D(8, 0.0, 2.0))
        with pytest.raises(DimensionMismatch):
            w2_exact(u, v)


class TestOptimalMap:
    def test_identity(self):
        g = Grid1D(32, 0.0, 1.0)
        u = normalize(1.0 + 0.3 * np.sin(2 * np.pi * g.centers()), g)
        T = optimal_map_1d(u, u)
        np.testing.assert_allclose(T, g.centers(), atol=1e-12)

    def test_translation(self):
        g = Grid1D(40, 0.0, 2.0)
        a = np.zeros(40)
        a[4:12] = 1.0 / (8 * g.h)
        b = np.zeros(40)
        b[24:32] = 1.0 / (8 * g.h)
        u, v = Density(g, a), Density(g, b)
        T = optimal_map_1d(u, v)
        support = a > 0
        np.testing.assert_allclose(T[support], g.centers()[support] + 1.0, atol=1e-12)

    def test_uniform_to_half_uniform(self):
        g = Grid1D(64, 0.0, 1.0)
        u = normalize(np.ones(64), g)
        vals = np.zeros(64)
        vals[:32] = 2.0
        T = optimal_map_1d(u, Density(g, vals))
        np.testing.assert_allclose(T, g.centers() / 2.0, atol=1e-12)

    def test_monotone(self):
        rng = np.random.default_rng(6)
        g = Grid1D(30, 0.0, 1.0)
        u, v = random_density(rng, g), random_density(rng, g)
        T = optimal_map_1d(u, v)
        assert np.all(np.diff(T) >= -1e-15)

    def test_degenerate_support(self):
        g = Grid1D(8, 0.0, 1.0)
        v = normalize(np.ones(8), g)
        zero = Density.__new__(Density)
        object.__setattr__(zero, "grid", g)
        object.__setattr__(zero, "values", np.zeros(8))
        with pytest.raises(DegenerateSupport):
            optimal_map_1d(zero, v)

    def test_pushforward_consistency(self):
        from btflow.fdref import l1_error
        from btflow.measures import pushforward_1d

        g = Grid1D(128, 0.0, 1.0)
        u = normalize(1.0 + 0.4 * np.cos(np.pi * g.centers()), g)
        v = normalize(1.0 - 0.4 * np.cos(np.pi * g.centers()), g)
        T = optimal_map_1d(u, v)
        pushed = pushforward_1d(u, T - g.centers())
        assert l1_error(pushed, v) <= 2.0 * (g.h + 1.0 / g.n_cells)


class TestKantorovichPotential:
    def test_zero_for_equal_densities(self):
        g = Grid1D(32, 0.0, 1.0)
        u = normalize(1.0 + g.centers(), g)
        phi = kantorovich_potential_1d(u, u)
        np.testing.assert_allclose(phi.gradient, 0.0, atol=1e-12)
        np.testing.assert_allclose(phi.values, 0.0, atol=1e-12)

    def test_translation_gradient_and_identity(self):
        g = Grid1D(40, 0.0, 2.0)
        a = np.zeros(40)
        a[4:12] = 1.0 / (8 * g.h)
        b = np.zeros(40)
        b[24:32] = 1.0 / (8 * g.h)
        u, v = Density(g, a), Density(g, b)
        phi = kantorovich_potential_1d(u, v)
        support = a > 0
        np.testing.assert_allclose(phi.gradient[support], -1.0, atol=1e-12)
        lhs = g.h * np.sum(phi.gradient**2 * u.values)
        assert lhs == pytest.approx(1.0, abs=1e-12)
        assert lhs == pytest.approx(w2_exact(u, v) ** 2, abs=1e-10)

    def test_half_uniform_case(self):
        g = Grid1D(64, 0.0, 1.0)
        u = normalize(np.ones(64), g)
        vals = np.zeros(64)
        vals[:32] = 2.0
        phi = kantorovich_potential_1d(u, Density(g, vals))
        np.testing.assert_allclose(phi.gradient, g.centers() / 2.0, atol=1e-12)
        assert g.h * np.sum(phi.gradient**2 * u.values) == pytest.approx(1.0 / 12.0, abs=1e-3)

    def test_identity_residual_refines_first_order(self):
        def residual(n, seed):
            g = Grid1D(n, 0.0, 1.0)
            rng = np.random.default_rng(seed)
            c = rng.uniform(-0.3, 0.3, 2)
            u = normalize(1.0 + c[0] * np.cos(np.pi * g.centers()), g)
            v = normalize(1.0 + c[1] * np.sin(2 * np.pi * g.centers()), g)
            phi = kantorovich_potential_1d(u, v)
            return abs(g.h * np.sum(phi.gradient**2 * u.values) - w2_exact(u, v) ** 2)

        for seed in range(3):
            assert residual(64, seed) / max(residual(128, seed), 1e-18) >= 1.5

    def test_one_convexity_proxy(self):
        rng = np.random.default_rng(8)
        g = Grid1D(48, 0.0, 1.0)
        u, v = random_density(rng, g), random_density(rng, g)
        phi = kantorovich_potential_1d(u, v)
        assert phi.convexity_defect() >= -1e-10


class TestW2Product:
    def test_zero_for_equal(self):
        g = Grid1D(16, 0.0, 1.0)
        u = DensityVector(g, np.ones((2, 16)))
        assert w2_product(u, u) == 0.0

    def test_two_translates(self):
        g = Grid1D(32, 0.0, 2.0)
        a = np.zeros(32)
        a[2:6] = 1.0 / (4 * g.h)
        b = np.zeros(32)
        b[18:22] = 1.0 / (4 * g.h)
        u = DensityVector(g, np.stack([a, a]))
        v = DensityVector(g, np.stack([b, b]))
        assert w2_product(u, v) == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_mixed_root_sum_square(self):
        rng = np.random.default_rng(9)
        g = Grid1D(24, 0.0, 1.0)
        ua, va = random_density(rng, g), random_density(rng, g)
        ub, vb = random_density(rng, g), random_density(rng, g)
        u = DensityVector.from_species([ua, ub])
        v = DensityVector.from_species([va, vb])
        expected = np.hypot(w2_exact(ua, va), w2_exact(ub, vb))
        assert w2_product(u, v) == pytest.approx(expected, abs=1e-14)

    def test_species_mismatch(self):
        g = Grid1D(8, 0.0, 1.0)
        with pytest.raises(DimensionMismatch):
            w2_product(DensityVector(g, np.ones((1, 8))), DensityVector(g, np.ones((2, 8))))

    @pytest.mark.parametrize(
        "call",
        [
            lambda u, v: w2_product(DensityVector.from_species([u]), DensityVector.from_species([v])),
            monotone_plan,
            optimal_map_1d,
        ],
        ids=["w2_product", "monotone_plan", "optimal_map_1d"],
    )
    def test_grid_mismatch(self, call):
        u = normalize(np.ones(8), Grid1D(8, 0.0, 1.0))
        v = normalize(np.ones(8), Grid1D(8, 0.0, 2.0))
        with pytest.raises(DimensionMismatch):
            call(u, v)


class TestMonotonePlan:
    def test_plan_cost_equals_w2(self):
        rng = np.random.default_rng(10)
        g = Grid1D(32, 0.0, 1.0)
        u, v = random_density(rng, g), random_density(rng, g)
        src, dst, seg = monotone_plan(u, v)
        x = g.centers()
        cost = float(np.sum(seg * (x[src] - x[dst]) ** 2))
        assert cost == pytest.approx(w2_exact(u, v) ** 2, abs=1e-14)

    def test_plan_marginals(self):
        rng = np.random.default_rng(11)
        g = Grid1D(16, 0.0, 1.0)
        u, v = random_density(rng, g), random_density(rng, g)
        src, dst, seg = monotone_plan(u, v)
        left = np.zeros(16)
        np.add.at(left, src, seg)
        right = np.zeros(16)
        np.add.at(right, dst, seg)
        np.testing.assert_allclose(left, u.values * g.h, atol=1e-13)
        np.testing.assert_allclose(right, v.values * g.h, atol=1e-13)


@st.composite
def histogram_pairs(draw, max_cells=64, n=None):
    """Unit-mass histograms with zero runs; sometimes with disjoint supports."""
    n = draw(st.integers(2, max_cells)) if n is None else n
    cell = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
    a = np.array(draw(st.lists(cell, min_size=n, max_size=n)))
    b = np.array(draw(st.lists(cell, min_size=n, max_size=n)))
    if draw(st.booleans()):
        b[a > 0.0] = 0.0
    assume(a.any() and b.any())
    g = Grid1D(n, 0.0, 1.0)
    return normalize(a, g), normalize(b, g)


class TestMonotonePlanProperties:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(histogram_pairs())
    def test_marginals_order_and_cost(self, pair):
        u, v = pair
        g = u.grid
        src, dst, seg = monotone_plan(u, v)
        assert np.all(seg > 0.0)
        assert np.all(np.diff(src) >= 0) and np.all(np.diff(dst) >= 0)
        left = np.bincount(src, seg, minlength=g.n_cells)
        right = np.bincount(dst, seg, minlength=g.n_cells)
        np.testing.assert_allclose(left, u.values * g.h, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(right, v.values * g.h, rtol=0.0, atol=1e-15)
        x = g.centers()
        cost = float(np.sum(seg * (x[src] - x[dst]) ** 2))
        assert cost == pytest.approx(w2_exact(u, v) ** 2, rel=1e-12, abs=1e-15)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(histogram_pairs(max_cells=8))
    def test_cost_matches_lp(self, pair):
        u, v = pair
        src, dst, seg = monotone_plan(u, v)
        x = u.grid.centers()
        cost = float(np.sum(seg * (x[src] - x[dst]) ** 2))
        assert cost == pytest.approx(lp_w2_squared(u, v), abs=1e-8)


@st.composite
def stacked_histogram_pairs(draw):
    """1-4 histogram pairs on one grid, as stacked (R, n) cell-mass arrays."""
    n = draw(st.integers(2, 64))
    pairs = draw(st.lists(histogram_pairs(n=n), min_size=1, max_size=4))
    h = pairs[0][0].grid.h
    a = np.stack([u.values * h for u, _ in pairs])
    b = np.stack([v.values * h for _, v in pairs])
    return a, b, pairs[0][0].grid.centers()


class TestStackedPlans:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(stacked_histogram_pairs())
    def test_rows_match_one_row_calls(self, stacked):
        a, b, x = stacked
        plans = _plans(a, b)
        cost = _plans_cost(plans, x)
        src, dst, seg = plans
        assert seg.shape == (len(a), 2 * a.shape[1]) and seg.min() >= 0.0
        for k in range(len(a)):
            one = _plans(a[k : k + 1], b[k : k + 1])
            for rows, row in zip(plans, one):
                assert np.array_equal(rows[k], row[0])
            assert cost[k].tobytes() == _plans_cost(one, x)[0].tobytes()
            # the zero-length pads carry no mass
            left = np.bincount(src[k], seg[k], minlength=a.shape[1])
            right = np.bincount(dst[k], seg[k], minlength=a.shape[1])
            np.testing.assert_allclose(left, a[k], rtol=0.0, atol=1e-15)
            np.testing.assert_allclose(right, b[k], rtol=0.0, atol=1e-15)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1))
    def test_batched_cost_rows_match_one_row_calls(self, seed):
        # long rows, so the pairwise summation splits them into blocks, with zero runs
        rng = np.random.default_rng(seed)
        n_rows, n = int(rng.integers(2, 9)), int(rng.integers(2, 300))
        a, b = rng.uniform(size=(2, n_rows, n)) * (rng.uniform(size=(2, n_rows, n)) < 0.7)
        for row in (a, b):
            lo = int(rng.integers(0, n))
            row[:, lo : lo + int(rng.integers(1, n // 2 + 2))] = 0.0
            row[:, int(rng.integers(0, n))] += 0.5
            row /= row.sum(axis=1, keepdims=True)
        x = Grid1D(n, -1.0, 2.0).centers()
        cost = _plans_cost(_plans(a, b), x)
        for k in range(n_rows):
            assert cost[k].tobytes() == _plans_cost(_plans(a[k : k + 1], b[k : k + 1]), x)[0].tobytes()


def assert_exact_attribution(a, b):
    """Each row of _plans(a, b) has the gaps of the merged cumulative masses
    (clipped to the smaller total) as segments, and each positive segment lies
    inside the cumulative interval of its src cell in a and its dst cell in b."""
    src, dst, seg = _plans(a, b)
    n = a.shape[1]
    assert src.min() >= 0 and dst.min() >= 0 and src.max() < n and dst.max() < n
    for k in range(len(a)):
        ca, cb = np.cumsum(a[k]), np.cumsum(b[k])
        total = min(ca[-1], cb[-1])
        ca[-1] = cb[-1] = total
        hi = np.minimum(np.sort(np.concatenate((ca, cb))), total)
        lo = np.concatenate(([0.0], hi[:-1]))
        assert np.array_equal(seg[k], hi - lo)
        pos = seg[k] > 0.0
        for c, cells in ((ca, src[k]), (cb, dst[k])):
            edges = np.concatenate(([0.0], c))
            assert np.all(edges[cells[pos]] <= lo[pos]) and np.all(hi[pos] <= edges[cells[pos] + 1])


def _hand_built_rows():
    """(a, b) cell-mass rows at the edge cases of the merged-order attribution."""
    ca = np.array([0.5, 0.75, 0.875, 0.9375, 0.96875, 1.0])
    nudge = 2.0**-53 * np.array([[1.0, -1.0, 1.0, 0.0, -1.0, 0.0], [-1.0, 1.0, -1.0, 0.0, 1.0, 0.0]])
    short = np.array([[0.25, 0.25, 0.5, 0.0, 0.0], [0.5, 0.25, 0.25, 0.0, 0.0]])
    off = np.zeros_like(short)
    off[:, 2] = -(2.0**-53), 2.0**-52  # totals 1 - 2^-53 and 1 + 2^-52
    signed = np.array([[-0.0, 0.25, -0.0, 0.25, 0.5, -0.0], [0.5, -0.0, -0.0, 0.0, 0.5, -0.0]])
    runs = np.array([[0.2, 0.0, 0.0, 0.3, 0.0, 0.5, 0.0, 0.0], [0.0, 0.0, 0.4, 0.0, 0.0, 0.0, 0.6, 0.0]])
    return {
        # b's cumulative masses one ulp off a's at four breakpoints; dyadic, so the sums are exact
        "ulp_segments": (np.diff(np.tile(ca, (2, 1)), prepend=0.0), np.diff(ca + nudge, prepend=0.0)),
        # the zero last cells repeat the larger total, which exceeds the smaller one
        "totals_an_ulp_apart": (short, short + off),
        "negative_zeros": (signed, signed[:, ::-1].copy()),
        "zero_runs": (runs, runs[::-1].copy()),
        "disjoint_supports": (np.eye(2, 8, 0) + np.eye(2, 8, 1), np.eye(2, 8, 6) + np.eye(2, 8, 5)),
    }


HAND_BUILT_ROWS = _hand_built_rows()


class TestExactAttribution:
    @pytest.mark.parametrize("a, b", HAND_BUILT_ROWS.values(), ids=HAND_BUILT_ROWS.keys())
    def test_hand_built_rows(self, a, b):
        assert_exact_attribution(a, b)
        assert_exact_attribution(b, a)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(stacked_histogram_pairs(), st.integers(0, 3), st.booleans())
    def test_positive_segments_lie_in_their_cells(self, stacked, nudge, lighter):
        a, b, _ = stacked
        if nudge:  # b becomes a with every nudge-th cell one ulp heavier or lighter
            b = a.copy()
            b[:, ::nudge] = np.nextafter(b[:, ::nudge], 0.0 if lighter else np.inf)
        assert_exact_attribution(a, b)


def _inverse_cdf_reference(v, m, side):
    """Reference: one species' inverse CDF at the levels m, written out whole."""
    grid = v.grid
    cum = np.concatenate(([0.0], np.cumsum(v.values) * grid.h))
    if side == "right":
        m = np.minimum(m, cum[-1])
    idx = np.searchsorted(cum, m, side=side)
    idx = np.clip(idx, 1, grid.n_cells) - 1
    u = v.values[idx]
    left = grid.x_min + idx * grid.h
    with np.errstate(divide="ignore", invalid="ignore"):
        off = np.where(u > 0.0, (m - cum[idx]) / u, 0.0)
    return np.maximum.accumulate(np.clip(left + off, grid.x_min, grid.x_max))


class TestInverseCDFOracle:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(histogram_pairs(), st.integers(1, 96), st.booleans())
    def test_quantiles_and_map_match_the_reference(self, pair, n_levels, shifted):
        u, v = pair
        if shifted:
            g = Grid1D(u.grid.n_cells, -1.5, 2.0)
            u, v = normalize(u.values, g), normalize(v.values, g)
        h = u.grid.h
        for w in (u, v):
            m = (np.arange(n_levels) + 0.5) / n_levels * (np.cumsum(w.values) * h)[-1]
            expected = _inverse_cdf_reference(w, m, "left")
            assert np.array_equal(to_quantiles(w, n_levels).positions, expected)
        for a, b in ((u, v), (v, u)):
            m = np.cumsum(a.values) * h - 0.5 * a.values * h
            assert np.array_equal(optimal_map_1d(a, b), _inverse_cdf_reference(b, m, "right"))
