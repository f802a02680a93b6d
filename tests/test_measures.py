import math
import re

import numpy as np
import pytest

from btflow.errors import AllZero, DimensionMismatch, InvalidDensity, NonMonotoneMap, OutOfDomain
from btflow.measures import (
    Density,
    DensityVector,
    Grid1D,
    Grid2D,
    JointDensity,
    QuantileMap,
    mass,
    normalize,
    pushforward_1d,
    second_moment,
    to_density,
    to_quantiles,
)


class TestGrids:
    def test_grid1d_basics(self):
        g = Grid1D(10, 0.0, 1.0)
        assert g.h == pytest.approx(0.1)
        assert g.centers()[0] == pytest.approx(0.05)
        assert g.edges()[-1] == 1.0

    def test_grid1d_validation(self):
        with pytest.raises(ValueError):
            Grid1D(1, 0.0, 1.0)
        with pytest.raises(ValueError):
            Grid1D(4, 1.0, 0.0)

    @pytest.mark.parametrize(
        "build, args, name, value",
        [
            (Grid1D, (16.5, 0.0, 1.0), "n_cells", "16.5"),
            (Grid1D, (True, 0.0, 1.0), "n_cells", "True"),
            (Grid1D, (4, 0.0, math.inf), "x_max - x_min", "inf"),
            (Grid1D, (4, -math.inf, 0.0), "x_max - x_min", "inf"),
            (Grid1D, (4, 0.0, math.nan), "x_max - x_min", "nan"),
            (Grid2D, (4.5, 4), "n1", "4.5"),
            (Grid2D, (4, 4.5), "n2", "4.5"),
            (Grid2D, (4, 4, 0.0, math.inf), "x1_max - x1_min", "inf"),
            (Grid2D, (4, 4, 0.0, 1.0, math.nan, 1.0), "x2_max - x2_min", "nan"),
        ],
    )
    def test_counts_and_lengths_rejected_naming_the_value(self, build, args, name, value):
        # a fractional count built h = 1/16.5 with 17 centers; an infinite bound built h = inf or NaN centers
        with pytest.raises(ValueError, match=f"{re.escape(name)} .*{value}"):
            build(*args)

    def test_grid2d_axes(self):
        g = Grid2D(4, 8, 0.0, 1.0, -1.0, 1.0)
        assert g.h1 == pytest.approx(0.25)
        assert g.h2 == pytest.approx(0.25)
        assert g.axis2().n_cells == 8


class TestNormalize:
    def test_constant_one_already_normalized(self):
        g = Grid1D(10, 0.0, 1.0)
        d = normalize(np.ones(10), g)
        np.testing.assert_allclose(d.values, 1.0)

    def test_constant_two_scales(self):
        g = Grid1D(10, 0.0, 1.0)
        d = normalize(2.0 * np.ones(10), g)
        np.testing.assert_allclose(d.values, 1.0)

    @pytest.mark.parametrize(
        "raw, low", [([-1.0, 3.0, -2.0], "-2.0"), ([1.0, np.nan, 3.0], "nan"), ([1.0, -1e-300, 2.0], "-1e-300")]
    )
    def test_negative_entry_raises_naming_the_least(self, raw, low):
        # negative entries were clamped to zero, and the density flagged as repaired
        with pytest.raises(InvalidDensity, match=f"nonnegative, found {low}$"):
            normalize(np.array(raw), Grid1D(3, 0.0, 1.0))

    def test_all_zero_raises(self):
        g = Grid1D(4, 0.0, 1.0)
        with pytest.raises(AllZero):
            normalize(np.zeros(4), g)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            normalize(np.ones(3), Grid1D(4))


class TestQuantiles:
    def test_uniform_inverse_is_identity(self):
        g = Grid1D(10, 0.0, 1.0)
        u = normalize(np.ones(10), g)
        q = to_quantiles(u, 4)
        np.testing.assert_allclose(q.positions, [0.125, 0.375, 0.625, 0.875])

    def test_point_mass_stays_in_cell(self):
        g = Grid1D(10, 0.0, 1.0)
        vals = np.zeros(10)
        vals[3] = 10.0
        u = Density(g, vals)
        q = to_quantiles(u, 7)
        assert np.all(q.positions >= 0.3 - 1e-12)
        assert np.all(q.positions <= 0.4 + 1e-12)

    def test_two_bumps_one_position_each(self):
        # masses 1/2 on [0, 1/4] and [3/4, 1]; by hand the piecewise-linear
        # CDF inverse at levels 1/4 and 3/4 sits mid-bump
        g = Grid1D(16, 0.0, 1.0)
        vals = np.zeros(16)
        vals[:4] = 2.0
        vals[12:] = 2.0
        q = to_quantiles(Density(g, vals), 2)
        np.testing.assert_allclose(q.positions, [0.125, 0.875])

    def test_default_levels_match_cells(self):
        g = Grid1D(32, 0.0, 1.0)
        u = normalize(np.ones(32), g)
        assert to_quantiles(u).n_levels == 32

    def test_monotone_validation(self):
        with pytest.raises(NonMonotoneMap):
            QuantileMap(np.array([0.5, 0.2]), 0.0, 1.0)
        with pytest.raises(OutOfDomain):
            QuantileMap(np.array([0.5, 1.2]), 0.0, 1.0)


class TestDeposition:
    def test_uniform_round_trip_exact_at_matched_resolution(self):
        g = Grid1D(10, 0.0, 1.0)
        u = normalize(np.ones(10), g)
        ur = to_density(to_quantiles(u, 10), g)
        np.testing.assert_allclose(ur.values, u.values, atol=1e-14)

    def test_uniform_round_trip_coarse_levels(self):
        g = Grid1D(10, 0.0, 1.0)
        u = normalize(np.ones(10), g)
        ur = to_density(to_quantiles(u, 4), g)
        assert g.h * np.abs(ur.values - u.values).sum() <= 1.0 / 4

    def test_degenerate_map_single_cell_spike(self):
        g = Grid1D(8, 0.0, 1.0)
        q = QuantileMap(np.full(5, 0.33), 0.0, 1.0)
        d = to_density(q, g)
        assert d.values[2] == pytest.approx(1.0 / g.h)
        assert np.count_nonzero(d.values) == 1

    def test_hand_three_level_deposition(self):
        # X = (1/8, 1/2, 7/8) on 4 cells: wall-extended tails give cell
        # masses (5, 4, 4, 5)/18, worked out from the interpolated CDF
        g = Grid1D(4, 0.0, 1.0)
        q = QuantileMap(np.array([0.125, 0.5, 0.875]), 0.0, 1.0)
        d = to_density(q, g)
        np.testing.assert_allclose(
            d.values * g.h, np.array([5.0, 4.0, 4.0, 5.0]) / 18.0, atol=1e-14
        )

    def test_out_of_domain_raises(self):
        g = Grid1D(8, 0.0, 1.0)
        q = QuantileMap(np.array([0.2, 0.9]), -1.0, 2.0)
        q_bad = QuantileMap(np.array([0.2, 1.5]), -1.0, 2.0)
        to_density(q, g)
        with pytest.raises(OutOfDomain):
            to_density(q_bad, g)

    def test_round_trip_refinement_ratio(self):
        # Lipschitz density: halving h and 1/L together cuts the L1 error
        # by at least 1.8
        def err(n):
            g = Grid1D(n, 0.0, 1.0)
            u = normalize(1.0 + 0.5 * np.sin(2 * np.pi * g.centers()), g)
            ur = to_density(to_quantiles(u, n), g)
            return g.h * np.abs(ur.values - u.values).sum()

        e64, e128, e256 = err(64), err(128), err(256)
        assert e64 / e128 >= 1.8
        assert e128 / e256 >= 1.8

    def test_mass_preserved_exactly(self):
        rng = np.random.default_rng(0)
        g = Grid1D(33, -1.0, 2.0)
        for _ in range(10):
            u = normalize(rng.uniform(0.0, 1.0, 33) ** 2 + 1e-3, g)
            d = to_density(to_quantiles(u, 57), g)
            assert mass(d) == pytest.approx(1.0, abs=1e-14)


class TestPushforward:
    def test_identity(self):
        g = Grid1D(16, 0.0, 1.0)
        u = normalize(1.0 + g.centers(), g)
        out = pushforward_1d(u, np.zeros(16))
        np.testing.assert_allclose(out.values, u.values, atol=1e-14)

    def test_translation(self):
        g = Grid1D(20, 0.0, 1.0)  # h = 0.05, shift = 4 cells
        vals = np.zeros(20)
        vals[2:6] = 5.0
        u = Density(g, vals)
        out = pushforward_1d(u, np.full(20, 0.2))
        np.testing.assert_allclose(out.values[6:10], 5.0, atol=1e-12)
        assert mass(out) == pytest.approx(1.0, abs=1e-14)

    def test_dilation_halves_height(self):
        # theta(x) = 2x maps uniform on [0, 1/2] to uniform on [0, 1] with
        # half the height (change-of-variables with det theta' = 2)
        g = Grid1D(16, 0.0, 1.0)
        vals = np.zeros(16)
        vals[:8] = 2.0
        u = Density(g, vals)
        out = pushforward_1d(u, g.centers())  # displacement x -> theta = 2x
        np.testing.assert_allclose(out.values, 1.0, atol=1e-12)

    def test_non_monotone_raises(self):
        g = Grid1D(8, 0.0, 1.0)
        u = normalize(np.ones(8), g)
        d = -2.0 * g.centers()  # theta = -x reverses order
        with pytest.raises(NonMonotoneMap):
            pushforward_1d(u, d)

    def test_mass_exact_under_pushforward(self):
        rng = np.random.default_rng(1)
        g = Grid1D(40, 0.0, 2.0)
        u = normalize(rng.uniform(0.1, 1.0, 40), g)
        d = 0.1 * np.sin(np.pi * g.centers())
        out = pushforward_1d(u, d)
        assert mass(out) == pytest.approx(1.0, abs=1e-13)


class TestMoments:
    def test_uniform_on_unit_interval(self):
        g = Grid1D(50, 0.0, 1.0)
        u = normalize(np.ones(50), g)
        assert mass(u) == pytest.approx(1.0)
        assert second_moment(u) == pytest.approx(1.0 / 3.0, abs=g.h**2)

    def test_spike_at_origin(self):
        g = Grid1D(50, -1.0, 1.0)
        vals = np.zeros(50)
        vals[24:26] = 0.5 / g.h
        u = Density(g, vals)
        assert second_moment(u) == pytest.approx(0.0, abs=g.h**2)

    def test_uniform_symmetric_interval(self):
        g = Grid1D(64, -1.0, 1.0)
        u = normalize(np.ones(64), g)
        assert second_moment(u) == pytest.approx(1.0 / 3.0, abs=g.h**2)


class TestTypes:
    def test_density_vector_species_access(self):
        g = Grid1D(8, 0.0, 1.0)
        u = DensityVector(g, np.ones((3, 8)))
        assert u.n_species == 3
        assert mass(u.species(1)) == pytest.approx(1.0)

    def test_density_mass_validation(self):
        g = Grid1D(8, 0.0, 1.0)
        for vals in (2.0 * np.ones(8), [1, 1, 1, np.nan, 1, 1, 1, 1]):
            with pytest.raises(ValueError):
                Density(g, vals)

    def test_density_vector_validation(self):
        g = Grid1D(8, 0.0, 1.0)
        good = np.ones(8)
        tiny = good.copy()
        tiny[0], tiny[1] = -1e-14, 2.0
        u = DensityVector(g, np.stack([good, tiny]))
        assert u.values[1, 0] == 0.0  # rows are clamped, as a Density is
        assert u.species(1).values[0] == 0.0
        negative = good.copy()
        negative[0], negative[1] = -1e-6, 2.0
        nan_cell = good.copy()
        nan_cell[3] = np.nan
        for bad in (2.0 * good, negative, nan_cell):
            with pytest.raises(InvalidDensity):
                DensityVector(g, np.stack([good, bad]))
        with pytest.raises(DimensionMismatch):
            DensityVector(g, np.ones((0, 8)))

    @pytest.mark.parametrize(
        "build",
        [
            lambda g: Density(g, np.ones(7)),
            lambda g: DensityVector.from_species([normalize(np.ones(8), g), normalize(np.ones(4), Grid1D(4))]),
            lambda g: JointDensity(Grid2D(4, 4, 0.0, 1.0, 0.0, 1.0), np.ones((4, 3))),
            lambda g: pushforward_1d(normalize(np.ones(8), g), np.zeros(7)),
        ],
        ids=["density", "species_grids", "joint_density", "pushforward"],
    )
    def test_shape_mismatch_raises(self, build):
        with pytest.raises(DimensionMismatch):
            build(Grid1D(8, 0.0, 1.0))

    @pytest.mark.parametrize("positions", [np.array([]), np.zeros((2, 2))], ids=["empty", "2d"])
    def test_quantile_map_needs_a_nonempty_row(self, positions):
        with pytest.raises(ValueError, match="nonempty 1D"):
            QuantileMap(positions, 0.0, 1.0)

    def test_joint_density_validation(self):
        g = Grid2D(4, 4, 0.0, 1.0, 0.0, 1.0)
        JointDensity(g, np.ones((4, 4)))
        nan_cell = np.ones((4, 4))
        nan_cell[1, 2] = np.nan
        for vals in (3.0 * np.ones((4, 4)), nan_cell):
            with pytest.raises(ValueError):
                JointDensity(g, vals)
