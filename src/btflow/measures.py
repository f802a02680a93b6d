"""Discrete measures on uniform 1D/2D grids.

Densities are cell averages (mass per length), so every operation here can
conserve mass exactly.  The cumulative distribution of a density is piecewise
linear; `to_quantiles` inverts it exactly at uniform mass levels, and
`to_density` is the adjoint deposition that spreads each inter-level mass
uniformly between consecutive quantile positions.

The slab deposition of quantile rows (`_deposit_all`) and its adjoint, the
position gradient of an energy of the deposited densities
(`_energy_position_gradient`, which the Lagrangian JKO solver descends
with), live here side by side.  Both take the end half-levels from one rule,
`_ghost_ends`, and both test the walls at the grid's x_min and x_max.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AllZero, DimensionMismatch, InvalidDensity, NonMonotoneMap, NonpositiveTime, OutOfDomain

MASS_TOL_1D = 1e-12
MASS_TOL_2D = 1e-10


@dataclass(frozen=True)
class Grid1D:
    """Uniform cell-centered grid on [x_min, x_max] with n_cells cells."""

    n_cells: int
    x_min: float = 0.0
    x_max: float = 1.0

    def __post_init__(self):
        _require_count("n_cells", self.n_cells, 2)
        _require_positive("x_max - x_min", self.x_max - self.x_min, ValueError)

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / self.n_cells

    def centers(self) -> np.ndarray:
        return self.x_min + (np.arange(self.n_cells) + 0.5) * self.h

    def edges(self) -> np.ndarray:
        return self.x_min + np.arange(self.n_cells + 1) * self.h

    @property
    def length(self) -> float:
        return self.x_max - self.x_min


@dataclass(frozen=True)
class Grid2D:
    """Uniform rectangle grid, n1 x n2 cells."""

    n1: int
    n2: int
    x1_min: float = 0.0
    x1_max: float = 1.0
    x2_min: float = 0.0
    x2_max: float = 1.0

    def __post_init__(self):
        _require_count("n1", self.n1, 2)
        _require_count("n2", self.n2, 2)
        _require_positive("x1_max - x1_min", self.x1_max - self.x1_min, ValueError)
        _require_positive("x2_max - x2_min", self.x2_max - self.x2_min, ValueError)

    @property
    def h1(self) -> float:
        return (self.x1_max - self.x1_min) / self.n1

    @property
    def h2(self) -> float:
        return (self.x2_max - self.x2_min) / self.n2

    def axis1(self) -> Grid1D:
        return Grid1D(self.n1, self.x1_min, self.x1_max)

    def axis2(self) -> Grid1D:
        return Grid1D(self.n2, self.x2_min, self.x2_max)

    def centers(self) -> tuple[np.ndarray, np.ndarray]:
        c1 = self.x1_min + (np.arange(self.n1) + 0.5) * self.h1
        c2 = self.x2_min + (np.arange(self.n2) + 0.5) * self.h2
        return c1, c2


def _require_positive(name: str, value, error=NonpositiveTime):
    """Raise error unless value (each entry of an array) is a finite real > 0; a bool is no number."""
    arr = np.asarray(value)
    if arr.dtype.kind not in "iuf" or not np.all(np.isfinite(arr) & (arr > 0)):
        raise error(f"{name} must be finite and positive, got {value!r}")


def _require_count(name: str, value, low: int) -> int:
    """value as an int; ValueError unless it is an integer of at least low (a bool is no count)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise ValueError(f"{name} must be an integer of at least {low}, got {value!r}")
    return int(value)


def _clamped_sign(vals: np.ndarray, what: str = "density") -> np.ndarray:
    """vals with the cells in [-1e-13, 0) set to zero; a cell below -1e-13 or NaN raises InvalidDensity."""
    low = vals.min()
    if not low >= -1e-13:  # also rejects NaN
        raise InvalidDensity(f"{what} values must be nonnegative, found {low!r}")
    return np.maximum(vals, 0.0) if low < 0.0 else vals


def _checked_unit_mass(vals: np.ndarray, h: float, mass_tol: float, what: str = "density"):
    """Check every row of vals for cells >= -1e-13 and unit mass within mass_tol.

    Returns vals with the cells in [-1e-13, 0) set to zero.
    """
    vals = _clamped_sign(vals, what)
    drift = float(np.abs(h * vals.sum(axis=-1) - 1.0).max())
    if not drift <= mass_tol:
        raise InvalidDensity(f"{what} mass deviates from 1 by {drift!r}, beyond {mass_tol}")
    return vals


@dataclass(frozen=True)
class Density:
    """Single-species nonnegative cell-averaged density of unit mass."""

    grid: Grid1D
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n_cells,):
            raise DimensionMismatch(
                f"expected {self.grid.n_cells} cell values, got shape {vals.shape}"
            )
        object.__setattr__(self, "values", _checked_unit_mass(vals, self.grid.h, MASS_TOL_1D))


@dataclass(frozen=True)
class DensityVector:
    """Vector of N species densities sharing one grid."""

    grid: Grid1D
    values: np.ndarray  # shape (N, n_cells)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2 or vals.shape[0] < 1 or vals.shape[1] != self.grid.n_cells:
            raise DimensionMismatch(
                f"expected (N, {self.grid.n_cells}) array, got shape {vals.shape}"
            )
        object.__setattr__(self, "values", _checked_unit_mass(vals, self.grid.h, MASS_TOL_1D))

    @property
    def n_species(self) -> int:
        return self.values.shape[0]

    def species(self, i: int) -> Density:
        return Density(self.grid, self.values[i])

    @staticmethod
    def from_species(densities: "list[Density]") -> "DensityVector":
        grid = densities[0].grid
        if any(d.grid != grid for d in densities):
            raise DimensionMismatch("species live on different grids")
        return DensityVector(grid, np.stack([d.values for d in densities]))


@dataclass(frozen=True)
class QuantileMap:
    """Monotone positions X_l at uniform mass levels m_l = (l + 1/2)/L."""

    positions: np.ndarray
    x_min: float
    x_max: float

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        object.__setattr__(self, "positions", pos)
        if pos.ndim != 1 or pos.size < 1:
            raise ValueError("positions must be a nonempty 1D array")
        if np.any(np.diff(pos) < -1e-12 * (self.x_max - self.x_min)):
            raise NonMonotoneMap("quantile positions must be nondecreasing")
        if pos[0] < self.x_min - 1e-12 or pos[-1] > self.x_max + 1e-12:
            raise OutOfDomain("quantile positions leave the grid interval")

    @property
    def n_levels(self) -> int:
        return self.positions.size


@dataclass(frozen=True)
class JointDensity:
    """Nonnegative cell-averaged density on a 2D grid, unit mass."""

    grid: Grid2D
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n1, self.grid.n2):
            raise DimensionMismatch(
                f"expected ({self.grid.n1}, {self.grid.n2}) array, got {vals.shape}"
            )
        cell_area = self.grid.h1 * self.grid.h2
        flat = _checked_unit_mass(vals.ravel(), cell_area, MASS_TOL_2D, "joint density")
        object.__setattr__(self, "values", flat.reshape(vals.shape))


def mass(density: Density) -> float:
    """Total mass h * sum(u_c)."""
    return density.grid.h * float(np.sum(density.values))


def second_moment(density: Density) -> float:
    """Quadrature h * sum(x_c^2 u_c)."""
    x = density.grid.centers()
    return density.grid.h * float(np.sum(x * x * density.values))


def normalize(raw: np.ndarray, grid: Grid1D) -> Density:
    """Rescale nonnegative entries to unit mass; rejects negative entries.

    A negative or NaN entry raises InvalidDensity naming the least entry, and
    input without a positive entry raises AllZero.
    """
    raw = np.asarray(raw, dtype=float)
    if raw.shape != (grid.n_cells,):
        raise DimensionMismatch(f"expected {grid.n_cells} entries, got {raw.shape}")
    low = raw.min()
    if not low >= 0.0:  # also rejects NaN
        raise InvalidDensity(f"entries to normalize must be nonnegative, found {float(low)!r}")
    total = grid.h * float(raw.sum())
    if total <= 0.0:
        raise AllZero("no positive entry to normalize")
    return Density(grid, raw / total)


def _cdf_at_edges(density: Density) -> np.ndarray:
    """Cumulative mass at the n+1 cell edges; exact for cell averages."""
    return np.concatenate(([0.0], np.cumsum(density.values) * density.grid.h))


def to_quantiles(density: Density, n_levels: int | None = None) -> QuantileMap:
    """Invert the piecewise-linear CDF at the midpoint mass levels.

    Default level count equals the cell count (matched Eulerian/Lagrangian
    resolution).  Plateaus of the CDF (zero-density runs) resolve to their
    left endpoint.
    """
    grid = density.grid
    L = grid.n_cells if n_levels is None else _require_count("n_levels", n_levels, 1)
    cum = _cdf_at_edges(density)
    m = (np.arange(L) + 0.5) / L * cum[-1]
    return QuantileMap(_inverse_cdf(density, cum, m, "left"), grid.x_min, grid.x_max)


def _inverse_cdf(density: Density, cum: np.ndarray, m: np.ndarray, side: str) -> np.ndarray:
    """Positions where the piecewise-linear CDF ``cum`` (from _cdf_at_edges)
    reaches the mass levels m <= cum[-1], clipped to the grid and made
    nondecreasing.

    ``side`` is np.searchsorted's: "left" resolves a plateau of the CDF to
    its left end, "right" to its right end (the left- and right-continuous
    inverses).
    """
    grid = density.grid
    idx = np.searchsorted(cum, m, side=side)
    idx = np.clip(idx, 1, grid.n_cells) - 1  # cell index carrying level m
    u = density.values[idx]
    left = grid.x_min + idx * grid.h
    # u > 0 wherever cum strictly increases past m; guard exact plateau hits
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.where(u > 0.0, (m - cum[idx]) / u, 0.0)
    return np.maximum.accumulate(np.clip(left + frac, grid.x_min, grid.x_max))


def _ghost_ends(x0: float, x1: float, x_pen: float, x_last: float, lo: float, hi: float, q: float):
    """The ghost tails of one quantile row X_0 <= ... <= X_L on the walls [lo, hi], levels of mass q.

    Each end half-level extends over the leading gap.  At an interior end,
    whose outer ghost knot 2X_0 - X_1 (2X_L - X_{L-1}) lies inside the walls,
    the ghost knots one gap and half a gap out bound slabs of mass q/8 and
    3q/8, which trace the quadratic tail of a density vanishing linearly
    and keep reconstructed fronts free of spurious cliffs.  At an end whose
    tail would leave the domain the outer slab is empty and the inner one
    holds q/2 at constant density, which reproduces a wall-touching uniform
    profile exactly; its inner knot is clipped to the wall, where it stops
    moving with the row.

    Returns the knots (F1, F2, E2, E1) in row order, the masses of the slabs
    (F1, F2), (F2, X_0), (X_L, E2), (E2, E1), and whether F2 and E2 move with
    the row (1.0) or sit clipped at the wall (0.0).
    """
    gap0, gap1 = x1 - x0, x_last - x_pen
    f1, f2 = x0 - gap0, x0 - 0.5 * gap0
    e2, e1 = x_last + 0.5 * gap1, x_last + gap1
    # (outer, inner) slab masses of an interior and of a wall end
    tail, wall = (q / 8.0, 3.0 * q / 8.0), (0.0, 0.5 * q)
    front, end = (tail if f1 > lo else wall), (tail if e1 < hi else wall)
    return (f1, max(lo, f2), min(hi, e2), e1), front + end[::-1], (float(f2 > lo), float(e2 < hi))


def _deposit_all(positions: np.ndarray, grid: Grid1D, edges: np.ndarray) -> np.ndarray:
    """Densities (N, n) of the slab deposition of quantile positions (N, L)
    on the grid, whose ``edges`` the caller holds.

    Mass 1/L sits between consecutive positions, spread uniformly, so the
    cumulative mass interpolates (X_l, (l+1/2)/L) linearly, and the end
    half-levels follow the ghost tails of _ghost_ends (an outer ghost knot
    stays, at level 0 or 1, when its slab is empty, so every row has L + 4
    knots).  Total mass is exact.  Fully degenerate maps deposit into one
    cell.  The rows share the knot buffer and the level ramp, so the work per
    row is its ghost ends and one ``np.interp``, whose levels 0 before the
    first knot and 1 from the last one on are the deposition's own.
    """
    n_species, n_levels = positions.shape
    if n_levels == 1:
        cdf = np.where(edges >= positions, 1.0, 0.0)
    else:
        q = 1.0 / n_levels
        knots = np.empty((n_species, n_levels + 4))
        knots[:, 2:-2] = positions
        levels = np.empty(n_levels + 4)
        levels[2:-2] = (np.arange(n_levels) + 0.5) / n_levels
        levels[0], levels[-1] = 0.0, 1.0
        cdf = np.empty((n_species, edges.size))
        for i, row in enumerate(positions[:, [0, 1, -2, -1]].tolist()):
            (f1, f2, e2, e1), (m_front, _, _, m_end), _ = _ghost_ends(*row, grid.x_min, grid.x_max, q)
            knots[i, :2] = (f1, f2)
            knots[i, -2:] = (e2, e1)
            levels[1], levels[-2] = m_front, 1.0 - m_end
            cdf[i] = np.interp(edges, knots[i], levels)
    cdf[:, 0] = 0.0
    cdf[:, -1] = 1.0
    return (cdf[:, 1:] - cdf[:, :-1]) / grid.h


def _energy_position_gradient(
    positions: np.ndarray, sensitivity: np.ndarray, grid: Grid1D, inner_edges: np.ndarray
) -> np.ndarray:
    """Adjoint of _deposit_all: dE/dX for each species, where the sensitivity
    (N, n) is dE/du on the grid.

    For a slab of mass q spread over (a, b), dE/da = q (A b - B) / (b - a)^2
    and dE/db = q (B - A a) / (b - a)^2, where A and B are the sums of the
    sensitivity jumps (and position-weighted jumps) at the grid edges strictly
    inside the slab (``inner_edges``, the grid's edges without the two ends).
    Degenerate slabs sit inside one cell and contribute a locally flat
    energy, hence zero gradient.

    The slabs of all species go through one vector pass, with each species'
    four ghost slabs of _ghost_ends appended to its row.  Their masses and
    the clip flags of the inner ghost knots carry the end rule into the chain
    rule of the knots F1 = 2X_0 - X_1, F2 = 1.5X_0 - 0.5X_1 and their mirror
    images, so every end takes the same branch-free update.
    """
    n_species, n_levels = positions.shape
    grad = np.zeros_like(positions)
    q = 1.0 / n_levels
    tiny = 1e-13 * max(1.0, grid.length)

    jumps = sensitivity[:, 1:] - sensitivity[:, :-1]
    s0 = np.zeros(sensitivity.shape)
    s1 = np.zeros(sensitivity.shape)
    np.cumsum(jumps, axis=1, out=s0[:, 1:])
    np.cumsum(jumps * inner_edges, axis=1, out=s1[:, 1:])

    ends = [_ghost_ends(*row, grid.x_min, grid.x_max, q) for row in positions[:, [0, 1, -2, -1]].tolist()]
    f1, f2, e2, e1 = np.array([knots for knots, _, _ in ends]).T
    a = np.column_stack((positions[:, :-1], f1, f2, positions[:, -1], e2))
    b = np.column_stack((positions[:, 1:], f2, positions[:, 0], e2, e1))

    width = b - a
    lo = np.searchsorted(inner_edges, a, side="right")
    hi = np.searchsorted(inner_edges, b, side="left")
    rows = np.arange(n_species)[:, None]
    jump_sum = s0[rows, hi] - s0[rows, lo]
    jump_mom = s1[rows, hi] - s1[rows, lo]
    ok = width > tiny
    width_sq = width**2
    with np.errstate(divide="ignore", invalid="ignore"):
        ga = np.where(ok, (jump_sum * b - jump_mom) / width_sq, 0.0)
        gb = np.where(ok, (jump_mom - jump_sum * a) / width_sq, 0.0)

    m = n_levels - 1
    grad[:, :-1] += q * ga[:, :m]
    grad[:, 1:] += q * gb[:, :m]
    ghosts = zip(ga[:, m:].tolist(), gb[:, m:].tolist(), ends)
    for i, ((ga1, ga2, ga3, ga4), (gb1, gb2, gb3, gb4), (_, (m1, m2, m3, m4), (c0, c1))) in enumerate(ghosts):
        # the ghost slabs add in turn (front: outer, inner; end: inner, outer), which fixes the rounding
        g0 = grad[i, 0] + m1 * (2.0 * ga1 + 1.5 * c0 * gb1)
        g1 = grad[i, 1] + m1 * (-ga1 - 0.5 * c0 * gb1)
        grad[i, 0] = g0 + m2 * (1.5 * c0 * ga2 + gb2)
        grad[i, 1] = g1 + m2 * (-0.5 * c0 * ga2)
        g_last = grad[i, -1] + m3 * (ga3 + 1.5 * c1 * gb3)
        g_pen = grad[i, -2] + m3 * (-0.5 * c1 * gb3)
        grad[i, -1] = g_last + m4 * (1.5 * c1 * ga4 + 2.0 * gb4)
        grad[i, -2] = g_pen + m4 * (-0.5 * c1 * ga4 - gb4)
    return grad


def to_density(q: QuantileMap, grid: Grid1D) -> Density:
    """Deposit level masses back onto the grid; exactly mass preserving."""
    pos = q.positions
    slack = 1e-12 * max(1.0, grid.length)
    if pos[0] < grid.x_min - slack or pos[-1] > grid.x_max + slack:
        raise OutOfDomain("quantile positions lie outside the grid interval")
    pos = np.clip(pos, grid.x_min, grid.x_max)
    return Density(grid, _deposit_all(pos[None, :], grid, grid.edges())[0])


def pushforward_1d(density: Density, displacement: np.ndarray) -> Density:
    """Push a density forward through the monotone map x -> x + d(x).

    The displacement is given per cell (at cell centers).  Each cell's mass
    is transported as a block: the map is extended linearly to the cell
    edges and the block is deposited uniformly over its image interval, so
    the output mass equals the input mass exactly.  A block collapsed onto an
    interior grid edge may land in either cell next to that edge.
    """
    grid = density.grid
    d = np.asarray(displacement, dtype=float)
    if d.shape != (grid.n_cells,):
        raise DimensionMismatch(f"expected {grid.n_cells} displacements, got {d.shape}")
    t_centers = grid.centers() + d
    # image of the cell edges: midpoint interpolation, linear extension at ends
    t_edges = np.empty(grid.n_cells + 1)
    t_edges[1:-1] = 0.5 * (t_centers[:-1] + t_centers[1:])
    t_edges[0] = 2.0 * t_centers[0] - t_edges[1]
    t_edges[-1] = 2.0 * t_centers[-1] - t_edges[-2]
    if np.any(np.diff(t_edges) < -1e-12 * grid.length):
        raise NonMonotoneMap("transported cell order inverts")
    t_edges = np.maximum.accumulate(np.clip(t_edges, grid.x_min, grid.x_max))
    # the cumulative mass reaches cum[c] at the image of edge c, as in _deposit_all
    cum = _cdf_at_edges(density)
    cdf = np.interp(grid.edges(), t_edges, cum)
    cdf[0], cdf[-1] = 0.0, cum[-1]
    return Density(grid, (cdf[1:] - cdf[:-1]) / grid.h)
