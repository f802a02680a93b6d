"""Discrete measures on uniform 1D/2D grids.

Densities are cell averages (mass per length), so every operation here can
conserve mass exactly.  The cumulative distribution of a density is piecewise
linear; `to_quantiles` inverts it exactly at uniform mass levels, and
`to_density` is the adjoint deposition that spreads each inter-level mass
uniformly between consecutive quantile positions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AllZero, DimensionMismatch, InvalidDensity, NonMonotoneMap, OutOfDomain

MASS_TOL_1D = 1e-12
MASS_TOL_2D = 1e-10


@dataclass(frozen=True)
class Grid1D:
    """Uniform cell-centered grid on [x_min, x_max] with n_cells cells."""

    n_cells: int
    x_min: float = 0.0
    x_max: float = 1.0

    def __post_init__(self):
        if self.n_cells < 2:
            raise ValueError("n_cells must be at least 2")
        if not self.x_max > self.x_min:
            raise ValueError("x_max must exceed x_min")

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
        if self.n1 < 2 or self.n2 < 2:
            raise ValueError("n1 and n2 must be at least 2")
        if not (self.x1_max > self.x1_min and self.x2_max > self.x2_min):
            raise ValueError("upper bounds must exceed lower bounds")

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


def _checked_unit_mass(vals: np.ndarray, h: float, mass_tol: float, what: str = "density"):
    """Check every row of vals for cells >= -1e-13 and unit mass within mass_tol.

    Returns vals with the cells in [-1e-13, 0) set to zero.
    """
    low = vals.min()
    if not low >= -1e-13:  # also rejects NaN
        raise InvalidDensity(f"{what} values must be nonnegative, found {low!r}")
    vals = np.maximum(vals, 0.0) if low < 0.0 else vals
    drift = float(np.abs(h * vals.sum(axis=-1) - 1.0).max())
    if not drift <= mass_tol:
        raise InvalidDensity(f"{what} mass deviates from 1 by {drift!r}, beyond {mass_tol}")
    return vals


@dataclass(frozen=True)
class Density:
    """Single-species nonnegative cell-averaged density of unit mass."""

    grid: Grid1D
    values: np.ndarray
    clamped: bool = field(default=False, compare=False)

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
    """Clamp negative entries to zero, then rescale to unit mass.

    The returned density carries ``clamped=True`` when any entry was below
    zero, so downstream consumers can see that the input was repaired.
    """
    raw = np.asarray(raw, dtype=float)
    if raw.shape != (grid.n_cells,):
        raise DimensionMismatch(f"expected {grid.n_cells} entries, got {raw.shape}")
    clamped = bool(np.any(raw < 0.0))
    vals = np.maximum(raw, 0.0)
    total = grid.h * float(vals.sum())
    if total <= 0.0:
        raise AllZero("no positive entry to normalize")
    return Density(grid, vals / total, clamped=clamped)


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
    L = grid.n_cells if n_levels is None else int(n_levels)
    if L < 1:
        raise ValueError("n_levels must be positive")
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


def _deposit_all(positions: np.ndarray, edges: np.ndarray, h: float) -> np.ndarray:
    """Densities (N, n) of the slab deposition of quantile positions (N, L).

    Mass 1/L sits between consecutive positions, spread uniformly, so the
    cumulative mass interpolates (X_l, (l+1/2)/L) linearly.  Each end
    half-level extends over the leading gap: at an interior support edge two
    ghost knots trace the quadratic tail of a density vanishing linearly
    (keeping reconstructed fronts free of spurious cliffs), while an end
    whose tail would leave the domain extends at constant density instead,
    which reproduces a wall-touching uniform profile exactly (its outer ghost
    knot stays, at level 0 or 1, so every row has L + 4 knots).  Total mass
    is exact either way.  Fully degenerate maps deposit into one cell.  The
    rows share the knot buffer and the level ramp, so the work per row is
    four scalar ghost knots and one ``np.interp``, whose levels 0 before the
    first knot and 1 from the last one on are the deposition's own.
    """
    n_species, n_levels = positions.shape
    if n_levels == 1:
        cdf = np.where(edges >= positions, 1.0, 0.0)
    else:
        lo, hi = float(edges[0]), float(edges[-1])
        q = 1.0 / n_levels
        knots = np.empty((n_species, n_levels + 4))
        knots[:, 2:-2] = positions
        levels = np.empty(n_levels + 4)
        levels[2:-2] = (np.arange(n_levels) + 0.5) / n_levels
        levels[0], levels[-1] = 0.0, 1.0
        cdf = np.empty((n_species, edges.size))
        for i, (x0, x1, xm, xl) in enumerate(positions[:, [0, 1, -2, -1]].tolist()):
            gap0, gap1 = x1 - x0, xl - xm
            front, end = x0 - gap0 > lo, xl + gap1 < hi  # interior ends
            f2, e2 = max(lo, x0 - 0.5 * gap0), min(hi, xl + 0.5 * gap1)
            knots[i, :2] = (x0 - gap0, f2)
            knots[i, -2:] = (e2, xl + gap1)
            levels[1] = q / 8.0 if front else 0.0
            levels[-2] = 1.0 - q / 8.0 if end else 1.0
            cdf[i] = np.interp(edges, knots[i], levels)
    cdf[:, 0] = 0.0
    cdf[:, -1] = 1.0
    return (cdf[:, 1:] - cdf[:, :-1]) / h


def to_density(q: QuantileMap, grid: Grid1D) -> Density:
    """Deposit level masses back onto the grid; exactly mass preserving."""
    pos = q.positions
    slack = 1e-12 * max(1.0, grid.length)
    if pos[0] < grid.x_min - slack or pos[-1] > grid.x_max + slack:
        raise OutOfDomain("quantile positions lie outside the grid interval")
    pos = np.clip(pos, grid.x_min, grid.x_max)
    return Density(grid, _deposit_all(pos[None, :], grid.edges(), grid.h)[0])


def pushforward_1d(density: Density, displacement: np.ndarray) -> Density:
    """Push a density forward through the monotone map x -> x + d(x).

    The displacement is given per cell (at cell centers).  Each cell's mass
    is transported as a block: the map is extended linearly to the cell
    edges and the block is deposited uniformly over its image interval, so
    the output mass equals the input mass exactly.
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

    new_mass = np.zeros(grid.n_cells)
    cell_mass = density.values * grid.h
    edges = grid.edges()
    active = cell_mass > 0.0
    for c in np.nonzero(active)[0]:
        a, b = t_edges[c], t_edges[c + 1]
        if b - a <= 1e-14 * max(1.0, grid.length):
            k = min(int((0.5 * (a + b) - grid.x_min) / grid.h), grid.n_cells - 1)
            new_mass[max(k, 0)] += cell_mass[c]
            continue
        frac = np.clip((edges - a) / (b - a), 0.0, 1.0)
        new_mass += cell_mass[c] * np.diff(frac)
    return Density(grid, new_mass / grid.h)
