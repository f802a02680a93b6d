"""Exact one-dimensional optimal transport.

In 1D the monotone (quantile) coupling is optimal for the quadratic cost, so
W2 distances, optimal maps and Kantorovich potentials are computed exactly
from cumulative distributions -- no regularization, no linear programming.

`monotone_plan` treats each cell's mass as sitting at the cell center and
couples the two step quantile functions over the merged mass breakpoints;
`w2_exact` is the cost of that plan, which reproduces the transport LP built
on the cell-center cost matrix to machine precision.  Passing an explicit level
count instead evaluates the midpoint-level quadrature of the piecewise-linear
quantile functions (the metric used by the Lagrangian JKO solver).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSupport, DimensionMismatch
from .measures import Density, DensityVector, Grid1D, to_quantiles


@dataclass(frozen=True)
class PotentialField:
    """Kantorovich potential sampled per cell, with its per-cell gradient."""

    grid: Grid1D
    values: np.ndarray
    gradient: np.ndarray

    def convexity_defect(self) -> float:
        """Most negative second difference of (x^2/2 - phi).

        The potential of an optimal transport is 1-convex, so this is
        >= -tol up to discretization for genuine potentials.
        """
        x = self.grid.centers()
        psi = 0.5 * x * x - self.values
        d2 = psi[:-2] - 2.0 * psi[1:-1] + psi[2:]
        return float(d2.min()) if d2.size else 0.0


def _plan(a: np.ndarray, b: np.ndarray):
    """Monotone coupling of the cell-mass arrays a and b (see monotone_plan).

    The distinct positive cumulative masses of either side bound the segments.
    """
    ca = np.cumsum(a)
    cb = np.cumsum(b)
    total = min(ca[-1], cb[-1])
    ca[-1] = cb[-1] = total
    s = np.concatenate((ca, cb))
    s.sort()
    keep = (s > 0.0) & (s <= total)
    keep[1:] &= s[1:] != s[:-1]
    s = s[keep]
    prev = np.concatenate(([0.0], s[:-1]))
    lengths = s - prev
    mid = prev + 0.5 * lengths
    ia = np.minimum(np.searchsorted(ca, mid, side="left"), a.size - 1)
    ib = np.minimum(np.searchsorted(cb, mid, side="left"), b.size - 1)
    return ia, ib, lengths


def _plan_w2(plan, x: np.ndarray) -> float:
    """Square root of the cost of a plan between the cell centers x."""
    src, dst, seg = plan
    d = x[src] - x[dst]
    return float(np.sqrt(np.sum(seg * (d * d))))


def monotone_plan(p_prev: Density, p_next: Density):
    """Monotone optimal coupling between two cell-center histograms.

    Returns (src_idx, dst_idx, seg_mass): the plan moves seg_mass[k] from the
    center of cell src_idx[k] to the center of cell dst_idx[k].  The plan cost
    equals w2_exact(p_prev, p_next)**2 exactly.
    """
    if p_prev.grid != p_next.grid:
        raise DimensionMismatch("densities live on different grids")
    h = p_prev.grid.h
    return _plan(p_prev.values * h, p_next.values * h)


def w2_exact(u: Density, v: Density, n_levels: int | None = None) -> float:
    """Quadratic Wasserstein distance between two unit-mass densities.

    With ``n_levels=None`` the value is exact for the cell-center atomic
    representation.  With an explicit level count it is the root mean square
    of the quantile differences at the midpoint levels.
    """
    if u.grid != v.grid:
        raise DimensionMismatch("densities live on different grids")
    if n_levels is not None:
        qu = to_quantiles(u, n_levels).positions
        qv = to_quantiles(v, n_levels).positions
        return float(np.sqrt(np.mean((qu - qv) ** 2)))
    h = u.grid.h
    return _plan_w2(_plan(u.values * h, v.values * h), u.grid.centers())


def _w2_product(u: np.ndarray, v: np.ndarray, h: float, x: np.ndarray) -> float:
    """Exact w2_product of (N, n_cells) arrays; cells below zero count as empty."""
    a = np.maximum(u, 0.0) * h
    b = np.maximum(v, 0.0) * h
    return float(np.sqrt(sum(_plan_w2(_plan(a[i], b[i]), x) ** 2 for i in range(len(a)))))


def w2_product(u: DensityVector, v: DensityVector, n_levels: int | None = None) -> float:
    """Product metric: sqrt of the sum of per-species squared W2 distances."""
    if u.n_species != v.n_species:
        raise DimensionMismatch("species counts differ")
    if u.grid != v.grid:
        raise DimensionMismatch("grids differ")
    if n_levels is None:
        return _w2_product(u.values, v.values, u.grid.h, u.grid.centers())
    total = 0.0
    for i in range(u.n_species):
        total += w2_exact(u.species(i), v.species(i), n_levels) ** 2
    return float(np.sqrt(total))


def _quantile_right(v: Density, m: np.ndarray) -> np.ndarray:
    """Right-continuous inverse CDF of v at mass levels m."""
    grid = v.grid
    cum = np.concatenate(([0.0], np.cumsum(v.values) * grid.h))
    total = cum[-1]
    m = np.minimum(m, total)
    idx = np.searchsorted(cum, m, side="right")
    idx = np.clip(idx, 1, grid.n_cells) - 1
    u = v.values[idx]
    left = grid.x_min + idx * grid.h
    with np.errstate(divide="ignore", invalid="ignore"):
        off = np.where(u > 0.0, (m - cum[idx]) / u, 0.0)
    return np.clip(left + off, grid.x_min, grid.x_max)


def optimal_map_1d(u: Density, v: Density) -> np.ndarray:
    """Monotone map T with T#u ~= v, sampled at the cell centers of u.

    T composes v's right-continuous inverse CDF with u's CDF.  Where v's CDF
    is flat the right-continuous inverse keeps T deterministic.  The map is
    extended monotonically off the support of u.
    """
    if u.grid != v.grid:
        raise DimensionMismatch("densities live on different grids")
    if not np.any(u.values > 0.0):
        raise DegenerateSupport("source density carries no mass")
    grid = u.grid
    cum_u = np.cumsum(u.values) * grid.h
    m_centers = cum_u - 0.5 * u.values * grid.h  # CDF of u at cell centers
    T = _quantile_right(v, m_centers)
    return np.maximum.accumulate(T)


def kantorovich_potential_1d(u: Density, v: Density) -> PotentialField:
    """Potential phi with grad phi = I - T for the optimal map T from u to v.

    phi is anchored to zero at the leftmost support cell of u; only the
    gradient enters the optimality residuals, the anchor fixes
    reproducibility.  The identity integral |grad phi|^2 du = W2(u, v)^2
    holds up to O(h + 1/L).
    """
    grid = u.grid
    T = optimal_map_1d(u, v)
    grad = grid.centers() - T
    # trapezoidal cumulative between cell centers keeps the anchor-to-cell
    # integration second order, else a systematic drift pollutes residuals
    phi = np.concatenate(([0.0], np.cumsum(0.5 * (grad[1:] + grad[:-1])) * grid.h))
    support = np.nonzero(u.values > 0.0)[0]
    phi -= phi[support[0]]
    return PotentialField(grid, phi, grad)
