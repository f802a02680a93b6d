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
from .measures import Density, DensityVector, Grid1D, _cdf_at_edges, _inverse_cdf, to_quantiles


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
    """w2_product of the (N, n_cells) value arrays of two DensityVectors."""
    a, b = u * h, v * h
    return float(np.sqrt(sum(_plan_w2(_plan(a[i], b[i]), x) ** 2 for i in range(len(a)))))


def w2_product(u: DensityVector, v: DensityVector) -> float:
    """Product metric: sqrt of the sum of per-species squared W2 distances."""
    if u.n_species != v.n_species:
        raise DimensionMismatch("species counts differ")
    if u.grid != v.grid:
        raise DimensionMismatch("grids differ")
    return _w2_product(u.values, v.values, u.grid.h, u.grid.centers())


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
    m_centers = _cdf_at_edges(u)[1:] - 0.5 * u.values * u.grid.h  # CDF of u at cell centers
    cum_v = _cdf_at_edges(v)
    return _inverse_cdf(v, cum_v, np.minimum(m_centers, cum_v[-1]), "right")


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
