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

Every plan comes from one row-wise primitive, `_plans`, and every plan cost
from `_plans_cost`, which sums each row on its own; a single coupling is their
one-row case, so a batch of plans carries the bits of one plan at a time.
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


def _plans(a: np.ndarray, b: np.ndarray):
    """Monotone couplings (see monotone_plan) of the rows of the (R, n) cell masses a and b.

    The distinct positive cumulative masses of either side, up to the smaller
    total, bound the segments.  Returns (src, dst, seg) of shape (R, 2n), one
    segment per merged breakpoint; a breakpoint that bounds no segment (a zero,
    a repeat or one past the smaller total) becomes a zero-length pad.
    """
    ca = np.cumsum(a, axis=1)
    cb = np.cumsum(b, axis=1)
    total = np.minimum(ca[:, -1], cb[:, -1])
    ca[:, -1] = cb[:, -1] = total
    s = np.concatenate((ca, cb), axis=1)
    s.sort(axis=1)
    np.clip(s, 0.0, total[:, None], out=s)
    prev = np.zeros_like(s)
    prev[:, 1:] = s[:, :-1]
    seg = s - prev
    mid = prev + 0.5 * seg
    # row by row: a count over the merged order differs on ulp-length segments
    src = np.array([c.searchsorted(m, side="left") for c, m in zip(ca, mid)])
    dst = np.array([c.searchsorted(m, side="left") for c, m in zip(cb, mid)])
    n = a.shape[1]
    return np.minimum(src, n - 1), np.minimum(dst, n - 1), seg


def _plans_cost(plans, x: np.ndarray) -> np.ndarray:
    """Cost of each row of _plans between the cell centers x: the sum of seg * d^2.

    Each row is summed along its own contiguous axis, pads included (they add
    +0), so a row gives the same bits alone or in a batch.
    """
    src, dst, seg = plans
    d = x[src] - x[dst]
    return np.sum(seg * d * d, axis=1)


def monotone_plan(p_prev: Density, p_next: Density):
    """Monotone optimal coupling between two cell-center histograms.

    Returns (src_idx, dst_idx, seg_mass): the plan moves seg_mass[k] from the
    center of cell src_idx[k] to the center of cell dst_idx[k].  The plan cost
    equals w2_exact(p_prev, p_next)**2 exactly.
    """
    if p_prev.grid != p_next.grid:
        raise DimensionMismatch("densities live on different grids")
    h = p_prev.grid.h
    src, dst, seg = (v[0] for v in _plans(p_prev.values[None] * h, p_next.values[None] * h))
    keep = seg > 0.0
    return src[keep], dst[keep], seg[keep]


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
    return float(np.sqrt(_plans_cost(_plans(u.values[None] * h, v.values[None] * h), u.grid.centers())[0]))


def w2_product(u: DensityVector, v: DensityVector) -> float:
    """Product metric: sqrt of the sum of per-species squared W2 distances."""
    if u.n_species != v.n_species:
        raise DimensionMismatch("species counts differ")
    if u.grid != v.grid:
        raise DimensionMismatch("grids differ")
    h = u.grid.h
    return float(np.sqrt(_plans_cost(_plans(u.values * h, v.values * h), u.grid.centers()).sum()))


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
