"""Exact one-dimensional optimal transport.

In 1D the monotone (quantile) coupling is optimal for the quadratic cost, so
W2 distances, optimal maps and Kantorovich potentials are computed exactly
from cumulative distributions -- no regularization, no linear programming.

`monotone_plan` treats each cell's mass as sitting at the cell center and
couples the two step quantile functions over the merged mass breakpoints;
`w2_exact` is the cost of that plan, which reproduces the transport LP built
on the cell-center cost matrix to machine precision.

Every plan comes from one row-wise primitive, `_plans`, and every plan cost
from `_plans_cost`, which sums each row on its own; a single coupling is their
one-row case, so a batch of plans carries the bits of one plan at a time.
`_plans` merges the cumulative masses of both sides in one sort whose keys
carry their side, and gives each segment between consecutive breakpoints the
cells whose cumulative intervals contain it: the number of breakpoints of
each side below it.  The cell masses must be finite and nonnegative; the
public functions take them from `Density` values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSupport, DimensionMismatch
from .measures import Density, DensityVector, Grid1D, _cdf_at_edges, _inverse_cdf


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

    The masses must be finite and nonnegative (-0.0 included); nothing here
    checks it, so callers pass Density values or clamped arrays.  The
    cumulative masses of both sides, the last of each set to the smaller
    total, are merged in one stable sort whose keys carry their side.  The segment
    (s[j-1], s[j]] between merged breakpoints goes to the cells whose
    cumulative intervals contain it, which are the counts of a and of b
    breakpoints before position j.  Returns (src, dst, seg) of shape (R, 2n),
    one segment per merged breakpoint; a breakpoint that bounds no segment (a
    zero, a repeat or one past the smaller total) becomes a zero-length pad.
    """
    n = a.shape[1]
    c = np.cumsum(np.concatenate((a, b), axis=1).reshape(len(a), 2, n), axis=2)
    c[:, :, -1] = total = c[:, :, -1].min(axis=1, keepdims=True)
    # nonnegative floats order as their bits; the shift drops the sign bit of
    # -0.0 and frees the low bit for the side: 0 for a, 1 for b
    keys = c.reshape(len(a), 2 * n).view(np.uint64)
    keys <<= 1
    keys[:, n:] |= 1
    # each row is two sorted runs, which a stable sort (timsort) merges in one
    # pass; equal keys are equal bits, so the result is that of any sort
    keys.sort(axis=1, kind="stable")
    s = np.minimum((keys >> 1).view(np.float64), total)
    seg = s.copy()
    seg[:, 1:] -= s[:, :-1]
    # the cells are the counts of each side's breakpoints before the segment;
    # they reuse the buffers of the keys and of s, which are spent by now
    from_b = np.bitwise_and(keys, 1, out=keys).view(np.intp)
    dst = np.cumsum(from_b, axis=1, out=s.view(np.intp))
    dst -= from_b
    src = np.subtract(np.arange(2 * n), dst, out=from_b)
    return np.minimum(src, n - 1, out=src), np.minimum(dst, n - 1, out=dst), seg


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


def w2_exact(u: Density, v: Density) -> float:
    """Quadratic Wasserstein distance between two unit-mass densities, exact
    for their cell-center atomic representation."""
    if u.grid != v.grid:
        raise DimensionMismatch("densities live on different grids")
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
