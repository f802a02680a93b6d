"""Minimizing-movement time stepping for the parabolic cross-diffusion system.

Each step solves  u^{k+1} = argmin  W2(u^k, u)^2 / (2 tau) + E(u)  with two
independent inner solvers:

* ``jko_step_lagrangian`` works on per-species quantile maps, where the W2
  term is a diagonal quadratic and the energy gradient is assembled through
  the exact adjoint of the deposition operator, for all species and slabs in
  one vector pass.  The descent is monotone FISTA with adaptive restart over
  the monotone maps in the box (pool-adjacent-violators projection), scaled
  by a per-step metric: the per-species tridiagonal part of the energy
  Hessian at the step's start, read from finite-difference gradient probes,
  plus the prox curvature.  Where that model fails, the step restarts once
  in the Euclidean metric.  Its accepted iterates never raise the objective,
  so the per-step energy inequality holds, and it reports convergence only
  when the Euclidean projected-gradient mapping is small relative to the
  energy gradient at the step's start.  Grid edges and the split of the
  coupling matrix are computed once per run.

* ``jko_step_entropic`` solves the epsilon-regularized problem on the
  Eulerian grid by Sinkhorn-type scaling against the Gibbs kernel, with a
  pointwise relative-entropy prox of the frozen-coefficient energy density
  (safeguarded Newton) for the second marginal.  One loop updates all
  species, each once per pass against the others' current marginals, and
  each Newton solve starts from the log of the species' previous marginal.
  After each pass, Anderson mixing over the last ANDERSON_DEPTH changes of
  the log scaling vectors extrapolates the plain fixed-point iteration,
  which contracts by only about 0.8 per pass; a mix that would raise the
  step's entropic objective is dropped and the mixing restarts.  The smooth
  benchmark pair takes about 33 passes per step instead of 122, and the
  stiffest fixed-point test case about 750 instead of 7,530.  The loop
  stops only when a pass leaves the marginals in place, so the fixed point
  is the plain loop's.  A step reports ``converged=False`` when the loop
  hit SINKHORN_INNER_CAP.

The two solvers share no machinery, which is what makes their agreement a
meaningful cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .diagnostics import (
    RunRecord,
    check_energy_monotone,
    check_entropy_dissipation,
    check_hoelder,
    check_telescoped_w2,
)
from .energies import (
    CouplingMatrix,
    energy_quadratic,
    entropy_boltzmann,
    gradient_norm_sq,
    pressure,
)
from .errors import (
    DegenerateSupport,
    EstimateFailed,
    InfiniteInitialEntropy,
    KernelUnderflow,
    NotPositiveDefinite,
    ScalingOverflow,
)
from .measures import DensityVector, Grid1D, _deposit_all, _require_count, _require_positive, to_quantiles
from .transport1d import kantorovich_potential_1d, w2_product

STEP_FLOOR = 2.0**-60  # the descent gives up when its step falls below this * tau * L
STEP_GROWTH = 1.1  # descent step factor after an accepted iterate
HESSIAN_PROBE = 1e-6  # metric probe move, relative to the smallest positive level gap
METRIC_MIN_STEP = 0.25  # an accepted Hessian-metric step below this fails the metric
METRIC_ITERATIONS = 100  # Hessian-metric iterations before the Euclidean restart
QUADRATURE_REFINE = 4.0  # inner quadrature cells per smallest level gap
QUADRATURE_CAP = 32768
SINKHORN_INNER_TOL = 1e-12
ANDERSON_DEPTH = 5  # residual differences in the scaling loop's least-squares mix
SINKHORN_INNER_CAP = 100_000  # joint passes; the stiffest test step needs about 750 (7,530 unmixed)
SUPPORT_THRESHOLD_SCALE = 1e-8  # residual support cut at scale / h


@dataclass(frozen=True)
class JKOSchedule:
    """Step sizes tau_0..tau_{m-1}; the refinement parameter is sup tau."""

    taus: np.ndarray

    def __post_init__(self):
        taus = np.atleast_1d(np.asarray(self.taus, dtype=float))
        if taus.size == 0:
            raise ValueError("a schedule needs at least one step")
        _require_positive("all step sizes", taus)
        object.__setattr__(self, "taus", taus)

    @staticmethod
    def uniform(tau: float, n_steps: int) -> "JKOSchedule":
        return JKOSchedule(np.full(n_steps, float(tau)))

    @property
    def n_steps(self) -> int:
        return self.taus.size

    @property
    def horizon(self) -> float:
        return float(self.taus.sum())

    @property
    def sup_tau(self) -> float:
        return float(self.taus.max())

    def times(self) -> np.ndarray:
        return np.concatenate(([0.0], np.cumsum(self.taus)))


@dataclass(frozen=True)
class JKOOptions:
    """Settings of the Lagrangian descent."""

    tol_stationarity: float = 1e-5  # relative to |grad E| at the step's start
    max_iterations: int = 5000
    include_dirichlet: bool = False  # augment the energy with the gradient term


DEFAULT_OPTIONS = JKOOptions()


@dataclass(frozen=True)
class JKOStepReport:
    w2_increment: float
    energy_before: float
    energy_after: float
    inner_iterations: int
    optimality_residual: float
    converged: bool


@dataclass(frozen=True)
class ResidualReport:
    """Per-species optimality residuals of one step (see optimality_residual)."""

    values: np.ndarray  # normalized std of phi_i/tau + p_i on the support

    @property
    def worst(self) -> float:
        return float(self.values.max())


def _require_positive_definite(a: CouplingMatrix):
    if not a.positive_definite:
        raise NotPositiveDefinite(
            f"coupling matrix must be symmetric positive definite (lambda_min={a.lambda_min})"
        )


def pool_adjacent_violators(y: np.ndarray) -> np.ndarray:
    """Euclidean projection onto nondecreasing sequences (unweighted PAV)."""
    n = y.size
    means = np.empty(n)
    counts = np.empty(n, dtype=int)
    top = 0
    for v in y:
        means[top] = v
        counts[top] = 1
        top += 1
        while top > 1 and means[top - 2] >= means[top - 1]:
            total = means[top - 2] * counts[top - 2] + means[top - 1] * counts[top - 1]
            counts[top - 2] += counts[top - 1]
            means[top - 2] = total / counts[top - 2]
            top -= 1
    return np.repeat(means[:top], counts[:top])


def _project_monotone(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Exact projection onto {monotone} intersected with the box [lo, hi]."""
    out = np.array(x)
    for i in np.flatnonzero((x[:, 1:] < x[:, :-1]).any(axis=1)):
        out[i] = pool_adjacent_violators(x[i])
    return np.clip(out, lo, hi, out=out)


def _laplacian_mirror_rows(values: np.ndarray, h: float) -> np.ndarray:
    padded = np.pad(values, ((0, 0), (1, 1)), mode="edge")
    return (padded[:, 2:] - 2.0 * padded[:, 1:-1] + padded[:, :-2]) / (h * h)


def _pressure_symmetric(values: np.ndarray, diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Pressures computed so species relabeling commutes bitwise.

    Splitting the diagonal from the off-diagonal contribution fixes the
    floating-point summation order per species, which a fused matmul would
    not (its accumulation order depends on the row).
    """
    return diag[:, None] * values + off @ values


def _energy_position_gradient(
    positions: np.ndarray, sensitivity: np.ndarray, grid: Grid1D, inner_edges: np.ndarray
) -> np.ndarray:
    """Adjoint of the slab deposition: dE/dX for each species.

    For a slab of mass q spread over (a, b), dE/da = q (A b - B) / (b - a)^2
    and dE/db = q (B - A a) / (b - a)^2, where A and B are the sums of the
    sensitivity jumps (and position-weighted jumps) at the grid edges strictly
    inside the slab (``inner_edges``, the grid's edges without the two ends).
    The two half-mass extension slabs attached at the ends of the quantile
    map enter through the chain rule of their ghost knots.  Degenerate slabs
    sit inside one cell and contribute a locally flat energy, hence zero
    gradient.

    The slabs of all species go through one vector pass, with each species'
    four candidate ghost slabs appended to its row: (2X0-X1, 1.5X0-0.5X1)
    and (1.5X0-0.5X1, X0) at the front, their mirror images at the end.  An
    end next to the wall uses only the ghost slab that touches its end
    position, with the ghost knot clipped to the wall.
    """
    n_species, n_levels = positions.shape
    grad = np.zeros_like(positions)
    if n_levels == 1:
        return grad
    q = 1.0 / n_levels
    tiny = 1e-13 * max(1.0, grid.length)
    x_min, x_max = grid.x_min, grid.x_max

    jumps = sensitivity[:, 1:] - sensitivity[:, :-1]
    s0 = np.zeros(sensitivity.shape)
    s1 = np.zeros(sensitivity.shape)
    np.cumsum(jumps, axis=1, out=s0[:, 1:])
    np.cumsum(jumps * inner_edges, axis=1, out=s1[:, 1:])

    x0, xl = positions[:, 0], positions[:, -1]
    gap0 = positions[:, 1] - x0
    gap1 = xl - positions[:, -2]
    f1, f2 = x0 - gap0, x0 - 0.5 * gap0  # front ghost knots
    e2, e1 = xl + 0.5 * gap1, xl + gap1  # end ghost knots
    f2_wall = np.where(x_min > f2, x_min, f2)  # max(f2, x_min)
    e2_wall = np.where(x_max < e2, x_max, e2)  # min(e2, x_max)
    a = np.column_stack((positions[:, :-1], f1, f2_wall, xl, e2))
    b = np.column_stack((positions[:, 1:], f2, x0, e2_wall, e1))

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
    ends = zip(ga[:, m:].tolist(), gb[:, m:].tolist(), f1.tolist(), f2.tolist(), e2.tolist(), e1.tolist())
    for i, (ghost_a, ghost_b, f1_i, f2_i, e2_i, e1_i) in enumerate(ends):
        ga1, ga2, ga3, ga4 = ghost_a
        gb1, gb2, gb3, gb4 = ghost_b
        if f1_i > x_min:
            # interior front, quadratic tail: ghosts 2X0-X1 and
            # 1.5X0-0.5X1 carrying mass q/8 and 3q/8
            grad[i, 0] += (q / 8.0) * (2.0 * ga1 + 1.5 * gb1)
            grad[i, 1] += (q / 8.0) * (-ga1 - 0.5 * gb1)
            grad[i, 0] += (3.0 * q / 8.0) * (1.5 * ga2 + gb2)
            grad[i, 1] += (3.0 * q / 8.0) * (-0.5 * ga2)
        else:
            # wall-adjacent, constant-density extension at half gap
            c = 0.0 if f2_i <= x_min else 1.0  # clipped knots stop moving
            grad[i, 0] += 0.5 * q * (1.5 * c * ga2 + gb2)
            grad[i, 1] += 0.5 * q * (-0.5 * c * ga2)
        if e1_i < x_max:
            grad[i, -1] += (3.0 * q / 8.0) * (ga3 + 1.5 * gb3)
            grad[i, -2] += (3.0 * q / 8.0) * (-0.5 * gb3)
            grad[i, -1] += (q / 8.0) * (1.5 * ga4 + 2.0 * gb4)
            grad[i, -2] += (q / 8.0) * (-0.5 * ga4 - gb4)
        else:
            c = 0.0 if e2_i >= x_max else 1.0
            grad[i, -1] += 0.5 * q * (ga3 + 1.5 * c * gb3)
            grad[i, -2] += 0.5 * q * (-0.5 * c * gb3)
    return grad


@dataclass
class _LagrangianResult:
    positions: np.ndarray
    iterations: int
    converged: bool
    energy: float
    step: float  # the step of the stop test: the longest one accepted


def _quadrature_grid(positions: np.ndarray, grid: Grid1D) -> Grid1D:
    """Refined grid for the inner energy quadrature.

    The deposited energy seen on the solution grid is piecewise flat in the
    positions wherever an inter-level gap fits inside one cell, so descent
    would stall there.  Refining the quadrature cells below the smallest gap
    removes that staircase; outputs are still deposited on the caller's grid.
    """
    gaps = positions[:, 1:] - positions[:, :-1]
    min_gap = float(gaps[gaps > 0.0].min()) if np.any(gaps > 0.0) else grid.h
    target = max(grid.n_cells, int(np.ceil(QUADRATURE_REFINE * grid.length / min_gap)))
    n_fine = min(target, QUADRATURE_CAP)
    if n_fine <= grid.n_cells:
        return grid
    return Grid1D(n_fine, grid.x_min, grid.x_max)


class _Quadrature:
    """The solver's energy and its position gradient, set up once per run.

    Holds what stays fixed along a Lagrangian run: the edges of the solution
    grid and of the refined quadrature grid, and the diagonal/off-diagonal
    split of the coupling matrix.  The quadratic energy lives on the fine
    grid; the optional gradient (Dirichlet) part stays on the solution grid,
    where deposition smooths the otherwise discontinuous slab density.
    """

    def __init__(self, a: CouplingMatrix, grid: Grid1D, fine: Grid1D, dirichlet: bool):
        self.grid, self.fine, self.dirichlet = grid, fine, dirichlet
        self.edges = grid.edges()
        self.fine_edges = fine.edges()
        self.diag = np.diag(a.entries)
        self.off = a.entries - np.diag(self.diag)

    def deposit(self, x: np.ndarray) -> np.ndarray:
        """Densities of the quantile positions x on the solution grid."""
        return _deposit_all(x, self.edges, self.grid.h)

    def densities(self, x: np.ndarray) -> tuple:
        """One evaluation of the positions x: fine densities and pressures, and
        the solution-grid densities when the Dirichlet term is on.  Both the
        energy and its gradient are read from it."""
        fine = _deposit_all(x, self.fine_edges, self.fine.h)
        sens = _pressure_symmetric(fine, self.diag, self.off)
        return fine, sens, self.deposit(x) if self.dirichlet else None

    def energy(self, state: tuple, base: tuple | None = None) -> float:
        """E of the evaluated positions, or E(x) - E(base) for a second state.

        The difference is summed cell by cell, (u - v) . (A u + A v), so near
        the reference it keeps the digits that a difference of two totals
        loses to the rounding of E.
        """
        fine, sens, vals = state
        fine_b, sens_b, vals_b = (0.0, 0.0, None) if base is None else base
        e = 0.5 * self.fine.h * _dot(fine - fine_b, sens + sens_b)
        if self.dirichlet:
            h = self.grid.h
            d = (vals[:, 1:] - vals[:, :-1]) / h
            d_b = 0.0 if vals_b is None else (vals_b[:, 1:] - vals_b[:, :-1]) / h
            e += 0.5 * h * _dot(d - d_b, d + d_b)
        return e

    def gradient(self, x: np.ndarray, state: tuple) -> np.ndarray:
        """dE/dx at the positions x, evaluated as ``state``."""
        _, sens, vals = state
        g = _energy_position_gradient(x, sens, self.fine, self.fine_edges[1:-1])
        if self.dirichlet:
            sens_dir = -_laplacian_mirror_rows(vals, self.grid.h)
            g = g + _energy_position_gradient(x, sens_dir, self.grid, self.edges[1:-1])
        return g


def _dot(a, b) -> float:
    """Sum of a * b over species rows.

    Per-species partial sums come first, so relabeling the species only
    permutes the final short sum (commutative for the operand counts that
    matter) and the descent stays equivariant bit for bit.
    """
    return float(np.sum(a * b, axis=-1).sum())


def _stationarity(x: np.ndarray, grad: np.ndarray, step: float, lo: float, hi: float) -> float:
    """Norm of the projected-gradient mapping ||x - P(x - step grad)|| / step."""
    r = x - _project_monotone(x - step * grad, lo, hi)
    return np.sqrt(_dot(r, r)) / step


def _tridiagonal_inverse(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Inverses of diagonally dominant symmetric tridiagonal matrices, one per row
    of ``diag`` (N, L) and ``off`` (N, L - 1), by elimination on the identity.

    O(L^2) per matrix, elementwise, so equal rows give equal inverses bit for
    bit; dominance makes pivoting unnecessary.
    """
    n_species, n = diag.shape
    inverse = np.zeros((n_species, n, n))
    inverse[:, np.arange(n), np.arange(n)] = 1.0
    pivot = diag.copy()
    for k in range(1, n):
        factor = off[:, k - 1] / pivot[:, k - 1]
        pivot[:, k] -= factor * off[:, k - 1]
        inverse[:, k, :k] -= factor[:, None] * inverse[:, k - 1, :k]
    inverse[:, -1] /= pivot[:, -1, None]
    for k in range(n - 2, -1, -1):
        inverse[:, k] -= off[:, k, None] * inverse[:, k + 1]
        inverse[:, k] /= pivot[:, k, None]
    return inverse


class _HessianMetric:
    """The descent metric M of one step, held as D = tau L M (D = I is Euclidean).

    M is the per-species tridiagonal block of the Hessian of E at x_prev,
    symmetrized, plus 1/(tau L), each diagonal entry raised to at least its
    row's off-diagonal magnitudes plus 1/(tau L), so D >= I is SPD.  Probe c
    moves the positions j = c (mod 3) of one species by HESSIAN_PROBE times
    the smallest positive gap (away from a repeated neighbour); the change of
    that species' gradient gives its columns j at rows j - 1, j, j + 1, so
    3N evaluations per step.  D is inverted once (N L^2 floats).
    """

    def __init__(self, x: np.ndarray, grad_e: np.ndarray, tau: float, quad: _Quadrature):
        n_species, n_levels = x.shape
        gaps = np.diff(x, axis=1)
        delta = HESSIAN_PROBE * float(gaps[gaps > 0.0].min())
        # +delta with room to the right, -delta with room only to the left
        room_right = np.append(gaps > 0.0, x[:, -1:] < quad.grid.x_max, axis=1)
        room_left = np.insert(gaps > 0.0, 0, x[:, 0] > quad.grid.x_min, axis=1)
        move = delta * np.where(room_right, 1.0, np.where(room_left, -1.0, 0.0))
        color = np.arange(n_levels) % 3
        # change[i, c]: how species i's gradient moves under its probe c
        change = np.zeros((n_species, 3, n_levels))
        for i in range(n_species):
            for c in range(3):
                probe = x.copy()
                probe[i, color == c] += move[i, color == c]
                g = quad.gradient(probe, quad.densities(probe))
                change[i, c] = g[i] - grad_e[i]
        scale = np.divide(1.0, move, out=np.zeros_like(move), where=move != 0.0)
        j = np.arange(n_levels - 1)
        hess_diag = change[:, color, np.arange(n_levels)] * scale
        below = change[:, color[:-1], j + 1] * scale[:, :-1]  # H[j + 1, j]
        above = change[:, color[1:], j] * scale[:, 1:]  # H[j, j + 1]
        weight = tau * n_levels
        self.off = 0.5 * weight * (below + above)
        rows = np.pad(np.abs(self.off), ((0, 0), (1, 0))) + np.pad(np.abs(self.off), ((0, 0), (0, 1)))
        self.diag = np.maximum(1.0 + weight * hess_diag, 1.0 + rows)
        self.test_step = weight / float((self.diag + rows).max())
        self.inverse = _tridiagonal_inverse(self.diag, self.off)

    def solve(self, g: np.ndarray) -> np.ndarray:
        return np.matmul(self.inverse, g[..., None])[..., 0]

    def norm_sq(self, d: np.ndarray) -> float:
        return _dot(d, self.diag * d) + 2.0 * _dot(self.off, d[:, :-1] * d[:, 1:])


def _lagrangian_minimize(
    x_prev: np.ndarray,
    tau: float,
    quad: _Quadrature,
    opts: JKOOptions,
) -> _LagrangianResult:
    """Minimize f(x) = |x - x_prev|^2 / (2 tau L) + E(x) by ``_descend`` in
    the step's Hessian metric, which brings the Laplacian-like conditioning of
    f in quantile variables down to a few units.

    When that model fails (an accepted step below METRIC_MIN_STEP, a stall,
    or no convergence in METRIC_ITERATIONS), the descent restarts once from
    x_prev in the Euclidean metric M = I / (tau L), with what is left of
    ``max_iterations``; the reported iterations include the metric's.  A map
    without a positive gap has no metric and descends in the Euclidean one.
    """
    base = quad.densities(x_prev)
    grad_e = quad.gradient(x_prev, base)
    if not np.any(np.diff(x_prev, axis=1) > 0.0):
        return _descend(x_prev, tau, quad, opts, base, grad_e)[0]
    metric = _HessianMetric(x_prev, grad_e, tau, quad)
    result, failed = _descend(x_prev, tau, quad, opts, base, grad_e, metric)
    if not failed:
        return result
    rest = replace(opts, max_iterations=opts.max_iterations - result.iterations)
    fallback, _ = _descend(x_prev, tau, quad, rest, base, grad_e)
    fallback.iterations += result.iterations
    return fallback


def _descend(
    x_prev: np.ndarray,
    tau: float,
    quad: _Quadrature,
    opts: JKOOptions,
    base: tuple,
    grad_e: np.ndarray,
    metric: _HessianMetric | None = None,
) -> tuple[_LagrangianResult, bool]:
    """Monotone FISTA on f in the metric M (Euclidean when ``metric`` is None),
    from x_prev evaluated as ``base`` with energy gradient ``grad_e``.

    f is evaluated only on the feasible set (monotone maps in the box): the
    candidate z = P(y - s M^-1 grad f(y)) and the extrapolated point y are
    projected.  f is taken relative to f(x_prev), the energy difference
    summed cell by cell, so decreases far below the rounding of E still
    count.  The step s starts at 1 (tau * L in the Euclidean metric, the prox
    term's inverse curvature) and never exceeds it; it halves until f(z) <=
    f(y) + <grad f(y), d> + |d|_M^2 / (2 s), d = z - y, and grows by
    STEP_GROWTH after an accepted z.  A z that would raise f is rejected and
    the momentum restarts from x, so accepted iterates never raise f; it also
    restarts when <y - z, z - x> > 0 (O'Donoghue and Candes 2015).

    Converged means the Euclidean ||x - P(x - s grad f(x))|| / s <=
    tol_stationarity * |grad E(x_prev)|, with s the longest accepted step in
    the Euclidean metric (tau * L itself would make the measure lax, and a
    collapsed step would round the move away) and 1 / (largest row sum of M)
    <= tau * L in the Hessian one; the mapping's norm does not grow as s
    shrinks.  The test runs when the gradient at x is at hand anyway (a
    restart) or when the step from y was already that short.  A step below
    STEP_FLOOR, an accepted step that leaves x unchanged, or running out of
    ``max_iterations`` returns ``converged=False``.  The returned flag says
    that the Hessian metric's model failed.
    """
    n_levels = x_prev.shape[1]
    prox_weight = 1.0 / (tau * n_levels)
    lo, hi = quad.grid.x_min, quad.grid.x_max
    max_step = tau * n_levels  # the step is held in Euclidean units, s * tau * L
    if metric is None:
        solve, norm_sq, budget = (lambda g: g), (lambda d: _dot(d, d)), opts.max_iterations
    else:
        solve, norm_sq = metric.solve, metric.norm_sq
        budget = min(opts.max_iterations, METRIC_ITERATIONS)

    def objective(x):
        d = x - x_prev
        state = quad.densities(x)
        return 0.5 * prox_weight * _dot(d, d) + quad.energy(state, base), state

    def gradient(x, state):
        return prox_weight * (x - x_prev) + quad.gradient(x, state)

    x, obj, state_x, grad = x_prev, 0.0, base, grad_e
    target = opts.tol_stationarity * np.sqrt(_dot(grad, grad))  # |grad E(x_prev)|
    y, obj_y, grad_y = x, obj, grad
    t, step, test_step = 1.0, max_step, 0.0
    converged = failed = False
    iterations = 0
    while iterations < budget:
        iterations += 1
        direction = solve(grad_y)
        while step >= STEP_FLOOR * max_step:
            z = _project_monotone(y - step * direction, lo, hi)
            d = z - y
            obj_z, state = objective(z)
            if obj_z <= obj_y + _dot(grad_y, d) + norm_sq(d) / (2.0 * step):
                break
            step *= 0.5
        else:
            break  # no step length satisfies the upper bound
        if obj_z > obj:
            # the momentum overshot: restart from x (from x already, shorten the step)
            if y is x:
                step *= 0.5
            if grad is None:
                grad = gradient(x, state_x)
            y, obj_y, grad_y, t = x, obj, grad, 1.0
            continue
        if metric is None:
            test_step = max(test_step, step)
        elif step < METRIC_MIN_STEP * max_step:
            failed = True
            break
        else:
            test_step = metric.test_step
        stalled = np.array_equal(z, x)
        if _dot(y - z, z - x) > 0.0:
            t = 1.0
        short = _dot(d, d) <= (step * target) ** 2  # |y - z| / step <= target
        x_old = x
        x, obj, grad, state_x = z, obj_z, None, state
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        momentum, t = (t - 1.0) / t_next, t_next
        if momentum == 0.0 or short or stalled:
            grad = gradient(x, state_x)
            if _stationarity(x, grad, test_step, lo, hi) <= target:
                converged = True
                break
            if stalled:
                failed = metric is not None
                break  # the accepted step no longer moves x
        step = min(step * STEP_GROWTH, max_step)
        if momentum == 0.0:
            y, obj_y, grad_y = x, obj, grad
        else:
            y = _project_monotone(x + momentum * (x - x_old), lo, hi)
            obj_y, state_y = objective(y)
            grad_y = gradient(y, state_y)
    else:
        failed = metric is not None and budget < opts.max_iterations
    return _LagrangianResult(x, iterations, converged, quad.energy(state_x), test_step), failed


def _quantile_state(u: DensityVector, n_levels: int) -> np.ndarray:
    return np.stack(
        [to_quantiles(u.species(i), n_levels).positions for i in range(u.n_species)]
    )


def _lagrangian_start(u: DensityVector, a: CouplingMatrix, opts: JKOOptions, n_levels: int | None):
    """The quantile state x of u at n_levels levels (by default the cell
    count), the run's quadrature and E(x)."""
    n_levels = u.grid.n_cells if n_levels is None else _require_count("n_levels", n_levels, 1)
    x = _quantile_state(u, n_levels)
    quad = _Quadrature(a, u.grid, _quadrature_grid(x, u.grid), opts.include_dirichlet)
    return x, quad, quad.energy(quad.densities(x))


def _lagrangian_step(
    u_prev: DensityVector, x: np.ndarray, e_before: float, tau: float, a: CouplingMatrix, quad: _Quadrature, opts
):
    """One descent from the quantile state x of u_prev, whose energy is e_before.

    Returns the next quantile state, the deposited state and the step's report.
    """
    result = _lagrangian_minimize(x, tau, quad, opts)
    u_next = DensityVector(quad.grid, quad.deposit(result.positions))
    report = JKOStepReport(
        w2_increment=float(np.sqrt(np.sum((result.positions - x) ** 2) / x.shape[1])),
        energy_before=e_before,
        energy_after=result.energy,
        inner_iterations=result.iterations,
        optimality_residual=optimality_residual(u_prev, u_next, a, tau).worst,
        converged=result.converged,
    )
    return result.positions, u_next, report


def jko_step_lagrangian(
    u_prev: DensityVector,
    a: CouplingMatrix,
    tau: float,
    opts: JKOOptions = DEFAULT_OPTIONS,
    n_levels: int | None = None,
) -> tuple[DensityVector, JKOStepReport]:
    """One minimizing-movement step via the quantile-map descent."""
    _require_positive_definite(a)
    _require_positive("tau", tau)
    # energies under the solver's own quadrature: monotone by construction
    x_prev, quad, e_before = _lagrangian_start(u_prev, a, opts, n_levels)
    _, u_next, report = _lagrangian_step(u_prev, x_prev, e_before, tau, a, quad, opts)
    if report.energy_after > e_before + 1e-12 * max(1.0, abs(e_before)):
        raise EstimateFailed("energy increased across a Lagrangian JKO step")
    return u_next, report


def _prox_newton(
    xi: np.ndarray, alpha: float, beta: np.ndarray, tol: float, y0: np.ndarray
) -> np.ndarray:
    """Solve log(nu/xi) + alpha*nu + beta = 0 per cell (alpha >= 0).

    Solved as y + alpha*e^y = c in y = log(nu) with c = log(xi) - beta, by
    Newton warm-started at y0 (the log of the previous scaling iterate).  The
    function is convex and increasing, so Newton from above the root
    decreases monotonically onto it, and from below it overshoots once and
    then decreases monotonically.  One vectorized bisection takes the cells
    Newton leaves above tol, which stiff steps (large tau / eps, peaked data)
    have.
    """
    c = np.log(np.maximum(xi, 1e-300)) - beta
    if alpha == 0.0:
        return np.exp(np.minimum(c, 700.0))
    y = np.minimum(y0, 700.0)
    ey, f, dy = np.empty_like(y), np.empty_like(y), np.empty_like(y)
    for _ in range(100):
        np.exp(np.minimum(y, 700.0, out=ey), out=ey)
        ey *= alpha
        np.add(y, ey, out=f)
        f -= c
        ey += 1.0
        y -= np.divide(f, ey, out=dy)
        if abs(f).max() < tol:
            break
    np.exp(np.minimum(y, 700.0, out=ey), out=ey)
    bad = np.flatnonzero(abs(y + alpha * ey - c) >= max(tol, 1e-12))
    if bad.size == 0:
        return ey
    # one bisection over all the bad cells, 200 halvings of each bracket
    cb, yb = c[bad], y[bad]
    lo = np.minimum(cb - alpha * np.exp(np.minimum(cb, 700.0)), yb) - 1.0
    hi = np.maximum(cb, yb) + 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        above = mid + alpha * np.exp(np.minimum(mid, 700.0)) - cb > 0.0
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    y[bad] = 0.5 * (lo + hi)
    return np.exp(np.minimum(y, 700.0))


def _source_marginal(kernel: np.ndarray, mu: np.ndarray, b: np.ndarray, species: int, eps: float):
    """xi = K (mu / K b), the kernel side of the first-marginal scaling."""
    xi = kernel @ (mu / (kernel @ b))
    if not xi.min() > 0.0:  # also catches NaN
        if not np.isfinite(b).all():
            raise ScalingOverflow(
                f"scaling vector of species {species + 1} is not finite on {int(np.sum(~np.isfinite(b)))} "
                f"cells: the prox Newton solve overflowed (eps = {eps:g})"
            )
        raise KernelUnderflow(
            f"Gibbs kernel product underflows on {int(np.sum(~(xi > 0.0)))} cells "
            f"out of reach of species {species + 1}'s support (eps = {eps:g})"
        )
    return xi


def jko_step_entropic(
    u_prev: DensityVector,
    a: CouplingMatrix,
    tau: float,
    eps: float,
) -> tuple[DensityVector, JKOStepReport]:
    """One entropic-proximal step on the Eulerian grid.

    One scaling loop updates every species once per iteration, in fixed
    order: the relative-entropy prox of the frozen-coefficient energy density
    tau * (a_ii u_i^2 / 2 + u_i sum_{j != i} a_ij u_j) gives the second
    marginal nu_i, and nu_i / xi_i the new scaling vector b_i.  The coupling
    reads the other species' current exact-mass marginals
    b_j K(mu_j / K b_j) / h, and each species keeps xi_i = K(mu_i / K b_i)
    from its update for the next one, so an update costs two kernel products.
    From the second pass on, each pass that does not stop the loop is
    followed by a type-II Anderson mix of the log scaling vectors over the
    last ANDERSON_DEPTH differences (Walker and Ni 2011), from which every
    xi_i and marginal is recomputed.  The mix is kept only if it does not
    raise the step's objective at the plans diag(mu / K b) K diag(b), which
    meet the first marginals; otherwise the history restarts.  Unguarded,
    stiff steps (tau / eps near 100, nearly empty cells) could be carried
    to states where passes creep by less than SINKHORN_INNER_TOL short of
    the minimizer.  A zero or non-finite scaling clears the history and
    skips the mix, so the kernel-side checks still name it.  The loop stops
    when a pass moves the second marginals by less than SINKHORN_INNER_TOL
    in L1; after SINKHORN_INNER_CAP passes the step returns with
    ``converged=False``.
    """
    _require_positive_definite(a)
    _require_positive("tau", tau)
    _require_positive("eps", eps, ValueError)
    grid = u_prev.grid
    h = grid.h
    if np.exp(-(h * h) / eps) == 0.0:
        raise KernelUnderflow(
            f"Gibbs kernel underflows at the grid scale (h^2/eps = {h*h/eps:.3g})"
        )
    x = grid.centers()
    kernel = np.exp(-((x[:, None] - x[None, :]) ** 2) / eps)
    mu = u_prev.values * h
    n_species = u_prev.n_species
    e_before = energy_quadratic(u_prev, a)
    # p_i less the uniform state's pressure: the first marginal fixes the mass, so the
    # minimizer stays, and b_i stays near 1 instead of near exp(-2 tau p_i / eps)
    level = a.entries.sum(axis=1) / grid.length
    scaling = np.ones_like(mu)
    marginal = mu.copy()
    xi = np.stack([_source_marginal(kernel, mu[i], scaling[i], i, eps) for i in range(n_species)])
    dens = xi / h  # the exact-mass second marginals at b = 1

    def objective(b):
        """The step's objective over eps, up to a constant, at the plans diag(mu / K b) K diag(b),
        which meet the first marginals; and xi = K (mu / K b).  Not finite where b is 0 or not finite."""
        kb = b @ kernel  # the kernel is symmetric
        xi = (mu / kb) @ kernel
        nu = b * xi
        kl = np.sum(mu * np.log(np.where(mu > 0.0, mu / kb, 1.0))) + np.sum(nu * np.log(b))
        return kl + tau / (eps * h) * np.sum(nu * (a.entries @ nu)), xi

    converged = False
    history = []  # (log b after a pass, its change over the pass), oldest first
    log_b = np.zeros_like(mu)
    # an overflowing prox solve is reported by _source_marginal, not by warnings
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for iterations in range(1, SINKHORN_INNER_CAP + 1):
            delta = 0.0
            for i in range(n_species):
                frozen = a.entries[i] @ dens - a.entries[i, i] * dens[i] - level[i]
                alpha = 2.0 * tau * a.entries[i, i] / (eps * h)
                beta = (2.0 * tau / eps) * frozen
                y0 = np.log(np.maximum(marginal[i], 1e-300))
                nu = _prox_newton(xi[i], alpha, beta, SINKHORN_INNER_TOL, y0)
                scaling[i] = nu / xi[i]
                delta += float(np.abs(nu - marginal[i]).sum())
                marginal[i] = nu
                xi[i] = _source_marginal(kernel, mu[i], scaling[i], i, eps)
                dens[i] = scaling[i] * xi[i] / h
            if delta < SINKHORN_INNER_TOL:
                converged = True
                break
            # Anderson mixing (type II) of log b over the last ANDERSON_DEPTH changes
            log_b, change = np.log(scaling), np.log(scaling) - log_b
            if not np.isfinite(change).all():
                history.clear()  # a zero or overflowed scaling: no mixing
                continue
            history = history[-ANDERSON_DEPTH:] + [(log_b, change)]
            if len(history) > 1:
                g, f = (np.reshape(column, (len(history), -1)) for column in zip(*history))
                gamma = np.linalg.lstsq(np.diff(f, axis=0).T, f[-1], rcond=None)[0]
                mixed = log_b - (gamma @ np.diff(g, axis=0)).reshape(log_b.shape)
                value, mixed_xi = objective(np.exp(mixed))
                if not (-np.inf < value <= objective(scaling)[0] and mixed_xi.min() > 0.0):
                    history.clear()  # restart: the mix would raise the step's objective
                    continue
                log_b, scaling, xi = mixed, np.exp(mixed), mixed_xi
                # the next pass's change is measured from the mixed state's own marginals
                marginal = scaling * xi
                dens = marginal / h

    masses = h * dens.sum(axis=1)
    drift = float(np.abs(masses - 1.0).max())
    if drift > 1e-10:
        raise EstimateFailed(f"entropic step mass drift {drift:g} exceeds 1e-10")
    dens = dens / masses[:, None]
    u_next = DensityVector(grid, dens)
    e_after = energy_quadratic(u_next, a)
    report = JKOStepReport(
        w2_increment=w2_product(u_prev, u_next),
        energy_before=e_before,
        energy_after=e_after,
        inner_iterations=iterations,
        optimality_residual=optimality_residual(u_prev, u_next, a, tau).worst,
        converged=converged,
    )
    return u_next, report


def optimality_residual(
    u_prev: DensityVector,
    u_next: DensityVector,
    a: CouplingMatrix,
    tau: float,
) -> ResidualReport:
    """How far phi_i/tau + p_i(u_next) is from a constant on each support.

    phi_i is the potential transporting u_next back to u_prev.  On the
    support of u_next the first-order conditions make the field constant; the
    residual is its standard deviation normalized by the mean magnitude.
    """
    grid = u_prev.grid
    p = pressure(u_next, a)
    threshold = SUPPORT_THRESHOLD_SCALE / grid.h
    values = np.empty(u_next.n_species)
    for i in range(u_next.n_species):
        support = u_next.values[i] > threshold
        if not np.any(support):
            raise DegenerateSupport(f"species {i} has empty support")
        phi = kantorovich_potential_1d(u_next.species(i), u_prev.species(i))
        field_vals = phi.values / tau + p[i]
        on = field_vals[support]
        # the anchor can place the constant near zero, so the pressure scale
        # backs up the mean magnitude as normalization
        scale = max(float(np.abs(on).mean()), float(np.abs(p[i][support]).mean()), 1e-30)
        values[i] = float(on.std()) / scale
    return ResidualReport(values)


def run_jko(
    u0: DensityVector,
    a: CouplingMatrix,
    schedule: JKOSchedule,
    solver: str = "lagrangian",
    opts: JKOOptions = DEFAULT_OPTIONS,
    eps: float = 1e-3,
    n_levels: int | None = None,
    strict: bool = True,
) -> tuple[list[DensityVector], RunRecord]:
    """Iterate JKO steps and verify the a-priori estimates on the record.

    Records per state: energy, entropy, discrete gradient norm; per step: W2
    increment and optimality residual.  After the run the four estimates
    (energy monotonicity, telescoped step bound, Hoelder-1/2 bound on
    recomputed pairwise distances, entropy dissipation with the
    smallest-eigenvalue constant) are evaluated, and the check
    ``inner_solver_converged`` fails when the inner solver of any step did
    not converge; with ``strict`` a failure raises EstimateFailed.

    For the Lagrangian solver the quantile state is threaded through the
    whole run and the trajectory starts at the quantile re-representation of
    ``u0`` (L1-distance O(h + 1/L) from it), which makes the energy and
    telescoped estimates exact by construction.  Its level count L is
    ``n_levels``, by default the cell count.  The entropic solver has no
    quantile levels: it rejects ``n_levels`` and records L as None, so the
    Hoelder and entropy-dissipation tolerances carry no 1/L term.

    ``meta`` records the inner solver's largest per-step iteration count
    (descent iterations, or joint entropic scaling iterations) as
    ``inner_iterations_max`` and whether every step converged as
    ``inner_converged``.
    """
    _require_positive_definite(a)
    grid = u0.grid
    e0 = energy_quadratic(u0, a)
    h0 = entropy_boltzmann(u0)
    if not (np.isfinite(e0) and np.isfinite(h0)):
        raise InfiniteInitialEntropy("initial energy or entropy is not finite")

    if solver == "lagrangian":
        x, quad, e_start = _lagrangian_start(u0, a, opts, n_levels)
        L = x.shape[1]
        state = DensityVector(grid, quad.deposit(x))
    elif solver == "entropic":
        if n_levels is not None:
            raise ValueError("n_levels applies to the lagrangian solver only")
        L, state, e_start = None, u0, e0
    else:
        raise ValueError(f"unknown solver {solver!r}")

    trajectory = [state]
    reports = []
    for tau in schedule.taus:
        if solver == "lagrangian":
            e_before = reports[-1].energy_after if reports else e_start
            x, state, report = _lagrangian_step(state, x, e_before, float(tau), a, quad, opts)
        else:
            state, report = jko_step_entropic(state, a, float(tau), eps)
        trajectory.append(state)
        reports.append(report)

    entropies = [entropy_boltzmann(s) for s in trajectory]
    unconverged = sum(not r.converged for r in reports)
    record = RunRecord(
        times=schedule.times(),
        energy=np.array([e_start] + [r.energy_after for r in reports]),
        entropy=np.array(entropies),
        w2_increments=np.array([r.w2_increment for r in reports]),
        grad_norm_sq=np.array([gradient_norm_sq(s) for s in trajectory]),
        residuals=np.array([r.optimality_residual for r in reports]),
        meta={
            "h": grid.h,
            "L": L,
            "lambda_min": a.lambda_min,
            "solver": solver,
            "E0": e_start,
            "H0": entropies[0],
            "inner_iterations_max": max(r.inner_iterations for r in reports),
            "inner_converged": unconverged == 0,
        },
    )

    check_energy_monotone(record)
    check_telescoped_w2(record)
    check_hoelder(
        record,
        pairwise_w2=lambda i, j: w2_product(trajectory[i], trajectory[j]),
    )
    check_entropy_dissipation(record)
    # margin: minus the number of steps whose inner solver did not converge
    record.check("inner_solver_converged", unconverged)
    return trajectory, record.finish(strict)
