"""Minimizing-movement time stepping for the parabolic cross-diffusion system.

Each step solves  u^{k+1} = argmin  W2(u^k, u)^2 / (2 tau) + E(u)  with two
independent inner solvers:

* ``jko_step_lagrangian`` works on per-species quantile maps, where the W2
  term is a diagonal quadratic and the energy gradient is assembled through
  the exact adjoint of the deposition operator, for all species and slabs in
  one vector pass.  The deposition, its adjoint and their shared ghost-tail
  end rule live in ``measures``; this module holds the descent.  It is
  monotone FISTA with adaptive restart over the monotone maps in the box
  (pool-adjacent-violators projection), scaled by a per-step metric: the
  per-species tridiagonal part of the energy Hessian at the step's start,
  read from finite-difference gradient probes, plus the prox curvature.
  One rule decides the fallback: when the metric descent ends unconverged
  within METRIC_ITERATIONS, whatever stopped it, the step restarts once
  from its start in the Euclidean metric with the rest of MAX_ITERATIONS;
  when the restart ends unconverged too, the step keeps whichever descent
  reached the lower objective.  The descent's accepted iterates never
  raise the objective, so the per-step energy inequality holds, and it
  reports convergence only when the Euclidean projected-gradient mapping
  falls to TOL_STATIONARITY times the energy gradient at the step's start,
  within MAX_ITERATIONS iterations.  Both are module constants, read at each call.  Grid edges
  and the split of the coupling matrix are computed once per run; the
  ``run_jko`` keyword ``dirichlet`` adds the gradient term to the energy.

* ``jko_step_entropic`` solves the epsilon-regularized problem on the
  Eulerian grid by Sinkhorn-type scaling against the Gibbs kernel, with a
  pointwise relative-entropy prox of the frozen-coefficient energy density
  for the second marginal, one monotone Newton solve per cell.  One loop
  updates all species, each once per pass against the others' current
  marginals, and each Newton solve starts from the species' previous
  marginal.
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

from dataclasses import dataclass

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
    EstimateFailed,
    InfiniteInitialEntropy,
    KernelUnderflow,
    NotPositiveDefinite,
    ScalingOverflow,
)
from .measures import DensityVector, Grid1D, _deposit_all, _energy_position_gradient, to_quantiles
from .measures import _require_positive
from .transport1d import kantorovich_potential_1d, w2_product

STEP_FLOOR = 2.0**-60  # the descent gives up when its step falls below this * tau * L
STEP_GROWTH = 1.1  # descent step factor after an accepted iterate
HESSIAN_PROBE = 1e-6  # metric probe move, relative to the smallest positive level gap
METRIC_ITERATIONS = 100  # Hessian-metric iterations before the Euclidean restart
QUADRATURE_REFINE = 4.0  # inner quadrature cells per smallest level gap
QUADRATURE_CAP = 32768
SINKHORN_INNER_TOL = 1e-12
ANDERSON_DEPTH = 5  # residual differences in the scaling loop's least-squares mix
SINKHORN_INNER_CAP = 100_000  # joint passes; the stiffest test step needs about 750 (7,530 unmixed)
SUPPORT_THRESHOLD_SCALE = 1e-8  # residual support cut at scale / h
_LOG_EPS = float(np.log(np.finfo(float).eps))  # below it, log(alpha nu) = l to rounding
TOL_STATIONARITY = 1e-5  # descent stop, relative to |grad E| at the step's start
MAX_ITERATIONS = 5000  # descent iterations per Lagrangian step


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
class JKOStepReport:
    w2_increment: float
    energy_before: float
    energy_after: float
    inner_iterations: int
    optimality_residual: float
    converged: bool


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


@dataclass
class _LagrangianResult:
    positions: np.ndarray
    iterations: int
    converged: bool
    energy: float


def _quadrature_grid(positions: np.ndarray, grid: Grid1D) -> Grid1D:
    """Refined grid for the inner energy quadrature.

    The deposited energy seen on the solution grid is piecewise flat in the
    positions wherever an inter-level gap fits inside one cell, so descent
    would stall there.  Refining the quadrature cells below the smallest gap
    removes that staircase; outputs are still deposited on the caller's grid.
    """
    gaps = positions[:, 1:] - positions[:, :-1]
    min_gap = float(gaps[gaps > 0.0].min())
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
        return _deposit_all(x, self.grid, self.edges)

    def densities(self, x: np.ndarray) -> tuple:
        """One evaluation of the positions x: fine densities and pressures, and
        the solution-grid densities when the Dirichlet term is on.  Both the
        energy and its gradient are read from it."""
        fine = _deposit_all(x, self.fine, self.fine_edges)
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
        n_species, levels = x.shape
        gaps = np.diff(x, axis=1)
        delta = HESSIAN_PROBE * float(gaps[gaps > 0.0].min())
        # +delta with room to the right, -delta with room only to the left
        room_right = np.append(gaps > 0.0, x[:, -1:] < quad.grid.x_max, axis=1)
        room_left = np.insert(gaps > 0.0, 0, x[:, 0] > quad.grid.x_min, axis=1)
        move = delta * np.where(room_right, 1.0, np.where(room_left, -1.0, 0.0))
        color = np.arange(levels) % 3
        # change[i, c]: how species i's gradient moves under its probe c
        change = np.zeros((n_species, 3, levels))
        for i in range(n_species):
            for c in range(3):
                probe = x.copy()
                probe[i, color == c] += move[i, color == c]
                g = quad.gradient(probe, quad.densities(probe))
                change[i, c] = g[i] - grad_e[i]
        scale = np.divide(1.0, move, out=np.zeros_like(move), where=move != 0.0)
        j = np.arange(levels - 1)
        hess_diag = change[:, color, np.arange(levels)] * scale
        below = change[:, color[:-1], j + 1] * scale[:, :-1]  # H[j + 1, j]
        above = change[:, color[1:], j] * scale[:, 1:]  # H[j, j + 1]
        weight = tau * levels
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
) -> _LagrangianResult:
    """Minimize f(x) = |x - x_prev|^2 / (2 tau L) + E(x) by ``_descend`` in
    the step's Hessian metric, which brings the Laplacian-like conditioning of
    f in quantile variables down to a few units.

    One rule decides the fallback: the metric descent gets
    min(METRIC_ITERATIONS, MAX_ITERATIONS) iterations, and when it ends
    unconverged with MAX_ITERATIONS not yet spent (out of its budget, a
    stall, or no step length that satisfies the line search), the descent
    restarts once from x_prev in the Euclidean metric M = I / (tau L) with
    the rest of MAX_ITERATIONS; the reported iterations include the metric's.
    When the restart ends unconverged too, the step keeps whichever of the
    two descents reached the lower f; a converged restart is kept even above
    the metric's f, as only it certifies stationarity.
    """
    base = quad.densities(x_prev)
    grad_e = quad.gradient(x_prev, base)
    metric = _HessianMetric(x_prev, grad_e, tau, quad)
    result = _descend(x_prev, tau, quad, min(METRIC_ITERATIONS, MAX_ITERATIONS), base, grad_e, metric)
    if result.converged or result.iterations >= MAX_ITERATIONS:
        return result
    fallback = _descend(x_prev, tau, quad, MAX_ITERATIONS - result.iterations, base, grad_e)
    fallback.iterations += result.iterations

    def objective(found):
        d = found.positions - x_prev
        return found.energy + 0.5 * _dot(d, d) / (tau * x_prev.shape[1])

    if fallback.converged or objective(fallback) <= objective(result):
        return fallback
    result.iterations = fallback.iterations
    return result


def _descend(
    x_prev: np.ndarray,
    tau: float,
    quad: _Quadrature,
    max_iterations: int,
    base: tuple,
    grad_e: np.ndarray,
    metric: _HessianMetric | None = None,
) -> _LagrangianResult:
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
    TOL_STATIONARITY * |grad E(x_prev)|, with s the longest accepted step in
    the Euclidean metric (tau * L itself would make the measure lax, and a
    collapsed step would round the move away) and 1 / (largest row sum of M)
    <= tau * L in the Hessian one; the mapping's norm does not grow as s
    shrinks.  The test runs when the gradient at x is at hand anyway (a
    restart) or when the step from y was already that short.  A step below
    STEP_FLOOR, an accepted step that leaves x unchanged, or running out of
    ``max_iterations`` returns ``converged=False``, and the caller decides
    what follows.
    """
    levels = x_prev.shape[1]
    prox_weight = 1.0 / (tau * levels)
    lo, hi = quad.grid.x_min, quad.grid.x_max
    max_step = tau * levels  # the step is held in Euclidean units, s * tau * L
    if metric is None:
        solve, norm_sq = (lambda g: g), (lambda d: _dot(d, d))
    else:
        solve, norm_sq = metric.solve, metric.norm_sq

    def objective(x):
        d = x - x_prev
        state = quad.densities(x)
        return 0.5 * prox_weight * _dot(d, d) + quad.energy(state, base), state

    def gradient(x, state):
        return prox_weight * (x - x_prev) + quad.gradient(x, state)

    x, obj, state_x, grad = x_prev, 0.0, base, grad_e
    target = TOL_STATIONARITY * np.sqrt(_dot(grad, grad))  # |grad E(x_prev)|
    y, obj_y, grad_y = x, obj, grad
    t, step, test_step = 1.0, max_step, 0.0
    converged = False
    iterations = 0
    while iterations < max_iterations:
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
        test_step = max(test_step, step) if metric is None else metric.test_step
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
                break  # the accepted step no longer moves x
        step = min(step * STEP_GROWTH, max_step)
        if momentum == 0.0:
            y, obj_y, grad_y = x, obj, grad
        else:
            y = _project_monotone(x + momentum * (x - x_old), lo, hi)
            obj_y, state_y = objective(y)
            grad_y = gradient(y, state_y)
    return _LagrangianResult(x, iterations, converged, quad.energy(state_x))


def _quantile_state(u: DensityVector) -> np.ndarray:
    """The quantile positions of each species of u, one level per cell."""
    return np.stack([to_quantiles(u.species(i)).positions for i in range(u.n_species)])


def _lagrangian_start(u: DensityVector, a: CouplingMatrix, dirichlet: bool):
    """The quantile state x of u, the run's quadrature, with the Dirichlet
    term when ``dirichlet``, and E(x)."""
    x = _quantile_state(u)
    quad = _Quadrature(a, u.grid, _quadrature_grid(x, u.grid), dirichlet)
    return x, quad, quad.energy(quad.densities(x))


def _lagrangian_step(
    u_prev: DensityVector, x: np.ndarray, e_before: float, tau: float, a: CouplingMatrix, quad: _Quadrature
):
    """One descent from the quantile state x of u_prev, whose energy is e_before.

    Returns the next quantile state, the deposited state and the step's report.
    """
    result = _lagrangian_minimize(x, tau, quad)
    u_next = DensityVector(quad.grid, quad.deposit(result.positions))
    report = JKOStepReport(
        w2_increment=float(np.sqrt(np.sum((result.positions - x) ** 2) / x.shape[1])),
        energy_before=e_before,
        energy_after=result.energy,
        inner_iterations=result.iterations,
        optimality_residual=optimality_residual(u_prev, u_next, a, tau),
        converged=result.converged,
    )
    return result.positions, u_next, report


def jko_step_lagrangian(
    u_prev: DensityVector,
    a: CouplingMatrix,
    tau: float,
) -> tuple[DensityVector, JKOStepReport]:
    """One minimizing-movement step via the quantile-map descent, on one
    quantile level per cell."""
    _require_positive_definite(a)
    _require_positive("tau", tau)
    # energies under the solver's own quadrature: monotone by construction
    x_prev, quad, e_before = _lagrangian_start(u_prev, a, False)
    _, u_next, report = _lagrangian_step(u_prev, x_prev, e_before, tau, a, quad)
    if report.energy_after > e_before + 1e-12 * max(1.0, abs(e_before)):
        raise EstimateFailed("energy increased across a Lagrangian JKO step")
    return u_next, report


def _prox_newton(
    xi: np.ndarray, alpha: float, beta: np.ndarray, tol: float, y0: np.ndarray
) -> np.ndarray:
    """Solve log(nu/xi) + alpha*nu + beta = 0 per cell (alpha > 0).

    Solved as phi(w) = w + log w - l = 0 in w = alpha*nu, with l = c + log
    alpha and c = log(xi) - beta; phi is the residual of y + alpha*e^y = c
    in y = log(nu).  phi is increasing and concave, so a Newton step
    w <- w (1 + l - log w) / (1 + w) never passes the root from below and
    lands below it from above.  Every iterate is clamped at l - log l (for
    l > 1) or e^(l - 1) (otherwise), both lower bounds of the root, so the
    iterates rise monotonically onto the root until |phi| < tol.  The warm
    start is alpha*e^y0, y0 the log of the species' previous marginal,
    capped at max(l, 1), an upper bound of the root.  Where l < log(machine
    eps) the root w = e^(l - w) is below eps and nu = e^(c - w) is e^c to
    rounding: those cells return e^c, which may underflow to 0, and are
    solved at l = log(eps), so that w stays normal.
    """
    c = np.log(np.maximum(xi, 1e-300)) - beta
    log_alpha = np.log(alpha)
    small = c + log_alpha < _LOG_EPS
    ell = np.maximum(c + log_alpha, _LOG_EPS)
    log_upper = np.log(np.maximum(ell, 1.0))
    # l - log l >= 1 >= e^(l - 1) for l > 1, and e^(l - 1) >= l otherwise
    lower = np.maximum(ell - log_upper, np.exp(np.minimum(ell, 1.0) - 1.0))
    w = np.maximum(np.exp(np.minimum(y0 + log_alpha, log_upper)), lower)
    for _ in range(100):
        log_w = np.log(w)
        if np.abs(w + log_w - ell).max() < tol:
            break
        w = np.maximum(w * (1.0 + ell - log_w) / (1.0 + w), lower)
    return np.exp(c, out=w / alpha, where=small)


def _source_marginal(kernel: np.ndarray, mu: np.ndarray, b: np.ndarray, species: int, eps: float):
    """xi = K (mu / K b), the kernel side of the first-marginal scaling."""
    xi = kernel @ (mu / (kernel @ b))
    if not xi.min() > 0.0:  # also catches NaN
        if not np.isfinite(b).all():
            raise ScalingOverflow(
                f"scaling vector of species {species + 1} is not finite on {int(np.sum(~np.isfinite(b)))} "
                f"cells: nu / xi overflows where the kernel side xi is tiny (eps = {eps:g})"
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
    ``converged=False``.  The new state is not renormalised: like every 1D
    density it must hold unit mass within MASS_TOL_1D.
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

    u_next = DensityVector(grid, dens)  # the plans meet the first marginals, so the mass is one to rounding
    e_after = energy_quadratic(u_next, a)
    report = JKOStepReport(
        w2_increment=w2_product(u_prev, u_next),
        energy_before=e_before,
        energy_after=e_after,
        inner_iterations=iterations,
        optimality_residual=optimality_residual(u_prev, u_next, a, tau),
        converged=converged,
    )
    return u_next, report


def optimality_residual(
    u_prev: DensityVector,
    u_next: DensityVector,
    a: CouplingMatrix,
    tau: float,
) -> float:
    """How far phi_i/tau + p_i(u_next) is from a constant on each support,
    for the worst species.

    phi_i is the potential transporting u_next back to u_prev.  On the
    support of u_next the first-order conditions make the field constant; the
    residual is its standard deviation normalized by the mean magnitude.
    """
    grid = u_prev.grid
    p = pressure(u_next, a)
    threshold = SUPPORT_THRESHOLD_SCALE / grid.h
    values = np.empty(u_next.n_species)
    for i in range(u_next.n_species):
        support = u_next.values[i] > threshold  # not empty: unit mass on fewer than 1e8 cells
        phi = kantorovich_potential_1d(u_next.species(i), u_prev.species(i))
        field_vals = phi.values / tau + p[i]
        on = field_vals[support]
        # the anchor can place the constant near zero, so the pressure scale
        # backs up the mean magnitude as normalization
        scale = max(float(np.abs(on).mean()), float(np.abs(p[i][support]).mean()), 1e-30)
        values[i] = float(on.std()) / scale
    return float(values.max())


def run_jko(
    u0: DensityVector,
    a: CouplingMatrix,
    schedule: JKOSchedule,
    solver: str = "lagrangian",
    eps: float = 1e-3,
    strict: bool = True,
    *,
    dirichlet: bool = False,
) -> tuple[list[DensityVector], RunRecord]:
    """Iterate JKO steps and verify the a-priori estimates on the record.

    Records per state: energy, entropy, discrete gradient norm; per step: W2
    increment and optimality residual.  After the run the four estimates
    (energy monotonicity, telescoped step bound, Hoelder-1/2 bound on
    recomputed pairwise distances, entropy dissipation with the
    smallest-eigenvalue constant) are evaluated, and the check
    ``inner_solver_converged`` fails when the inner solver of any step did
    not converge; with ``strict`` a failure raises EstimateFailed.

    For the Lagrangian solver the quantile state, one level per cell, is
    threaded through the whole run and the trajectory starts at the quantile
    re-representation of ``u0`` (L1-distance O(h + 1/L) from it), which makes
    the energy and telescoped estimates exact by construction; it records the
    level count L, the cell count.  The entropic solver has no quantile
    levels and records L as None, so the Hoelder and entropy-dissipation
    tolerances carry no 1/L term.  Only the
    Lagrangian solver takes ``dirichlet``, which adds the gradient term
    sum_i |grad u_i|^2 / 2 to the energy it descends and records; the
    entropic solver rejects it.

    ``meta`` records the inner solver's largest per-step iteration count
    (descent iterations, or joint entropic scaling iterations) as
    ``inner_iterations_max`` and whether every step converged as
    ``inner_converged``.
    """
    _require_positive_definite(a)
    grid = u0.grid
    with np.errstate(over="ignore", invalid="ignore"):  # InfiniteInitialEntropy is the one signal of an overflow
        e0 = energy_quadratic(u0, a)
        h0 = entropy_boltzmann(u0)
    if not (np.isfinite(e0) and np.isfinite(h0)):
        raise InfiniteInitialEntropy("initial energy or entropy is not finite")

    if solver == "lagrangian":
        x, quad, e_start = _lagrangian_start(u0, a, dirichlet)
        L = x.shape[1]
        state = DensityVector(grid, quad.deposit(x))
    elif solver == "entropic":
        if dirichlet:
            raise ValueError("dirichlet applies to the lagrangian solver only")
        L, state, e_start = None, u0, e0
    else:
        raise ValueError(f"unknown solver {solver!r}")

    trajectory = [state]
    reports = []
    for tau in schedule.taus:
        if solver == "lagrangian":
            e_before = reports[-1].energy_after if reports else e_start
            x, state, report = _lagrangian_step(state, x, e_before, float(tau), a, quad)
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
