"""The rank-deficient (hyperbolic-parabolic) cross-diffusion model in 1D.

With the uniform coupling a_ij = 1/N all species share one pressure
p = (1/N) sum_j u_j.  Summing the system shows p solves the porous-medium
equation dp/dt = (p p_x)_x directly under this normalization (no time
rescaling needed), while each species u_i = N p r_i, r_i = u_i / sum_j u_j,
is conserved along the pressure flux: (p r_i)_t = (p r_i p_x)_x.

Two schemes are provided:

* ``step_splitting``: explicit monotone finite-volume step for p (TVD by
  Harten's lemma under the stated CFL bound) whose flux F carries the
  fractions of its donor, the cell with the larger p, so species mass is exact
  to rounding.  The receiving cell's r gains (dt/h) |F| (r_donor - r) / p_new:
  in Harten's incremental form each interface has one nonzero coefficient,
  <= 1 as p_new is the received mass plus a kept part, >= 0 under
  h^2/(2 max p).  Fractions stay in [0, 1] and TV(r) does not grow.  That
  one bound is the stated CFL bound: as p >= 0, no jump of p exceeds max p,
  so the transport CFL h/max|p_x| is at least h^2/max p and never binds.

* ``pressure_transport_step``: the constructive route -- every species is
  pushed by the same monotone optimal plan that transports p_k to p_{k+1}.
  Each source cell splits its species mass over its plan segments in the
  shares of the mass it sends along each, so the push conserves species
  mass to rounding.  On cell histograms the plan is exact, so the projection
  identity and the sqrt(N) metric-speed bound hold to machine precision.
  Its fractions are its species' own, r_i = u_i / sum_j u_j, and TV(r_i)
  cannot grow either.  A monotone push makes each destination cell's
  fractions a convex combination of those of an interval of source cells,
  and consecutive intervals share at most one cell.  Let C_j(c) be the
  share of destination j's mass that comes from source cells up to c.
  Summation by parts gives
  r'(j+1) - r'(j) = -sum_c (C_{j+1}(c) - C_j(c)) (r(c+1) - r(c)), and
  C_j(c) falls monotonically in j from 1 to 0, so the TV over the support
  cannot grow.  Any positive weights give this, so the 1e-9 gap between the
  species average and the pressure does not break it.  Empty cells are in
  no plan, so the TV runs over the support in order, which the fill off the
  support gives exactly.

Both schemes decide the support by one rule (``_supported``): the cells
whose species total is a normal float (>= the smallest normal double), the
splitting scheme's total being N p.  A subnormal total is plan rounding:
counting it (s > 0) let the plan transport's TV rise by up to 4.1e-4 on
random overlapping blocks.  A cut-off above it drops source cells of the
convex combinations: s > 1e-12 let that TV rise by up to 2.7e-3 there, and
it would zero the recovered species of a valid input's tail below 1e-12,
which would then miss unit mass.  ``split_state`` returns the species' own
fractions, filled off the support like every fraction here, so both
schemes start from the same fractions.

The public step functions run the array kernels of ``run_hyperbolic`` on a
chunk of one step and check it as a run checks a chunk.  A run validates
``u0``, ``t_final`` and ``dt`` once.  The pressure solves its own equation,
so only the pressure feeds the next step: per step a run computes only the
pressure (``_pressure_step``) and keeps only the guard on its result, a
pressure cell below -1e-13 or NaN raising InvalidDensity at once and cells in
[-1e-13, 0) clamped at 0.  The species and fractions follow once per chunk
of CHUNK_STEPS steps, from the chunk's pressures: the splitting fractions
ride on the pressure's flux (``_fractions``, from the moved masses), and the
plan transport takes its species' own (``_own_fractions``).  Both fill their
fractions off the support (``_supported``) by one rule (``_fill``).  The
other invariants of every step are checked once per chunk too, on its
stacked states.  Both
schemes check the pressure mass drift per step (1e-12, EstimateFailed) and
the pressure unit mass.  The splitting scheme checks that its fractions sum
to at most 1 + 1e-12; the plan transport checks the species average equal
to the pressure within 1e-9.  Both check each species' unit mass
(MASS_TOL_1D, as every 1D density; InvalidDensity).  A failing step raises
once its chunk is computed.  Density objects are built only for the
snapshots and the final state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagnostics import RunRecord, check_metric_speed, check_tv_monotone
from .errors import CFLViolation, DimensionMismatch, EstimateFailed, InvalidDensity
from .measures import MASS_TOL_1D, Density, DensityVector, Grid1D, _clamped_sign, _require_count, _require_positive
from .transport1d import _plans, _plans_cost

CFL_SAFETY = 0.45  # automatic steps take this fraction of splitting_stable_dt
MAX_STEPS = 10_000_000  # a run that needs more steps raises RuntimeError
CHUNK_STEPS = 16  # steps between the batched plan, W2 and TV passes of a run


@dataclass(frozen=True)
class PressureFraction:
    """State (p, r): shared pressure and the first N-1 species fractions."""

    pressure: Density
    fractions: np.ndarray  # shape (N-1, n_cells), values in [0, 1]

    def __post_init__(self):
        r = np.atleast_2d(np.asarray(self.fractions, dtype=float))
        object.__setattr__(self, "fractions", r)
        if r.shape[1] != self.pressure.grid.n_cells:
            raise DimensionMismatch("fractions and pressure grids disagree")
        if not np.isfinite(r).all():
            raise InvalidDensity(f"fractions must be finite, found {np.unique(r[~np.isfinite(r)])}")
        if np.any(r < -1e-12) or np.any(r.sum(axis=0) > 1.0 + 1e-12):
            raise InvalidDensity("fractions must lie in [0, 1] and sum to at most 1")

    @property
    def grid(self) -> Grid1D:
        return self.pressure.grid


def split_state(u: DensityVector) -> PressureFraction:
    """Change of unknowns u -> (p, r): p the species average, r the species' own fractions.

    r_i = u_i / sum_j u_j on the support (``_supported``), filled off it from
    the closest supported cell (``_own_fractions``).
    """
    p = u.values.sum(axis=0) / u.n_species
    return PressureFraction(Density(u.grid, p), _own_fractions(u.values[None])[0])


def _supported(total: np.ndarray) -> np.ndarray:
    """Which cells of the species totals ``total`` are supported: those whose total is a normal float.

    This one rule decides the support for both schemes; the splitting
    scheme's total is N p.  A subnormal total is rounding, and its quotient
    is no fraction (the module docstring gives why no larger cut-off works).
    """
    return total >= np.finfo(float).tiny


def _recover(p: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Kernel of recover_species: the (..., N, n) species of pressures (..., n) and fractions (..., N-1, n)."""
    total = (r.shape[-2] + 1) * p[..., None, :]
    r_last = np.clip(1.0 - r.sum(axis=-2, keepdims=True), 0.0, 1.0)
    vals = np.concatenate([r * total, r_last * total], axis=-2)
    return np.where(_supported(total), vals, 0.0)


def recover_species(pf: PressureFraction) -> DensityVector:
    """Inverse transformation u_i = N p r_i, u_N = N p (1 - sum r_i).

    Every species must have unit mass within MASS_TOL_1D, as every density.
    """
    return DensityVector(pf.grid, _recover(pf.pressure.values, pf.fractions))


def tv(field: np.ndarray) -> float | np.ndarray:
    """Discrete total variation: sum of absolute cell-to-cell increments.

    A float for one field; an array of one total per field for stacked fields (..., n).
    """
    total = np.abs(np.diff(np.asarray(field, dtype=float))).sum(axis=-1)
    return float(total) if total.ndim == 0 else total


def _fill(on: np.ndarray) -> np.ndarray:
    """Cell maps, one per row of the stacked supports on (..., n), that fill fields off their support.

    Row k sends every cell to the closest cell of on[k], ties left, and a
    cell of an empty row to itself.  A field indexed by its row's map is
    constant off the support, so the TV series read every cell (including
    interior gaps between support components) without a spurious jump.
    """
    n = on.shape[-1]
    cells = np.arange(n)
    left = np.maximum.accumulate(np.where(on, cells, -n), axis=-1)  # -n: no supported cell to the left
    right = np.flip(np.minimum.accumulate(np.flip(np.where(on, cells, 2 * n), axis=-1), axis=-1), axis=-1)
    return np.where(on.any(axis=-1, keepdims=True), np.where(cells - left <= right - cells, left, right), cells)


def _stable_dt(p: np.ndarray, h: float) -> float:
    """splitting_stable_dt of the pressure values p."""
    pmax = float(p.max())
    return 0.5 * h**2 / pmax if pmax > 0.0 else np.inf


def splitting_stable_dt(pf: PressureFraction) -> float:
    """The diffusion bound h^2/(2 max p).

    It also bounds the transport CFL h/max|p_x|: for p >= 0 every jump
    |p(c+1) - p(c)| is at most max p, so h/max|p_x| >= h^2/max p.
    """
    return _stable_dt(pf.pressure.values, pf.grid.h)


def _pressure_checks(pressure: np.ndarray, h: float) -> list:
    """Checks of the steps between the (K+1, n) pressures, which both schemes run."""
    mass = pressure.sum(axis=-1)
    drift = np.abs(h * mass[1:] - 1.0)
    return [
        (EstimateFailed, "pressure mass drifted beyond 1e-12 in one step", np.abs(np.diff(mass)) * h > 1e-12),
        (InvalidDensity, f"pressure mass deviates from 1 beyond {MASS_TOL_1D}", ~(drift <= MASS_TOL_1D)),
    ]


def _fraction_sum_check(fractions: np.ndarray) -> tuple:
    """Check of each step's splitting fractions in the stacked (K, N-1, n) fractions: they sum to at most 1."""
    return InvalidDensity, "fractions sum beyond 1", ~(fractions.sum(axis=1).max(axis=-1) <= 1.0 + 1e-12)


def _species_check(species: np.ndarray, h: float) -> tuple:
    """Check of each step's species in the stacked (K, N, n) species: unit mass within MASS_TOL_1D."""
    drift = np.abs(h * species.sum(axis=-1) - 1.0).max(axis=-1)
    return InvalidDensity, f"species mass deviates from 1 beyond {MASS_TOL_1D}", ~(drift <= MASS_TOL_1D)


def _push_checks(species: np.ndarray, sources: np.ndarray, h: float) -> list:
    """Checks of the _transport pushes of the (K+1, N, n) species away from the (K, n) pressures sources."""
    gap = h * np.abs(species[:-1].mean(axis=1) - sources).sum(axis=-1)
    average = (InvalidDensity, "pressure disagrees with the species average beyond 1e-9", gap > 1e-9)
    return [average, _species_check(species[1:], h)]


def _raise_first(checks: list, first_step: int):
    """Raise for the earliest failing step, by its first failing check: (error type, message, failed per step)."""
    failed = np.array([bad for *_, bad in checks])
    if failed.any():
        k = int(failed.any(axis=0).argmax())
        error, message, _ = next(check for check in checks if check[2][k])
        raise error(f"{message} (step {first_step + k})")


def _pressure_step(p: np.ndarray, out: np.ndarray, moved: np.ndarray, h: float, cap: float, safety: float) -> float:
    """Step the pressure p into out by min(cap, safety * splitting_stable_dt) and return that step.

    The pressure moved leftward across each interface goes into moved, which
    _fractions reads.  The sign guard is the one check made here, as the next
    step reads its result; _pressure_checks holds the other invariants.
    """
    slope = (p[1:] - p[:-1]) / h  # np.diff(p) / h without its call overhead
    dt = min(cap, safety * _stable_dt(p, h))  # a NaN cap stays NaN and fails the sign guard
    np.multiply(dt / h, 0.5 * (p[1:] + p[:-1]) * slope, out=moved)
    out[:] = p
    out[:-1] += moved
    out[1:] -= moved
    out[:] = _clamped_sign(out, "pressure")
    return dt


def _fractions(pressure: np.ndarray, moved: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The (K+1, N-1, n) fractions of the K _pressure_step steps between the (K+1, n) pressures.

    Row 0 is r.  The steps moved the (K, n-1) masses.  Each step first extends
    its fractions constant off the support of the pressure it starts from
    with _fill.
    """
    fill = _fill(_supported((r.shape[0] + 1) * pressure[:-1]))
    # donor-cell fractions; a p_new = 0 cell receives nothing (the floor only avoids
    # 0/0), and a symmetric stagnation interface moves 0 exactly, so halves never mix
    inv = 1.0 / np.maximum(pressure[1:], np.finfo(float).tiny)
    left = np.maximum(moved, 0.0) * inv[:, :-1]
    right = np.minimum(moved, 0.0) * inv[:, 1:]
    fractions = np.empty((len(pressure),) + r.shape)
    fractions[0] = r
    for k in range(len(moved)):
        r = fractions[k][:, fill[k]]
        jumps = r[:, 1:] - r[:, :-1]
        r_new = fractions[k + 1]
        r_new[:] = r
        r_new[:, :-1] += left[k] * jumps
        r_new[:, 1:] += right[k] * jumps
        r_new.clip(0.0, 1.0, out=r_new)  # bounds each fraction; _fraction_sum_check bounds their sum
    return fractions


def step_splitting(pf: PressureFraction, dt: float) -> PressureFraction:
    """One step: monotone FV pressure update whose flux carries the species.

    The pressure flux p_bar p_x with no-flux ends conserves mass exactly and
    is TVD under the stated bound; it carries each species at its donor
    cell's fraction.  Fractions are extended constant off the (old) pressure
    support, so whatever fractions pf holds there add no spurious variation.
    """
    p, h = pf.pressure.values, pf.grid.h
    pressure, moved = np.empty((2, p.size)), np.empty((1, p.size - 1))
    pressure[0] = p
    taken = _pressure_step(p, pressure[1], moved[0], h, dt, 1.0)
    if taken < dt:
        raise CFLViolation(dt, taken)
    fractions = _fractions(pressure, moved, pf.fractions)
    _raise_first(_pressure_checks(pressure, h) + [_fraction_sum_check(fractions[1:])], 1)
    return PressureFraction(Density(pf.grid, pressure[1]), fractions[1])


def _transport(u: np.ndarray, plans) -> np.ndarray:
    """The (K+1, N, n) species from u (N, n), pushed in turn along each of the K padded plans.

    Each source cell splits every species' mass over the segments its plan
    row sends from that cell, in proportion to their masses, so a push
    conserves species mass to rounding.  Row 0 is u.
    """
    src, dst, seg = plans
    n_rows = len(src)
    n_species, n = u.shape
    # mass each row sends from each cell, one bincount over the flat cells src + n * row
    flat = (src + n * np.arange(n_rows)[:, None]).ravel()
    sent = np.bincount(flat, seg.ravel(), minlength=n_rows * n)
    share = seg / np.where(sent > 0.0, sent, np.inf)[flat].reshape(seg.shape)  # a pad gets 0
    # one bincount per push for all species: species i deposits into bins i*n .. i*n + n - 1,
    # every push's bins built at once
    bins = (dst[:, None] + n * np.arange(n_species)[:, None]).reshape(n_rows, -1)
    species = np.empty((n_rows + 1, n_species, n))
    species[0] = u
    pushed = species.reshape(n_rows + 1, -1)
    for k in range(n_rows):
        carried = share[k] * species[k].take(src[k], axis=1)
        pushed[k + 1] = np.bincount(bins[k], carried.ravel(), minlength=n_species * n)
    return species


def _own_fractions(species: np.ndarray) -> np.ndarray:
    """The (K, N-1, n) fractions u_i / sum_j u_j of the stacked (K, N, n) species, filled off their support."""
    total = species.sum(axis=-2)
    on = _supported(total)
    r = species[:, :-1] / np.where(on, total, 1.0)[:, None]
    return np.take_along_axis(r, _fill(on)[:, None], axis=-1)


def pressure_transport_step(
    u_prev: DensityVector, p_prev: Density, p_next: Density
) -> DensityVector:
    """Push every species by the monotone plan transporting p_prev to p_next.

    Each species' cell mass moves proportionally along the shared plan, so
    species mass is conserved to rounding, the average of the result is
    p_next and the squared transport costs sum to N * W2(p_prev, p_next)^2,
    which is the discrete form of the metric-speed inequality.
    """
    grid = u_prev.grid
    if not grid == p_prev.grid == p_next.grid:
        raise DimensionMismatch("species and pressures live on different grids")
    h, sources = grid.h, p_prev.values[None]
    species = _transport(u_prev.values, _plans(sources * h, p_next.values[None] * h))
    _raise_first(_push_checks(species, sources, h), 1)
    return DensityVector(grid, species[1])


@dataclass
class HyperbolicRun:
    trajectory: list  # DensityVector snapshots
    pressures: list  # Density snapshots aligned with trajectory
    record: RunRecord


def run_hyperbolic(
    u0: DensityVector,
    scheme: str = "splitting",
    t_final: float = 0.1,
    dt: float | None = None,
    snapshot_every: int = 0,
    strict: bool = True,
) -> HyperbolicRun:
    """Advance the rank-deficient system and monitor its BV/metric estimates.

    ``scheme`` is ``splitting`` (pressure diffusion carrying the species) or
    ``pressure_transport`` (species pushed by the pressure's optimal plans;
    the pressure trajectory itself always comes from the splitting p-step).
    ``t_final`` and ``dt`` (an upper bound on the automatic step) must be
    finite and positive, ``snapshot_every`` an integer of at least 0.
    Records per step: TV(p), TV(r_i), W2 increments of u and p; ``meta``
    carries the step count and the smallest and largest step.  Asserts TV
    monotonicity for both fields and, for the transport scheme, the
    sqrt(N)-metric-speed bound, when ``strict``.  For the transport scheme
    that bound is an identity, W2(u^k, u^{k+1}) = sqrt(N) W2(p_k, p_{k+1}) up
    to rounding: each species' push along the monotone pressure plan is
    monotone, so optimal, and the pushes' costs sum to N W2(p_k, p_{k+1})^2
    as the species average equals p_k (see check_metric_speed).  Each
    scheme's TV(r_i) series reads its own state: the splitting scheme's
    flux fractions, and the plan transport's species' own fractions
    u_i / sum_j u_j on the cells whose species total is a normal float,
    filled off them (the module docstring derives why neither can grow).
    The metric-speed identity stays checked as the guard of a broken push: a
    push that trades two species between two cells keeps every mass, cell
    total and the species average, and fails both it and TV(r_1).
    The run advances in chunks of CHUNK_STEPS steps.  Per step it computes
    only the pressure and checks only the pressure's sign; the fractions
    follow per chunk, the other invariants of every step are checked per
    chunk (see the module docstring), and a step that fails one raises, once
    its chunk is computed, the error the check raises on a single step.
    """
    if scheme not in ("splitting", "pressure_transport"):
        raise ValueError(f"unknown scheme {scheme!r}")
    _require_positive("t_final", t_final)
    if dt is not None:
        _require_positive("dt", dt)
    _require_count("snapshot_every", snapshot_every, 0)
    n_species = u0.n_species
    grid = u0.grid
    h = grid.h
    x = grid.centers()
    pf = split_state(u0)
    p, r = pf.pressure.values, pf.fractions
    state_u = DensityVector(grid, _recover(p, r)) if scheme == "splitting" else u0
    u = state_u.values

    tvs = [tv(np.concatenate([p[None], r]))]  # per state: TV(p), then each TV(r_i)
    w2_u = []
    w2_p = []
    dts = []
    trajectory = [state_u]
    pressures = [pf.pressure]

    # a chunk's pressures, row 0 the last of the chunk before, and the masses its steps move
    buf_p, buf_moved = np.empty((CHUNK_STEPS + 1, grid.n_cells)), np.empty((CHUNK_STEPS, grid.n_cells - 1))
    buf_p[0] = p
    t = 0.0
    step = 0
    while t < t_final and step < MAX_STEPS:
        # up to CHUNK_STEPS steps of the pressure alone under the sign guard ...
        k = 0
        while k < CHUNK_STEPS and t < t_final and step < MAX_STEPS:
            cap = t_final - t if dt is None else min(dt, t_final - t)
            dt_k = _pressure_step(buf_p[k], buf_p[k + 1], buf_moved[k], h, cap, CFL_SAFETY)
            dts.append(dt_k)
            t += dt_k
            step += 1
            k += 1
        # ... then the chunk's checks, plans, species, fractions, W2 increments and TV at once
        first = step + 1 - k
        pressure = buf_p[: k + 1]
        checks = _pressure_checks(pressure, h)
        if scheme == "splitting":
            fractions = _fractions(pressure, buf_moved[:k], r)
            species = _recover(pressure, fractions)
            checks += [_fraction_sum_check(fractions[1:]), _species_check(species[1:], h)]
        _raise_first(checks, first)
        plans = _plans(pressure[:-1] * h, pressure[1:] * h)
        if scheme == "pressure_transport":
            species = _transport(u, plans)
            _raise_first(_push_checks(species, pressure[:-1], h), first)
            fractions = _own_fractions(species)
        rows = species.reshape(-1, grid.n_cells) * h  # step k's species are rows k*N .. k*N + N - 1
        costs = _plans_cost(_plans(rows[:-n_species], rows[n_species:]), x)
        w2_u += np.sqrt(costs.reshape(-1, n_species).sum(axis=1)).tolist()
        w2_p += np.sqrt(_plans_cost(plans, x)).tolist()
        tvs.append(tv(np.concatenate([pressure[1:, None], fractions[1:]], axis=1)))
        u, r = species[-1], fractions[-1]
        for k in range(1, len(pressure)):
            if snapshot_every and (first - 1 + k) % snapshot_every == 0:
                # copies: the next chunk overwrites the pressures, and a species
                # view would keep the whole chunk's stack alive
                trajectory.append(DensityVector(grid, species[k].copy()))
                pressures.append(Density(grid, pressure[k].copy()))
        buf_p[0] = pressure[-1]
    if t < t_final:
        raise RuntimeError("hyperbolic run exceeded the step budget")
    if not snapshot_every or step % snapshot_every != 0:
        trajectory.append(DensityVector(grid, u))
        pressures.append(Density(grid, buf_p[0].copy()))

    tvs = np.vstack(tvs)
    record = RunRecord(
        times=np.concatenate(([0.0], np.cumsum(dts))),
        w2_increments=np.asarray(w2_u),
        tv={"p": tvs[:, 0]} | {f"r_{i}": tvs[:, i] for i in range(1, n_species)},
        meta={
            "h": h,
            "scheme": scheme,
            "n_species": n_species,
            "normalization": "p = (1/N) sum_i u_i; dp/dt = (p p_x)_x with no time rescaling",
            "steps": step,
            "dt_min": float(min(dts)),
            "dt_max": float(max(dts)),
        },
    )
    record.meta["pressure_increments"] = np.asarray(w2_p)
    check_tv_monotone(record, "p")
    for i in range(n_species - 1):
        check_tv_monotone(record, f"r_{i + 1}")
    if scheme == "pressure_transport":
        check_metric_speed(record, np.asarray(w2_p), n_species)
    return HyperbolicRun(trajectory, pressures, record.finish(strict))
