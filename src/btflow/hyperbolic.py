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
  h^2/(2 max p).  Fractions stay in [0, 1] and TV(r) does not grow.

* ``pressure_transport_step``: the constructive route -- every species is
  pushed by the same monotone optimal plan that transports p_k to p_{k+1}.
  Each source cell splits its species mass over its plan segments in the
  shares of the mass it sends along each, so the push conserves species
  mass to rounding.  On cell histograms the plan is exact, so the projection
  identity and the sqrt(N) metric-speed bound hold to machine precision.

The public step functions run the array kernels of ``run_hyperbolic`` and
check their one step as a run checks a chunk.  A run validates ``u0``,
``t_final`` and ``dt`` once.  Per step it keeps only the guard whose result
feeds the next step: a pressure cell below -1e-13 or NaN raises
InvalidDensity at once, and cells in [-1e-13, 0) are clamped at 0.  The other
invariants of every step are checked once per chunk of CHUNK_STEPS steps, on
its stacked states: pressure mass drift per step (1e-12, EstimateFailed),
pressure unit mass, fractions summing to at most 1 + 1e-12, species unit mass
(MASS_TOL_1D, as every 1D density) and, for the plan transport, the species
average equal to the pressure within 1e-9 (InvalidDensity).  A failing step
raises once its chunk is computed.  Density objects are built only for the
snapshots and the final state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagnostics import RunRecord, check_metric_speed, check_tv_monotone
from .errors import CFLViolation, DimensionMismatch, EstimateFailed, InvalidDensity, NonpositiveTime
from .measures import MASS_TOL_1D, Density, DensityVector, Grid1D
from .transport1d import _plans, _plans_cost

SUPPORT_EPS = 1e-12
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
    def n_species(self) -> int:
        return self.fractions.shape[0] + 1

    @property
    def grid(self) -> Grid1D:
        return self.pressure.grid


def split_state(u: DensityVector) -> PressureFraction:
    """Change of unknowns u -> (p, r); r = 0 where the pressure vanishes."""
    total = u.values.sum(axis=0)
    p = total / u.n_species
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(total > SUPPORT_EPS, u.values[:-1] / total, 0.0)
    return PressureFraction(Density(u.grid, p), np.clip(r, 0.0, 1.0))


def _recover(p: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Kernel of recover_species: the (..., N, n) species of pressures (..., n) and fractions (..., N-1, n)."""
    total = (r.shape[-2] + 1) * p[..., None, :]
    r_last = np.clip(1.0 - r.sum(axis=-2, keepdims=True), 0.0, 1.0)
    vals = np.concatenate([r * total, r_last * total], axis=-2)
    return np.where(total > SUPPORT_EPS, vals, 0.0)


def recover_species(pf: PressureFraction) -> DensityVector:
    """Inverse transformation u_i = N p r_i, u_N = N p (1 - sum r_i).

    Every species must have unit mass within MASS_TOL_1D, as every density.
    """
    return DensityVector(pf.grid, _recover(pf.pressure.values, pf.fractions))


def tv(field: np.ndarray) -> float:
    """Discrete total variation: sum of absolute cell-to-cell increments."""
    field = np.asarray(field, dtype=float)
    return float(np.abs(np.diff(field)).sum())


def _off_support_fill(support: np.ndarray):
    """Cell map r[:, fill] that fills fractions on zero-pressure cells.

    The flux gives a cell that first receives mass its donor's fraction, but
    the TV series read every cell, so every p = 0 cell (including interior gaps
    between support components) copies the closest supported cell, ties left.
    """
    idx = np.nonzero(support)[0]
    if idx.size == 0 or idx.size == support.size:
        return slice(None)
    cells = np.arange(support.size)
    pos = np.searchsorted(idx, cells)
    left = idx[np.clip(pos - 1, 0, idx.size - 1)]
    right = idx[np.clip(pos, 0, idx.size - 1)]
    return np.where(np.abs(cells - left) <= np.abs(right - cells), left, right)


def _stable_dt(p: np.ndarray, slope: np.ndarray, h: float) -> float:
    """splitting_stable_dt of p, given its interface slopes diff(p) / h."""
    bound = np.inf
    pmax = float(p.max())
    if pmax > 0.0:
        bound = 0.5 * h**2 / pmax
    vmax = float(np.abs(slope).max())
    if vmax > 0.0:
        bound = min(bound, h / vmax)
    return bound


def splitting_stable_dt(pf: PressureFraction) -> float:
    """min of the diffusion bound h^2/(2 max p) and the transport CFL h/max|p_x|."""
    p = pf.pressure.values
    return _stable_dt(p, np.diff(p) / pf.grid.h, pf.grid.h)


def _split_checks(pressure: np.ndarray, fractions: np.ndarray, h: float) -> list:
    """Checks of the _split steps between the (K+1, n) pressures, which give the (K, N-1, n) fractions."""
    mass = pressure.sum(axis=-1)
    drift = np.abs(h * mass[1:] - 1.0)
    return [
        (EstimateFailed, "pressure mass drifted beyond 1e-12 in one step", np.abs(np.diff(mass)) * h > 1e-12),
        (InvalidDensity, f"pressure mass deviates from 1 beyond {MASS_TOL_1D}", ~(drift <= MASS_TOL_1D)),
        (InvalidDensity, "fractions sum beyond 1", ~(fractions.sum(axis=1).max(axis=-1) <= 1.0 + 1e-12)),
    ]


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


def _split(p: np.ndarray, r: np.ndarray, dt: float, slope: np.ndarray, h: float):
    """(p_new, r_new) of step_splitting, given r extended and slope = diff(p) / h.

    The sign guard is the one check made here, as the next step reads its
    result; _split_checks holds the other invariants.
    """
    moved = (dt / h) * (0.5 * (p[1:] + p[:-1]) * slope)  # pressure moved leftward across each interface
    p_new = p.copy()
    p_new[:-1] += moved
    p_new[1:] -= moved
    low = p_new.min()
    if not low >= -1e-13:  # also rejects NaN
        raise InvalidDensity(f"pressure values must be nonnegative, found {low!r}")
    if low < 0.0:
        p_new = np.maximum(p_new, 0.0)

    # donor-cell fractions; a p_new = 0 cell receives nothing (the floor only avoids
    # 0/0), and a symmetric stagnation interface moves 0 exactly, so halves never mix
    inv = 1.0 / np.maximum(p_new, np.finfo(float).tiny)
    jumps = r[:, 1:] - r[:, :-1]
    r_new = r.copy()
    r_new[:, :-1] += (np.maximum(moved, 0.0) * inv[:-1]) * jumps
    r_new[:, 1:] += (np.minimum(moved, 0.0) * inv[1:]) * jumps
    # the clip bounds each fraction; _split_checks bounds their sum
    return p_new, r_new.clip(0.0, 1.0)


def step_splitting(pf: PressureFraction, dt: float) -> PressureFraction:
    """One step: monotone FV pressure update whose flux carries the species.

    The pressure flux p_bar p_x with no-flux ends conserves mass exactly and
    is TVD under the stated bound; it carries each species at its donor
    cell's fraction.  Fractions are extended constant off the (old) pressure
    support, so the convention r = 0 there adds no spurious variation.
    """
    p, h = pf.pressure.values, pf.grid.h
    slope = np.diff(p) / h
    dt_max = _stable_dt(p, slope, h)
    if dt > dt_max:
        raise CFLViolation(dt, dt_max)
    p_new, r_new = _split(p, pf.fractions[:, _off_support_fill(p > SUPPORT_EPS)], dt, slope, h)
    _raise_first(_split_checks(np.stack([p, p_new]), r_new[None], h), 1)
    return PressureFraction(Density(pf.grid, p_new), r_new)


def _transport(u: np.ndarray, plans) -> np.ndarray:
    """The (K+1, N, n) species from u (N, n), pushed in turn along each of the K padded plans.

    Each source cell splits every species' mass over the segments its plan
    row sends from that cell, in proportion to their masses, so a push
    conserves species mass to rounding.  Row 0 is u.
    """
    src, dst, seg = plans
    n_rows = len(src)
    n_species, n = u.shape
    # mass each row sends from each cell, one bincount: row k fills bins k*n .. k*n + n - 1
    rows = n * np.arange(n_rows)[:, None]
    sent = np.bincount((src + rows).ravel(), seg.ravel(), minlength=n_rows * n).reshape(n_rows, n)
    share = seg / np.take_along_axis(np.where(sent > 0.0, sent, np.inf), src, axis=1)  # a pad gets 0
    # one bincount per push for all species: species i deposits into bins i*n .. i*n + n - 1
    lanes = n * np.arange(n_species)[:, None]
    species = np.empty((n_rows + 1, n_species, n))
    species[0] = u
    for k in range(n_rows):
        carried = share[k] * species[k].take(src[k], axis=1)
        bins = (dst[k] + lanes).ravel()
        species[k + 1] = np.bincount(bins, carried.ravel(), minlength=n_species * n).reshape(n_species, n)
    return species


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
    finite and positive.  Records per step: TV(p), TV(r_i), W2 increments of
    u and p; ``meta`` carries the step count and the smallest and largest
    step.  Asserts TV monotonicity for both fields and, for the transport
    scheme, the sqrt(N)-metric-speed bound, when ``strict``.  The TV(r_i)
    series of both schemes read the fractions of the splitting flux, which
    the transported species match within about 1e-11 in L1.  Their own
    u_i / (N p) is plan rounding where p is near 1e-12 (0.86 for a pure
    species at p = 1.6e-12), and its TV rose by 0.48 on a benchmark input.
    The run advances in chunks of CHUNK_STEPS steps.  Per step it checks only
    the pressure's sign; the other invariants of every step are checked per
    chunk (see the module docstring), and a step that fails one raises, once
    its chunk is computed, the error the check raises on a single step.
    """
    if scheme not in ("splitting", "pressure_transport"):
        raise ValueError(f"unknown scheme {scheme!r}")
    if not (np.isfinite(t_final) and t_final > 0.0):
        raise NonpositiveTime(f"t_final must be finite and positive, got {t_final!r}")
    if dt is not None and not (np.isfinite(dt) and dt > 0.0):
        raise NonpositiveTime(f"dt must be finite and positive, got {dt!r}")
    n_species = u0.n_species
    grid = u0.grid
    h = grid.h
    x = grid.centers()
    pf = split_state(u0)
    support = pf.pressure.values > SUPPORT_EPS
    fill = _off_support_fill(support)
    pf = PressureFraction(pf.pressure, pf.fractions[:, fill])
    state_u = recover_species(pf) if scheme == "splitting" else u0
    p, r, u = pf.pressure.values, pf.fractions, state_u.values

    times = [0.0]
    tvs_p = [tv(p)]
    tvs_r = [[tv(ri) for ri in r]]
    w2_u = []
    w2_p = []
    dts = []
    trajectory = [state_u]
    pressures = [pf.pressure]

    t = 0.0
    step = 0
    while t < t_final and step < MAX_STEPS:
        # up to CHUNK_STEPS steps of the pressure and fractions under the sign guard ...
        ps, rs = [p], [r]
        while len(ps) <= CHUNK_STEPS and t < t_final and step < MAX_STEPS:
            slope = (p[1:] - p[:-1]) / h  # np.diff(p) / h without its call overhead
            dt_k = CFL_SAFETY * _stable_dt(p, slope, h)  # below the bound, so no CFL guard
            if dt is not None:
                dt_k = min(dt_k, dt)
            dt_k = min(dt_k, t_final - t)
            on = p > SUPPORT_EPS
            if not np.array_equal(on, support):
                support, fill = on, _off_support_fill(on)
            p, r = _split(p, r[:, fill], dt_k, slope, h)
            ps.append(p)
            rs.append(r)
            dts.append(dt_k)
            t += dt_k
            times.append(t)
            step += 1
        # ... then the chunk's checks, plans, species, W2 increments and TV at once
        first = step + 2 - len(ps)
        pressure, fractions = np.stack(ps), np.stack(rs)
        checks = _split_checks(pressure, fractions[1:], h)
        if scheme == "splitting":
            species = _recover(pressure, fractions)
            checks.append(_species_check(species[1:], h))
        _raise_first(checks, first)
        plans = _plans(pressure[:-1] * h, pressure[1:] * h)
        if scheme == "pressure_transport":
            species = _transport(u, plans)
            _raise_first(_push_checks(species, pressure[:-1], h), first)
        rows = species.reshape(-1, grid.n_cells) * h  # step k's species are rows k*N .. k*N + N - 1
        costs = _plans_cost(_plans(rows[:-n_species], rows[n_species:]), x)
        w2_u += np.sqrt(costs.reshape(-1, n_species).sum(axis=1)).tolist()
        w2_p += np.sqrt(_plans_cost(plans, x)).tolist()
        tvs_p += np.abs(np.diff(pressure[1:])).sum(axis=-1).tolist()
        tvs_r += np.abs(np.diff(fractions[1:])).sum(axis=-1).tolist()
        u = species[-1]
        for k in range(1, len(ps)):
            if snapshot_every and (first - 1 + k) % snapshot_every == 0:
                # copies: a view would keep the whole chunk's stack alive
                trajectory.append(DensityVector(grid, species[k].copy()))
                pressures.append(Density(grid, pressure[k].copy()))
    if t < t_final:
        raise RuntimeError("hyperbolic run exceeded the step budget")
    if not snapshot_every or step % snapshot_every != 0:
        trajectory.append(DensityVector(grid, u))
        pressures.append(Density(grid, p))

    record = RunRecord(
        times=np.asarray(times),
        w2_increments=np.asarray(w2_u),
        tv={"p": np.asarray(tvs_p)}
        | {f"r_{i + 1}": np.asarray(tvs_i) for i, tvs_i in enumerate(zip(*tvs_r))},
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
    mass_drift = float(np.abs(h * u.sum(axis=1) - 1.0).max())
    record.check("species_mass_conserved", mass_drift, tolerance=1e-9)
    return HyperbolicRun(trajectory, pressures, record.finish(strict))
