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
  On cell histograms the plan is exact, so mass conservation, the projection
  identity and the sqrt(N) metric-speed bound hold to machine precision.

The public step functions wrap the array kernels ``run_hyperbolic`` steps
with.  A run validates ``u0``, ``t_final`` and ``dt`` once; each kernel checks
the invariants the Density types enforce (cells >= -1e-13, unit masses,
fractions in [0, 1], species average equal to the pressure) in vectorised
form, raising InvalidDensity.  Density objects are built only for the
snapshots and the final state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagnostics import RunRecord, check_metric_speed, check_tv_monotone
from .errors import CFLViolation, DimensionMismatch, EstimateFailed, InvalidDensity, NonpositiveTime
from .measures import MASS_TOL_1D, Density, DensityVector, Grid1D, _checked_unit_mass
from .transport1d import _plans, _plans_w2, _w2_product, monotone_plan

SUPPORT_EPS = 1e-12
CFL_SAFETY = 0.45  # automatic steps take this fraction of splitting_stable_dt
TRANSPORT_MASS_TOL = 1e-10  # species mass tolerance of both schemes
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


def _recover(p: np.ndarray, r: np.ndarray, h: float) -> np.ndarray:
    """Kernel of recover_species on the pressure and fraction arrays."""
    total = (r.shape[0] + 1) * p
    r_last = np.clip(1.0 - r.sum(axis=0), 0.0, 1.0)
    vals = np.vstack([r * total, (r_last * total)[None, :]])
    vals = np.where(total[None, :] > SUPPORT_EPS, vals, 0.0)
    return _checked_unit_mass(vals, h, TRANSPORT_MASS_TOL, "species")


def recover_species(pf: PressureFraction) -> DensityVector:
    """Inverse transformation u_i = N p r_i, u_N = N p (1 - sum r_i).

    Every species must have unit mass within TRANSPORT_MASS_TOL.
    """
    vals = _recover(pf.pressure.values, pf.fractions, pf.grid.h)
    return DensityVector(pf.grid, vals, mass_tol=TRANSPORT_MASS_TOL)


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


def _split(p: np.ndarray, r: np.ndarray, dt: float, slope: np.ndarray, h: float):
    """Checked (p_new, r_new) of step_splitting, given r extended and slope = diff(p) / h."""
    moved = (dt / h) * (0.5 * (p[1:] + p[:-1]) * slope)  # pressure moved leftward across each interface
    p_new = p.copy()
    p_new[:-1] += moved
    p_new[1:] -= moved
    if np.abs(p_new.sum() - p.sum()) * h > 1e-12:
        raise EstimateFailed("pressure mass drifted beyond 1e-12 in one step")
    p_new = _checked_unit_mass(p_new, h, MASS_TOL_1D, "pressure")

    # donor-cell fractions; a p_new = 0 cell receives nothing (the floor only avoids
    # 0/0), and a symmetric stagnation interface moves 0 exactly, so halves never mix
    inv = 1.0 / np.maximum(p_new, np.finfo(float).tiny)
    jumps = r[:, 1:] - r[:, :-1]
    r_new = r.copy()
    r_new[:, :-1] += (np.maximum(moved, 0.0) * inv[:-1]) * jumps
    r_new[:, 1:] += (np.minimum(moved, 0.0) * inv[1:]) * jumps
    r_new = np.clip(r_new, 0.0, 1.0)
    # the clip bounds each fraction; their sum must stay within 1 as well
    if not r_new.sum(axis=0).max() <= 1.0 + 1e-12:
        raise InvalidDensity("fractions sum beyond 1")
    return p_new, r_new


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
    return PressureFraction(Density(pf.grid, p_new), r_new)


def _transport(u: np.ndarray, p: np.ndarray, plan, h: float) -> np.ndarray:
    """Kernel of pressure_transport_step along a (padded) monotone plan of p * h to p_next * h."""
    if h * float(np.abs(u.mean(axis=0) - p).sum()) > 1e-9:
        raise InvalidDensity("pressure disagrees with the species average beyond 1e-9")
    src, dst, seg = plan
    n_species, n = u.shape
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(p[src] * h > 0.0, u[:, src] / p[src], 0.0)
    # one bincount for all species: species i deposits into bins i*n .. i*n + n - 1
    bins = dst + n * np.arange(n_species)[:, None]
    u_next = np.bincount(bins.ravel(), (seg * ratios / h).ravel(), minlength=n_species * n)
    return _checked_unit_mass(u_next.reshape(n_species, n), h, TRANSPORT_MASS_TOL, "species")


def pressure_transport_step(
    u_prev: DensityVector, p_prev: Density, p_next: Density
) -> DensityVector:
    """Push every species by the monotone plan transporting p_prev to p_next.

    Each species' cell mass moves proportionally along the shared plan, so
    the average of the result is exactly p_next and the squared transport
    costs sum to N * W2(p_prev, p_next)^2, which is the discrete form of the
    metric-speed inequality.
    """
    grid = u_prev.grid
    if not grid == p_prev.grid == p_next.grid:
        raise DimensionMismatch("species and pressures live on different grids")
    u_next = _transport(u_prev.values, p_prev.values, monotone_plan(p_prev, p_next), grid.h)
    return DensityVector(grid, u_next, mass_tol=TRANSPORT_MASS_TOL)


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
    The run advances in chunks of CHUNK_STEPS steps: every per-step check
    runs on every step, and the plans, W2 increments and TV series are
    computed per chunk from its recorded states.
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
        # up to CHUNK_STEPS checked steps of the pressure and fractions ...
        ps, rs, us = [p], [r], [u]
        while len(ps) <= CHUNK_STEPS and t < t_final and step < MAX_STEPS:
            slope = np.diff(p) / h
            dt_k = CFL_SAFETY * _stable_dt(p, slope, h)  # below the bound, so no CFL guard
            if dt is not None:
                dt_k = min(dt_k, dt)
            dt_k = min(dt_k, t_final - t)
            on = p > SUPPORT_EPS
            if not np.array_equal(on, support):
                support, fill = on, _off_support_fill(on)
            p, r = _split(p, r[:, fill], dt_k, slope, h)
            if scheme == "splitting":
                us.append(_recover(p, r, h))
            ps.append(p)
            rs.append(r)
            dts.append(dt_k)
            t += dt_k
            times.append(t)
            step += 1
        # ... then the chunk's plans, W2 increments and TV at once (species pushed step by step)
        pressure = np.stack(ps)
        plans = _plans(pressure[:-1] * h, pressure[1:] * h)
        if scheme == "pressure_transport":
            for k in range(len(ps) - 1):
                us.append(_transport(us[k], ps[k], [v[k] for v in plans], h))
        species = np.stack(us)
        w2_u += _w2_product(species[:-1], species[1:], h, x)
        w2_p += _plans_w2(plans, x)
        tvs_p += np.abs(np.diff(pressure[1:])).sum(axis=-1).tolist()
        tvs_r += np.abs(np.diff(np.stack(rs[1:]))).sum(axis=-1).tolist()
        u = us[-1]
        for k in range(1, len(ps)):
            if snapshot_every and (step + 1 - len(ps) + k) % snapshot_every == 0:
                trajectory.append(DensityVector(grid, us[k], mass_tol=TRANSPORT_MASS_TOL))
                pressures.append(Density(grid, ps[k]))
    if t < t_final:
        raise RuntimeError("hyperbolic run exceeded the step budget")
    if not snapshot_every or step % snapshot_every != 0:
        trajectory.append(DensityVector(grid, u, mass_tol=TRANSPORT_MASS_TOL))
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
