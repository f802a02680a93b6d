"""The rank-deficient (hyperbolic-parabolic) cross-diffusion model in 1D.

With the uniform coupling a_ij = 1/N all species share one pressure
p = (1/N) sum_j u_j.  Summing the system shows p solves the porous-medium
equation dp/dt = (p p_x)_x directly under this normalization (no time
rescaling needed), while the fractions r_i = u_i / sum_j u_j ride along the
pressure gradient: dr/dt = p_x r_x.

Two schemes are provided:

* ``step_splitting``: explicit monotone finite-volume step for p (TVD by
  Harten's lemma under the stated CFL bound) followed by first-order upwind
  transport of the fractions (maximum principle, TV nonincreasing).

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
from .transport1d import _plan, _plan_w2, _w2_product

SUPPORT_EPS = 1e-12
CFL_SAFETY = 0.45  # automatic steps take this fraction of splitting_stable_dt
SPLIT_MASS_TOL = 1e-5  # species mass tolerance along a split run (see recover_species)
TRANSPORT_MASS_TOL = 1e-10  # species mass tolerance after a plan transport
MAX_STEPS = 10_000_000  # a run that needs more steps raises RuntimeError


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
    return _checked_unit_mass(vals, h, SPLIT_MASS_TOL, "species")


def recover_species(pf: PressureFraction) -> DensityVector:
    """Inverse transformation u_i = N p r_i, u_N = N p (1 - sum r_i).

    Species masses are exact for states produced by split_state; along a
    split run they are conserved only up to the Lie-splitting truncation, so
    the mass tolerance is relaxed to SPLIT_MASS_TOL and conservation is
    checked by run_hyperbolic instead.
    """
    vals = _recover(pf.pressure.values, pf.fractions, pf.grid.h)
    return DensityVector(pf.grid, vals, mass_tol=SPLIT_MASS_TOL)


def tv(field: np.ndarray) -> float:
    """Discrete total variation: sum of absolute cell-to-cell increments."""
    field = np.asarray(field, dtype=float)
    return float(np.abs(np.diff(field)).sum())


def _extend_constant_off_support(r: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Fill fractions on zero-pressure cells from the nearest support cell.

    Mass leaking into a vacuum region must carry the composition of the side
    it came from, so every p = 0 cell (including interior gaps between
    support components) copies the closest supported cell, ties going left.
    """
    idx = np.nonzero(support)[0]
    if idx.size == 0 or idx.size == r.shape[1]:
        return r
    cells = np.arange(r.shape[1])
    pos = np.searchsorted(idx, cells)
    left = idx[np.clip(pos - 1, 0, idx.size - 1)]
    right = idx[np.clip(pos, 0, idx.size - 1)]
    nearest = np.where(np.abs(cells - left) <= np.abs(right - cells), left, right)
    return r[:, nearest]


def _stable_dt(p: np.ndarray, h: float) -> float:
    bound = np.inf
    pmax = float(p.max())
    if pmax > 0.0:
        bound = 0.5 * h**2 / pmax
    vmax = float((np.abs(np.diff(p)) / h).max())
    if vmax > 0.0:
        bound = min(bound, h / vmax)
    return bound


def splitting_stable_dt(pf: PressureFraction) -> float:
    """min of the diffusion bound h^2/(2 max p) and the transport CFL h/max|p_x|."""
    return _stable_dt(pf.pressure.values, pf.grid.h)


def _split(p: np.ndarray, r: np.ndarray, dt: float, h: float):
    """Kernel of step_splitting on arrays; returns the checked (p_new, r_new)."""
    slope = np.diff(p) / h  # p_x at interfaces
    flux = 0.5 * (p[1:] + p[:-1]) * slope
    p_new = p.copy()
    p_new[:-1] += (dt / h) * flux
    p_new[1:] -= (dt / h) * flux

    support = p > SUPPORT_EPS
    r = _extend_constant_off_support(r, support)
    # upwind with interface velocities w = -p_x: a symmetric stagnation
    # interface has w = 0 exactly and passes nothing, so segregated halves
    # never mix; Harten's lemma gives TV decay under the same CFL bound
    w = -slope
    wp = np.maximum(w, 0.0)
    wm = np.minimum(w, 0.0)
    jumps = r[:, 1:] - r[:, :-1]
    r_new = r.copy()
    r_new[:, 1:] -= (dt / h) * wp * jumps
    r_new[:, :-1] -= (dt / h) * wm * jumps
    r_new = np.clip(r_new, 0.0, 1.0)

    if np.abs(p_new.sum() - p.sum()) * h > 1e-12:
        raise EstimateFailed("pressure mass drifted beyond 1e-12 in one step")
    p_new = _checked_unit_mass(p_new, h, MASS_TOL_1D, "pressure")
    # the clip bounds each fraction; their sum must stay within 1 as well
    if not r_new.sum(axis=0).max() <= 1.0 + 1e-12:
        raise InvalidDensity("fractions sum beyond 1")
    return p_new, r_new


def step_splitting(pf: PressureFraction, dt: float) -> PressureFraction:
    """One Lie-split step: monotone FV pressure update, then upwind fractions.

    The pressure flux p_bar p_x at interfaces with no-flux ends conserves
    mass exactly and is TVD under the stated bound; the fractions ride the
    frozen velocity -p_x by first-order upwind in transport form, extended
    constant outside the (old) pressure support so the off-support convention
    r = 0 does not generate spurious variation.
    """
    dt_max = splitting_stable_dt(pf)
    if dt > dt_max:
        raise CFLViolation(dt, dt_max)
    p_new, r_new = _split(pf.pressure.values, pf.fractions, dt, pf.grid.h)
    return PressureFraction(Density(pf.grid, p_new), r_new)


def _transport(u: np.ndarray, p: np.ndarray, p_next: np.ndarray, h: float):
    """Kernel of pressure_transport_step; also returns the plan from p to p_next."""
    if h * float(np.abs(u.mean(axis=0) - p).sum()) > 1e-9:
        raise InvalidDensity("pressure disagrees with the species average beyond 1e-9")
    p_mass = p * h
    plan = _plan(p_mass, p_next * h)
    src, dst, seg = plan
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(p_mass[src] > 0.0, u[:, src] / p[src], 0.0)
    u_next = np.stack([np.bincount(dst, w, minlength=p.size) for w in seg * ratios / h])
    return _checked_unit_mass(u_next, h, TRANSPORT_MASS_TOL, "species"), plan


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
    u_next, _ = _transport(u_prev.values, p_prev.values, p_next.values, grid.h)
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

    ``scheme`` is ``splitting`` (pressure diffusion + fraction transport) or
    ``pressure_transport`` (species pushed by the pressure's optimal plans;
    the pressure trajectory itself always comes from the splitting p-step).
    ``t_final`` and ``dt`` (an upper bound on the automatic step) must be
    finite and positive.  Records per step: TV(p), TV(r_i), W2 increments of
    u and p; ``meta`` carries the step count and the smallest and largest
    step.  Asserts TV monotonicity for both fields and, for the transport
    scheme, the sqrt(N)-metric-speed bound, when ``strict``.  The TV(r_i)
    series of both schemes are the upwind fractions of the splitting step;
    for ``pressure_transport`` they are not the fractions of the transported
    species, which can gain total variation.
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
    pf = PressureFraction(
        pf.pressure,
        _extend_constant_off_support(pf.fractions, pf.pressure.values > SUPPORT_EPS),
    )
    state_u = recover_species(pf) if scheme == "splitting" else u0
    species_tol = SPLIT_MASS_TOL if scheme == "splitting" else TRANSPORT_MASS_TOL
    p, r, u = pf.pressure.values, pf.fractions, state_u.values

    times = [0.0]
    tvs_p = [tv(p)]
    tvs_r = [[tv(r[i])] for i in range(n_species - 1)]
    w2_u = []
    w2_p = []
    dts = []
    trajectory = [state_u]
    pressures = [pf.pressure]

    t = 0.0
    step = 0
    while t < t_final and step < MAX_STEPS:
        dt_k = CFL_SAFETY * _stable_dt(p, h)  # below the bound, so no CFL guard
        if dt is not None:
            dt_k = min(dt_k, dt)
        dt_k = min(dt_k, t_final - t)
        p_new, r_new = _split(p, r, dt_k, h)
        if scheme == "splitting":
            u_new = _recover(p_new, r_new, h)
            plan = _plan(p * h, p_new * h)
        else:
            u_new, plan = _transport(u, p, p_new, h)
        w2_u.append(_w2_product(u, u_new, h, x))
        w2_p.append(_plan_w2(plan, x))
        dts.append(dt_k)
        t += dt_k
        step += 1
        times.append(t)
        tvs_p.append(tv(p_new))
        for i in range(n_species - 1):
            tvs_r[i].append(tv(r_new[i]))
        p, r, u = p_new, r_new, u_new
        if snapshot_every and step % snapshot_every == 0:
            trajectory.append(DensityVector(grid, u, mass_tol=species_tol))
            pressures.append(Density(grid, p))
    if t < t_final:
        raise RuntimeError("hyperbolic run exceeded the step budget")
    if not snapshot_every or step % snapshot_every != 0:
        trajectory.append(DensityVector(grid, u, mass_tol=species_tol))
        pressures.append(Density(grid, p))

    record = RunRecord(
        times=np.asarray(times),
        w2_increments=np.asarray(w2_u),
        tv={"p": np.asarray(tvs_p)}
        | {f"r_{i + 1}": np.asarray(tvs_r[i]) for i in range(n_species - 1)},
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
