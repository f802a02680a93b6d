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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagnostics import CheckResult, RunRecord, check_metric_speed, check_tv_monotone
from .errors import CFLViolation, DimensionMismatch, EstimateFailed
from .measures import Density, DensityVector, Grid1D
from .transport1d import monotone_plan, w2_exact, w2_product

SUPPORT_EPS = 1e-12
CFL_SAFETY = 0.45  # automatic steps take this fraction of splitting_stable_dt


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
            raise ValueError("fractions must lie in [0, 1] and sum to at most 1")

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


def recover_species(pf: PressureFraction) -> DensityVector:
    """Inverse transformation u_i = N p r_i, u_N = N p (1 - sum r_i).

    Species masses are exact for states produced by split_state; along a
    split run they are conserved only up to the Lie-splitting truncation, so
    the constructor tolerance is relaxed and conservation is checked by
    run_hyperbolic instead.
    """
    total = pf.n_species * pf.pressure.values
    r_last = np.clip(1.0 - pf.fractions.sum(axis=0), 0.0, 1.0)
    vals = np.vstack([pf.fractions * total, (r_last * total)[None, :]])
    vals = np.where(total[None, :] > SUPPORT_EPS, vals, 0.0)
    return DensityVector(pf.grid, vals, mass_tol=1e-5)


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


def splitting_stable_dt(pf: PressureFraction) -> float:
    """min of the diffusion bound h^2/(2 max p) and the transport CFL h/max|p_x|."""
    grid = pf.grid
    p = pf.pressure.values
    bound = np.inf
    pmax = float(p.max())
    if pmax > 0.0:
        bound = 0.5 * grid.h**2 / pmax
    v = np.abs(np.diff(p)) / grid.h
    vmax = float(v.max()) if v.size else 0.0
    if vmax > 0.0:
        bound = min(bound, grid.h / vmax)
    return bound


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
    grid = pf.grid
    h = grid.h
    p = pf.pressure.values

    slope = np.diff(p) / h  # p_x at interfaces
    flux = 0.5 * (p[1:] + p[:-1]) * slope
    p_new = p.copy()
    p_new[:-1] += (dt / h) * flux
    p_new[1:] -= (dt / h) * flux

    support = p > SUPPORT_EPS
    r = _extend_constant_off_support(pf.fractions, support)
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
    return PressureFraction(Density(grid, p_new), r_new)


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
    pi_u = u_prev.values.mean(axis=0)
    if grid.h * float(np.abs(pi_u - p_prev.values).sum()) > 1e-9:
        raise ValueError("pressure disagrees with the species average beyond 1e-9")
    src, dst, seg = monotone_plan(p_prev, p_next)
    p_mass = p_prev.values * grid.h
    new_vals = np.zeros_like(u_prev.values)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(
            p_mass[src] > 0.0, u_prev.values[:, src] / p_prev.values[src], 0.0
        )
    for i in range(u_prev.n_species):
        np.add.at(new_vals[i], dst, seg * ratios[i] / grid.h)
    return DensityVector(grid, new_vals, mass_tol=1e-10)


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
    max_steps: int = 10_000_000,
) -> HyperbolicRun:
    """Advance the rank-deficient system and monitor its BV/metric estimates.

    ``scheme`` is ``splitting`` (pressure diffusion + fraction transport) or
    ``pressure_transport`` (species pushed by the pressure's optimal plans;
    the pressure trajectory itself always comes from the splitting p-step).
    Records per step: TV(p), TV(r_i), W2 increments of u and p.  Asserts TV
    monotonicity for both fields and, for the transport scheme, the
    sqrt(N)-metric-speed bound, when ``strict``.
    """
    if scheme not in ("splitting", "pressure_transport"):
        raise ValueError(f"unknown scheme {scheme!r}")
    n_species = u0.n_species
    grid = u0.grid
    pf = split_state(u0)
    pf = PressureFraction(
        pf.pressure,
        _extend_constant_off_support(pf.fractions, pf.pressure.values > SUPPORT_EPS),
    )
    state_u = recover_species(pf) if scheme == "splitting" else u0

    times = [0.0]
    tvs_p = [tv(pf.pressure.values)]
    tvs_r = [[tv(pf.fractions[i])] for i in range(n_species - 1)]
    w2_u = []
    w2_p = []
    trajectory = [state_u]
    pressures = [pf.pressure]

    t = 0.0
    step = 0
    while t < t_final and step < max_steps:
        dt_k = CFL_SAFETY * splitting_stable_dt(pf)
        if dt is not None:
            dt_k = min(dt_k, dt)
        dt_k = min(dt_k, t_final - t)
        pf_new = step_splitting(pf, dt_k)
        if scheme == "splitting":
            u_new = recover_species(pf_new)
        else:
            u_new = pressure_transport_step(state_u, pf.pressure, pf_new.pressure)
        w2_u.append(w2_product(state_u, u_new))
        w2_p.append(w2_exact(pf.pressure, pf_new.pressure))
        t += dt_k
        step += 1
        times.append(t)
        tvs_p.append(tv(pf_new.pressure.values))
        for i in range(n_species - 1):
            tvs_r[i].append(tv(pf_new.fractions[i]))
        pf = pf_new
        state_u = u_new
        if snapshot_every and step % snapshot_every == 0:
            trajectory.append(state_u)
            pressures.append(pf.pressure)
    if t < t_final:
        raise RuntimeError("hyperbolic run exceeded the step budget")
    if not snapshot_every or step % snapshot_every != 0:
        trajectory.append(state_u)
        pressures.append(pf.pressure)

    record = RunRecord(
        times=np.asarray(times),
        w2_increments=np.asarray(w2_u),
        tv={"p": np.asarray(tvs_p)}
        | {f"r_{i + 1}": np.asarray(tvs_r[i]) for i in range(n_species - 1)},
        meta={
            "h": grid.h,
            "scheme": scheme,
            "n_species": n_species,
            "normalization": "p = (1/N) sum_i u_i; dp/dt = (p p_x)_x with no time rescaling",
        },
    )
    record.meta["pressure_increments"] = np.asarray(w2_p)
    check_tv_monotone(record, "p")
    for i in range(n_species - 1):
        check_tv_monotone(record, f"r_{i + 1}")
    if scheme == "pressure_transport":
        check_metric_speed(record, np.asarray(w2_p), n_species)
    mass_drift = float(
        np.abs(grid.h * state_u.values.sum(axis=1) - 1.0).max()
    )
    record.add_check(
        CheckResult("species_mass_conserved", mass_drift <= 1e-9, 1e-9 - mass_drift, 1e-9)
    )
    return HyperbolicRun(trajectory, pressures, record.finish(strict))
