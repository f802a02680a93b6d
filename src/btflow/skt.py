"""Correlated joint-density dynamics for two interacting species in 1D.

The pair state is a probability density p(x1, x2) on the square, evolving by
dp/dt = div(M(|x1 - x2|) p grad p) with a mobility concentrated near the
diagonal.  Product (uncorrelated) initial data does not stay a product: the
relative entropy of p against the product of its own marginals starts at
zero and grows once the support reaches the diagonal band.  A decoupled
variant evolves the marginals themselves with the nonlocally averaged
mobility coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagnostics import CheckResult, RunRecord
from .errors import CFLViolation, DimensionMismatch, EstimateFailed, NegativityDetected
from .measures import Density, Grid2D, JointDensity

ENTROPY_FLOOR = 1e-300
CONTACT_BAND_MASS = 1e-4  # band mass that marks the first diagonal contact


@dataclass(frozen=True)
class MobilityField:
    """Mobility M(|x1 - x2|) tabulated per cell, with its recorded bounds."""

    grid: Grid2D
    values: np.ndarray
    sigma: float
    c_floor: float

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.shape != (self.grid.n1, self.grid.n2):
            raise DimensionMismatch("mobility shape does not match the grid")
        if vals.min() <= 0.0:
            raise ValueError("mobility must be strictly positive")

    @property
    def lower_bound(self) -> float:
        return float(self.values.min())

    @property
    def upper_bound(self) -> float:
        return float(self.values.max())


@dataclass(frozen=True)
class MarginalPair:
    u1: Density
    u2: Density


def build_mobility(grid: Grid2D, sigma: float, c_floor: float) -> MobilityField:
    """Gaussian bump on the diagonal over a positive floor.

    M(s) = c_floor + Z exp(-s^2 / (2 sigma^2)) with Z = 1/(sigma sqrt(2 pi)),
    so the 1D integral of M - c_floor is one (delta normalization); halving
    sigma doubles the peak.
    """
    if sigma <= 0.0 or c_floor <= 0.0:
        raise ValueError("sigma and c_floor must be positive")
    c1, c2 = grid.centers()
    s = c1[:, None] - c2[None, :]
    z = 1.0 / (sigma * np.sqrt(2.0 * np.pi))
    vals = c_floor + z * np.exp(-0.5 * (s / sigma) ** 2)
    return MobilityField(grid, vals, sigma, c_floor)


def constant_mobility(grid: Grid2D, value: float = 1.0) -> MobilityField:
    return MobilityField(grid, np.full((grid.n1, grid.n2), float(value)), np.inf, value)


def marginals(p: JointDensity) -> MarginalPair:
    g = p.grid
    u1 = p.values.sum(axis=1) * g.h2
    u2 = p.values.sum(axis=0) * g.h1
    return MarginalPair(Density(g.axis1(), u1), Density(g.axis2(), u2))


def relative_entropy(p: JointDensity) -> float:
    """H(p || u1 x u2) against the product of p's own marginals; >= 0."""
    g = p.grid
    m = marginals(p)
    prod = np.maximum(np.outer(m.u1.values, m.u2.values), ENTROPY_FLOOR)
    mask = p.values > 0.0
    vals = np.zeros_like(p.values)
    vals[mask] = p.values[mask] * np.log(p.values[mask] / prod[mask])
    out = g.h1 * g.h2 * float(vals.sum())
    if out < -1e-12:
        raise EstimateFailed(f"relative entropy {out} fell below -1e-12")
    return out


def joint_stable_dt(p: JointDensity, mob: MobilityField) -> float:
    """Explicit bound dt <= min(h1, h2)^2 / (4 max(M p))."""
    coef = float((mob.values * p.values).max())
    if coef <= 0.0:
        return np.inf
    return 0.25 * min(p.grid.h1, p.grid.h2) ** 2 / coef


def step_joint_fd(p: JointDensity, mob: MobilityField, dt: float) -> JointDensity:
    """One conservative explicit step of dp/dt = div(M p grad p).

    Interface fluxes use arithmetic averages of M and p and centered
    gradients; boundary fluxes vanish.  Under the stated bound the update is
    a convex combination, so negativity signals a genuine violation and
    aborts instead of being clipped.
    """
    dt_max = joint_stable_dt(p, mob)
    if dt > dt_max:
        raise CFLViolation(dt, dt_max)
    g = p.grid
    vals = p.values
    new = vals.copy()
    for axis, h in ((0, g.h1), (1, g.h2)):
        pv = vals if axis == 0 else vals.T
        mv = mob.values if axis == 0 else mob.values.T
        pbar = 0.5 * (pv[1:] + pv[:-1])
        mbar = 0.5 * (mv[1:] + mv[:-1])
        flux = mbar * pbar * (pv[1:] - pv[:-1]) / h
        upd = np.zeros_like(pv)
        upd[:-1] += flux
        upd[1:] -= flux
        new += (dt / h) * (upd if axis == 0 else upd.T)
    if new.min() < 0.0:
        worst = float(new.min())
        if worst < -1e-13 * max(1.0, float(vals.max())):
            raise NegativityDetected(f"negative cell {worst:g} after a CFL-compliant step")
        new = np.maximum(new, 0.0)
    return JointDensity(g, new)


def product_gaussian(
    grid: Grid2D, center: tuple[float, float], variance: float
) -> JointDensity:
    """Truncated product Gaussian, renormalized per factor (stays a product)."""
    c1, c2 = grid.centers()
    g1 = np.exp(-0.5 * (c1 - center[0]) ** 2 / variance)
    g2 = np.exp(-0.5 * (c2 - center[1]) ** 2 / variance)
    g1 /= g1.sum() * grid.h1
    g2 /= g2.sum() * grid.h2
    return JointDensity(grid, np.outer(g1, g2))


@dataclass
class SKTConfig:
    """Scenario parameters; the defaults reproduce the correlation build-up
    of a pair started well off the diagonal and run to t = 1.

    The initial spread and the mobility floor are sized so that the pair's
    probability actually reaches the diagonal band within the horizon (the
    porous-medium dynamics does not grow tails, so too small a floor or
    spread leaves the state uncorrelated forever and the scenario would be
    vacuous).
    """

    n1: int = 128
    n2: int = 128
    x_min: float = -5.0
    x_max: float = 5.0
    center: tuple[float, float] = (-2.0, 2.0)
    variance: float = 0.45
    sigma: float = 0.3
    c_floor: float = 0.25
    t_final: float = 1.0
    dt_cap: float = 5e-3
    cfl_safety: float = 0.5
    snapshot_times: tuple = (1.0,)

    def grid(self) -> Grid2D:
        return Grid2D(self.n1, self.n2, self.x_min, self.x_max, self.x_min, self.x_max)


@dataclass
class SKTRun:
    snapshots: list  # (time, JointDensity)
    marginal_snapshots: list  # (time, MarginalPair)
    record: RunRecord
    contact_time: float | None


def run_skt_scenario(config: SKTConfig = SKTConfig(), strict: bool = True) -> SKTRun:
    """Advance the joint density to t_final with automatic explicit steps.

    Records the relative-entropy and mass series; asserts (when ``strict``)
    that the entropy starts below 1e-6, ends above ten times its start, is
    nondecreasing within 1e-9 per step after first diagonal contact, and
    that mass stays within 1e-10 of one throughout.
    """
    grid = config.grid()
    mob = build_mobility(grid, config.sigma, config.c_floor)
    p = product_gaussian(grid, config.center, config.variance)
    c1, c2 = grid.centers()
    band = np.abs(c1[:, None] - c2[None, :]) < 2.0 * config.sigma
    cell_area = grid.h1 * grid.h2

    times = [0.0]
    entropies = [relative_entropy(p)]
    masses = [cell_area * float(p.values.sum())]
    snapshots = []
    marginal_snapshots = []
    pending = sorted(set(config.snapshot_times))
    while pending and pending[0] <= 0.0:
        snapshots.append((0.0, p))
        marginal_snapshots.append((0.0, marginals(p)))
        pending.pop(0)
    contact_time = None

    t = 0.0
    while t < config.t_final:
        dt = min(
            config.cfl_safety * joint_stable_dt(p, mob),
            config.dt_cap,
            config.t_final - t,
        )
        if pending and t + dt > pending[0] - 1e-12:
            dt = max(pending[0] - t, 1e-12)
        p = step_joint_fd(p, mob, dt)
        t += dt
        times.append(t)
        entropies.append(relative_entropy(p))
        masses.append(cell_area * float(p.values.sum()))
        if contact_time is None:
            band_mass = cell_area * float(p.values[band].sum())
            if band_mass > CONTACT_BAND_MASS:
                contact_time = t
        if pending and t >= pending[0] - 1e-12:
            snapshots.append((t, p))
            marginal_snapshots.append((t, marginals(p)))
            pending.pop(0)

    times = np.asarray(times)
    entropies = np.asarray(entropies)
    masses = np.asarray(masses)
    record = RunRecord(
        times=times,
        meta={
            "h": grid.h1,
            "sigma": config.sigma,
            "c_floor": config.c_floor,
            "contact_time": contact_time,
            "entropy_initial": float(entropies[0]),
            "entropy_final": float(entropies[-1]),
        },
    )
    record.tv["relative_entropy"] = entropies
    record.meta["mass_series_max_drift"] = float(np.abs(masses - 1.0).max())

    record.add_check(
        CheckResult("entropy_starts_small", entropies[0] <= 1e-6, 1e-6 - entropies[0], 1e-6)
    )
    growth_ok = entropies[-1] > 10.0 * entropies[0]
    record.add_check(
        CheckResult(
            "entropy_grows_tenfold", growth_ok, entropies[-1] - 10.0 * entropies[0], 0.0
        )
    )
    if contact_time is not None:
        after = entropies[times >= contact_time]
        worst_drop = float(np.diff(after).min()) if after.size > 1 else 0.0
        record.add_check(
            CheckResult(
                "entropy_nondecreasing_after_contact",
                worst_drop >= -1e-9,
                worst_drop + 1e-9,
                1e-9,
            )
        )
    drift = float(np.abs(masses - 1.0).max())
    record.add_check(CheckResult("mass_conserved", drift <= 1e-10, 1e-10 - drift, 1e-10))
    return SKTRun(snapshots, marginal_snapshots, record.finish(strict), contact_time)


def nonlocal_coefficient(mob: MobilityField, other: Density, power: int) -> np.ndarray:
    """a(x) = h * sum_y M(|x - y|) u_other(y)^power on the first axis grid."""
    g = mob.grid
    return g.h2 * (mob.values @ (other.values**power))


def decoupled_stable_dt(u: MarginalPair, mob: MobilityField, variant: str) -> float:
    power = 2 if variant == "quadratic" else 1
    a1 = nonlocal_coefficient(mob, u.u2, power)
    a2 = nonlocal_coefficient(MobilityField(mob.grid, mob.values.T, mob.sigma, mob.c_floor), u.u1, power)
    if variant == "quadratic":
        coef = max(float((a1 * u.u1.values).max()), float((a2 * u.u2.values).max()))
    else:
        coef = max(float(a1.max()), float(a2.max()))
    if coef <= 0.0:
        return np.inf
    h = min(mob.grid.h1, mob.grid.h2)
    return 0.25 * h * h / coef


def step_decoupled_fd(
    u: MarginalPair, mob: MobilityField, dt: float, variant: str = "quadratic"
) -> MarginalPair:
    """One explicit step of the decoupled nonlocal system.

    quadratic: du1/dt = div(u1 (int M u2^2) grad u1)    (and symmetrically)
    entropy:   du1/dt = div((int M u2) grad u1)

    The nonlocal coefficient is frozen during the step and recomputed from
    the partner species each call.
    """
    if variant not in ("quadratic", "entropy"):
        raise ValueError(f"unknown variant {variant!r}")
    dt_max = decoupled_stable_dt(u, mob, variant)
    if dt > dt_max:
        raise CFLViolation(dt, dt_max)
    power = 2 if variant == "quadratic" else 1
    mob_t = MobilityField(mob.grid, mob.values.T, mob.sigma, mob.c_floor)

    def advance(dens: Density, coef: np.ndarray, h: float) -> Density:
        v = dens.values
        cbar = 0.5 * (coef[1:] + coef[:-1])
        if variant == "quadratic":
            cbar = cbar * 0.5 * (v[1:] + v[:-1])
        flux = cbar * (v[1:] - v[:-1]) / h
        new = v.copy()
        new[:-1] += (dt / h) * flux
        new[1:] -= (dt / h) * flux
        return Density(dens.grid, np.maximum(new, 0.0))

    a1 = nonlocal_coefficient(mob, u.u2, power)
    a2 = nonlocal_coefficient(mob_t, u.u1, power)
    return MarginalPair(
        advance(u.u1, a1, mob.grid.h1), advance(u.u2, a2, mob.grid.h2)
    )


@dataclass
class ComparisonReport:
    times: np.ndarray
    l1_gaps: np.ndarray  # |u1_joint - u1_dec|_L1 + |u2_joint - u2_dec|_L1


def compare_correlated_vs_decoupled(
    config: SKTConfig = SKTConfig(),
    variant: str = "quadratic",
    n_compare: int = 11,
) -> ComparisonReport:
    """L1 gap between the joint run's marginals and the decoupled species.

    Both runs start from the same product data; the gap is zero at t = 0 and
    its growth is reported, not asserted (no closed-form magnitude exists).
    """
    grid = config.grid()
    mob = build_mobility(grid, config.sigma, config.c_floor)
    p = product_gaussian(grid, config.center, config.variance)
    pair = marginals(p)
    compare_times = np.linspace(0.0, config.t_final, n_compare)

    gaps = []
    t = 0.0
    for target in compare_times:
        while t < target:
            dt = min(
                config.cfl_safety * joint_stable_dt(p, mob),
                config.cfl_safety * decoupled_stable_dt(pair, mob, variant),
                config.dt_cap,
                target - t,
            )
            p = step_joint_fd(p, mob, dt)
            pair = step_decoupled_fd(pair, mob, dt, variant)
            t += dt
        mj = marginals(p)
        gap = grid.h1 * float(np.abs(mj.u1.values - pair.u1.values).sum())
        gap += grid.h2 * float(np.abs(mj.u2.values - pair.u2.values).sum())
        gaps.append(gap)
    return ComparisonReport(compare_times, np.asarray(gaps))
