"""Correlated joint-density dynamics for two interacting species in 1D.

The pair state is a probability density p(x1, x2) on the square, evolving by
dp/dt = div(M(|x1 - x2|) p grad p) with a mobility concentrated near the
diagonal.  Product (uncorrelated) initial data does not stay a product: the
relative entropy of p against the product of its own marginals starts at
zero and grows once the support reaches the diagonal band.  A decoupled
variant evolves the marginals themselves with the nonlocally averaged
mobility coefficient.

The public joint step functions wrap the array kernels both scenario loops
step with.  A run validates its SKTConfig once, refuses it before the first
step when even the longest steps the config allows would overrun MAX_STEPS,
and keeps the face coefficients and the stencil's work arrays throughout.
The joint step forms each face flux from squares, c_f (p_b^2 - p_a^2) with
c_f = M_bar_f / (2 h^2), since p grad p = grad(p^2 / 2): 10 array passes a
step.
Each step takes CFL_SAFETY times one CFL bound and checks the new state
with one min and one sum (cells >= -1e-13 max(1, max p), else
NegativityDetected; smaller undershoots clamped; mass within 1e-10 of one,
else InvalidDensity); the relative entropy checks the marginals as arrays.
JointDensity and MarginalPair objects are built only for snapshots.  The
decoupled pair steps through one kernel, ``_Decoupled``, built once per
mobility field and variant: it checks the variant and the square grid, and
per step gives the two frozen nonlocal coefficients with their step bound
(``rates``) and the explicit flux step of each species (``advance``),
which meets the joint step's undershoot rule.
``decoupled_stable_dt``, ``step_decoupled_fd`` and the comparison loop call
it; the loop steps both systems on arrays and checks each species' unit mass
per step.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .diagnostics import RunRecord
from .errors import CFLViolation, DimensionMismatch, EstimateFailed, InvalidDensity, NegativityDetected
from .measures import MASS_TOL_1D, MASS_TOL_2D, Density, Grid2D, JointDensity, _checked_unit_mass, _require_positive

CONTACT_BAND_MASS = 1e-4  # band mass that marks the first diagonal contact
CFL_SAFETY = 0.5  # automatic steps take this fraction of the explicit bound
MAX_STEPS = 1_000_000  # a run or comparison that needs more steps raises RuntimeError
N_COMPARE = 11  # comparison times, t_final / (N_COMPARE - 1) apart
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class MobilityField:
    """Mobility M(|x1 - x2|) tabulated per cell, with its recorded bounds."""

    grid: Grid2D
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.shape != (self.grid.n1, self.grid.n2):
            raise DimensionMismatch("mobility shape does not match the grid")
        if not vals.min() > 0.0:  # also rejects NaN
            raise ValueError(f"mobility must be strictly positive, found {float(vals.min())!r}")

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
    _require_positive("sigma", sigma, ValueError)
    _require_positive("c_floor", c_floor, ValueError)
    c1, c2 = grid.centers()
    s = c1[:, None] - c2[None, :]
    z = 1.0 / (sigma * np.sqrt(2.0 * np.pi))
    vals = c_floor + z * np.exp(-0.5 * (s / sigma) ** 2)
    return MobilityField(grid, vals)


def constant_mobility(grid: Grid2D, value: float = 1.0) -> MobilityField:
    return MobilityField(grid, np.full((grid.n1, grid.n2), float(value)))


def _marginals(v: np.ndarray, grid: Grid2D) -> tuple[np.ndarray, np.ndarray]:
    """Marginal cell values of the joint cell values v, checked like Density."""
    u1 = _checked_unit_mass(v.sum(axis=1) * grid.h2, grid.h1, MASS_TOL_1D, "marginal")
    u2 = _checked_unit_mass(v.sum(axis=0) * grid.h1, grid.h2, MASS_TOL_1D, "marginal")
    return u1, u2


def marginals(p: JointDensity) -> MarginalPair:
    u1, u2 = _marginals(p.values, p.grid)
    return MarginalPair(Density(p.grid.axis1(), u1), Density(p.grid.axis2(), u2))


def _xlogx_sum(x: np.ndarray, out=None, positive: bool = False) -> float:
    """Sum of x log x over nonnegative x; a zero entry adds exactly 0.

    Unless ``positive`` promises x > 0, the logarithm is taken of max(x, tiny),
    so that a zero entry gives 0 * log(tiny) whatever ``out`` held before.
    """
    logs = np.log(x, out=out) if positive else np.log(np.maximum(x, _TINY, out=out), out=out)
    logs *= x
    return float(logs.sum())


def _relative_entropy(v: np.ndarray, low: float, grid: Grid2D, work=None) -> float:
    """H(v || u1 x u2) of nonnegative cell values v whose minimum is ``low``.

    Since h2 sum_j v_ij = u1_i and h1 sum_i v_ij = u2_j, the relative entropy
    separates into h1 h2 sum v log v - h1 sum u1 log u1 - h2 sum u2 log u2, and
    no outer product of the marginals is formed.  ``work`` is an optional
    scratch array shaped like v; its contents on entry do not matter.

    The -1e-12 floor is the rounding bound that the marginal mass check
    implies.  For nonnegative v of mass c the separated sum is c times a
    discrete relative entropy, which is >= 0, minus c log c, so it is at
    least -c log c, about -(c - 1); the marginal check holds |c - 1| to
    MASS_TOL_1D (1e-12).  A value below the floor raises EstimateFailed.
    """
    u1, u2 = _marginals(v, grid)
    out = grid.h1 * grid.h2 * _xlogx_sum(v, work, positive=low > 0.0)
    out -= grid.h1 * _xlogx_sum(u1) + grid.h2 * _xlogx_sum(u2)
    if out < -1e-12:
        raise EstimateFailed(f"relative entropy {out} fell below -1e-12")
    return out


def relative_entropy(p: JointDensity) -> float:
    """H(p || u1 x u2) against the product of p's own marginals; >= 0."""
    return _relative_entropy(p.values, float(p.values.min()), p.grid)


def _stable_dt(v: np.ndarray, m: np.ndarray, grid: Grid2D, work=None) -> float:
    coef = float(np.multiply(m, v, out=work).max())
    if coef <= 0.0:
        return np.inf
    return 0.25 * min(grid.h1, grid.h2) ** 2 / coef


def joint_stable_dt(p: JointDensity, mob: MobilityField) -> float:
    """Explicit bound dt <= min(h1, h2)^2 / (4 max(M p)), M and p at one cell.

    The fluxes average M over faces, so where M jumps sharply between
    neighbouring cells the update need not be a convex combination within
    this bound, and a step can go negative.
    """
    return _stable_dt(p.values, mob.values, p.grid)


def _clamp_undershoot(new: np.ndarray, v: np.ndarray) -> float:
    """Clamp the undershoot of an explicit step from v to new at 0, in place,
    and return the least cell of new; a cell below -1e-13 max(1, max v)
    raises NegativityDetected instead."""
    low = float(new.min())
    if low < 0.0:
        if low < -1e-13 * max(1.0, float(v.max())):
            raise NegativityDetected(f"negative cell {low:g} after a CFL-compliant step")
        np.maximum(new, 0.0, out=new)
        low = 0.0
    return low


class _Stencil:
    """Work arrays of the explicit joint step for one mobility field.

    Since p grad p = grad(p^2 / 2), the flux across a face between cells a and
    b is M_bar (p_b^2 - p_a^2) / (2h), so each face stores one coefficient
    c = (M_bar / 2) / h^2 for the run, and the step adds dt times the
    difference of the fluxes c (p_b^2 - p_a^2) on either side of each cell.
    Both axes run on the flattened row-major arrays: axis 0 pairs cells n2
    apart, axis 1 neighbours, and a zero coefficient at each row end keeps
    axis-1 fluxes from crossing rows.  A step takes 10 array passes: p^2 goes
    into the output array it is about to overwrite, each axis forms its
    fluxes in a zero-padded face buffer in two, the two divergences and their
    sum take three, and scaling by dt and adding p two more.  In exact
    arithmetic the flux equals the product form (p_a + p_b) (M_bar / 2)
    (p_b - p_a) / h, which takes 16 passes; on 300 drawn states the two
    steps round apart by at most 0.97 eps max(1, max p) per cell.  p^2
    overflows only for cell values above about 1.3e154.  The new state
    alternates between two output arrays: a caller that keeps a state past
    the next step copies it.
    """

    def __init__(self, mob: MobilityField):
        m = mob.values
        n2 = m.shape[1]
        h1, h2 = mob.grid.h1, mob.grid.h2
        row_faces = np.zeros_like(m)
        row_faces[:, :-1] = 0.25 * (m[:, 1:] + m[:, :-1]) / (h2 * h2)
        self.grid = mob.grid
        self.m = m
        self.axes = (  # (stride, face coefficients, zero-padded face fluxes)
            (n2, (0.25 * (m[1:] + m[:-1]) / (h1 * h1)).ravel(), np.zeros(m.size + n2)),
            (1, row_faces.ravel()[:-1], np.zeros(m.size + 1)),
        )
        self.work = np.empty(m.shape)  # C order: the kernel writes through flat views
        self.out = (np.empty(m.shape), np.empty(m.shape))

    def stable_dt(self, v: np.ndarray) -> float:
        return _stable_dt(v, self.m, self.grid, self.work)

    def step(self, v: np.ndarray, dt: float) -> tuple[np.ndarray, float, float]:
        """Advance the cell values v by dt; returns the new values, their min and sum."""
        new = self.out[1] if v is self.out[0] else self.out[0]
        size, sq = v.size, new.ravel()
        np.square(v, out=new)
        for s, c, face in self.axes:
            flux = face[s:size]
            np.subtract(sq[s:], sq[:-s], out=flux)
            flux *= c
        for (s, _, face), div in zip(self.axes, (self.work.ravel(), sq)):  # p^2 is spent
            np.subtract(face[s:], face[:size], out=div)
        self.work += new
        self.work *= dt
        np.add(v, self.work, out=new)
        low = _clamp_undershoot(new, v)
        total = float(new.sum())
        drift = abs(self.grid.h1 * self.grid.h2 * total - 1.0)
        if not drift <= MASS_TOL_2D:  # also rejects NaN
            raise InvalidDensity(f"joint density mass deviates from 1 by {drift!r}, beyond {MASS_TOL_2D}")
        return new, low, total


def step_joint_fd(p: JointDensity, mob: MobilityField, dt: float) -> JointDensity:
    """One conservative explicit step of dp/dt = div(M p grad p).

    The flux across an interior face is M_bar (p_b^2 - p_a^2) / (2h), with
    M_bar the arithmetic average of M: in exact arithmetic M_bar times the
    average of p times the centered gradient, and within rounding of it in
    floating point (see ``_Stencil``); boundary fluxes vanish.  A cell below
    -1e-13 max(1, max p) raises NegativityDetected instead of being clipped.
    A step within ``joint_stable_dt`` can still raise it where M jumps
    sharply between neighbouring cells, since the bound does not hold the
    update to a convex combination there.
    """
    dt_max = joint_stable_dt(p, mob)
    if dt > dt_max:
        raise CFLViolation(dt, dt_max)
    new, _, _ = _Stencil(mob).step(p.values, dt)
    return JointDensity(p.grid, new)


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


def _is_real(value) -> bool:
    """A real number that is not a bool (True would pass as 1)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass
class SKTConfig:
    """Scenario parameters; the defaults reproduce the correlation build-up
    of a pair started well off the diagonal and run to t = 1.

    The initial spread and the mobility floor are sized so that the pair's
    probability actually reaches the diagonal band within the horizon (the
    porous-medium dynamics does not grow tails, so too small a floor or
    spread leaves the state uncorrelated forever and the scenario would be
    vacuous).  ``t_final``, ``dt_cap``, ``variance``, ``sigma`` and
    ``c_floor`` must be finite and positive, ``center`` two finite reals
    and every snapshot time in [0, t_final]; a bool is no number for any of
    them.
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
    snapshot_times: tuple | None = None  # None: one snapshot at t_final

    def __post_init__(self):
        _require_positive("t_final", self.t_final)
        _require_positive("dt_cap", self.dt_cap)
        for name in ("variance", "sigma", "c_floor"):
            _require_positive(name, getattr(self, name), ValueError)
        if not (np.shape(self.center) == (2,) and all(_is_real(c) and np.isfinite(c) for c in self.center)):
            raise ValueError(f"center must be two finite reals, got {self.center!r}")
        if self.snapshot_times is None:
            self.snapshot_times = (self.t_final,)
        for ts in self.snapshot_times:
            if not (_is_real(ts) and 0.0 <= ts <= self.t_final):
                raise ValueError(f"snapshot time {ts!r} lies outside [0, t_final={self.t_final}]")

    def grid(self) -> Grid2D:
        return Grid2D(self.n1, self.n2, self.x_min, self.x_max)


def _joint_start(config: SKTConfig) -> tuple[Grid2D, MobilityField, _Stencil, np.ndarray]:
    """The grid, the mobility field, its stencil and the product start values of a joint run.

    Raises RuntimeError first when the config alone shows that the run needs
    more than MAX_STEPS steps: every mobility is at least c_floor and the
    largest cell value at least 1 / area, so no automatic step exceeds
    min(dt_cap, CFL_SAFETY min(h1, h2)^2 area / (4 c_floor)).
    """
    grid = config.grid()
    area = (grid.x_max - grid.x_min) * (grid.x_max - grid.x_min)
    longest = min(config.dt_cap, CFL_SAFETY * min(grid.h1, grid.h2) ** 2 * area / (4.0 * config.c_floor))
    needed = config.t_final / longest
    if needed > MAX_STEPS:
        raise RuntimeError(f"skt run exceeded the step budget: it needs at least {needed:.3g} steps")
    mob = build_mobility(grid, config.sigma, config.c_floor)
    return grid, mob, _Stencil(mob), product_gaussian(grid, config.center, config.variance).values


@dataclass
class SKTRun:
    snapshots: list  # (time, JointDensity)
    marginal_snapshots: list  # (time, MarginalPair)
    record: RunRecord
    contact_time: float | None


def run_skt_scenario(config: SKTConfig = SKTConfig(), strict: bool = True) -> SKTRun:
    """Advance the joint density to t_final with automatic explicit steps,
    landing on each snapshot time on the way.

    Records the relative-entropy series in ``record.entropy``; ``meta``
    carries the step count, the smallest and largest step and the largest
    mass drift of the states, which every step already holds within 1e-10.
    Asserts (when ``strict``) that the entropy ends at or above ten times the
    larger of its start and 1e-6 and is nondecreasing within 1e-9 per step
    after first diagonal contact.  A run that needs more than MAX_STEPS steps
    raises RuntimeError, before its first step when the config alone shows it.
    """
    grid, _, stencil, v = _joint_start(config)
    c1, c2 = grid.centers()
    band = np.abs(c1[:, None] - c2[None, :]) < 2.0 * config.sigma
    cell_area = grid.h1 * grid.h2

    entropies = [_relative_entropy(v, float(v.min()), grid, stencil.work)]
    masses = [cell_area * float(v.sum())]
    dts = []
    snapshots = []
    marginal_snapshots = []
    contact_time = None

    t = 0.0
    snapshot_times = set(config.snapshot_times)
    for target in sorted(snapshot_times | {config.t_final}):
        while t < target:
            if len(dts) == MAX_STEPS:
                raise RuntimeError("skt run exceeded the step budget")
            dt = min(CFL_SAFETY * stencil.stable_dt(v), config.dt_cap, target - t)
            v, low, total = stencil.step(v, dt)
            t += dt
            dts.append(dt)
            entropies.append(_relative_entropy(v, low, grid, stencil.work))
            masses.append(cell_area * total)
            if contact_time is None and cell_area * float(v[band].sum()) > CONTACT_BAND_MASS:
                contact_time = t
        if target in snapshot_times:
            snap = JointDensity(grid, v.copy())
            snapshots.append((t, snap))
            marginal_snapshots.append((t, marginals(snap)))

    times = np.concatenate(([0.0], np.cumsum(dts)))
    entropies = np.asarray(entropies)
    record = RunRecord(
        times=times,
        entropy=entropies,
        meta={
            "h": grid.h1,
            "sigma": config.sigma,
            "c_floor": config.c_floor,
            "contact_time": contact_time,
            "entropy_initial": float(entropies[0]),
            "entropy_final": float(entropies[-1]),
            "steps": len(dts),
            "dt_min": float(min(dts)),
            "dt_max": float(max(dts)),
            "mass_series_max_drift": float(np.abs(np.asarray(masses) - 1.0).max()),
        },
    )
    # H0 of the product start is zero up to rounding, so 10 H0 alone would
    # pass by construction; 1e-6 lies far above that rounding
    floor = 10.0 * max(float(entropies[0]), 1e-6)
    record.check("entropy_grows_tenfold", floor, entropies[-1])
    if contact_time is not None:
        after = entropies[times >= contact_time]
        largest_drop = -float(np.diff(after).min()) if after.size > 1 else 0.0
        record.check("entropy_nondecreasing_after_contact", largest_drop, tolerance=1e-9)
    return SKTRun(snapshots, marginal_snapshots, record.finish(strict), contact_time)


def _is_quadratic(variant: str) -> bool:
    if variant not in ("quadratic", "entropy"):
        raise ValueError(f"unknown variant {variant!r}")
    return variant == "quadratic"


class _Decoupled:
    """The explicit step of the decoupled pair for one mobility field and variant.

    Checks the variant and the square grid once; on a square grid both axes
    have the one spacing h.  ``rates`` gives the frozen nonlocal coefficients
    h M u2^power of species 1 and h M^T u1^power of species 2 and the step
    bound h^2 / (4 max c), where c is the coefficient times the species
    (quadratic) or the coefficient itself (entropy); ``advance`` steps one
    species by its coefficient.
    """

    def __init__(self, mob: MobilityField, variant: str):
        self.quadratic = _is_quadratic(variant)
        if mob.values.shape[0] != mob.values.shape[1]:
            raise DimensionMismatch("the decoupled species need a square grid (n1 == n2)")
        self.m = mob.values
        self.h = mob.grid.h1

    def rates(self, u1: np.ndarray, u2: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        power = 2 if self.quadratic else 1
        a1 = self.h * (self.m @ (u2**power))
        a2 = self.h * (self.m.T @ (u1**power))
        if self.quadratic:
            coef = max(float((a1 * u1).max()), float((a2 * u2).max()))
        else:
            coef = max(float(a1.max()), float(a2.max()))
        return a1, a2, np.inf if coef <= 0.0 else 0.25 * self.h * self.h / coef

    def advance(self, v: np.ndarray, coef: np.ndarray, dt: float) -> np.ndarray:
        """One explicit flux step of one species, under the joint step's undershoot rule."""
        h = self.h
        cbar = 0.5 * (coef[1:] + coef[:-1])
        if self.quadratic:
            cbar = cbar * 0.5 * (v[1:] + v[:-1])
        flux = cbar * (v[1:] - v[:-1]) / h
        new = v.copy()
        new[:-1] += (dt / h) * flux
        new[1:] -= (dt / h) * flux
        _clamp_undershoot(new, v)
        return new


def decoupled_stable_dt(u: MarginalPair, mob: MobilityField, variant: str) -> float:
    return _Decoupled(mob, variant).rates(u.u1.values, u.u2.values)[2]


def step_decoupled_fd(
    u: MarginalPair, mob: MobilityField, dt: float, variant: str = "quadratic"
) -> MarginalPair:
    """One explicit step of the decoupled nonlocal system.

    quadratic: du1/dt = div(u1 (int M u2^2) grad u1)    (and symmetrically)
    entropy:   du1/dt = div((int M u2) grad u1)

    The nonlocal coefficient is frozen during the step and recomputed from
    the partner species each call.
    """
    pair = _Decoupled(mob, variant)
    a1, a2, dt_max = pair.rates(u.u1.values, u.u2.values)
    if dt > dt_max:
        raise CFLViolation(dt, dt_max)
    return MarginalPair(
        Density(u.u1.grid, pair.advance(u.u1.values, a1, dt)),
        Density(u.u2.grid, pair.advance(u.u2.values, a2, dt)),
    )


@dataclass
class ComparisonReport:
    times: np.ndarray
    l1_gaps: np.ndarray  # |u1_joint - u1_dec|_L1 + |u2_joint - u2_dec|_L1


def compare_correlated_vs_decoupled(
    config: SKTConfig = SKTConfig(),
    variant: str = "quadratic",
) -> ComparisonReport:
    """L1 gap between the joint run's marginals and the decoupled species at
    N_COMPARE evenly spaced times from 0 to t_final.

    Both runs start from the same product data; the gap is zero at t = 0 and
    its growth is reported, not asserted (no closed-form magnitude exists).
    The loop steps both systems on arrays, with the kernels that
    ``step_decoupled_fd`` wraps and one pair of nonlocal coefficients per step,
    and raises RuntimeError past MAX_STEPS steps, before the first step when
    the config alone shows it (as ``run_skt_scenario`` does).
    """
    grid, mob, stencil, v = _joint_start(config)
    pair = _Decoupled(mob, variant)
    compare_times = np.linspace(0.0, config.t_final, N_COMPARE)
    d1, d2 = _marginals(v, grid)

    gaps = []
    t = 0.0
    steps = 0
    for target in compare_times:
        while t < target:
            if steps == MAX_STEPS:
                raise RuntimeError("skt run exceeded the step budget")
            steps += 1
            a1, a2, bound = pair.rates(d1, d2)
            dt = min(CFL_SAFETY * min(stencil.stable_dt(v), bound), config.dt_cap, target - t)
            v, _, _ = stencil.step(v, dt)
            d1 = _checked_unit_mass(pair.advance(d1, a1, dt), grid.h1, MASS_TOL_1D)
            d2 = _checked_unit_mass(pair.advance(d2, a2, dt), grid.h2, MASS_TOL_1D)
            t += dt
        u1, u2 = _marginals(v, grid)
        gap = grid.h1 * float(np.abs(u1 - d1).sum())
        gap += grid.h2 * float(np.abs(u2 - d2).sum())
        gaps.append(gap)
    return ComparisonReport(compare_times, np.asarray(gaps))
