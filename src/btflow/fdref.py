"""Independent finite-difference references and closed-form oracles.

These steppers validate the variational solvers, so they deliberately share
nothing with the JKO path beyond the pressure formula: explicit time
integration, flux-form differencing, automatic CFL.  The Barenblatt profile
is the exact self-similar solution of the pressure equation
``du/dt = (1/2) (u^2)_xx`` and anchors every accuracy test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energies import CouplingMatrix, pressure
from .errors import CFLViolation, DimensionMismatch
from .measures import Density, DensityVector, Grid1D, _require_count, _require_positive

SAFETY = 0.9  # the references step at this fraction of their stability bound
MAX_STEPS = 10_000_000


def l1_error(a: Density, b: Density) -> float:
    if a.grid != b.grid:
        raise DimensionMismatch("grids differ")
    return a.grid.h * float(np.sum(np.abs(a.values - b.values)))


def linf_error(a: Density, b: Density) -> float:
    if a.grid != b.grid:
        raise DimensionMismatch("grids differ")
    return float(np.max(np.abs(a.values - b.values)))


def l1_error_vector(a: DensityVector, b: DensityVector) -> float:
    if a.grid != b.grid or a.n_species != b.n_species:
        raise DimensionMismatch("densities are not comparable")
    return a.grid.h * float(np.sum(np.abs(a.values - b.values)))


# Barenblatt for du/dt = (1/2)(u^2)_xx: the standard m=2 profile run at t/2.
# Writing s = t/2, u(t, x) = s^(-1/3) (C - x^2 / (12 s^(2/3)))_+ with the
# mass normalization  int u dx = (8/sqrt(3)) C^(3/2),  so C = (sqrt(3) M / 8)^(2/3).


def _barenblatt_c(mass: float) -> float:
    return (np.sqrt(3.0) * mass / 8.0) ** (2.0 / 3.0)


def barenblatt_peak_time(mass: float = 1.0) -> float:
    """Time at which the profile's maximum equals 1 (max u = C s^(-1/3))."""
    return 2.0 * _barenblatt_c(mass) ** 3


def barenblatt_support_halfwidth(t: float, mass: float = 1.0) -> float:
    return float(np.sqrt(12.0 * _barenblatt_c(mass)) * (0.5 * t) ** (1.0 / 3.0))


def _require_mass_center(mass: float, center: float):
    """ValueError unless mass is finite and positive and center is finite, naming the value."""
    _require_positive("mass", mass, ValueError)
    if not np.isfinite(center):
        raise ValueError(f"center must be finite, got {center!r}")


def barenblatt(t: float, grid: Grid1D, mass: float = 1.0, center: float = 0.0) -> Density:
    """Cell-averaged Barenblatt profile at time t, normalized to ``mass``.

    Cell averages are computed from the exact antiderivative of the parabola,
    so the discrete profile is second-order accurate and its mass is exact up
    to the support clipping at the domain boundary.
    """
    _require_positive("t", t)
    _require_mass_center(mass, center)
    s = 0.5 * t
    height = _barenblatt_c(mass) * s ** (-1.0 / 3.0)
    halfwidth = barenblatt_support_halfwidth(t, mass)

    def antiderivative(x):
        # integral of (height - x^2/(12 s)) dx on the support, clipped outside
        x = np.clip(x, -halfwidth, halfwidth)
        return height * x - x**3 / (36.0 * s)

    edges = grid.edges() - center
    cell_int = np.diff(antiderivative(edges))
    total = float(cell_int.sum())
    if total <= 0.0:
        raise ValueError("profile support does not meet the grid")
    vals = np.maximum(cell_int, 0.0) / grid.h
    vals *= mass / (grid.h * vals.sum())
    return Density(grid, vals)


@dataclass(frozen=True)
class OracleProfile:
    """Closed-form reference trajectory: 'barenblatt' or 'heat_kernel'."""

    kind: str
    mass: float = 1.0
    center: float = 0.0
    diffusivity: float = 1.0  # heat kernel only
    variance0: float = 0.0  # heat kernel initial variance

    def evaluate(self, t: float, grid: Grid1D) -> Density:
        if self.kind == "barenblatt":
            return barenblatt(t, grid, self.mass, self.center)
        if self.kind == "heat_kernel":
            var = self.variance0 + 2.0 * self.diffusivity * t
            _require_positive("heat kernel variance", var)
            _require_mass_center(self.mass, self.center)
            x = grid.centers() - self.center
            vals = np.exp(-0.5 * x * x / var) / np.sqrt(2.0 * np.pi * var)
            vals *= self.mass / (grid.h * vals.sum())
            return Density(grid, vals)
        raise ValueError(f"unknown oracle kind {self.kind!r}")


def _bt_flux_divergence(values: np.ndarray, pressures: np.ndarray, h: float) -> np.ndarray:
    """Per-cell divergence of the interface fluxes u_bar * dp/dx, no-flux ends."""
    ubar = 0.5 * (values[:, 1:] + values[:, :-1])
    flux = ubar * np.diff(pressures, axis=1) / h
    div = np.zeros_like(values)
    div[:, :-1] += flux
    div[:, 1:] -= flux
    return div / h


def bt_stable_dt(u: DensityVector, a: CouplingMatrix) -> float:
    """Explicit stability bound h^2 / (2 max_i max_c p_i)."""
    pmax = float(np.max(np.abs(pressure(u, a))))
    if pmax <= 0.0:
        return np.inf
    return 0.5 * u.grid.h**2 / pmax


def step_bt_fd(u: DensityVector, a: CouplingMatrix, dt: float) -> DensityVector:
    """One explicit conservative step of du_i/dt = div(u_i grad p_i)."""
    dt_max = bt_stable_dt(u, a)
    if dt > dt_max:
        raise CFLViolation(dt, dt_max)
    p = pressure(u, a)
    new_vals = u.values + dt * _bt_flux_divergence(u.values, p, u.grid.h)
    return DensityVector(u.grid, new_vals)


def _laplacian_mirror(values: np.ndarray, h: float) -> np.ndarray:
    """3-point Laplacian with mirror ghost cells (grad u . nu = 0)."""
    padded = np.pad(values, ((0, 0), (1, 1)), mode="edge")
    return (padded[:, 2:] - 2.0 * padded[:, 1:-1] + padded[:, :-2]) / (h * h)


def bt4_stable_dt(u: DensityVector) -> float:
    """Fourth-order explicit bound h^4 / (8 max u)."""
    umax = float(u.values.max())
    if umax <= 0.0:
        return np.inf
    return u.grid.h**4 / (8.0 * umax)


def step_bt4_fd(u: DensityVector, a: CouplingMatrix, dt: float) -> DensityVector:
    """One explicit step of the fourth-order system.

    The flux velocity is grad(p_i - lap u_i): the energy (quadratic +
    Dirichlet) decreases along this sign convention, which is what the
    gradient-flow structure demands.  Mirror ghosts enforce both
    grad u . nu = 0 and grad(lap u) . nu = 0 through the zero boundary flux.
    """
    dt_max = min(bt4_stable_dt(u), bt_stable_dt(u, a))
    if dt > dt_max:
        raise CFLViolation(dt, dt_max)
    p = pressure(u, a)
    w = p - _laplacian_mirror(u.values, u.grid.h)
    new_vals = u.values + dt * _bt_flux_divergence(u.values, w, u.grid.h)
    return DensityVector(u.grid, new_vals)


def run_bt_fd(u0: DensityVector, a: CouplingMatrix, t_final: float) -> DensityVector:
    """Advance the second-order reference to t_final with automatic dt."""
    vals = u0.values.copy()
    grid = u0.grid
    t = 0.0
    for _ in range(MAX_STEPS):
        if t >= t_final:
            break
        p = a.entries @ vals
        pmax = float(np.max(np.abs(p)))
        dt = min(SAFETY * 0.5 * grid.h**2 / max(pmax, 1e-30), t_final - t)
        vals = vals + dt * _bt_flux_divergence(vals, p, grid.h)
        t += dt
    else:
        raise RuntimeError("reference run exceeded the step budget")
    return DensityVector(grid, vals)


def run_bt4_fd(u0: DensityVector, a: CouplingMatrix, n_steps: int) -> tuple[DensityVector, np.ndarray]:
    """Advance the fourth-order reference n_steps >= 1; returns (state, energy series)."""
    from .energies import energy_dirichlet, energy_quadratic

    _require_count("n_steps", n_steps, 1)
    u = u0
    energies = np.empty(n_steps + 1)
    energies[0] = energy_quadratic(u, a) + energy_dirichlet(u)
    for k in range(n_steps):
        dt = SAFETY * min(bt4_stable_dt(u), bt_stable_dt(u, a))
        u = step_bt4_fd(u, a, dt)
        energies[k + 1] = energy_quadratic(u, a) + energy_dirichlet(u)
    return u, energies
