"""Lyapunov functionals and pressures of the cross-diffusion system.

The quadratic interaction energy and the Boltzmann entropy both decay along
the flow; the Dirichlet term augments the energy for the fourth-order
variant.  Pressures are the linear fields p_i = sum_j a_ij u_j driving the
transport.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch
from .measures import DensityVector

ENTROPY_FLOOR = 1e-300


@dataclass(frozen=True)
class CouplingMatrix:
    """Symmetric species interaction matrix with its smallest eigenvalue.

    Rank-deficient matrices (e.g. all entries 1/N) are representable;
    positive definiteness is only demanded by the parabolic solvers, which
    check ``lambda_min`` themselves.
    """

    entries: np.ndarray
    symmetric: bool = field(init=False)
    lambda_min: float = field(init=False)

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatch(f"coupling matrix must be square, got {a.shape}")
        object.__setattr__(self, "entries", a)
        sym = bool(np.array_equal(a, a.T))
        object.__setattr__(self, "symmetric", sym)
        lam = float(np.linalg.eigvalsh(a).min()) if sym else float("nan")
        object.__setattr__(self, "lambda_min", lam)

    @property
    def n_species(self) -> int:
        return self.entries.shape[0]

    @property
    def positive_definite(self) -> bool:
        return self.symmetric and self.lambda_min > 0.0

    @staticmethod
    def identity(n: int) -> "CouplingMatrix":
        return CouplingMatrix(np.eye(n))

    @staticmethod
    def uniform(n: int) -> "CouplingMatrix":
        """The rank-one choice a_ij = 1/N of the hyperbolic-parabolic model."""
        return CouplingMatrix(np.full((n, n), 1.0 / n))


@dataclass(frozen=True)
class EnergyReport:
    e_quadratic: float
    h_boltzmann: float
    e_dirichlet: float


def _check_dims(u: DensityVector, a: CouplingMatrix):
    if a.n_species != u.n_species:
        raise DimensionMismatch(
            f"matrix is {a.n_species}x{a.n_species} but density has {u.n_species} species"
        )


def pressure(u: DensityVector, a: CouplingMatrix) -> np.ndarray:
    """Per-species pressure fields p_i(c) = sum_j a_ij u_j(c), shape (N, n)."""
    _check_dims(u, a)
    return a.entries @ u.values


def energy_quadratic(u: DensityVector, a: CouplingMatrix) -> float:
    """Interaction energy (1/2) h sum_c sum_ij a_ij u_i(c) u_j(c)."""
    _check_dims(u, a)
    return 0.5 * u.grid.h * float(np.sum(u.values * (a.entries @ u.values)))


def entropy_boltzmann(u: DensityVector) -> float:
    """Boltzmann entropy sum_i h sum_c u (log u - 1), with 0 log 0 = 0."""
    vals = u.values
    out = np.zeros_like(vals)
    pos = vals > ENTROPY_FLOOR
    out[pos] = vals[pos] * (np.log(vals[pos]) - 1.0)
    return u.grid.h * float(out.sum())


def gradient_norm_sq(u: DensityVector) -> float:
    """Discrete sum_i int |grad u_i|^2 with interface differences.

    Interior interfaces use (u_{c+1} - u_c)/h; boundary interfaces vanish,
    matching mirror ghost cells for the no-flux condition.  This is the one
    stencil shared with the entropy-dissipation diagnostic.
    """
    h = u.grid.h
    d = np.diff(u.values, axis=1) / h
    return h * float(np.sum(d * d))


def energy_dirichlet(u: DensityVector) -> float:
    """Gradient part (1/2) sum_i int |grad u_i|^2 of the augmented energy."""
    return 0.5 * gradient_norm_sq(u)


def energy_report(u: DensityVector, a: CouplingMatrix) -> EnergyReport:
    return EnergyReport(
        e_quadratic=energy_quadratic(u, a),
        h_boltzmann=entropy_boltzmann(u),
        e_dirichlet=energy_dirichlet(u),
    )
