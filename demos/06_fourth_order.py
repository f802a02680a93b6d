"""Fourth-order variant: interaction energy augmented by a gradient penalty.

The explicit reference stepper dissipates the augmented energy (quadratic
plus Dirichlet part) while conserving mass exactly; the variational solver
offers the same energy through an option, with energy decay as the checked
property.
"""

import numpy as np

from btflow import DensityVector, Grid1D
from btflow.energies import CouplingMatrix, energy_dirichlet, energy_quadratic
from btflow.fdref import run_bt4_fd
from btflow.jko import JKOSchedule, run_jko

grid = Grid1D(64, 0.0, 1.0)
x = grid.centers()
vals = np.stack(
    [
        1.0 + 0.3 * np.cos(np.pi * x) + 0.1 * np.cos(2 * np.pi * x),
        1.0 - 0.2 * np.cos(np.pi * x) + 0.05 * np.sin(np.pi * x) ** 2,
    ]
)
vals /= grid.h * vals.sum(axis=1, keepdims=True)
u0 = DensityVector(grid, vals)
coupling = CouplingMatrix(np.array([[2.0, 1.0], [1.0, 2.0]]))

print("== explicit reference, 200 steps ==")
u_final, energies = run_bt4_fd(u0, coupling, 200)
print(f"  augmented energy: {energies[0]:.6f} -> {energies[-1]:.6f}")
print(f"  monotone decay: {bool(np.all(np.diff(energies) <= 1e-12))}")
print(f"  mass drift: {np.abs(grid.h * u_final.values.sum(axis=1) - 1).max():.2e}")
print(f"  split at the end: quadratic {energy_quadratic(u_final, coupling):.6f}, "
      f"gradient {energy_dirichlet(u_final):.6f}")

print("\n== variational stepper with the augmented energy ==")
_, record = run_jko(
    u0,
    coupling,
    JKOSchedule.uniform(1e-5, 10),
    strict=False,
    dirichlet=True,
)
print(f"  energy series: {record.energy[0]:.6f} -> {record.energy[-1]:.6f}")
print(f"  monotone decay: {bool(np.all(np.diff(record.energy) <= 1e-12))}")
