"""Cross-validation of the two inner solvers.

The Lagrangian (quantile descent) and entropic (Sinkhorn scaling) solvers
share no machinery, so their trajectories agreeing on the two-species
positive definite benchmark is a genuine consistency check.  The explicit
finite-difference reference closes the triangle.  Every 10 steps the table
also shows each solver's inner work on that step and whether it converged.
"""

import numpy as np

from btflow import Grid1D, normalize
from btflow.energies import CouplingMatrix
from btflow.fdref import l1_error_vector, run_bt_fd
from btflow.jko import jko_step_entropic, jko_step_lagrangian
from btflow.measures import DensityVector

grid = Grid1D(128, 0.0, 1.0)
x = grid.centers()
u0 = DensityVector.from_species(
    [
        normalize(1.0 + 0.25 * np.cos(np.pi * x), grid),
        normalize(1.0 - 0.25 * np.cos(np.pi * x), grid),
    ]
)
coupling = CouplingMatrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
tau, eps, steps = 1e-3, 1e-3, 50

u_lagr = u_entr = u0
# inner work per step: descent iterations in the Hessian metric, plus any
# Euclidean restart (Lagrangian, about 20 on this data), joint scaling
# iterations over all species (entropic), and whether the step's inner
# solver converged
print(f"{'step':>4s} {'L1(lagr, entr)':>15s} {'lagr iters':>10s} {'conv':>5s} {'entr iters':>11s} {'conv':>5s}")
for k in range(steps):
    u_lagr, rep_l = jko_step_lagrangian(u_lagr, coupling, tau)
    u_entr, rep_e = jko_step_entropic(u_entr, coupling, tau, eps)
    if (k + 1) % 10 == 0:
        print(
            f"{k + 1:4d} {l1_error_vector(u_lagr, u_entr):15.5f} {rep_l.inner_iterations:10d}"
            f" {str(rep_l.converged):>5s} {rep_e.inner_iterations:11d} {str(rep_e.converged):>5s}"
        )

u_fd = run_bt_fd(u0, coupling, tau * steps)
print(f"\nat t = {tau * steps:g}:")
print(f"  L1(lagrangian, entropic) = {l1_error_vector(u_lagr, u_entr):.5f}")
print(f"  L1(lagrangian, fd ref)   = {l1_error_vector(u_lagr, u_fd):.5f}")
print(f"  L1(entropic,  fd ref)    = {l1_error_vector(u_entr, u_fd):.5f}")
print(f"  last-step optimality residual (lagrangian): {rep_l.optimality_residual:.4f}")
