"""Per-step inner iterations of both JKO solvers on fixed tiny cases.

Runs a few steps of each case with the public step functions and prints,
per case and solver, the inner iteration count of every step: descent
iterations of ``jko_step_lagrangian`` and joint scaling passes of
``jko_step_entropic``.  The counts do not depend on the machine.  With
``--base REV`` it also prints the counts of ``git archive REV src``, run in
a temporary directory, the change of each mean, and whether the two trees'
step outputs are bit-identical, or else the first step whose output
differs: a count that changes on matching inputs is a change of the inner
loop, and one that follows a changed input may not be.  It exits 0 either
way.

    python scripts/inner_iterations.py
    python scripts/inner_iterations.py --base origin/main
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import fmean

import numpy as np
from cli_digest import SOURCE, archive_source, tree_env


def _cosines(*shifts):
    return lambda x: [1.0 + 0.25 * np.cos(np.pi * (x + s)) for s in shifts]


def _gaussians(*centers, var=0.01):
    return lambda x: [np.exp(-0.5 * (x - c) ** 2 / var) for c in centers]


# label: (unnormalized species profiles at the cell centers, cells, tau, eps, steps); coupling I + 1 1^T
CASES = {
    "pair128": (_cosines(0.0, 1.0), 128, 1e-3, 1e-3, 3),  # the parabolic_cross pair
    "stiff96": (_cosines(0.0, 1.0), 96, 5e-2, 5e-4, 1),
    "triple64": (_cosines(0.0, 2.0 / 3.0, 4.0 / 3.0), 64, 5e-3, 2e-3, 2),
    # tails that reach the walls: the ghost-tail end rule switches along the run
    "wall64": (_gaussians(0.35, 0.65), 64, 5e-4, 1e-3, 12),
}


def counts() -> dict:
    """{label: {solver: [[inner iterations, SHA-256 of the output] of each step]}} of the btflow that imports."""
    from btflow.energies import CouplingMatrix
    from btflow.jko import jko_step_entropic, jko_step_lagrangian
    from btflow.measures import DensityVector, Grid1D, normalize

    out = {}
    for label, (profiles, n, tau, eps, steps) in CASES.items():
        grid = Grid1D(n, 0.0, 1.0)
        u0 = DensityVector.from_species([normalize(raw, grid) for raw in profiles(grid.centers())])
        a = CouplingMatrix(np.eye(u0.n_species) + 1.0)
        solvers = {"lagrangian": lambda u: jko_step_lagrangian(u, a, tau), "entropic": lambda u: jko_step_entropic(u, a, tau, eps)}
        out[label] = {}
        for name, step in solvers.items():
            u, per_step = u0, []
            for _ in range(steps):
                u, report = step(u)
                per_step.append([report.inner_iterations, hashlib.sha256(u.values.tobytes()).hexdigest()])
            out[label][name] = per_step
    return out


def tree_counts(source: Path) -> dict:
    """counts() of the btflow in the source tree, run in a subprocess."""
    proc = subprocess.run([sys.executable, __file__, "--json"], env=tree_env(source), check=True, capture_output=True, text=True)
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="git revision whose src to compare the counts with")
    parser.add_argument("--json", action="store_true", help="print the counts of the importable btflow as JSON")
    args = parser.parse_args(argv)
    if args.json:
        print(json.dumps(counts()))
        return 0
    trees = {SOURCE: tree_counts(Path(SOURCE))}
    if args.base:
        with tempfile.TemporaryDirectory() as tmp:
            trees[args.base] = tree_counts(archive_source(args.base, tmp))
    current = trees[SOURCE]
    for tree, result in trees.items():
        for label, solvers in result.items():
            for name, steps in solvers.items():
                per_step, outputs = [count for count, _ in steps], [sha for _, sha in steps]
                line = f"{tree:>12} {label:>9} {name:>10}: mean {fmean(per_step):8.1f}  per step {per_step}"
                if tree != SOURCE:
                    mine = current[label][name]
                    differ = [k + 1 for k, ((_, a), b) in enumerate(zip(mine, outputs)) if a != b]
                    same = f"outputs differ from step {differ[0]}" if differ else "outputs bit-identical"
                    line += f"  ({SOURCE} / {tree}: {fmean(c for c, _ in mine) / fmean(per_step):.3g}; {same})"
                print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
