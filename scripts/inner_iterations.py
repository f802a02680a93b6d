"""Per-step inner iterations of both JKO solvers on fixed tiny cases.

Runs a few steps of each case with the public step functions and prints,
per case and solver, the inner iteration count of every step: descent
iterations of ``jko_step_lagrangian`` and joint scaling passes of
``jko_step_entropic``.  It also runs one ``jko_step_lagrangian`` on each of
the STRESS_CASES cases of a fixed random stress set (1-3 species on 16-200
cells, four profile kinds, a random SPD coupling, tau in [1e-4, 1e-1]) and
prints the number of converged cases, the number of fallbacks (steps whose
``jko._descend`` ran twice), the total descent iterations, and the number of
unconverged cases with the sum of their step objectives
``energy_after + w2_increment^2 / (2 tau)``, read from the step reports.
The counts do not depend on the machine.  With ``--base REV`` it also prints the
counts of ``git archive REV src``, run in a temporary directory, the change
of each mean, whether the two trees' step outputs are bit-identical, or
else the first step whose output differs, and the stress cases whose
convergence differs: a count that changes on matching inputs is a change
of the inner loop, and one that follows a changed input may not be.  It
exits 0 either way.

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
STRESS_CASES = 64
STRESS_SEED = 12345
STRESS_KINDS = ("cosines", "bumps", "wall_blocks", "gaussians_floor")


def stress_profile(kind: str, x: np.ndarray, rng) -> np.ndarray:
    """One unnormalized species profile of the given kind at the centers x of [0, 1]."""
    if kind == "cosines":
        c = rng.uniform(-0.3, 0.3, 3)
        return 1.0 + c[0] * np.cos(np.pi * x) + c[1] * np.cos(2 * np.pi * x) + c[2] * np.sin(np.pi * x)
    if kind == "bumps":  # compact support away from the walls
        center, width = rng.uniform(0.35, 0.65), rng.uniform(0.1, 0.25)
        return np.maximum(1.0 - ((x - center) / width) ** 2, 0.0) ** rng.uniform(0.5, 2.0)
    if kind == "wall_blocks":  # a block on a wall, and maybe a second block
        raw = np.where(x < rng.uniform(0.2, 0.5), 1.0, 0.0)
        if rng.uniform() < 0.5:
            raw += np.where(np.abs(x - rng.uniform(0.6, 0.85)) < 0.1, rng.uniform(0.5, 2.0), 0.0)
        return raw if rng.uniform() < 0.5 else raw[::-1]
    centers, var = rng.uniform(0.15, 0.85, 2), rng.uniform(0.003, 0.02)  # two Gaussians plus a floor
    raw = np.exp(-0.5 * (x - centers[0]) ** 2 / var) + np.exp(-0.5 * (x - centers[1]) ** 2 / var)
    return raw + rng.uniform(1e-3, 0.1)


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


def stress() -> dict:
    """{"converged": [per case], "fallbacks": steps whose descent ran twice, "iterations": total,
    "objective": the summed step objective of the unconverged cases} of one jko_step_lagrangian
    per stress case, in the btflow that imports."""
    import btflow.jko as jko
    from btflow.energies import CouplingMatrix
    from btflow.measures import DensityVector, Grid1D, normalize

    descend, calls = jko._descend, []

    def tapped(*args, **kwargs):
        calls[-1] += 1
        return descend(*args, **kwargs)

    jko._descend = tapped
    rng = np.random.default_rng(STRESS_SEED)
    converged, iterations, objective = [], 0, 0.0
    for k in range(STRESS_CASES):
        kind, case = STRESS_KINDS[k % len(STRESS_KINDS)], np.random.default_rng(rng.integers(0, 2**32 - 1))
        n_species = int(case.integers(1, 4))
        grid = Grid1D(int(case.integers(16, 201)), 0.0, 1.0)
        u0 = DensityVector.from_species([normalize(stress_profile(kind, grid.centers(), case), grid) for _ in range(n_species)])
        b = case.uniform(-1.0, 1.0, (n_species, n_species))
        a = CouplingMatrix(b @ b.T + case.uniform(0.05, 1.0) * np.eye(n_species))
        tau = float(10.0 ** case.uniform(-4.0, -1.0))
        calls.append(0)
        _, report = jko.jko_step_lagrangian(u0, a, tau)
        converged.append(report.converged)
        iterations += report.inner_iterations
        if not report.converged:
            objective += report.energy_after + report.w2_increment**2 / (2.0 * tau)
    jko._descend = descend
    return {"converged": converged, "fallbacks": sum(c > 1 for c in calls), "iterations": iterations, "objective": objective}


def tree_counts(source: Path) -> dict:
    """counts() and stress() of the btflow in the source tree, run in a subprocess."""
    proc = subprocess.run([sys.executable, __file__, "--json"], env=tree_env(source), check=True, capture_output=True, text=True)
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="git revision whose src to compare the counts with")
    parser.add_argument("--json", action="store_true", help="print the counts of the importable btflow as JSON")
    args = parser.parse_args(argv)
    if args.json:
        print(json.dumps({"cases": counts(), "stress": stress()}))
        return 0
    trees = {SOURCE: tree_counts(Path(SOURCE))}
    if args.base:
        with tempfile.TemporaryDirectory() as tmp:
            trees[args.base] = tree_counts(archive_source(args.base, tmp))
    current = trees[SOURCE]["cases"]
    for tree, result in trees.items():
        for label, solvers in result["cases"].items():
            for name, steps in solvers.items():
                per_step, outputs = [count for count, _ in steps], [sha for _, sha in steps]
                line = f"{tree:>12} {label:>9} {name:>10}: mean {fmean(per_step):8.1f}  per step {per_step}"
                if tree != SOURCE:
                    mine = current[label][name]
                    differ = [k + 1 for k, ((_, a), b) in enumerate(zip(mine, outputs)) if a != b]
                    same = f"outputs differ from step {differ[0]}" if differ else "outputs bit-identical"
                    line += f"  ({SOURCE} / {tree}: {fmean(c for c, _ in mine) / fmean(per_step):.3g}; {same})"
                print(line)
    mine = trees[SOURCE]["stress"]["converged"]
    for tree, result in trees.items():
        run = result["stress"]
        line = f"{tree:>12} stress set: {sum(run['converged'])} of {STRESS_CASES} converged, {run['fallbacks']} fallbacks, {run['iterations']} iterations"
        line += f", {STRESS_CASES - sum(run['converged'])} unconverged with objective sum {run['objective']:.10g}"
        if tree != SOURCE:
            differ = [k for k, (a, b) in enumerate(zip(mine, run["converged"])) if a != b]
            line += f"  (convergence differs on cases {differ})" if differ else "  (the same cases converge)"
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
