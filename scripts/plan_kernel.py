"""Microseconds and minor page faults per call of the plan kernels and per step of a hyperbolic run.

Times ``transport1d._plans`` on fixed seeded cell masses at a few (rows,
cells) shapes: the hyperbolic chunk's pressure and species batches, and
one-row calls as ``w2_exact`` and ``monotone_plan`` make them.  Times
``hyperbolic._transport``, the plan-transport push, on a chunk of 16 plans
of 2 species on 256 cells, and next to it ``hyperbolic._own_fractions``,
the transport's fractions, on the 17 states that push returns (a tree
without that kernel skips its row).  Times ``hyperbolic.run_hyperbolic``
(plan transport) per step on the benchmark's input shape at 256 cells: two
69-cell blocks with a 34-cell empty gap between them.  Prints the median
time of each row and the minor page faults per call (per step for the run
row), read with ``getrusage`` on the timing process over all its timed
calls.  With ``--base REV`` it also times ``git archive REV src``, run in a
temporary directory, and prints the ratio of the medians.  The times depend
on the machine and its load; it exits 0 either way.

    python scripts/plan_kernel.py
    python scripts/plan_kernel.py --base origin/main
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from cli_digest import SOURCE, archive_source, tree_env

SHAPES = ((16, 256), (32, 256), (1, 256), (1, 32))  # (rows, cells)
CALLS, REPEATS = 50, 21  # calls per timed repeat, repeats per shape
RUN_T_FINAL, RUN_REPEATS = 1e-3, 7  # about 540 steps per timed run


def timings() -> dict:
    """{row: [median microseconds, minor page faults] per call, or per run step} of the btflow that imports."""
    import resource
    import timeit
    from statistics import median

    import numpy as np

    from btflow import hyperbolic
    from btflow.hyperbolic import _transport, run_hyperbolic
    from btflow.measures import DensityVector, Grid1D, normalize
    from btflow.transport1d import _plans

    def per_call(fn, number=CALLS, repeat=REPEATS) -> list:
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        seconds = median(timeit.repeat(fn, number=number, repeat=repeat)) / number
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        return [seconds * 1e6, faults / (number * repeat)]

    rng = np.random.default_rng(0)

    def masses(rows: int, n: int):
        """Two (rows, n) batches of unit-mass rows, a fifth of their cells empty."""
        a, b = rng.uniform(size=(2, rows, n)) * (rng.uniform(size=(2, rows, n)) < 0.8)
        return a / a.sum(axis=1, keepdims=True), b / b.sum(axis=1, keepdims=True)

    out = {}
    for rows, n in SHAPES:
        a, b = masses(rows, n)
        out[f"{rows}x{n}"] = per_call(lambda: _plans(a, b))
    u, plans = masses(2, 256)[0], _plans(*masses(16, 256))
    out["push 16x2x256"] = per_call(lambda: _transport(u, plans))
    if hasattr(hyperbolic, "_own_fractions"):
        species = _transport(u, plans)
        out["own 17x2x256"] = per_call(lambda: hyperbolic._own_fractions(species))
    grid = Grid1D(256, 0.0, 1.0)
    cells = np.arange(256)
    u0 = DensityVector.from_species(
        [normalize(((cells >= lo) & (cells < lo + 69)).astype(float), grid) for lo in (41, 144)]
    )

    def run():
        return run_hyperbolic(u0, "pressure_transport", t_final=RUN_T_FINAL)

    steps = run().record.meta["steps"]
    out["run step 256"] = [x / steps for x in per_call(run, 1, RUN_REPEATS)]
    return out


def tree_timings(source: Path) -> dict:
    """timings() of the btflow in the source tree, run in a subprocess."""
    proc = subprocess.run([sys.executable, __file__, "--json"], env=tree_env(source), check=True, capture_output=True, text=True)
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="git revision whose src to time as well")
    parser.add_argument("--json", action="store_true", help="print the timings of the importable btflow as JSON")
    args = parser.parse_args(argv)
    if args.json:
        print(json.dumps(timings()))
        return 0
    trees = {SOURCE: tree_timings(Path(SOURCE))}
    if args.base:
        with tempfile.TemporaryDirectory() as tmp:
            trees[args.base] = tree_timings(archive_source(args.base, tmp))
    current = trees[SOURCE]
    for tree, result in trees.items():
        for shape, (us, faults) in result.items():
            per = "step" if shape.startswith("run") else "call"
            line = f"{tree:>12} {shape:>13}: {us:8.1f} us, {faults:7.2f} minor faults per {per}"
            if tree != SOURCE and shape in current:
                line += f"  ({SOURCE} / {tree}: {current[shape][0] / us:.3g})"
            print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
