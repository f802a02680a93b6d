"""Microseconds per call of the monotone-plan kernel ``transport1d._plans``.

Times ``_plans`` on fixed seeded cell masses at a few (rows, cells) shapes:
the hyperbolic chunk's pressure and species batches, and one-row calls as
``w2_exact`` and ``monotone_plan`` make them.  Prints the median time per
call of each shape.  With ``--base REV`` it also times ``git archive REV
src``, run in a temporary directory, and prints the ratio of the medians.
The times depend on the machine and its load; it exits 0 either way.

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


def timings() -> dict:
    """{"RxN": median microseconds per _plans call} of the btflow that imports."""
    import timeit
    from statistics import median

    import numpy as np

    from btflow.transport1d import _plans

    rng = np.random.default_rng(0)
    out = {}
    for rows, n in SHAPES:
        a, b = rng.uniform(size=(2, rows, n)) * (rng.uniform(size=(2, rows, n)) < 0.8)
        a /= a.sum(axis=1, keepdims=True)
        b /= b.sum(axis=1, keepdims=True)
        out[f"{rows}x{n}"] = median(timeit.repeat(lambda: _plans(a, b), number=CALLS, repeat=REPEATS)) / CALLS * 1e6
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
        for shape, us in result.items():
            line = f"{tree:>12} {shape:>7}: {us:8.1f} us per call"
            if tree != SOURCE:
                line += f"  ({SOURCE} / {tree}: {current[shape] / us:.3g})"
            print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
