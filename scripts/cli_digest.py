"""SHA-256 digests of the CLI's outputs, one per scenario config.

Runs ``btflow run`` on one fixed tiny config per case (every scenario, and a
second case where a scenario has another solver, variant or preset worth
covering) in a subprocess with ``PYTHONPATH`` set to a source tree, and
prints one digest per case over the exit code, stdout, stderr and every
output file.  With ``--base REV`` it also runs the same configs on
``git archive REV src`` in a temporary directory and names each case whose
digest differs.  It exits 0 either way: a change may alter outputs on purpose.

    python scripts/cli_digest.py
    python scripts/cli_digest.py --base origin/main
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SOURCE = "src"
_JKO = {
    "scenario": "parabolic_jko",
    "grid": {"n_cells": 32, "x_min": -2.0, "x_max": 2.0},
    "schedule": {"tau": 1e-3, "steps": 3},
    "coupling": [[1.0]],
    "initial": {"preset": "barenblatt"},
}
_PAIR = {
    "grid": {"n_cells": 32, "x_min": 0.0, "x_max": 1.0},
    "coupling": [[2.0, 1.0], [1.0, 2.0]],
    "initial": [{"preset": "gaussian", "center": 0.4, "var": 0.01}, {"preset": "gaussian", "center": 0.6, "var": 0.01}],
}
_SEGREGATED = [{"preset": "segregated", "lo": 0.15, "hi": 0.42}, {"preset": "segregated", "lo": 0.58, "hi": 0.85}]
_SKT = {"n1": 24, "n2": 24, "t_final": 0.05}
CASES = {  # label: config; the label starts with the scenario name
    "parabolic_jko/lagrangian": _JKO | {"snapshots": [0.002]},
    "parabolic_jko/entropic": _PAIR
    | {"scenario": "parabolic_jko", "schedule": {"tau": 1e-3, "steps": 2}, "solver": {"name": "entropic", "eps": 1e-2}},
    "parabolic_jko/entropic_barenblatt": _JKO | {"solver": {"name": "entropic"}},  # exits 1: KernelUnderflow
    "hyperbolic_split/cosine": {
        "scenario": "hyperbolic_split",
        "grid": {"n_cells": 48, "x_min": 0.0, "x_max": 1.0},
        "n_species": 3,
        "initial": {"preset": "cosine"},
        "t_final": 0.004,
    },
    "hyperbolic_transport/segregated": {
        "scenario": "hyperbolic_transport",
        "grid": {"n_cells": 48, "x_min": 0.0, "x_max": 1.0},
        "initial": _SEGREGATED,
        "t_final": 0.004,
    },
    "fourth_order": _PAIR | {"scenario": "fourth_order", "steps": 20},
    "skt_joint": _SKT | {"scenario": "skt_joint", "snapshots": [0.0, 0.037, 0.05]},
    "skt_decoupled/quadratic": _SKT | {"scenario": "skt_decoupled", "variant": "quadratic"},
    "skt_decoupled/entropy": _SKT | {"scenario": "skt_decoupled", "variant": "entropy"},
    "benchmark_closure": _PAIR | {"scenario": "benchmark_closure", "schedule": {"tau": 1e-3, "steps": 3}},
}


def tree_env(source: Path) -> dict:
    """The environment that imports btflow from the tree source; raises if another btflow would load."""
    env = os.environ | {"PYTHONPATH": str(source.resolve()), "PYTHONDONTWRITEBYTECODE": "1"}
    found = subprocess.run(
        [sys.executable, "-c", "import btflow; print(btflow.__file__)"], env=env, check=True, capture_output=True, text=True
    ).stdout.strip()
    if Path(found).parent != source.resolve() / "btflow":
        raise SystemExit(f"btflow loads from {found}, not from {source}")
    return env


def archive_source(rev: str, dest: str) -> Path:
    """Extract ``git archive REV src`` into the directory dest; returns its source tree."""
    archive = subprocess.run(["git", "archive", rev, SOURCE], check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)
    return Path(dest) / SOURCE


def digest(env: dict, config: dict) -> str:
    """SHA-256 over the exit code, stdout, stderr and output files of one CLI run in the environment env."""
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "config.json").write_text(json.dumps(config))
        proc = subprocess.run(
            [sys.executable, "-m", "btflow.cli", "run", "config.json", "--out", "out"],
            cwd=tmp, env=env, capture_output=True,
        )
        sha = hashlib.sha256(f"exit {proc.returncode}\n".encode())
        files = sorted(p for p in (Path(tmp) / "out").rglob("*") if p.is_file())
        for name, data in [("stdout", proc.stdout), ("stderr", proc.stderr)] + [(p.name, p.read_bytes()) for p in files]:
            sha.update(f"{name} {len(data)}\n".encode())
            sha.update(data)
        return sha.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="git revision whose src to compare the digests with")
    args = parser.parse_args(argv)
    env = tree_env(Path(SOURCE))
    digests = {label: digest(env, config) for label, config in CASES.items()}
    for label, sha in digests.items():
        print(f"{sha}  {label}")
    if args.base:
        with tempfile.TemporaryDirectory() as tmp:
            env = tree_env(archive_source(args.base, tmp))
            differ = [label for label, config in CASES.items() if digest(env, config) != digests[label]]
        print(f"{len(CASES) - len(differ)} of {len(CASES)} cases match {args.base}; differ: {', '.join(differ) or 'none'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
