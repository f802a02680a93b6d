"""Config-driven experiment runner.

``btflow run config.json`` executes one scenario, writes plot-ready CSV
files plus a JSON check report into the output directory, and exits 0 when
every asserted check passed, 2 on a check failure, 1 on a configuration or
solver error.  ``btflow list`` prints the available scenarios.

Outputs are deterministic: identical configs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import fdref, hyperbolic, jko, skt
from .diagnostics import RunRecord, check_energy_monotone
from .energies import CouplingMatrix
from .errors import ConfigInvalid
from .measures import DensityVector, Grid1D, normalize

CSV_BLOCK_ROWS = 1024  # rows formatted per write
CLOSURE_TOL = 5e-2  # the fd_closure_l1 gate of benchmark_closure
_ABSENT = object()  # _require's default: the key is required
_KINDS = {dict: "an object", list: "a list", str: "a string", int: "an integer", float: "a finite number"}


def _require(cfg: dict, key: str, kind, default=_ABSENT, low=None):
    """cfg[key] as a kind (dict, list, str, int, float, or [kind]: a list of that kind), default when absent.

    Bools and strings are no numbers, an int reads as a float, and low bounds a
    float strictly and an int inclusively.  Errors are ConfigInvalid naming key."""
    if key not in cfg:
        if default is _ABSENT:
            raise ConfigInvalid(key, "missing")
        return default
    if isinstance(kind, list):  # each element is read as the key's value, so its errors name the key
        return [_require({key: v}, key, kind[0], low=low) for v in _require(cfg, key, list)]
    value = cfg[key]
    if kind is float and type(value) is int:  # beyond 2**1023 an int is not read as a finite float
        value = float(value) if value.bit_length() <= 1023 else math.inf
    if isinstance(value, bool) or not isinstance(value, kind) or (kind is float and not math.isfinite(value)):
        raise ConfigInvalid(key, f"expected {_KINDS[kind]}, got {value!r}")
    if low is not None and not (value >= low if kind is int else value > low):
        raise ConfigInvalid(key, f"expected {_KINDS[kind]} {'>=' if kind is int else '>'} {low}, got {value!r}")
    return value


@contextlib.contextmanager
def _naming(key: str, errors=ValueError):
    """Re-raise an error of the kinds errors from the block as ConfigInvalid naming key, the entry it builds."""
    try:
        yield
    except errors as exc:
        raise ConfigInvalid(key, str(exc)) from exc


def _grid_from(cfg: dict) -> Grid1D:
    g = _require(cfg, "grid", dict)
    with _naming("grid"):
        return Grid1D(_require(g, "n_cells", int), _require(g, "x_min", float, 0.0), _require(g, "x_max", float, 1.0))


def _schedule_from(cfg: dict) -> jko.JKOSchedule:
    sched = _require(cfg, "schedule", dict)
    with _naming("schedule"):
        if "taus" in sched:
            return jko.JKOSchedule(_require(sched, "taus", [float]))
        return jko.JKOSchedule.uniform(_require(sched, "tau", float), _require(sched, "steps", int, low=1))


def _system_from(cfg: dict) -> tuple[CouplingMatrix, DensityVector]:
    """The coupling matrix and the initial densities, on the config's grid, of a coupled-system config."""
    grid = _grid_from(cfg)
    entries = _require(cfg, "coupling", [[float]])
    with _naming("coupling"):  # ragged rows or a non-square matrix
        a = CouplingMatrix(entries)
    return a, _initial_from(cfg, grid, a.n_species)


def _initial_from(cfg: dict, grid: Grid1D, n_species: int) -> DensityVector:
    entries = _require(cfg, "initial", [dict] if isinstance(cfg.get("initial"), list) else dict)
    entries = entries if isinstance(entries, list) else [entries] * n_species
    if len(entries) != n_species:
        raise ConfigInvalid("initial", f"need {n_species} species entries, got {len(entries)}")
    species = []
    x = grid.centers()
    middle = 0.5 * (grid.x_min + grid.x_max)
    with _naming("initial"):  # also a preset that builds no density, such as one centred off the grid
        for i, entry in enumerate(entries):
            preset = _require(entry, "preset", str)
            if preset == "barenblatt":
                t = _require(entry, "t", float, fdref.barenblatt_peak_time(), low=0.0)
                species.append(fdref.barenblatt(t, grid, center=_require(entry, "center", float, middle)))
            elif preset == "gaussian":
                center = _require(entry, "center", float, middle)
                var = _require(entry, "var", float, 0.05, low=0.0)
                species.append(normalize(np.exp(-0.5 * (x - center) ** 2 / var), grid))
            elif preset == "double_bump":
                c1 = _require(entry, "center1", float, grid.x_min + 0.3 * grid.length)
                c2 = _require(entry, "center2", float, grid.x_min + 0.7 * grid.length)
                var = _require(entry, "var", float, 0.01 * grid.length**2, low=0.0)
                raw = np.exp(-0.5 * (x - c1) ** 2 / var) + np.exp(-0.5 * (x - c2) ** 2 / var)
                species.append(normalize(raw, grid))
            elif preset == "segregated":
                lo = _require(entry, "lo", float, grid.x_min + (0.15 + 0.43 * i) * grid.length)
                hi = _require(entry, "hi", float, lo + 0.27 * grid.length)
                raw = np.where((x > lo) & (x < hi), 1.0, 0.0)
                if not raw.any():
                    raise ValueError(f"species {i}: empty segregated block")
                species.append(normalize(raw, grid))
            elif preset == "cosine":
                amp = _require(entry, "amplitude", float, 0.25)
                mode = _require(entry, "mode", int, 1)
                sign = -1.0 if i % 2 else 1.0
                xi = (x - grid.x_min) / grid.length
                species.append(normalize(1.0 + sign * amp * np.cos(mode * np.pi * xi), grid))
            else:
                raise ValueError(f"unknown preset {preset!r}")
    return DensityVector.from_species(species)


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray]):
    """One row per index, every value as a float with 17 significant digits.

    Rows go out in blocks of CSV_BLOCK_ROWS, each formatted by one ``%`` on a
    row template repeated per row; only one block is held as text at a time.
    The shortest column sets the row count.  The output directory is made
    here, at a run's first write, so a config error leaves none behind.
    """
    columns = [np.asarray(c) for c in columns]
    n_rows = min((len(c) for c in columns), default=0)
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for start in range(0, n_rows, CSV_BLOCK_ROWS):
            stop = min(start + CSV_BLOCK_ROWS, n_rows)
            block = np.column_stack([c[start:stop] for c in columns]).astype(float, copy=False)
            f.write(row * (stop - start) % tuple(block.ravel().tolist()))


def _check_snapshot_times(times):
    """Raise ConfigInvalid if two distinct snapshot times print alike under ``:g``.

    Their files would share a name, and the second would overwrite the first.
    """
    seen = {}
    for t in times:
        first = seen.setdefault(f"{t:g}", t)
        if first != t:
            raise ConfigInvalid("snapshots", f"times {first!r} and {t!r} would write the same t{t:g} file")


def _write_density_csv(path: Path, u: DensityVector):
    cols = [u.grid.centers()] + [u.values[i] for i in range(u.n_species)]
    _write_csv(path, ["x"] + [f"u_{i + 1}" for i in range(u.n_species)], cols)


def _run_parabolic(cfg: dict, out: Path) -> RunRecord:
    a, u0 = _system_from(cfg)
    schedule = _schedule_from(cfg)
    solver = _require(cfg, "solver", dict, {})
    if "levels" in solver:  # a settable field once; a config that names it would now run at another value
        raise ConfigInvalid("solver", "levels is fixed at one quantile level per cell")
    with _naming("solver"):
        name = _require(solver, "name", str, "lagrangian")
        eps = _require(solver, "eps", float, 1e-3, low=0.0)
        if name not in ("lagrangian", "entropic"):
            raise ValueError(f"unknown solver {name!r}")
    snapshots = _require(cfg, "snapshots", [float], [])
    traj, record = jko.run_jko(u0, a, schedule, solver=name, eps=eps, strict=False)
    ks = [int(np.argmin(np.abs(record.times - t))) for t in snapshots]
    _check_snapshot_times(record.times[ks].tolist())
    _write_density_csv(out / "final_density.csv", traj[-1])
    for k in ks:
        _write_density_csv(out / f"density_t{record.times[k]:g}.csv", traj[k])
    _write_csv(
        out / "series.csv",
        ["t", "energy", "entropy", "grad_norm_sq"],
        [record.times, record.energy, record.entropy, record.grad_norm_sq],
    )
    _write_csv(
        out / "increments.csv",
        ["t", "w2_increment", "optimality_residual"],
        [record.times[1:], record.w2_increments, record.residuals],
    )
    return record


def _run_hyperbolic(cfg: dict, out: Path, scheme: str) -> RunRecord:
    grid = _grid_from(cfg)
    n_species = _require(cfg, "n_species", int, 2, low=1)
    t_final = _require(cfg, "t_final", float, 0.1, low=0.0)
    dt = _require(cfg, "dt", float, None, low=0.0)
    u0 = _initial_from(cfg, grid, n_species)
    run = hyperbolic.run_hyperbolic(u0, scheme=scheme, t_final=t_final, dt=dt, strict=False)
    _write_density_csv(out / "final_density.csv", run.trajectory[-1])
    rec = run.record
    _write_csv(
        out / "series.csv",
        ["t", "tv_p"] + [f"tv_r_{i + 1}" for i in range(n_species - 1)],
        [rec.times, rec.tv["p"]] + [rec.tv[f"r_{i + 1}"] for i in range(n_species - 1)],
    )
    _write_csv(
        out / "increments.csv",
        ["t", "w2_u", "w2_p"],
        [rec.times[1:], rec.w2_increments, rec.meta["pressure_increments"]],
    )
    return rec


def _run_fourth_order(cfg: dict, out: Path) -> RunRecord:
    a, u0 = _system_from(cfg)
    n_steps = _require(cfg, "steps", int, 100, low=1)
    u_final, energies = fdref.run_bt4_fd(u0, a, n_steps)
    record = RunRecord(times=np.arange(n_steps + 1, dtype=float), energy=energies)
    check_energy_monotone(record)
    _write_density_csv(out / "final_density.csv", u_final)
    _write_csv(out / "series.csv", ["step", "energy"], [record.times, energies])
    return record


def _skt_config(cfg: dict) -> skt.SKTConfig:
    """SKTConfig from its fields in cfg, each read as its default's kind, and ``snapshots``; it checks ranges."""
    if "cfl_safety" in cfg:  # a settable field once; a config that names it would now run at another value
        raise ConfigInvalid("skt", f"cfl_safety is fixed at skt.CFL_SAFETY = {skt.CFL_SAFETY}")
    snapshots = _require(cfg, "snapshots", [float], None)
    kwargs = {"snapshot_times": None if snapshots is None else tuple(snapshots)}
    for f in dataclasses.fields(skt.SKTConfig):
        if f.name in cfg and f.name != "snapshot_times":
            kind = [float] if isinstance(f.default, tuple) else type(f.default)
            value = _require(cfg, f.name, kind)
            kwargs[f.name] = tuple(value) if isinstance(value, list) else value
    with _naming("skt", (TypeError, ValueError)):
        return skt.SKTConfig(**kwargs)


def _run_skt_joint(cfg: dict, out: Path) -> RunRecord:
    config = _skt_config(cfg)
    run = skt.run_skt_scenario(config, strict=False)
    _check_snapshot_times([t for t, _ in run.snapshots])
    for t, p in run.snapshots:
        c1, c2 = p.grid.centers()
        x1 = np.repeat(c1, p.grid.n2)
        x2 = np.tile(c2, p.grid.n1)
        _write_csv(out / f"p_t{t:g}.csv", ["x1", "x2", "p"], [x1, x2, p.values.ravel()])
    for t, pair in run.marginal_snapshots:
        _write_csv(
            out / f"marginals_t{t:g}.csv",
            ["x", "u1", "u2"],
            [pair.u1.grid.centers(), pair.u1.values, pair.u2.values],
        )
    _write_csv(
        out / "entropy.csv",
        ["t", "H_rel"],
        [run.record.times, run.record.entropy],
    )
    return run.record


def _run_skt_decoupled(cfg: dict, out: Path) -> RunRecord:
    config = _skt_config(cfg)
    variant = _require(cfg, "variant", str, "quadratic")
    with _naming("variant"):
        skt._is_quadratic(variant)
    report = skt.compare_correlated_vs_decoupled(config, variant=variant)
    _write_csv(out / "gap.csv", ["t", "l1_gap"], [report.times, report.l1_gaps])
    record = RunRecord(times=report.times)
    record.check("gap_zero_at_start", report.l1_gaps[0], tolerance=1e-6)
    return record


def _run_benchmark_closure(cfg: dict, out: Path) -> RunRecord:
    if "closure_tol" in cfg:  # the gate is fixed, so that no config can loosen the check
        raise ConfigInvalid("closure_tol", f"the fd_closure_l1 gate is fixed at cli.CLOSURE_TOL = {CLOSURE_TOL}")
    a, u0 = _system_from(cfg)
    schedule = _schedule_from(cfg)
    traj, record = jko.run_jko(u0, a, schedule, strict=False)
    u_fd = fdref.run_bt_fd(u0, a, schedule.horizon)
    record.check("fd_closure_l1", fdref.l1_error_vector(traj[-1], u_fd), tolerance=CLOSURE_TOL)
    _write_density_csv(out / "final_variational.csv", traj[-1])
    _write_density_csv(out / "final_fd.csv", u_fd)
    _write_csv(
        out / "series.csv",
        ["t", "energy", "entropy"],
        [record.times, record.energy, record.entropy],
    )
    return record


SCENARIOS = {  # name: (description, runner(cfg, out) -> RunRecord)
    "parabolic_jko": (
        "minimizing-movement run for the positive definite system, estimate checks included",
        _run_parabolic,
    ),
    "hyperbolic_split": (
        "rank-deficient system via pressure diffusion + fraction transport, TV checks",
        lambda cfg, out: _run_hyperbolic(cfg, out, "splitting"),
    ),
    "hyperbolic_transport": (
        "rank-deficient system via optimal-plan species transport, metric-speed check",
        lambda cfg, out: _run_hyperbolic(cfg, out, "pressure_transport"),
    ),
    "fourth_order": ("explicit fourth-order reference run, energy-decay check", _run_fourth_order),
    "skt_joint": ("correlated joint-density simulation with relative-entropy monitoring", _run_skt_joint),
    "skt_decoupled": ("nonlocally coupled marginal system (quadratic or entropy variant)", _run_skt_decoupled),
    "benchmark_closure": (
        "cross-validation: variational vs finite-difference final states",
        _run_benchmark_closure,
    ),
}


def list_scenarios() -> str:
    return "\n".join(f"{name}: {desc}" for name, (desc, _) in SCENARIOS.items())


def _apply_override(cfg: dict, spec: str):
    if "=" not in spec:
        raise ConfigInvalid("override", f"expected key=value, got {spec!r}")
    key, _, raw = spec.partition("=")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = cfg
    parts = key.split(".")
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigInvalid(key, "override path collides with a non-dict value")
    node[parts[-1]] = value


def run(config_path: str, overrides=(), out_dir: str | None = None) -> int:
    """Execute one scenario config; returns the process exit code."""
    try:
        cfg = json.loads(Path(config_path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        cfg = _require({"config": cfg}, "config", dict)  # a config is an object before any override
        for spec in overrides:
            _apply_override(cfg, spec)
        scenario = _require(cfg, "scenario", str)
        if scenario not in SCENARIOS:
            raise ConfigInvalid("scenario", f"unknown scenario {scenario!r}")
        cfg_out = _require(cfg, "out_dir", str, "out")
        out = Path(out_dir or cfg_out)
        record = SCENARIOS[scenario][1](cfg, out)
        report = record.to_json(scenario=scenario, params={k: v for k, v in cfg.items() if k != "out_dir"})
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(report + "\n")
    except ConfigInvalid as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # solver errors surface with context
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    passed = record.all_passed()
    summary = "all checks passed" if passed else "CHECK FAILURE (see report.json)"
    print(f"{scenario}: {summary}; outputs in {out}")
    return 0 if passed else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="btflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute scenario configs")
    runp.add_argument("configs", nargs="+", help="JSON config files")
    runp.add_argument("--override", action="append", default=[], help="key=value (dotted keys)")
    runp.add_argument("--out", default=None, help="output directory")
    sub.add_parser("list", help="list scenarios")
    args = parser.parse_args(argv)

    if args.command == "list":
        print(list_scenarios())
        return 0
    codes = [run(path, args.override, args.out) for path in args.configs]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
