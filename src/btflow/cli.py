"""Config-driven experiment runner.

``btflow run config.json`` executes one scenario, writes plot-ready CSV
files plus a JSON check report into the output directory, and exits 0 when
every asserted check passed, 2 on a check failure, 1 on a configuration or
solver error.  ``btflow list`` prints the available scenarios.

Outputs are deterministic: identical configs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import copy
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

SCENARIOS = {
    "parabolic_jko": "minimizing-movement run for the positive definite system, estimate checks included",
    "hyperbolic_split": "rank-deficient system via pressure diffusion + fraction transport, TV checks",
    "hyperbolic_transport": "rank-deficient system via optimal-plan species transport, metric-speed check",
    "fourth_order": "explicit fourth-order reference run, mass and energy-decay checks",
    "skt_joint": "correlated joint-density simulation with relative-entropy monitoring",
    "skt_decoupled": "nonlocally coupled marginal system (quadratic or entropy variant)",
    "benchmark_closure": "cross-validation: variational vs finite-difference trajectories at matched times",
}
CSV_BLOCK_ROWS = 1024  # rows formatted per write


def list_scenarios() -> str:
    lines = [f"{name}: {desc}" for name, desc in SCENARIOS.items()]
    return "\n".join(lines)


def _require(cfg: dict, key: str, types, default=None):
    if key not in cfg:
        if default is not None:
            return default
        raise ConfigInvalid(key, "missing")
    value = cfg[key]
    if not isinstance(value, types):
        raise ConfigInvalid(key, f"expected {types}, got {type(value).__name__}")
    return value


def _grid_from(cfg: dict) -> Grid1D:
    g = _require(cfg, "grid", dict)
    try:
        return Grid1D(
            int(_require(g, "n_cells", int)),
            float(_require(g, "x_min", (int, float), 0.0)),
            float(_require(g, "x_max", (int, float), 1.0)),
        )
    except ValueError as exc:
        raise ConfigInvalid("grid", str(exc)) from exc


def _schedule_from(cfg: dict) -> jko.JKOSchedule:
    sched = _require(cfg, "schedule", dict)
    try:
        if "taus" in sched:
            return jko.JKOSchedule(np.asarray(sched["taus"], dtype=float))
        tau = float(_require(sched, "tau", (int, float)))
        steps = int(_require(sched, "steps", int))
        return jko.JKOSchedule.uniform(tau, steps)
    except ValueError as exc:
        raise ConfigInvalid("schedule", str(exc)) from exc


def _coupling_from(cfg: dict) -> CouplingMatrix:
    entries = _require(cfg, "coupling", list)
    try:
        return CouplingMatrix(np.asarray(entries, dtype=float))
    except Exception as exc:
        raise ConfigInvalid("coupling", str(exc)) from exc


def _initial_from(cfg: dict, grid: Grid1D, n_species: int) -> DensityVector:
    entry = _require(cfg, "initial", (dict, list))
    entries = entry if isinstance(entry, list) else [entry] * n_species
    if len(entries) != n_species:
        raise ConfigInvalid("initial", f"need {n_species} species entries, got {len(entries)}")
    species = []
    x = grid.centers()
    for i, entry in enumerate(entries):
        preset = _require(entry, "preset", str)
        if preset == "barenblatt":
            t = float(entry.get("t", fdref.barenblatt_peak_time()))
            center = float(entry.get("center", 0.5 * (grid.x_min + grid.x_max)))
            species.append(fdref.barenblatt(t, grid, center=center))
        elif preset == "gaussian":
            center = float(entry.get("center", 0.5 * (grid.x_min + grid.x_max)))
            var = float(entry.get("var", 0.05))
            species.append(normalize(np.exp(-0.5 * (x - center) ** 2 / var), grid))
        elif preset == "double_bump":
            c1 = float(entry.get("center1", grid.x_min + 0.3 * grid.length))
            c2 = float(entry.get("center2", grid.x_min + 0.7 * grid.length))
            var = float(entry.get("var", 0.01 * grid.length**2))
            raw = np.exp(-0.5 * (x - c1) ** 2 / var) + np.exp(-0.5 * (x - c2) ** 2 / var)
            species.append(normalize(raw, grid))
        elif preset == "segregated":
            lo = float(entry.get("lo", grid.x_min + (0.15 + 0.43 * i) * grid.length))
            hi = float(entry.get("hi", lo + 0.27 * grid.length))
            raw = np.where((x > lo) & (x < hi), 1.0, 0.0)
            if not raw.any():
                raise ConfigInvalid("initial", f"species {i}: empty segregated block")
            species.append(normalize(raw, grid))
        elif preset == "cosine":
            amp = float(entry.get("amplitude", 0.25))
            mode = int(entry.get("mode", 1))
            sign = -1.0 if i % 2 else 1.0
            xi = (x - grid.x_min) / grid.length
            species.append(normalize(1.0 + sign * amp * np.cos(mode * np.pi * xi), grid))
        else:
            raise ConfigInvalid("initial", f"unknown preset {preset!r}")
    return DensityVector.from_species(species)


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray]):
    """One row per index, every value as a float with 17 significant digits.

    Rows go out in blocks of CSV_BLOCK_ROWS, each formatted by one ``%`` on a
    row template repeated per row; only one block is held as text at a time.
    The shortest column sets the row count.
    """
    columns = [np.asarray(c) for c in columns]
    n_rows = min((len(c) for c in columns), default=0)
    row = ",".join(["%.17g"] * len(columns)) + "\n"
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
    grid = _grid_from(cfg)
    a = _coupling_from(cfg)
    u0 = _initial_from(cfg, grid, a.n_species)
    schedule = _schedule_from(cfg)
    solver = cfg.get("solver", {})
    name = solver.get("name", "lagrangian")
    levels = solver.get("levels")
    if name == "entropic" and levels is not None:
        raise ConfigInvalid("solver", "levels applies to the lagrangian solver only")
    if levels is not None and (type(levels) is not int or levels < 1):
        raise ConfigInvalid("solver", f"levels: expected an integer of at least 1, got {levels!r}")
    traj, record = jko.run_jko(
        u0,
        a,
        schedule,
        solver=name,
        eps=float(solver.get("eps", 1e-3)),
        n_levels=levels,
        strict=False,
    )
    ks = [int(np.argmin(np.abs(record.times - float(t)))) for t in cfg.get("snapshots", [])]
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


def _positive_time(cfg: dict, key: str, default: float | None) -> float | None:
    """cfg[key], or ``default`` when absent, as a finite positive time."""
    value = cfg.get(key, default)
    if value is None and default is None:
        return None
    if type(value) not in (int, float) or not (math.isfinite(value) and value > 0):
        raise ConfigInvalid(key, f"expected a finite positive time, got {value!r}")
    return float(value)


def _run_hyperbolic(cfg: dict, out: Path, scheme: str) -> RunRecord:
    grid = _grid_from(cfg)
    n_species = cfg.get("n_species", 2)
    if type(n_species) is not int or n_species < 1:
        raise ConfigInvalid("n_species", f"expected an integer of at least 1, got {n_species!r}")
    t_final = _positive_time(cfg, "t_final", 0.1)
    dt = _positive_time(cfg, "dt", None)
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
    grid = _grid_from(cfg)
    a = _coupling_from(cfg)
    u0 = _initial_from(cfg, grid, a.n_species)
    n_steps = _require(cfg, "steps", int, 100)
    if n_steps < 1:
        raise ConfigInvalid("steps", f"expected at least 1 step, got {n_steps}")
    u_final, energies = fdref.run_bt4_fd(u0, a, n_steps)
    record = RunRecord(times=np.arange(n_steps + 1, dtype=float), energy=energies)
    check_energy_monotone(record)
    drift = abs(grid.h * float(u_final.values.sum()) - a.n_species)
    record.check("mass_conserved", drift, tolerance=1e-12 * a.n_species)
    _write_density_csv(out / "final_density.csv", u_final)
    _write_csv(out / "series.csv", ["step", "energy"], [record.times, energies])
    return record


def _skt_config(cfg: dict) -> skt.SKTConfig:
    kwargs = {f.name: cfg[f.name] for f in dataclasses.fields(skt.SKTConfig) if f.name in cfg}
    if "center" in cfg:
        kwargs["center"] = tuple(cfg["center"])
    kwargs["snapshot_times"] = tuple(cfg["snapshots"]) if "snapshots" in cfg else None
    try:
        return skt.SKTConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigInvalid("skt", str(exc)) from exc


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
        [run.record.times, run.record.tv["relative_entropy"]],
    )
    return run.record


def _run_skt_decoupled(cfg: dict, out: Path) -> RunRecord:
    config = _skt_config(cfg)
    variant = cfg.get("variant", "quadratic")
    report = skt.compare_correlated_vs_decoupled(config, variant=variant)
    _write_csv(out / "gap.csv", ["t", "l1_gap"], [report.times, report.l1_gaps])
    record = RunRecord(times=report.times)
    record.check("gap_zero_at_start", report.l1_gaps[0], tolerance=1e-6)
    return record


def _run_benchmark_closure(cfg: dict, out: Path) -> RunRecord:
    grid = _grid_from(cfg)
    a = _coupling_from(cfg)
    u0 = _initial_from(cfg, grid, a.n_species)
    schedule = _schedule_from(cfg)
    traj, record = jko.run_jko(u0, a, schedule, strict=False)
    u_fd = fdref.run_bt_fd(u0, a, schedule.horizon)
    gap = fdref.l1_error_vector(traj[-1], u_fd)
    record.check("fd_closure_l1", gap, tolerance=float(cfg.get("closure_tol", 5e-2)))
    _write_density_csv(out / "final_variational.csv", traj[-1])
    _write_density_csv(out / "final_fd.csv", u_fd)
    _write_csv(
        out / "series.csv",
        ["t", "energy", "entropy"],
        [record.times, record.energy, record.entropy],
    )
    return record


_RUNNERS = {
    "parabolic_jko": _run_parabolic,
    "hyperbolic_split": lambda cfg, out: _run_hyperbolic(cfg, out, "splitting"),
    "hyperbolic_transport": lambda cfg, out: _run_hyperbolic(cfg, out, "pressure_transport"),
    "fourth_order": _run_fourth_order,
    "skt_joint": _run_skt_joint,
    "skt_decoupled": _run_skt_decoupled,
    "benchmark_closure": _run_benchmark_closure,
}


def _echo_params(cfg: dict) -> dict:
    return {k: v for k, v in cfg.items() if k != "out_dir"}


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
        cfg = copy.deepcopy(cfg)
        for spec in overrides:
            _apply_override(cfg, spec)
        scenario = _require(cfg, "scenario", str)
        if scenario not in _RUNNERS:
            raise ConfigInvalid("scenario", f"unknown scenario {scenario!r}")
        out = Path(out_dir or cfg.get("out_dir", "out"))
        out.mkdir(parents=True, exist_ok=True)
        record = _RUNNERS[scenario](cfg, out)
        report = record.to_json(scenario=scenario, params=_echo_params(cfg))
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
