"""One sample of one benchmark workload, run in a fresh process by run.py.

    python3 benchmarks/worker.py --workload NAME --seed N --trace 0|1 --t0 T --out DIR [--setup-only]

The sample generates its inputs from the seed, times the solver calls from
the generated initial state to the final state (``wall_s``), then computes
the workload's independent reference and output gates outside the timed
region.  Its last stdout line is one JSON object with the sample's
measurements and its operation tally.  ``--t0`` is the CLOCK_MONOTONIC
reading taken by the parent just before it started this process, so
``setup_s`` covers interpreter start, ``import btflow`` and input generation.

Times are reported in reference seconds: each timed segment (one per solver
call) is scaled by how fast this core ran a fixed calibration kernel right
before and right after it (see ``calibrate``).  The raw times are reported
next to them.

Exit codes: 0 a sample was measured (its operations may still have failed),
3 the seed was rejected because it would give a vacuous or invalid run.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from btflow import cli, fdref, hyperbolic, jko
from btflow.energies import CouplingMatrix
from btflow.measures import DensityVector, Grid1D, normalize

from tracing import Tracer, layer_metrics

GATE_L1 = 5e-2  # acceptance criteria 4, 5 and 7
GATE_METRIC_SPEED = 1e-8  # acceptance criterion 8
GATE_CSV_MASS = 1e-10

# The benchmark machine's cores change speed by up to 1.9x for seconds to
# minutes at a time, with other tenants' load.  Dividing each timed segment by
# a kernel timed on the same core just before and after it removes most of
# that from run-to-run comparisons; btflow's own speed-ups are untouched by it.
CALIBRATION_LOOPS = 12000
REFERENCE_CALIBRATION_S = 0.08  # the kernel on an unloaded core of the baseline machine


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def calibrate() -> float:
    """Seconds for a fixed mix of what btflow spends its time on.

    Small-array numpy calls between Python arithmetic, plus an occasional
    pass over a 256x256 array.  Independent of btflow, so it measures only
    the core's current speed.
    """
    x = np.linspace(0.0, 1.0, 256)
    m = np.linspace(0.0, 1.0, 256 * 256).reshape(256, 256)
    acc = 0.0
    start = now()
    for i in range(CALIBRATION_LOOPS):
        c = np.cumsum(x)
        k = int(np.searchsorted(c, 0.5 * c[-1]))
        acc += float(c[k]) + (i - k) * 1e-9
        if i % 40 == 0:
            acc += float((m * m + m).sum())
    return now() - start


class SeedRejected(Exception):
    """The seed would generate a vacuous or invalid run."""


class Ops:
    """Tally of attempted operations: runs, estimate checks and output gates."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, name: str, passed: bool):
        self.attempted += 1
        if not passed:
            self.failures.append(name)

    def run(self, name: str, record):
        """A run fails when it raised (no record) or recorded no check."""
        checks = record.checks if record is not None else []
        self.record(f"{name}.run", bool(checks))
        for check in checks:
            self.record(f"{name}.{check.name}", bool(check.passed))


def attempt(fn):
    """Call fn; a raise is reported on stderr and returned as None."""
    try:
        return fn()
    except Exception:  # the sample must go on to report the failed run
        traceback.print_exc(file=sys.stderr)
        return None


def require_unit_mass(u: DensityVector):
    drift = np.abs(u.grid.h * u.values.sum(axis=1) - 1.0)
    if drift.max() > 1e-12 or u.values.min() < 0.0:
        raise SeedRejected(f"generated density has mass drift {drift.max():g}")


# --- parabolic_cross: N=2 positive definite coupling, both JKO solvers -----

PARABOLIC_CELLS = 128
PARABOLIC_STEPS = 10
PARABOLIC_TAU = 1e-3
PARABOLIC_EPS = 1e-3
PARABOLIC_COUPLING = [[2.0, 1.0], [1.0, 2.0]]
PARABOLIC_SOLVERS = ("lagrangian", "entropic")  # timed as separate segments


class Parabolic:
    def __init__(self, rng, out_dir: Path):
        grid = Grid1D(PARABOLIC_CELLS, 0.0, 1.0)
        xi = grid.centers()
        # smooth positive cosine profiles; the seed sets mode-2/3 content of
        # size 1e-4: at 1e-2 or 1e-3 some seeds stop the Lagrangian descent
        # early in some steps, and the descent count over a run then spreads
        # by 25-30% across seeds instead of 3%
        c = rng.uniform(-1e-4, 1e-4, size=(2, 2))
        species = [
            normalize(
                1.0 + sign * 0.25 * np.cos(np.pi * xi)
                + c[i, 0] * np.cos(2 * np.pi * xi)
                + c[i, 1] * np.cos(3 * np.pi * xi),
                grid,
            )
            for i, sign in enumerate((1.0, -1.0))
        ]
        self.u0 = DensityVector.from_species(species)
        require_unit_mass(self.u0)
        self.a = CouplingMatrix(np.array(PARABOLIC_COUPLING))
        self.schedule = jko.JKOSchedule.uniform(PARABOLIC_TAU, PARABOLIC_STEPS)
        self.step_reports = []

    def segments(self):
        return [functools.partial(self._run, solver) for solver in PARABOLIC_SOLVERS]

    def _run(self, solver: str):
        step = jko.jko_step_entropic

        def tapped(*args, **kwargs):  # run_jko discards the step reports
            u_next, report = step(*args, **kwargs)
            self.step_reports.append(report)
            return u_next, report

        jko.jko_step_entropic = tapped
        try:
            return attempt(
                lambda: jko.run_jko(
                    self.u0, self.a, self.schedule, solver=solver, eps=PARABOLIC_EPS, strict=False
                )
            )
        finally:
            jko.jko_step_entropic = step

    def reference(self):
        return fdref.run_bt_fd(self.u0, self.a, self.schedule.horizon)

    def gates(self, outs, ref, ops: Ops) -> dict:
        out = dict(zip(PARABOLIC_SOLVERS, outs))
        gaps = []
        for solver, result in out.items():
            ops.run(solver, result[1] if result else None)
            gap = fdref.l1_error_vector(result[0][-1], ref) if result else np.inf
            ops.record(f"gate.{solver}_vs_fd", gap <= GATE_L1)
            gaps.append(gap)
        for report in self.step_reports:
            ops.record("entropic.step_converged", report.converged)
        if all(out.values()):
            cross = max(
                fdref.l1_error_vector(a, b)
                for a, b in zip(out["lagrangian"][0], out["entropic"][0])
            )
        else:
            cross = np.inf
        ops.record("gate.lagrangian_vs_entropic", cross <= GATE_L1)
        return {"result_l1": max(gaps)}

    def probe(self, ops: Ops) -> dict:
        """Descent iterations from the public Lagrangian step, which reports them."""
        u, iters = self.u0, []
        for tau in self.schedule.taus:
            result = attempt(lambda: jko.jko_step_lagrangian(u, self.a, float(tau)))
            ops.record("probe.lagrangian_step", result is not None and result[1].converged)
            if result is None:
                break
            u, report = result
            iters.append(report.inner_iterations)
        sweeps = [r.inner_iterations for r in self.step_reports]
        return {
            "jko.lagrangian.descent_iters_per_step": float(np.mean(iters)) if iters else 0.0,
            "jko.lagrangian.descent_iters_per_step.max": int(max(iters, default=0)),
            "jko.entropic.outer_sweeps_per_step": float(np.mean(sweeps)) if sweeps else 0.0,
        }


# --- hyperbolic_transport: rank-deficient system, plan transport scheme ----

HYPERBOLIC_CELLS = 256
HYPERBOLIC_BLOCK = 69  # cells per block, width 0.27
HYPERBOLIC_GAP = 34  # empty cells between the blocks
HYPERBOLIC_T = 0.02


class Hyperbolic:
    def __init__(self, rng, out_dir: Path):
        grid = Grid1D(HYPERBOLIC_CELLS, 0.0, 1.0)
        # blocks on whole cells, a fixed distance apart, near the centre: the
        # step count and the pressure gap to the reference then stay within a
        # few percent across seeds (the gap moves 3% per cell of distance)
        lo1 = int(rng.integers(36, 47))
        lo2 = lo1 + HYPERBOLIC_BLOCK + HYPERBOLIC_GAP
        cells = np.arange(HYPERBOLIC_CELLS)
        blocks = [(cells >= lo) & (cells < lo + HYPERBOLIC_BLOCK) for lo in (lo1, lo2)]
        if rng.integers(2):
            blocks.reverse()  # which species starts on the left
        occupied = [np.nonzero(b)[0] for b in blocks]
        if any(idx.size == 0 for idx in occupied):
            raise SeedRejected("empty block")
        left, right = sorted(occupied, key=lambda idx: idx[0])
        if left[0] == 0 or right[-1] == HYPERBOLIC_CELLS - 1:
            raise SeedRejected("block touches the domain boundary")
        if left[-1] + 1 >= right[0]:
            raise SeedRejected("blocks are not disjoint")
        self.u0 = DensityVector.from_species([normalize(b.astype(float), grid) for b in blocks])
        require_unit_mass(self.u0)

    def segments(self):
        return [
            lambda: attempt(
                lambda: hyperbolic.run_hyperbolic(
                    self.u0, "pressure_transport", t_final=HYPERBOLIC_T, strict=False
                )
            )
        ]

    def reference(self):
        p0 = self.u0.values.mean(axis=0)  # shared pressure for a_ij = 1/N
        u = DensityVector(self.u0.grid, p0[None, :])
        return fdref.run_bt_fd(u, CouplingMatrix(np.array([[1.0]])), HYPERBOLIC_T)

    def gates(self, outs, ref, ops: Ops) -> dict:
        (run,) = outs
        ops.run("pressure_transport", run.record if run else None)
        if run is None:
            gap, excess = np.inf, np.inf
        else:
            gap = fdref.l1_error(run.pressures[-1], ref.species(0))
            n = self.u0.n_species
            excess = float(
                np.max(run.record.w2_increments - np.sqrt(n) * run.record.meta["pressure_increments"])
            )
        ops.record("gate.pressure_vs_fd", gap <= GATE_L1)
        ops.record("gate.metric_speed", excess <= GATE_METRIC_SPEED)
        return {"result_l1": gap}


# --- skt_joint: pair density through the CLI at 256^2 ----------------------

SKT_CELLS = 256
SKT_T = 4.0
SKT_SNAPSHOTS = [2.0, 4.0]
SKT_CONTACT_CHECK = "entropy_nondecreasing_after_contact"


class SKTJoint:
    def __init__(self, rng, out_dir: Path):
        # off-diagonal product Gaussian; the seed moves it along the diagonal
        # and varies its distance from it a little
        shift = rng.uniform(-0.4, 0.4)
        half = 0.5 * rng.uniform(3.9, 4.1)
        center = [shift - half, shift + half]
        variance = 0.45
        if max(abs(c) for c in center) + 3.0 * np.sqrt(variance) >= 5.0:
            raise SeedRejected("initial Gaussian is not inside the domain")
        self.config = {
            "scenario": "skt_joint",
            "n1": SKT_CELLS,
            "n2": SKT_CELLS,
            "x_min": -5.0,
            "x_max": 5.0,
            "center": center,
            "variance": variance,
            "t_final": SKT_T,
            "snapshots": SKT_SNAPSHOTS,
        }
        self.config_path = out_dir / "config.json"
        self.config_path.write_text(json.dumps(self.config, indent=2))
        self.out_dir = out_dir / "out"

    def segments(self):
        return [lambda: attempt(lambda: cli.run(str(self.config_path), out_dir=str(self.out_dir)))]

    def reference(self):
        return None  # the pair dynamics has no independent reference

    def gates(self, outs, ref, ops: Ops) -> dict:
        (code,) = outs
        ops.record("cli.exit_code", code == 0)
        report_path = self.out_dir / "report.json"
        checks = json.loads(report_path.read_text())["checks"] if report_path.is_file() else []
        ops.record("cli.run", bool(checks))
        for check in checks:
            ops.record(f"cli.{check['name']}", bool(check["pass"]))
        if code == 0 and SKT_CONTACT_CHECK not in {c["name"] for c in checks}:
            raise SeedRejected("no diagonal contact before the horizon")
        h = (self.config["x_max"] - self.config["x_min"]) / SKT_CELLS
        joint = None
        for t in SKT_SNAPSHOTS:
            path = self.out_dir / f"p_t{t:g}.csv"
            joint = np.loadtxt(path, delimiter=",", skiprows=1)[:, 2] if path.is_file() else None
            mass = h * h * joint.sum() if joint is not None else np.inf
            ops.record("gate.csv_unit_mass", abs(mass - 1.0) <= GATE_CSV_MASS)
        files = sorted(p for p in self.out_dir.iterdir() if p.is_file()) if self.out_dir.is_dir() else []
        digest = hashlib.sha256()
        for path in files:
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        result = {
            "output_hash": digest.hexdigest(),
            "cli.bytes_written": sum(p.stat().st_size for p in files),
            "result_l1": np.inf,
        }
        if joint is not None:
            # no reference exists, so result_l1 is the final state's L1
            # distance to the product of its own marginals (the correlation
            # the scenario builds up)
            p = joint.reshape(SKT_CELLS, SKT_CELLS)
            product = np.outer(p.sum(axis=1) * h, p.sum(axis=0) * h)
            result["result_l1"] = float(h * h * np.abs(p - product).sum())
        return result


WORKLOADS = {
    "parabolic_cross": Parabolic,
    "hyperbolic_transport": Hyperbolic,
    "skt_joint": SKTJoint,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true", help="stop before the solver call")
    args = parser.parse_args(argv)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    ops = Ops()
    try:
        workload = WORKLOADS[args.workload](np.random.default_rng(args.seed), out_dir)
    except SeedRejected as exc:
        print(f"seed {args.seed} rejected: {exc}", file=sys.stderr)
        return 3
    setup_raw_s = now() - args.t0
    calibration = [calibrate()]
    setup_s = setup_raw_s * REFERENCE_CALIBRATION_S / calibration[0]
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s, "calibration_s": calibration}))
        return 0

    tracer = Tracer(f"{args.workload}-seed{args.seed}-{out_dir.name}") if args.trace else None
    span = tracer.root if tracer else lambda name: contextlib.nullcontext()
    if tracer:
        tracer.install()
    # each segment is scaled by the kernel timed just before and after it
    outs, wall_raw_s, wall_s = [], 0.0, 0.0
    for segment in workload.segments():
        t_begin = now()
        with span("bench.solve"):
            outs.append(segment())
        elapsed = now() - t_begin
        calibration.append(calibrate())
        wall_raw_s += elapsed
        wall_s += elapsed * REFERENCE_CALIBRATION_S / float(np.mean(calibration[-2:]))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    with span("bench.reference"):
        ref = attempt(workload.reference)
    if tracer:
        tracer.uninstall()
    try:
        extra = workload.gates(outs, ref, ops)
    except SeedRejected as exc:
        print(f"seed {args.seed} rejected: {exc}", file=sys.stderr)
        return 3

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "wall_s": wall_s,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "wall_raw_s": wall_raw_s,
        "setup_raw_s": setup_raw_s,
        "calibration_s": calibration,
        "result_l1": extra.pop("result_l1"),
        "output_hash": extra.pop("output_hash", None),
    }
    if tracer:
        layers = layer_metrics(tracer, "bench.solve", "bench.reference")
        layers["cli.bytes_written"] = extra.pop("cli.bytes_written", 0)
        probe = workload.probe(ops) if hasattr(workload, "probe") else {}
        for name in (
            "jko.lagrangian.descent_iters_per_step",
            "jko.lagrangian.descent_iters_per_step.max",
            "jko.entropic.outer_sweeps_per_step",
        ):
            layers[name] = probe.get(name, 0)
        result["layers"] = layers
        tracer.write(out_dir / "spans.json")
    result["attempted"] = ops.attempted
    result["failures"] = ops.failures
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
