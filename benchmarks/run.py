#!/usr/bin/env python3
"""The btflow benchmark: one workload per call, every metric by name and unit.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Each sample runs in a fresh single-threaded process (``worker.py``: BLAS
and OpenMP pinned to one thread, no pool).  Two lanes, each pinned to its
own core, run samples side by side, so at most two cores are busy.  A lane
repeats rounds until the next one would end after ``--seconds`` (at least
two rounds, one when tracing), and every metric is the median over the
samples of both lanes.  Times are in reference seconds: each sample scales
its measured times by a calibration kernel timed on its own core (see
``worker.py``); the unscaled medians are printed for reference.

With ``--trace 0`` the samples run untraced and the end-to-end metrics are
reported.  With ``--trace 1`` untraced and traced samples alternate; the
per-layer metrics come from the traced ones, and ``trace.overhead_s`` is the
traced median ``wall_s`` minus the untraced one.

Every operation a sample attempts (solver runs, estimate checks, output
gates, inner-solver convergence flags) is counted; on top of those the
benchmark checks that repeated CLI runs of one seed write byte-identical
outputs and that the machine-independent counters repeat exactly.  The last
stdout line is the JSON result; details of every sample and the spans of the
last traced sample are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracing import COUNTERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("parabolic_cross", "hyperbolic_transport", "skt_joint")
LANES = 2  # concurrent samples, each pinned to its own core
MIN_ROUNDS = {0: 2, 1: 1}  # per lane
SETUP_PROBES = 2  # extra set-up-only processes per round
RUN_LIMIT_S = 150.0  # start no round that could end after this
DEADLINE_S = 170.0  # a sample still running then is killed

def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def metric_units(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # every sample compiles btflow alike
    return env


class SeedRejected(Exception):
    """The worker refused the seed (exit code 3)."""


def run_sample(workload: str, seed: int, traced: bool, out: Path, env: dict, timeout: float,
               setup_only=False) -> dict | None:
    """One sample in a fresh process; None when it crashed or timed out."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--trace", str(int(traced)), "--out", str(out)] + ["--setup-only"] * setup_only + ["--t0"]
    t0 = now()
    try:
        proc = subprocess.run(cmd + [repr(t0)], env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        print(f"sample timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode == 3:
        sys.stderr.write(proc.stderr)
        raise SeedRejected(workload)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        result = None
    if result is None:
        sys.stderr.write(proc.stderr[-4000:])
        print(f"sample exited with code {proc.returncode} and no result", file=sys.stderr)
    elif result.get("failures"):
        sys.stderr.write(proc.stderr[-4000:])
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


class Run:
    """Samples of one benchmark run, filled concurrently by one lane per core."""

    def __init__(self, args, env: dict, samples_dir: Path):
        self.args, self.env, self.samples_dir = args, env, samples_dir
        self.start = now()
        self.lock = threading.Lock()
        self.plain: list[dict] = []
        self.traced: list[dict] = []
        self.setups: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.rejected = False

    def _add(self, result: dict | None, traced: bool, out: Path):
        with self.lock:
            if result is None:
                self.attempted += 1
                self.failures.append("sample.completed")
                return
            self.attempted += result["attempted"]
            self.failures += result["failures"]
            (self.traced if traced else self.plain).append(result)
            if traced:
                OUT.mkdir(exist_ok=True)
                name = f"trace-{self.args.workload}-seed{self.args.seed}.json"
                shutil.copyfile(out / "spans.json", OUT / name)

    def _timeout(self) -> float:
        return max(1.0, DEADLINE_S - (now() - self.start))

    def lane(self, cpu: int):
        """Rounds of samples pinned to one core, until the next would end late."""
        os.sched_setaffinity(0, {cpu})  # this thread and the processes it starts
        args = self.args
        rounds, longest = 0, 0.0
        try:
            while not self.rejected:
                round_start = now()
                for traced in (False, True) if args.trace else (False,):
                    out = self.samples_dir / f"{cpu}-{rounds:03d}{'t' if traced else 'u'}"
                    result = run_sample(args.workload, args.seed, traced, out, self.env, self._timeout())
                    self._add(result, traced, out)
                for k in range(0 if args.trace else SETUP_PROBES):
                    out = self.samples_dir / f"{cpu}-{rounds:03d}s{k}"
                    result = run_sample(args.workload, args.seed, False, out, self.env, self._timeout(),
                                        setup_only=True)
                    if result is not None:
                        with self.lock:
                            self.setups.append(result["setup_s"])
                rounds += 1
                longest = max(longest, now() - round_start)
                elapsed = now() - self.start
                if elapsed + longest > RUN_LIMIT_S:
                    break
                if rounds >= MIN_ROUNDS[args.trace] and elapsed + longest > args.seconds:
                    break
        except SeedRejected:
            self.rejected = True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "btflow" / "__init__.py").is_file():
        print(f"error: no btflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    samples_dir = OUT / f"samples-{os.getpid()}"
    run = Run(args, worker_env(), samples_dir)
    lanes = [threading.Thread(target=run.lane, args=(cpu,)) for cpu in sorted(os.sched_getaffinity(0))[:LANES]]
    try:
        for lane in lanes:
            lane.start()
        for lane in lanes:
            lane.join()
    finally:
        shutil.rmtree(samples_dir, ignore_errors=True)
    if run.rejected:
        print(f"error: seed {args.seed} rejected for {args.workload}", file=sys.stderr)
        return 3
    plain, traced, setups = run.plain, run.traced, run.setups
    attempted, failures = run.attempted, run.failures
    start = run.start

    # the CLI promises byte-identical outputs for identical configs
    hashes = [r["output_hash"] for r in plain + traced if r["output_hash"]]
    for h in hashes[1:]:
        attempted += 1
        if h != hashes[0]:
            failures.append("cli.outputs_identical")
    # machine-independent counters must repeat exactly for one seed
    for r in traced[1:]:
        attempted += 1
        if any(r["layers"][c] != traced[0]["layers"][c] for c in COUNTERS):
            failures.append("trace.counters_repeat")

    units = metric_units(args.trace)
    if args.trace:
        series = {name: [r["layers"][name] for r in traced] for name in units if name != "trace.overhead_s"}
        if traced and plain:
            overhead = statistics.median(r["wall_s"] for r in traced) - statistics.median(r["wall_s"] for r in plain)
            series["trace.overhead_s"] = [overhead]
    else:
        series = {name: [r[name] for r in plain] for name in units}
        series["setup_s"] += setups
    metrics = {}
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"samples {len(plain)} untraced + {len(traced)} traced  in {now() - start:.1f} s")
    for name, unit in units.items():
        values = [v for v in series.get(name, []) if math.isfinite(v)]
        if not values:
            print(f"error: no sample measured {name}", file=sys.stderr)
            return 1
        q1, med, q3 = quartiles(values)
        metrics[name] = {"value": med, "unit": unit}
        print(f"  {name:<48} {med:>14.6g} {unit:<11} q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}")
    for name in ("wall_raw_s", "setup_raw_s") if plain and not args.trace else ():
        med = statistics.median(r[name] for r in plain)
        print(f"  {name:<48} {med:>14.6g} {'s':<11} unscaled, for reference only")
    failed = len(failures)
    print(f"  {'failed_ratio':<48} {failed / attempted:>14.6g} {'':<11} {failed} of {attempted} operations")
    for name in sorted(set(failures)):
        print(f"  failed: {name} x{failures.count(name)}")

    OUT.mkdir(exist_ok=True)
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "attempted": attempted, "failures": failures, "samples": plain + traced}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(detail, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
