"""Self-tests of the benchmark.

The file name does not match pytest's ``test_*.py`` pattern, so the tier-1
suite never collects it.  Run it explicitly (about three minutes on two
cores):

    python3 -m pytest benchmarks/selftest.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run as bench  # noqa: E402
import worker  # noqa: E402
from tracing import COUNTERS  # noqa: E402

# every metric the benchmark definition names, end-to-end and per layer
NAMED_METRICS = {
    "wall_s", "setup_s", "peak_rss_mb", "result_l1",
    "jko.run_jko.lagrangian.total_s", "jko.run_jko.entropic.total_s", "jko.self_s",
    "jko.jko_step_entropic.ms_p50", "jko.jko_step_entropic.ms_p90",
    "jko.pool_adjacent_violators.calls", "jko.pool_adjacent_violators.total_s",
    "jko.optimality_residual.total_s", "jko.lagrangian.descent_iters_per_step",
    "jko.lagrangian.descent_iters_per_step.max", "jko.entropic.outer_sweeps_per_step",
    "transport1d.w2_exact.calls", "transport1d.w2_exact.us_per_call",
    "transport1d.w2_product.calls", "transport1d.w2_product.us_per_call",
    "transport1d.monotone_plan.calls", "transport1d.monotone_plan.us_per_call",
    "transport1d.kantorovich_potential_1d.calls", "transport1d.kantorovich_potential_1d.us_per_call",
    "measures.validations", "measures.validate_s", "measures.to_quantiles.total_s",
    "energies.total_s",
    "hyperbolic.steps", "hyperbolic.step_splitting.us_per_call",
    "hyperbolic.pressure_transport_step.us_per_call", "hyperbolic.self_s",
    "skt.steps", "skt.step_joint_fd.us_per_call", "skt.relative_entropy.us_per_call", "skt.self_s",
    "diagnostics.checks_s", "fdref.run_bt_fd.total_s", "cli.self_s", "cli.bytes_written",
    "trace.overhead_s",
}


def run_worker(workload: str, seed: int, trace: int, out: Path) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--trace", str(trace), "--out", str(out), "--t0", repr(bench.now())]
    proc = subprocess.run(cmd, env=bench.worker_env(), cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failures"] == [], result["failures"]
    return result


@pytest.fixture(scope="module", params=bench.WORKLOADS)
def samples(request, tmp_path_factory):
    """Two traced samples and one untraced sample of one seed."""
    tmp = tmp_path_factory.mktemp(request.param)
    return [run_worker(request.param, 7, trace, tmp / f"s{k}") for k, trace in enumerate((1, 1, 0))]


def test_counters_repeat_for_one_seed(samples):
    first, second, _ = samples
    for name in COUNTERS:
        assert first["layers"][name] == second["layers"][name], name
    assert first["output_hash"] == second["output_hash"]


def test_self_times_partition_the_root_span(samples):
    traced, _, plain = samples
    layers = traced["layers"]
    gap = layers["_root_s"] - layers["_layer_self_sum_s"]
    overhead = max(traced["wall_raw_s"] - plain["wall_raw_s"], 0.0)
    assert -1e-9 <= gap <= overhead + 1e-3


def test_every_named_metric_has_a_unit():
    declared = {**bench.metric_units(0), **bench.metric_units(1)}
    assert NAMED_METRICS <= set(declared)
    assert all(declared.values())


@pytest.mark.parametrize("trace", (0, 1))
def test_result_line_reports_every_metric(trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", "hyperbolic_transport", "--seed", "3",
           "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == bench.metric_units(trace)


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, f"{HERE.name}/run.py", "--workload", "skt_joint", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("workload", ["parabolic_cross", "hyperbolic_transport", "skt_joint"])
def test_no_seed_is_rejected_before_the_run(workload, tmp_path):
    for seed in range(200):
        inputs = worker.WORKLOADS[workload](np.random.default_rng(seed), tmp_path)
        if hasattr(inputs, "u0"):
            mass = inputs.u0.grid.h * inputs.u0.values.sum(axis=1)
            assert np.abs(mass - 1.0).max() <= 1e-12
