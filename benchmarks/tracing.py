"""In-memory span tracing around btflow's public functions.

The tracer never edits btflow: it rebinds the names under which btflow's
modules call each other (``hyperbolic.w2_exact``, ``jko.w2_product``, ...)
and the entry points the workloads call, to wrappers that record one span
per call.  A span is (name, start, end, parent, run id); spans stay in
memory until ``write`` is called after the timed region.

Every binding in any ``btflow`` module that holds the wrapped object is
replaced, so a function is counted whether it is reached across a module
boundary or through its own module's globals (``pool_adjacent_violators``
is only ever called from inside ``jko``).  Validation of ``Density``,
``DensityVector`` and ``JointDensity`` is traced by wrapping their
``__post_init__``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time

import numpy as np

# (module, attribute, span name); a name ending in "." gets the solver appended
TARGETS = [
    ("btflow.measures", "Density.__post_init__", "measures.validate"),
    ("btflow.measures", "DensityVector.__post_init__", "measures.validate"),
    ("btflow.measures", "JointDensity.__post_init__", "measures.validate"),
    ("btflow.measures", "to_quantiles", "measures.to_quantiles"),
    ("btflow.transport1d", "w2_exact", "transport1d.w2_exact"),
    ("btflow.transport1d", "w2_product", "transport1d.w2_product"),
    ("btflow.transport1d", "monotone_plan", "transport1d.monotone_plan"),
    ("btflow.transport1d", "kantorovich_potential_1d", "transport1d.kantorovich_potential_1d"),
    ("btflow.energies", "pressure", "energies.pressure"),
    ("btflow.energies", "energy_quadratic", "energies.energy_quadratic"),
    ("btflow.energies", "entropy_boltzmann", "energies.entropy_boltzmann"),
    ("btflow.energies", "gradient_norm_sq", "energies.gradient_norm_sq"),
    ("btflow.diagnostics", "check_energy_monotone", "diagnostics.check_energy_monotone"),
    ("btflow.diagnostics", "check_telescoped_w2", "diagnostics.check_telescoped_w2"),
    ("btflow.diagnostics", "check_hoelder", "diagnostics.check_hoelder"),
    ("btflow.diagnostics", "check_entropy_dissipation", "diagnostics.check_entropy_dissipation"),
    ("btflow.diagnostics", "check_tv_monotone", "diagnostics.check_tv_monotone"),
    ("btflow.diagnostics", "check_metric_speed", "diagnostics.check_metric_speed"),
    ("btflow.jko", "run_jko", "jko.run_jko."),
    ("btflow.jko", "jko_step_entropic", "jko.jko_step_entropic"),
    ("btflow.jko", "jko_step_lagrangian", "jko.jko_step_lagrangian"),
    ("btflow.jko", "optimality_residual", "jko.optimality_residual"),
    ("btflow.jko", "pool_adjacent_violators", "jko.pool_adjacent_violators"),
    ("btflow.hyperbolic", "run_hyperbolic", "hyperbolic.run_hyperbolic"),
    ("btflow.hyperbolic", "step_splitting", "hyperbolic.step_splitting"),
    ("btflow.hyperbolic", "pressure_transport_step", "hyperbolic.pressure_transport_step"),
    ("btflow.skt", "run_skt_scenario", "skt.run_skt_scenario"),
    ("btflow.skt", "step_joint_fd", "skt.step_joint_fd"),
    ("btflow.skt", "relative_entropy", "skt.relative_entropy"),
    ("btflow.fdref", "run_bt_fd", "fdref.run_bt_fd"),
    ("btflow.cli", "run", "cli.run"),
]

# per_layer metrics whose value must repeat exactly for a given seed
COUNTERS = (
    "transport1d.w2_exact.calls",
    "transport1d.w2_product.calls",
    "transport1d.monotone_plan.calls",
    "transport1d.kantorovich_potential_1d.calls",
    "jko.pool_adjacent_violators.calls",
    "jko.lagrangian.descent_iters_per_step",
    "jko.lagrangian.descent_iters_per_step.max",
    "jko.entropic.outer_sweeps_per_step",
    "measures.validations",
    "hyperbolic.steps",
    "skt.steps",
    "cli.bytes_written",
)


def _solver_of(args, kwargs) -> str:
    return kwargs.get("solver", args[3] if len(args) > 3 else "lagrangian")


class Tracer:
    """Records spans of one traced sample; install() before, uninstall() after."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int):
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, name: str):
        """A top-level span opened by the benchmark itself."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name: str):
        open_, close = self._open, self._close
        by_solver = name.endswith(".")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(name + _solver_of(args, kwargs) if by_solver else name)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return traced

    def install(self):
        modules = [m for key, m in sys.modules.items() if key == "btflow" or key.startswith("btflow.")]
        for module_name, attr, name in TARGETS:
            owner = importlib.import_module(module_name)
            if "." in attr:  # a method: rebind it on its class
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(original, name))
                self._restore.append((cls, meth, original))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(original, name)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
                        self._restore.append((module, key, original))

    def uninstall(self):
        for target, key, original in reversed(self._restore):
            setattr(target, key, original)
        self._restore.clear()

    def arrays(self):
        """(names, durations, self times, root index) of every span."""
        n = len(self.names)
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents, dtype=int)
        child = np.zeros(n)
        np.add.at(child, parents[parents >= 0], dur[parents >= 0])
        root = np.empty(n, dtype=int)
        for i in range(n):  # a parent is always opened before its children
            root[i] = i if parents[i] < 0 else root[parents[i]]
        return np.asarray(self.names, dtype=object), dur, dur - child, root

    def write(self, path):
        t0 = self.starts[0] if self.starts else 0.0
        spans = [
            [name, round(s - t0, 9), round(e - t0, 9), p]
            for name, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
        ]
        with open(path, "w") as f:
            json.dump({"run_id": self.run_id, "fields": ["name", "start_s", "end_s", "parent"], "spans": spans}, f)


def layer_metrics(tracer: Tracer, solve_root: str, reference_root: str) -> dict:
    """Per-layer metrics from the spans under the solve and reference roots."""
    names, dur, self_t, root = tracer.arrays()
    in_root = {name: np.isin(root, np.nonzero(names == name)[0]) for name in (solve_root, reference_root)}
    stats: dict[str, list] = {}  # span name -> [calls, total s, self s]
    step_ms = []
    for i in np.nonzero(in_root[solve_root])[0]:
        entry = stats.setdefault(names[i], [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += dur[i]
        entry[2] += self_t[i]
        if names[i] == "jko.jko_step_entropic":
            step_ms.append(dur[i] * 1e3)

    def calls(name):
        return stats.get(name, [0])[0]

    def total(name):
        return float(stats.get(name, [0, 0.0])[1])

    def us_per_call(name):
        return total(name) / calls(name) * 1e6 if calls(name) else 0.0

    def module_sum(prefix, column):
        return float(sum(v[column] for k, v in stats.items() if k.startswith(prefix + ".")))

    out = {
        "jko.run_jko.lagrangian.total_s": total("jko.run_jko.lagrangian"),
        "jko.run_jko.entropic.total_s": total("jko.run_jko.entropic"),
        "jko.self_s": module_sum("jko", 2),
        "jko.jko_step_entropic.ms_p50": float(np.percentile(step_ms, 50)) if step_ms else 0.0,
        "jko.jko_step_entropic.ms_p90": float(np.percentile(step_ms, 90)) if step_ms else 0.0,
        "jko.pool_adjacent_violators.calls": calls("jko.pool_adjacent_violators"),
        "jko.pool_adjacent_violators.total_s": total("jko.pool_adjacent_violators"),
        "jko.optimality_residual.total_s": total("jko.optimality_residual"),
        "measures.validations": calls("measures.validate"),
        "measures.validate_s": float(stats.get("measures.validate", [0, 0.0, 0.0])[2]),
        "measures.to_quantiles.total_s": total("measures.to_quantiles"),
        # energies and diagnostics functions never nest within their own layer
        "energies.total_s": module_sum("energies", 1),
        "hyperbolic.steps": calls("hyperbolic.step_splitting"),
        "hyperbolic.step_splitting.us_per_call": us_per_call("hyperbolic.step_splitting"),
        "hyperbolic.pressure_transport_step.us_per_call": us_per_call("hyperbolic.pressure_transport_step"),
        "hyperbolic.self_s": module_sum("hyperbolic", 2),
        "skt.steps": calls("skt.step_joint_fd"),
        "skt.step_joint_fd.us_per_call": us_per_call("skt.step_joint_fd"),
        "skt.relative_entropy.us_per_call": us_per_call("skt.relative_entropy"),
        "skt.self_s": module_sum("skt", 2),
        "diagnostics.checks_s": module_sum("diagnostics", 1),
        "cli.self_s": module_sum("cli", 2),
    }
    for fn in ("w2_exact", "w2_product", "monotone_plan", "kantorovich_potential_1d"):
        out[f"transport1d.{fn}.calls"] = calls(f"transport1d.{fn}")
        out[f"transport1d.{fn}.us_per_call"] = us_per_call(f"transport1d.{fn}")
    out["fdref.run_bt_fd.total_s"] = float(dur[in_root[reference_root] & (names == "fdref.run_bt_fd")].sum())
    # self times of the layers plus the roots' own time partition the solve spans
    out["_root_s"] = float(dur[names == solve_root].sum())
    out["_layer_self_sum_s"] = float(sum(v[2] for k, v in stats.items() if k != solve_root))
    return out
