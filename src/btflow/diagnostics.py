"""Run records and pass/fail checks for the a-priori estimates.

Every solver run assembles a RunRecord; each check below turns one estimate
(energy monotonicity, the telescoped step-size bound, Hoelder-1/2 continuity,
entropy dissipation, total-variation decay, the metric-speed bound) into a
CheckResult through RunRecord.check, with an explicit margin, so tolerance
regressions show up in CI long before an outright failure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, EstimateFailed, UnknownField

MONOTONE_TOL_REL = 1e-8  # energy and TV series may rise by this times their start
HOELDER_MAX_PAIRS = 50  # bound on the recorded state pairs the Hoelder check recomputes
METRIC_SPEED_TOL = 1e-8


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    margin: float
    tolerance: float

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "pass": bool(self.passed),
            "margin": float(self.margin),
            "tolerance": float(self.tolerance),
        }


@dataclass
class RunRecord:
    """Time series produced by a solver run.

    ``times`` has one entry per recorded state; per-step series (W2
    increments, residuals) are one shorter.  ``meta`` carries the scalars the
    checks need (grid spacing ``h``, level count ``L``, ``lambda_min``,
    initial energy/entropy) plus solver notes.
    """

    times: np.ndarray
    energy: np.ndarray | None = None
    entropy: np.ndarray | None = None
    w2_increments: np.ndarray | None = None
    grad_norm_sq: np.ndarray | None = None
    residuals: np.ndarray | None = None
    tv: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)

    @property
    def taus(self) -> np.ndarray:
        return np.diff(self.times)

    def check(self, name: str, value: float, limit: float = 0.0, tolerance: float = 0.0) -> CheckResult:
        """Record ``value <= limit + tolerance``, whose margin is ``limit + tolerance - value``.

        The check passes exactly when its margin is >= 0: a NaN value fails,
        and -inf (the largest entry of an empty series) passes with margin inf.
        """
        margin = float(limit) + float(tolerance) - float(value)
        self.checks.append(CheckResult(name, margin >= 0.0, margin, float(tolerance)))
        return self.checks[-1]

    def all_passed(self) -> bool:
        """True when at least one check ran and every check passed."""
        return bool(self.checks) and all(c.passed for c in self.checks)

    def finish(self, strict: bool) -> "RunRecord":
        """Return the record; with ``strict`` raise EstimateFailed unless all_passed()."""
        if strict and not self.all_passed():
            failed = [c.name for c in self.checks if not c.passed] or "no check ran"
            raise EstimateFailed(f"estimate checks failed: {failed}")
        return self

    def to_json(self, **extra) -> str:
        """The checks, the scalar ``meta`` entries and ``extra`` as sorted, indented JSON."""
        scalars = (str, int, float, bool, type(None))
        report = {
            "checks": [c.to_dict() for c in self.checks],
            "meta": {k: v for k, v in self.meta.items() if isinstance(v, scalars)},
        }
        report.update(extra)
        return json.dumps(report, indent=2, sort_keys=True)


def _check_nonincreasing(record: RunRecord, name: str, series) -> CheckResult:
    """Record that series never rises by more than MONOTONE_TOL_REL * |series[0]| in one step."""
    series = np.asarray(series, dtype=float)
    tol = MONOTONE_TOL_REL * abs(float(series[0])) if series.size else 0.0
    rise = float(np.diff(series).max()) if series.size > 1 else -np.inf
    return record.check(name, rise, tolerance=tol)


def check_energy_monotone(record: RunRecord) -> CheckResult:
    """E(k+1) <= E(k) + tol with tol = MONOTONE_TOL_REL * |E(0)|."""
    return _check_nonincreasing(record, "energy_monotone", record.energy)


def check_telescoped_w2(record: RunRecord) -> CheckResult:
    """sum_k W2(u^k, u^{k+1})^2 / (2 tau_k) <= E(u^0) + tol."""
    e0 = float(record.energy[0])
    w2 = np.asarray(record.w2_increments, dtype=float)
    lhs = float(np.sum(w2**2 / (2.0 * record.taus)))
    return record.check("telescoped_w2", lhs, e0, 1e-8 * max(1.0, abs(e0)))


def _quantile_error(record: RunRecord) -> float:
    """h + 1/L, the quantile representation error; no 1/L term when L is None."""
    levels = record.meta.get("L")
    return float(record.meta.get("h", 0.0)) + (1.0 / float(levels) if levels else 0.0)


def check_hoelder(record: RunRecord, pairwise_w2) -> CheckResult:
    """W2(u(s), u(t)) <= sqrt(2 E(u^0)) sqrt(t - s) + tol on sampled pairs.

    ``pairwise_w2(i, j)`` must return the true distance between recorded
    states i < j; a triangle-inequality proxy would be an upper bound on the
    left-hand side and could mask violations, so the true distance is
    recomputed on every pair of evenly spaced anchor states, the most anchors
    whose pairs number at most HOELDER_MAX_PAIRS (10 anchors, 45 pairs).
    """
    e0 = float(record.energy[0])
    tol = 1e-6 + 2.0 * _quantile_error(record)

    m = record.times.size
    n_anchor = max(2, (1 + math.isqrt(1 + 8 * HOELDER_MAX_PAIRS)) // 2)  # n (n - 1) / 2 <= max pairs
    # sorted and without repeats; np.unique would import numpy.ma on its first call, about 8 ms
    anchors = sorted(set(np.linspace(0, m - 1, n_anchor).astype(int).tolist()))
    pairs = [(i, j) for ai, i in enumerate(anchors) for j in anchors[ai + 1 :]]

    lhs = np.array([pairwise_w2(i, j) for i, j in pairs], dtype=float)
    gaps = np.array([record.times[j] - record.times[i] for i, j in pairs], dtype=float)
    excess = np.max(lhs - np.sqrt(2.0 * max(e0, 0.0)) * np.sqrt(gaps), initial=-np.inf)
    return record.check("hoelder_half", excess, tolerance=tol)


def check_entropy_dissipation(record: RunRecord) -> CheckResult:
    """H(u^0) >= H(u^k) + lambda_min D_k - tol_k for all k, D_k = sum_{l<=k} tau_{l-1} |grad u^l|^2,
    with lambda_min from ``meta``; tol_k = 1e-6 |H0| + 5 (h + 1/L) (1 + lambda_min D_k) is
    first-order slack for the discrete gradient quadrature.  The worst k is recorded."""
    lambda_min = float(record.meta["lambda_min"])
    ent = np.asarray(record.entropy, dtype=float)
    if ent.size < 2:
        return record.check("entropy_dissipation", -np.inf)
    dissip = lambda_min * np.cumsum(record.taus * np.asarray(record.grad_norm_sq, dtype=float)[1:])
    tols = 1e-6 * abs(ent[0]) + 5.0 * _quantile_error(record) * (1.0 + dissip)
    lhs = ent[1:] + dissip
    k = int(np.argmax(lhs - (ent[0] + tols)))
    return record.check("entropy_dissipation", lhs[k], ent[0], tols[k])


def check_tv_monotone(record: RunRecord, field_name: str) -> CheckResult:
    """The named TV series is nonincreasing within MONOTONE_TOL_REL * TV(0)."""
    if field_name not in record.tv:
        raise UnknownField(field_name)
    return _check_nonincreasing(record, f"tv_monotone[{field_name}]", record.tv[field_name])


def check_metric_speed(
    record: RunRecord, pressure_increments: np.ndarray, n_species: int
) -> CheckResult:
    """W2(u^k, u^{k+1}) <= sqrt(N) W2(p_k, p_{k+1}) + METRIC_SPEED_TOL at every step.

    For the plan transport of ``run_hyperbolic`` this bound is an identity:
    each species' push along the monotone pressure plan is monotone, hence
    optimal, and the pushes' costs sum to N W2(p_k, p_{k+1})^2 whenever the
    species average equals p_k, which the run holds to 1e-9.  The check can
    then fail only through rounding or a broken push.
    """
    w2u = np.asarray(record.w2_increments, dtype=float)
    w2p = np.asarray(pressure_increments, dtype=float)
    if w2u.shape != w2p.shape:
        raise DimensionMismatch(f"series lengths differ: {w2u.shape} vs {w2p.shape}")
    excess = float((w2u - np.sqrt(n_species) * w2p).max()) if w2u.size else -np.inf
    return record.check("metric_speed", excess, tolerance=METRIC_SPEED_TOL)
