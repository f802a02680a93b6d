import json

import numpy as np
import pytest

from btflow.diagnostics import (
    CheckResult,
    RunRecord,
    check_energy_monotone,
    check_entropy_dissipation,
    check_hoelder,
    check_telescoped_w2,
    check_metric_speed,
    check_tv_monotone,
)
from btflow.errors import DimensionMismatch, EstimateFailed, UnknownField


def simple_record(**overrides):
    kwargs = dict(
        times=np.linspace(0.0, 0.1, 11),
        energy=np.linspace(1.0, 0.5, 11),
        entropy=np.linspace(-1.0, -1.5, 11),
        w2_increments=np.full(10, 1e-3),
        grad_norm_sq=np.full(11, 0.1),
        meta={"h": 0.01, "L": 100, "lambda_min": 1.0},
    )
    kwargs.update(overrides)
    return RunRecord(**kwargs)


class TestEnergyMonotone:
    def test_constant_series_passes(self):
        rec = simple_record(energy=np.ones(11))
        assert check_energy_monotone(rec).passed

    def test_decreasing_passes(self):
        rec = simple_record()
        result = check_energy_monotone(rec)
        assert result.passed and result.margin > 0

    def test_uptick_fails(self):
        e = np.linspace(1.0, 0.5, 11)
        e[5] = 0.9
        rec = simple_record(energy=e)
        assert not check_energy_monotone(rec).passed


class TestTelescoped:
    def test_zero_increments_pass(self):
        rec = simple_record(w2_increments=np.zeros(10))
        assert check_telescoped_w2(rec).passed

    def test_saturating_bound_passes_at_margin_zero(self):
        taus = np.full(10, 0.01)
        e0 = 1.0
        w2 = np.sqrt(2 * taus * e0 / 10)  # increments that exactly use up E0
        rec = simple_record(energy=np.linspace(e0, 0.5, 11), w2_increments=w2)
        result = check_telescoped_w2(rec)
        assert result.passed
        assert result.margin == pytest.approx(result.tolerance, abs=1e-12)

    def test_violation_fails(self):
        rec = simple_record(energy=np.linspace(0.1, 0.05, 11), w2_increments=np.full(10, 1.0))
        assert not check_telescoped_w2(rec).passed


class TestHoelder:
    def test_stationary_trajectory_passes(self):
        rec = simple_record()
        result = check_hoelder(rec, pairwise_w2=lambda i, j: 0.0)
        assert result.passed

    def test_single_step_bound(self):
        rec = simple_record(times=np.array([0.0, 0.01]), energy=np.array([1.0, 0.9]))
        ok = check_hoelder(rec, pairwise_w2=lambda i, j: np.sqrt(2 * 1.0 * 0.01) / 2)
        assert ok.passed

    def test_adversarial_violation_fails(self):
        rec = simple_record()
        result = check_hoelder(rec, pairwise_w2=lambda i, j: 10.0)
        assert not result.passed

    def test_latest_anchor_pair_is_checked(self):
        # 11 states: anchors 0-8 and 10, all 45 of their pairs, so (8, 10) is among them
        rec = simple_record()
        assert not check_hoelder(rec, pairwise_w2=lambda i, j: 10.0 if (i, j) == (8, 10) else 0.0).passed

    def test_nan_distance_fails(self):
        rec = simple_record()
        assert not check_hoelder(rec, pairwise_w2=lambda i, j: np.nan if j == 10 else 0.0).passed

    def test_requires_callback(self):
        with pytest.raises(TypeError):
            check_hoelder(simple_record())


class TestEntropyDissipation:
    def test_zero_gradient_passes(self):
        rec = simple_record(grad_norm_sq=np.zeros(11))
        assert check_entropy_dissipation(rec).passed

    def test_reference_decay_passes(self):
        # a heat-like record where the entropy drop matches the dissipation
        taus = np.full(10, 0.01)
        grads = np.full(11, 0.2)
        entropy = -1.0 - np.concatenate(([0.0], np.cumsum(taus * grads[1:])))
        rec = simple_record(entropy=entropy, grad_norm_sq=grads)
        assert check_entropy_dissipation(rec).passed

    def test_synthetic_violation_fails(self):
        rec = simple_record(entropy=np.full(11, -1.0), grad_norm_sq=np.full(11, 50.0))
        assert not check_entropy_dissipation(rec).passed

    def test_nan_entropy_fails(self):
        rec = simple_record(entropy=np.r_[np.linspace(-1.0, -1.5, 10), np.nan])
        assert not check_entropy_dissipation(rec).passed


class TestTVMonotone:
    def test_pass_and_fail(self):
        rec = simple_record()
        rec.tv["p"] = np.linspace(1.0, 0.2, 11)
        assert check_tv_monotone(rec, "p").passed
        rec.tv["r"] = np.array([1.0, 0.5, 0.8])
        assert not check_tv_monotone(rec, "r").passed

    def test_unknown_field(self):
        with pytest.raises(UnknownField):
            check_tv_monotone(simple_record(), "missing")


class TestMetricSpeed:
    def test_translation_equality_case(self):
        rec = simple_record(w2_increments=np.full(10, np.sqrt(2.0) * 0.01))
        result = check_metric_speed(rec, np.full(10, 0.01), n_species=2)
        assert result.passed
        assert result.margin == pytest.approx(1e-8, abs=1e-12)

    def test_violation_fails(self):
        rec = simple_record(w2_increments=np.full(10, 1.0))
        assert not check_metric_speed(rec, np.full(10, 0.01), n_species=2).passed

    def test_length_mismatch_raises(self):
        with pytest.raises(DimensionMismatch, match="series lengths differ"):
            check_metric_speed(simple_record(), np.full(9, 0.01), n_species=2)


class TestRecord:
    def test_checks_are_pure(self):
        rec1, rec2 = simple_record(), simple_record()
        r1 = check_energy_monotone(rec1)
        r2 = check_energy_monotone(rec2)
        assert r1 == r2

    def test_json_report(self):
        rec = simple_record()
        check_energy_monotone(rec)
        check_telescoped_w2(rec)
        report = json.loads(rec.to_json(scenario="demo"))
        assert report["scenario"] == "demo"
        assert len(report["checks"]) == 2
        for entry in report["checks"]:
            assert set(entry) == {"name", "pass", "margin", "tolerance"}

    def test_all_passed(self):
        rec = simple_record()
        assert not rec.all_passed()  # no check ran
        with pytest.raises(EstimateFailed):
            rec.finish(strict=True)
        rec.check("a", -1.0)
        assert rec.all_passed()
        assert rec.finish(strict=True) is rec
        rec.check("b", 1.0)
        assert not rec.all_passed()
        with pytest.raises(EstimateFailed):
            rec.finish(strict=True)
        assert rec.finish(strict=False) is rec

    def test_check_compares_value_with_limit_plus_tolerance(self):
        rec = RunRecord(times=np.zeros(1))
        below = rec.check("below", 1.25, limit=1.0, tolerance=0.5)
        assert below == CheckResult("below", True, 0.25, 0.5)
        above = rec.check("above", 2.0, limit=1.0, tolerance=0.5)
        assert above == CheckResult("above", False, -0.5, 0.5)
        at = rec.check("at", 1.5, limit=1.0, tolerance=0.5)
        assert at.passed and at.margin == 0.0
        empty = rec.check("empty", -np.inf)  # the largest entry of an empty series
        assert empty.passed and empty.margin == np.inf and empty.tolerance == 0.0
        nan = rec.check("nan", np.nan, tolerance=1.0)
        assert not nan.passed
        assert rec.checks == [below, above, at, empty, nan]
