import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import btflow.cli as cli
from btflow.cli import CSV_BLOCK_ROWS, SCENARIOS, _initial_from, _write_csv, list_scenarios, main, run
from btflow.measures import Grid1D, normalize


def write_config(tmp_path: Path, **overrides) -> Path:
    cfg = {
        "scenario": "parabolic_jko",
        "grid": {"n_cells": 64, "x_min": -2.0, "x_max": 2.0},
        "schedule": {"tau": 1e-3, "steps": 5},
        "coupling": [[1.0]],
        "initial": {"preset": "barenblatt"},
        "out_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def read_report(out: Path) -> dict:
    """report.json of a run, after checking that each check passes exactly when its margin is >= 0."""
    report = json.loads((out / "report.json").read_text())
    for check in report["checks"]:
        assert check["pass"] == (check["margin"] >= 0), check
    return report


PAIR = {
    "grid": {"n_cells": 32, "x_min": 0.0, "x_max": 1.0},
    "coupling": [[2.0, 1.0], [1.0, 2.0]],
    "initial": {"preset": "cosine"},
}
HYPERBOLIC = {"grid": {"n_cells": 32, "x_min": 0.0, "x_max": 1.0}, "t_final": 0.004, "initial": {"preset": "cosine"}}
TINY_CONFIGS = {  # one small passing config per scenario, on top of write_config's defaults
    "parabolic_jko": {"snapshots": [0.002]},
    "hyperbolic_split": HYPERBOLIC | {"scenario": "hyperbolic_split", "n_species": 3},
    "hyperbolic_transport": HYPERBOLIC | {"scenario": "hyperbolic_transport"},
    "fourth_order": PAIR | {"scenario": "fourth_order", "steps": 20},
    "skt_joint": {"scenario": "skt_joint", "n1": 24, "n2": 24, "t_final": 0.2, "dt_cap": 1e-2, "snapshots": [0.0, 0.037]},
    "skt_decoupled": {"scenario": "skt_decoupled", "n1": 24, "n2": 24, "t_final": 0.05, "variant": "entropy"},
    "benchmark_closure": PAIR | {"scenario": "benchmark_closure", "schedule": {"tau": 1e-3, "steps": 3}},
}


class TestListScenarios:
    def test_contains_expected_ids(self):
        text = list_scenarios()
        assert "parabolic_jko" in text
        assert "skt_joint" in text

    def test_scenario_count(self):
        assert len(SCENARIOS) == 7
        assert len(list_scenarios().splitlines()) == 7

    def test_main_list(self, capsys):
        assert main(["list"]) == 0
        assert "hyperbolic_split" in capsys.readouterr().out


class TestRun:
    def test_parabolic_run_writes_outputs(self, tmp_path):
        cfg = write_config(tmp_path)
        assert run(str(cfg)) == 0
        out = tmp_path / "out"
        report = read_report(out)
        assert report["scenario"] == "parabolic_jko"
        assert all(c["pass"] for c in report["checks"])
        meta = report["meta"]
        assert meta["solver"] == "lagrangian"
        assert meta["h"] == 4.0 / 64 and meta["L"] == 64 and meta["lambda_min"] == 1.0
        assert meta["inner_converged"] is True and meta["inner_iterations_max"] >= 1
        assert (out / "final_density.csv").exists()
        assert (out / "series.csv").exists()
        header = (out / "final_density.csv").read_text().splitlines()[0]
        assert header == "x,u_1"

    @pytest.mark.parametrize("scenario", list(SCENARIOS))
    def test_deterministic_outputs(self, tmp_path, scenario):
        cfg = write_config(tmp_path, **TINY_CONFIGS[scenario])
        outs = [tmp_path / side for side in "ab"]
        for out in outs:
            assert run(str(cfg), out_dir=str(out)) == 0
        names = sorted(f.name for f in outs[0].iterdir())
        assert names == sorted(f.name for f in outs[1].iterdir())
        assert "report.json" in names and len(names) >= 2  # a CSV output besides the report
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_hyperbolic_outputs_are_deterministic(self, tmp_path):
        hyp = {"grid": {"n_cells": 48, "x_min": 0.0, "x_max": 1.0}, "t_final": 0.004}
        for scenario in ("hyperbolic_transport", "hyperbolic_split"):
            cfg = write_config(tmp_path, scenario=scenario, n_species=3, initial={"preset": "cosine"}, **hyp)
            outs = [tmp_path / scenario / side for side in "ab"]
            for out in outs:
                assert run(str(cfg), out_dir=str(out)) == 0
            names = sorted(f.name for f in outs[0].iterdir())
            assert names == sorted(f.name for f in outs[1].iterdir())
            assert {"final_density.csv", "series.csv", "increments.csv", "report.json"} <= set(names)
            for name in names:
                assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), (scenario, name)

    def test_negative_tau_exit_code_and_message(self, tmp_path, capsys):
        for schedule in (
            {"tau": -1e-3, "steps": 5},
            {"tau": 1e-3, "steps": 0},
            {"taus": [1e-3, float("nan")]},
        ):
            cfg = write_config(tmp_path, schedule=schedule)
            assert run(str(cfg)) == 1
            assert "schedule" in capsys.readouterr().err

    def test_unknown_scenario(self, tmp_path, capsys):
        cfg = write_config(tmp_path, scenario="quantum_leap")
        assert run(str(cfg)) == 1
        assert "scenario" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert run("no_such_config.json") == 1

    def test_override_dotted_key(self, tmp_path):
        cfg = write_config(tmp_path)
        assert run(str(cfg), overrides=["schedule.steps=2"], out_dir=str(tmp_path / "o")) == 0
        series = (tmp_path / "o" / "series.csv").read_text().splitlines()
        assert len(series) == 1 + 3  # header + 3 states

    def test_check_failure_exit_code(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "CLOSURE_TOL", 1e-12)  # unattainable on purpose
        cfg = write_config(
            tmp_path,
            scenario="benchmark_closure",
            grid={"n_cells": 64, "x_min": 0.0, "x_max": 1.0},
            coupling=[[2.0, 1.0], [1.0, 2.0]],
            initial=[{"preset": "cosine"}, {"preset": "cosine"}],
            schedule={"tau": 1e-3, "steps": 3},
        )
        assert run(str(cfg), out_dir=str(tmp_path / "fail")) == 2
        report = read_report(tmp_path / "fail")
        assert any(not c["pass"] for c in report["checks"])

    def test_skt_joint_smoke(self, tmp_path):
        cfg_path = tmp_path / "skt.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "scenario": "skt_joint",
                    "n1": 32,
                    "n2": 32,
                    "t_final": 0.2,
                    "dt_cap": 1e-2,
                    "snapshots": [0.2],
                    "out_dir": str(tmp_path / "skt_out"),
                }
            )
        )
        assert run(str(cfg_path)) == 0
        out = tmp_path / "skt_out"
        assert (out / "entropy.csv").exists()
        assert (out / "p_t0.2.csv").exists()
        assert (out / "marginals_t0.2.csv").exists()
        entropy_rows = (out / "entropy.csv").read_text().splitlines()
        assert entropy_rows[0] == "t,H_rel"
        first = float(entropy_rows[1].split(",")[1])
        last = float(entropy_rows[-1].split(",")[1])
        assert first <= 1e-6
        assert last > 10 * max(first, 0.0)
        meta = read_report(out)["meta"]
        assert meta["steps"] == len(entropy_rows) - 2 and 0.0 < meta["dt_min"] <= meta["dt_max"]

    def test_skt_degenerate_config_exit_code(self, tmp_path, capsys):
        base = {"scenario": "skt_joint", "n1": 32, "n2": 32, "t_final": 0.2}
        for extra in (
            {"t_final": 0},
            {"snapshots": [0.1, 0.3]},
            {"variance": -0.45},
            {"variance": 0},
            {"sigma": -0.3},  # an untyped ValueError from build_mobility once
            {"c_floor": 0},
            {"center": [1.0]},
            {"center": [1.0, 2.0, 3.0]},
            {"cfl_safety": 0.9},  # fixed at skt.CFL_SAFETY, not silently ignored
        ):
            cfg = write_config(tmp_path, **(base | extra))
            assert run(str(cfg)) == 1
            assert "config key 'skt'" in capsys.readouterr().err

    def test_snapshot_times_that_share_a_file_name_rejected(self, tmp_path, capsys):
        # f"{t:g}" keeps six digits, so the second snapshot would overwrite the first
        skt_cfg = {"scenario": "skt_joint", "n1": 32, "n2": 32, "t_final": 0.2, "dt_cap": 1e-2}
        jko_cfg = {"schedule": {"taus": [0.1, 1e-7]}}
        for base in (skt_cfg, jko_cfg):
            cfg = write_config(tmp_path, **(base | {"snapshots": [0.1, 0.1000001]}))
            assert run(str(cfg)) == 1
            assert "config key 'snapshots'" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()  # checked before any file or directory is written
        cfg = write_config(tmp_path, **(jko_cfg | {"snapshots": [0.1, 0.1]}))
        assert run(str(cfg), out_dir=str(tmp_path / "same")) == 0
        assert (tmp_path / "same" / "density_t0.1.csv").exists()

    def test_skt_decoupled_smoke(self, tmp_path):
        cfg = write_config(tmp_path, scenario="skt_decoupled", n1=32, n2=32, t_final=0.05)
        assert run(str(cfg)) == 0
        assert [c["name"] for c in read_report(tmp_path / "out")["checks"]] == ["gap_zero_at_start"]

    def test_hyperbolic_split_smoke(self, tmp_path):
        segregated = {
            "initial": [
                {"preset": "segregated", "lo": 0.15, "hi": 0.42},
                {"preset": "segregated", "lo": 0.58, "hi": 0.85},
            ]
        }
        cosine = {"n_species": 3, "initial": {"preset": "cosine"}}  # fractions vary on every cell
        inputs = [
            ("hyperbolic_split", segregated),
            ("hyperbolic_transport", segregated),
            ("hyperbolic_split", cosine),
        ]
        for k, (scenario, species) in enumerate(inputs):
            cfg_path = tmp_path / "hyp.json"
            cfg_path.write_text(
                json.dumps(
                    {
                        "scenario": scenario,
                        "grid": {"n_cells": 64, "x_min": 0.0, "x_max": 1.0},
                        "t_final": 0.005,
                        "out_dir": str(tmp_path / f"{scenario}_{k}"),
                    }
                    | species
                )
            )
            assert run(str(cfg_path)) == 0
            report = read_report(tmp_path / f"{scenario}_{k}")
            names = {c["name"] for c in report["checks"]}
            assert "tv_monotone[p]" in names
            meta = report["meta"]
            assert meta["steps"] >= 1 and 0.0 < meta["dt_min"] <= meta["dt_max"]

    def test_hyperbolic_dt_caps_every_step(self, tmp_path):
        base = {
            "scenario": "hyperbolic_split",
            "grid": {"n_cells": 32, "x_min": 0.0, "x_max": 1.0},
            "initial": {"preset": "segregated"},
            "t_final": 0.003,
        }
        assert run(str(write_config(tmp_path, **base)), out_dir=str(tmp_path / "auto")) == 0
        auto = read_report(tmp_path / "auto")["meta"]
        cap = 0.5 * auto["dt_min"]  # below every automatic step
        assert run(str(write_config(tmp_path, **base, dt=cap)), out_dir=str(tmp_path / "capped")) == 0
        meta = read_report(tmp_path / "capped")["meta"]
        assert meta["dt_max"] <= cap and meta["steps"] > auto["steps"]
        times = np.loadtxt(tmp_path / "capped" / "series.csv", delimiter=",", skiprows=1)[:, 0]
        assert times[-1] == 0.003 and np.all(np.diff(times) <= cap)

    def test_double_bump_preset(self, tmp_path):
        # defaults: two equal Gaussians at 30% and 70% of the interval, variance 1% of its squared length
        grid = Grid1D(64, -2.0, 2.0)
        x = grid.centers()
        raw = np.exp(-0.5 * (x + 0.8) ** 2 / 0.16) + np.exp(-0.5 * (x - 0.8) ** 2 / 0.16)
        u0 = _initial_from({"initial": {"preset": "double_bump"}}, grid, 1)
        np.testing.assert_allclose(u0.values[0], normalize(raw, grid).values, rtol=1e-12)
        cfg = write_config(tmp_path, initial={"preset": "double_bump", "center1": -1.0, "var": 0.05})
        assert run(str(cfg)) == 0
        final = np.loadtxt(tmp_path / "out" / "final_density.csv", delimiter=",", skiprows=1)
        left, right = final[:32], final[32:]
        assert abs(left[left[:, 1].argmax(), 0] - (-1.0)) <= 2 * grid.h
        assert abs(right[right[:, 1].argmax(), 0] - 0.8) <= 2 * grid.h

    def test_n_species_must_be_a_positive_integer(self, tmp_path, capsys):
        base = {
            "scenario": "hyperbolic_split",
            "grid": {"n_cells": 32, "x_min": 0.0, "x_max": 1.0},
            "initial": {"preset": "segregated"},
            "t_final": 0.003,
        }
        for n_species in (2.5, "2", True, 0, -1):
            cfg = write_config(tmp_path, **(base | {"n_species": n_species}))
            assert run(str(cfg)) == 1
            assert "config key 'n_species'" in capsys.readouterr().err

    def test_entropic_run_has_no_level_count(self, tmp_path, capsys):
        base = {
            "grid": {"n_cells": 32, "x_min": 0.0, "x_max": 1.0},
            "coupling": [[2.0, 1.0], [1.0, 2.0]],
            "initial": {"preset": "cosine"},
            "schedule": {"tau": 1e-3, "steps": 2},
        }
        cfg = write_config(tmp_path, **base, solver={"name": "entropic"})
        assert run(str(cfg)) == 0
        report = read_report(tmp_path / "out")
        assert report["meta"]["solver"] == "entropic" and report["meta"]["L"] is None
        cfg = write_config(tmp_path, **base, solver={"name": "entropic", "levels": 1})
        assert run(str(cfg), out_dir=str(tmp_path / "levels")) == 1
        assert "config key 'solver'" in capsys.readouterr().err

    def test_levels_rejected(self, tmp_path, capsys):
        # one quantile level per cell: a config that names a count would run at another one
        for levels in (2.5, "8", True, 0, -1, 48, 64):
            cfg = write_config(tmp_path, solver={"levels": levels})
            assert run(str(cfg)) == 1
            assert "config key 'solver'" in capsys.readouterr().err
        cfg = write_config(tmp_path)
        assert run(str(cfg)) == 0
        assert read_report(tmp_path / "out")["meta"]["L"] == 64

    def test_entropic_kernel_underflow_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, solver={"name": "entropic"})
        assert run(str(cfg)) == 1
        assert "KernelUnderflow: Gibbs kernel product underflows" in capsys.readouterr().err

    def test_hyperbolic_degenerate_times_exit_code(self, tmp_path, capsys):
        base = {
            "scenario": "hyperbolic_transport",
            "grid": {"n_cells": 32, "x_min": 0.0, "x_max": 1.0},
            "initial": [{"preset": "segregated"}, {"preset": "segregated"}],
            "t_final": 0.005,
        }
        for key, value in (("t_final", 0.0), ("t_final", -1.0), ("dt", 0), ("dt", -1e-4), ("dt", "fast")):
            cfg = write_config(tmp_path, **(base | {key: value}))
            assert run(str(cfg)) == 1
            assert f"config key '{key}'" in capsys.readouterr().err

    def test_fourth_order_smoke(self, tmp_path):
        cfg_path = tmp_path / "b4.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "scenario": "fourth_order",
                    "grid": {"n_cells": 32, "x_min": 0.0, "x_max": 1.0},
                    "coupling": [[1.0]],
                    "initial": {"preset": "cosine", "amplitude": 0.2},
                    "steps": 20,
                    "out_dir": str(tmp_path / "b4_out"),
                }
            )
        )
        assert run(str(cfg_path)) == 0
        read_report(tmp_path / "b4_out")

    def test_fourth_order_needs_a_step(self, tmp_path, capsys):
        # zero steps used to run no step and pass with an infinite margin
        base = {
            "scenario": "fourth_order",
            "grid": {"n_cells": 16, "x_min": 0.0, "x_max": 1.0},
            "coupling": [[1.0]],
            "initial": {"preset": "cosine"},
        }
        for steps in (0, -3, 2.5, "ten"):
            cfg = write_config(tmp_path, **(base | {"steps": steps}))
            assert run(str(cfg)) == 1
            assert "config key 'steps'" in capsys.readouterr().err
            assert not (tmp_path / "out" / "report.json").exists()

    def test_json_booleans_are_no_numbers(self, tmp_path, capsys):
        # JSON true is an int subclass in Python and would pass as 1
        fourth_order = {
            "scenario": "fourth_order",
            "grid": {"n_cells": 16, "x_min": 0.0, "x_max": 1.0},
            "coupling": [[1.0]],
            "initial": {"preset": "cosine"},
        }
        for overrides, key in (
            (fourth_order | {"steps": True}, "steps"),
            ({"schedule": {"tau": 1e-3, "steps": True}}, "steps"),
            ({"schedule": {"tau": True, "steps": 1}}, "tau"),
            ({"grid": {"n_cells": 16, "x_min": 0.0, "x_max": True}}, "x_max"),
        ):
            cfg = write_config(tmp_path, **overrides)
            assert run(str(cfg)) == 1
            assert f"config key '{key}': expected" in capsys.readouterr().err
            assert not (tmp_path / "out" / "report.json").exists()

    def test_main_run_multiple(self, tmp_path):
        cfg = write_config(tmp_path)
        code = main(["run", str(cfg), str(cfg), "--out", str(tmp_path / "multi")])
        assert code == 0


SKT_BASE = {"scenario": "skt_joint", "n1": 32, "n2": 32, "t_final": 0.2, "dt_cap": 1e-2}
UNIT_GRID = {"n_cells": 32, "x_min": 0.0, "x_max": 1.0}
TWO_SPECIES = {"coupling": [[2.0, 1.0], [1.0, 2.0]], "initial": {"preset": "cosine"}}

# id: (config entries over write_config's parabolic_jko run, overrides, key or block the error names)
WRONG_VALUES = {
    "bool_tau": ({"schedule": {"taus": [True, 1e-3]}}, [], "schedule"),
    "bool_eps": ({"solver": {"eps": True}}, [], "solver"),
    "string_var": ({"initial": {"preset": "gaussian", "var": "0.01"}}, [], "var"),
    "bool_center": ({"initial": {"preset": "gaussian", "center": True}}, [], "center"),
    "bool_coupling": ({"coupling": [[2, True], [True, 2]], "initial": {"preset": "cosine"}}, [], "coupling"),
    "bool_snapshot": ({"snapshots": [True]}, [], "snapshots"),
    "bool_closure_tol": ({"scenario": "benchmark_closure", "closure_tol": True} | TWO_SPECIES, [], "closure_tol"),
    "loose_closure_tol": ({"scenario": "benchmark_closure", "closure_tol": 0.5} | TWO_SPECIES, [], "closure_tol"),
    "float_mode": (TWO_SPECIES | {"initial": {"preset": "cosine", "mode": 1.7}}, [], "mode"),
    "skt_bool_sigma": (SKT_BASE | {"sigma": True}, [], "sigma"),
    "skt_bool_center": (SKT_BASE | {"center": [True, 2.0]}, [], "center"),
    "override_string_coupling": ({}, ['coupling=[["1"]]'], "coupling"),
    "number_solver": ({"solver": 3}, [], "solver"),
    "skt_string_variance": (SKT_BASE | {"variance": "0.45"}, [], "variance"),
    "skt_float_n1": (SKT_BASE | {"n1": 16.5}, [], "n1"),
    "number_out_dir": ({"out_dir": 3}, [], "out_dir"),
    "number_initial": ({"initial": [3]}, [], "initial"),
    "int_beyond_float": ({"scenario": "hyperbolic_split", "t_final": 10**400}, [], "t_final"),
    "unknown_solver": ({"solver": {"name": "sinkhorn"}}, [], "solver"),
    "unknown_variant": (SKT_BASE | {"scenario": "skt_decoupled", "variant": "cubic"}, [], "variant"),
    "clamped_cosine": ({"initial": {"preset": "cosine", "amplitude": 1.5}}, [], "initial"),
    "ragged_coupling": ({"coupling": [[2.0, 1.0], [1.0]]}, [], "coupling"),
    "non_square_coupling": ({"coupling": [[2.0, 1.0]]}, [], "coupling"),
    "initial_wrong_length": ({"initial": [{"preset": "cosine"}] * 2}, [], "initial"),
    "empty_segregated": ({"initial": {"preset": "segregated", "lo": 0.5, "hi": 0.5}}, [], "initial"),
    "unknown_preset": ({"initial": {"preset": "tophat"}}, [], "initial"),
    "off_grid_barenblatt": ({"grid": UNIT_GRID, "initial": {"preset": "barenblatt", "center": 100.0}}, [], "initial"),
    "off_grid_gaussian": ({"grid": UNIT_GRID, "initial": {"preset": "gaussian", "center": 100.0}}, [], "initial"),
    "override_without_equals": ({}, ["schedule.steps"], "override"),
    "override_through_non_object": ({}, ["coupling.rows=1"], "coupling.rows"),
}


@pytest.mark.parametrize("entries, overrides, key", WRONG_VALUES.values(), ids=WRONG_VALUES.keys())
def test_wrong_value_exits_naming_its_key(tmp_path, capsys, monkeypatch, entries, overrides, key):
    # each must fail before any output, with an error that names the key at fault
    monkeypatch.chdir(tmp_path)  # a default out_dir lands in tmp_path
    cfg = write_config(tmp_path, **entries)
    assert run(str(cfg), overrides=overrides) == 1
    assert f"config key '{key}'" in capsys.readouterr().err
    assert not list(tmp_path.rglob("report.json"))
    assert not (tmp_path / "out").exists()


def test_missing_required_key_exits_naming_it(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path)
    entries = json.loads(cfg.read_text())
    del entries["coupling"]
    cfg.write_text(json.dumps(entries))
    assert run(str(cfg)) == 1
    assert "config key 'coupling': missing" in capsys.readouterr().err
    assert not list(tmp_path.rglob("report.json"))
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("overrides", [[], ["a=1"]], ids=["plain", "override"])
@pytest.mark.parametrize("top", [7, None, [1, 2], "abc"], ids=["int", "null", "list", "string"])
def test_non_object_config_exits_naming_it(tmp_path, capsys, monkeypatch, top, overrides):
    # refused before any override is applied: 7 and null once raised TypeError, [1, 2] a missing scenario
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(top))
    assert run(str(cfg), overrides=overrides) == 1
    assert f"config key 'config': expected an object, got {top!r}" in capsys.readouterr().err
    assert not list(tmp_path.rglob("report.json"))


def test_unquoted_override_value_reads_as_a_string(tmp_path):
    # entropic is no JSON value, so the override sets the string "entropic"
    cfg = write_config(tmp_path, **PAIR, schedule={"tau": 1e-3, "steps": 2})
    assert run(str(cfg), overrides=["solver.name=entropic"]) == 0
    assert read_report(tmp_path / "out")["meta"]["solver"] == "entropic"


def test_int_valued_floats_run_as_floats(tmp_path):
    grid = {"n_cells": 32, "x_min": -5, "x_max": 5}
    pairs = {
        "gaussian": ({"grid": grid, "initial": {"preset": "gaussian", "center": 0}},
                     {"grid": grid | {"x_min": -5.0, "x_max": 5.0}, "initial": {"preset": "gaussian", "center": 0.0}}),
        "skt": (SKT_BASE | {"variance": 1}, SKT_BASE | {"variance": 1.0}),
    }
    for case, configs in pairs.items():
        outs = [tmp_path / case / kind for kind in ("ints", "floats")]
        codes = [run(str(write_config(tmp_path, **cfg)), out_dir=str(out)) for cfg, out in zip(configs, outs)]
        assert codes[0] == codes[1] != 1  # the wide skt Gaussian fails a check, alike in both runs
        names = sorted(f.name for f in outs[0].glob("*.csv"))
        assert names and names == sorted(f.name for f in outs[1].glob("*.csv"))
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), (case, name)


def test_readme_example_config_runs(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("Example config", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    (tmp_path / "example.json").write_text(example)
    assert run(str(tmp_path / "example.json"), overrides=["schedule.steps=3"], out_dir=str(tmp_path / "out")) == 0
    assert read_report(tmp_path / "out")["scenario"] == json.loads(example)["scenario"]


def per_value_csv(path, header, columns):
    """The CSV writer as it was before rows were formatted in blocks."""
    rows = zip(*[np.asarray(c) for c in columns])
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(format(float(v), ".17g") for v in row) + "\n")


SPECIAL_VALUES = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3, np.inf, -np.inf, np.nan, 1e22, 0.1]


@st.composite
def csv_columns(draw):
    """1-4 equally long float, int or bool columns of 0, 1, CSV_BLOCK_ROWS +- 1 or a few rows."""
    n_rows = draw(st.sampled_from([0, 1, 7, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1]))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["float", "int", "bool"]))
        if kind == "float":
            value = st.one_of(st.sampled_from(SPECIAL_VALUES), st.floats(allow_subnormal=True))
            pool = np.array(draw(st.lists(value, min_size=1, max_size=12)), dtype=float)
        elif kind == "int":
            pool = np.array(draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=12)))
        else:
            pool = np.array(draw(st.lists(st.booleans(), min_size=1, max_size=12)))
        columns.append(np.resize(pool, n_rows))  # the pool repeated, so a block edge sees every value
    return columns


class TestWriteCsv:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(csv_columns())
    def test_matches_per_value_writer(self, tmp_path_factory, columns):
        out = tmp_path_factory.mktemp("csv")
        header = [f"c{i}" for i in range(len(columns))]
        _write_csv(out / "block.csv", header, columns)
        per_value_csv(out / "row.csv", header, columns)
        assert (out / "block.csv").read_bytes() == (out / "row.csv").read_bytes()
