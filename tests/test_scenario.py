import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import quatflight
from quatflight.cli import main as cli_main
from quatflight.dynamics import PARAMETERIZATIONS
from quatflight.errors import ConfigError
from quatflight.scenario import (
    CSV_COLUMNS,
    bundled_scenario_path,
    build_native_state,
    initial_array_for,
    load_scenario,
    parse_config,
    read_trajectory_csv,
    run_parameterization,
    run_scenario,
    write_trajectory_csv,
)
from quatflight.states import cartesian_to_spherical, rv_to_cartesian

HALF_SQRT2 = math.sqrt(2.0) / 2.0


def minimal_config_dict(**overrides):
    data = {
        "name": "mini",
        "body": {"mu": 3.986004418e14, "radius": 6378137.0, "spin_rate": 0.0},
        "atmosphere": {"rho0": 0.0, "scale_height": 8500.0},
        "aero": {"S": 1.0, "CL_alpha": 0.0, "CD0": 0.0, "K": 0.0},
        "vehicle": {"mass": 1000.0},
        "initial_state": {
            "kind": "cartesian",
            "position": [7e6, 0.0, 0.0],
            "velocity": [0.0, 7546.0, 0.0],
        },
        "controls": {"bank_mode": "sigma", "alpha": 0.0, "bank": 0.0},
        "integrator": {"method": "rk45-adaptive"},
        "stop": {"t_final": 50.0},
        "parameterizations": ["rv", "cartesian"],
    }
    data.update(overrides)
    return data


class TestConfigValidation:
    def test_minimal_valid(self):
        config = parse_config(minimal_config_dict())
        assert config.name == "mini"
        assert config.parameterizations == ("rv", "cartesian")

    def test_field_level_messages(self):
        data = minimal_config_dict()
        data["body"]["mu"] = -1.0
        data["vehicle"]["mass"] = 0.0
        data["stop"] = {}
        with pytest.raises(ConfigError) as err:
            parse_config(data)
        messages = "\n".join(err.value.messages)
        assert "body.mu" in messages
        assert "vehicle.mass" in messages
        assert "stop.t_final" in messages

    def test_bad_parameterization_rejected(self):
        data = minimal_config_dict(parameterizations=["rv", "polar"])
        with pytest.raises(ConfigError, match="polar"):
            parse_config(data)

    def test_bad_quaternion_norm_rejected(self):
        data = minimal_config_dict()
        data["initial_state"] = {
            "kind": "rv",
            "r": 7e6,
            "v": 7000.0,
            "eps_a": [0.0, 0.0, 0.0],
            "eta_a": 1.0,
            "eps_b": [0.5, 0.5, 0.5],
            "eta_b": 0.6,
        }
        with pytest.raises(ConfigError, match="initial_state"):
            parse_config(data)

    def test_bad_profile_rejected(self):
        data = minimal_config_dict()
        data["controls"] = {"alpha": {"times": [0.0, 0.0], "values": [0.1, 0.2]}}
        with pytest.raises(ConfigError, match="controls.alpha"):
            parse_config(data)

    def test_unknown_bank_mode_rejected(self):
        data = minimal_config_dict()
        data["controls"] = {"bank_mode": "roll"}
        with pytest.raises(ConfigError, match="bank_mode"):
            parse_config(data)


class TestBundledScenarios:
    def test_all_bundled_files_load(self):
        for name in (
            "entry_table3",
            "vertical_dive",
            "circular_orbit",
            "bench_entry",
            "norm_drift",
        ):
            config = load_scenario(bundled_scenario_path(name))
            assert config.name == name

    def test_entry_fixture_values_bit_exact(self):
        config = load_scenario(bundled_scenario_path("entry_table3"))
        native = build_native_state(config)
        assert native.r == 6378137.0 + 37e3
        assert native.v == 7138.0
        assert native.qa.as_array().tolist() == [0.0, 0.0, 0.0, 1.0]
        assert native.qb.eps1 == HALF_SQRT2
        assert native.qb.eps2 == HALF_SQRT2
        assert native.qb.eps3 == 0.0
        assert native.qb.eta == 0.0

    def test_initial_array_native_reuse(self):
        config = load_scenario(bundled_scenario_path("entry_table3"))
        y0 = initial_array_for("rv", config)
        native = build_native_state(config)
        assert np.array_equal(y0, native.to_array())


class TestCsvRoundTrip:
    def test_bit_exact_round_trip(self, tmp_path):
        config = parse_config(minimal_config_dict())
        results, _, code = run_scenario(config, outdir=tmp_path)
        assert code == 0
        path = [r for r in results if r.name == "rv"][0].csv_path
        data = read_trajectory_csv(path)
        assert set(data) == set(CSV_COLUMNS)
        # rewrite from parsed values and compare byte-for-byte data rows
        with open(path) as fh:
            original = fh.read()
        lines = original.strip().splitlines()
        rebuilt = [lines[0]]
        for i in range(len(data["t"])):
            row = []
            for col in CSV_COLUMNS:
                x = data[col][i]
                row.append("" if x != x else format(float(x), ".17g"))
            rebuilt.append(",".join(row))
        assert "\r\n".join(rebuilt) + "\r\n" == original or "\n".join(rebuilt) + "\n" == original

    def test_blank_columns_for_cartesian(self, tmp_path):
        config = parse_config(minimal_config_dict(parameterizations=["cartesian"]))
        results, _, code = run_scenario(config, outdir=tmp_path)
        data = read_trajectory_csv(results[0].csv_path)
        assert np.all(np.isnan(data["eps_b1"]))
        assert np.all(np.isnan(data["norm_qa"]))
        assert not np.any(np.isnan(data["x"]))


class TestRunScenario:
    def test_comparison_report_written(self, tmp_path):
        config = load_scenario(bundled_scenario_path("circular_orbit"))
        results, report, code = run_scenario(config, outdir=tmp_path, compare=True)
        assert code == 0
        assert report is not None
        payload = json.loads((tmp_path / "circular_orbit_comparison.json").read_text())
        assert "rv|cartesian" in payload["pairs"]
        errors = payload["pairs"]["rv|cartesian"]["e_r"]
        assert max(errors) < 1.0
        assert payload["timing"]["rv"]["derivative_evaluations"] > 0

    def test_unexpected_guard_exit_code(self, tmp_path):
        data = minimal_config_dict(
            name="divey",
            initial_state={
                "kind": "cartesian",
                "position": [6378137.0 + 15e3, 0.0, 0.0],
                "velocity": [-300.0, 0.0, 0.0],
            },
            parameterizations=["spherical"],
            stop={"t_final": 30.0},
        )
        config = parse_config(data)
        results, _, code = run_scenario(config, outdir=tmp_path)
        assert results[0].guard_tripped
        assert code == 3

    def test_expected_guard_exit_code_zero(self, tmp_path):
        data = minimal_config_dict(
            name="divey",
            initial_state={
                "kind": "cartesian",
                "position": [6378137.0 + 15e3, 0.0, 0.0],
                "velocity": [-300.0, 0.0, 0.0],
            },
            parameterizations=["spherical"],
            stop={"t_final": 30.0, "expected_guards": ["spherical"]},
        )
        config = parse_config(data)
        _, _, code = run_scenario(config, outdir=tmp_path)
        assert code == 0


class TestCli:
    def test_validate_ok(self, capsys):
        code = cli_main(["validate", str(bundled_scenario_path("vertical_dive"))])
        assert code == 0
        assert "valid" in capsys.readouterr().out

    def test_validate_broken_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        data = minimal_config_dict()
        del data["body"]
        bad.write_text(yaml.safe_dump(data))
        code = cli_main(["validate", str(bad)])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_run_with_param_selection(self, tmp_path, capsys):
        code = cli_main(
            [
                "run",
                str(bundled_scenario_path("vertical_dive")),
                "--param",
                "rv",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        assert (tmp_path / "vertical_dive_rv.csv").exists()

    def test_run_vertical_dive_expected_guards(self, tmp_path):
        code = cli_main(
            ["run", str(bundled_scenario_path("vertical_dive")), "--out", str(tmp_path)]
        )
        assert code == 0

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QUATFLIGHT_OUTPUT_DIR", str(tmp_path / "envout"))
        code = cli_main(
            ["run", str(bundled_scenario_path("vertical_dive")), "--param", "rv"]
        )
        assert code == 0
        assert (tmp_path / "envout" / "vertical_dive_rv.csv").exists()

    def test_t0_not_before_t_final_rejected(self, tmp_path, capsys):
        late = tmp_path / "late.yaml"
        late.write_text(yaml.safe_dump(minimal_config_dict(t0=50.0)))  # t_final is 50
        for argv in (["validate", str(late)], ["run", str(late), "--out", str(tmp_path)]):
            assert cli_main(argv) == 2
            assert "t0: must be less than stop.t_final" in capsys.readouterr().err

    def test_bench_rejects_tiny_eval_count(self, capsys):
        code = cli_main(
            ["bench", str(bundled_scenario_path("bench_entry")), "--evals", "10"]
        )
        assert code == 2

    def test_bench_small_run(self, capsys):
        code = cli_main(
            ["bench", str(bundled_scenario_path("bench_entry")), "--evals", "10000"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "trig calls/eval" in out

    def test_console_script_installed(self):
        exe = shutil.which("quatflight")
        if exe is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run(
            [exe, "validate", str(bundled_scenario_path("circular_orbit"))],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0

    def test_python_dash_m_runs_the_cli(self):
        env = dict(os.environ, PYTHONPATH=str(Path(quatflight.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "quatflight", "validate", str(bundled_scenario_path("circular_orbit"))],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "valid" in proc.stdout


class TestPackageExports:
    def test_every_export_resolves(self):
        assert [n for n in quatflight.__all__ if not hasattr(quatflight, n)] == []
        namespace = {}
        exec("from quatflight import *", namespace)
        assert set(quatflight.__all__) <= set(namespace)


class TestEntryScenarioInvariants:
    def test_rvl_initial_twist_uses_t0(self):
        # entry_table3 started mid-profile from a spherical initial state:
        # the lift gauge must start on the bank command at t0, not at t = 0
        data = yaml.safe_load(bundled_scenario_path("entry_table3").read_text())
        sph = cartesian_to_spherical(rv_to_cartesian(build_native_state(parse_config(data))))
        data["initial_state"] = {
            "kind": "spherical",
            **{k: getattr(sph, k) for k in ("r", "lon", "lat", "v", "gamma", "psi")},
        }
        data["t0"] = 100.0
        data["stop"]["t_final"] = 300.0
        data["controls"]["bank"] = {"times": [0.0, 100.0, 400.0], "values": [0.0, 0.6, 0.9]}
        config = parse_config(data)
        finals = {}
        for name in config.parameterizations:
            res = run_parameterization(name, config)
            assert res.event.kind == "terminal_time"
            finals[name] = PARAMETERIZATIONS[name].to_cartesian(res.trajectory.final_state)
        ref = finals["cartesian"]
        for name, cs in finals.items():
            assert float(np.linalg.norm(cs.position - ref.position)) < 1e-6 * ref.r, name

    def test_rv_terminates_at_surface_with_unit_norms(self, tmp_path):
        config = load_scenario(bundled_scenario_path("entry_table3"))
        results, _, code = run_scenario(config, params=["rv"], outdir=tmp_path)
        assert code == 0
        res = results[0]
        assert res.event.kind == "radius_crossing"
        data = read_trajectory_csv(res.csv_path)
        assert abs(data["r"][-1] - config.stop.radius) < 1e-3
        assert np.max(np.abs(data["norm_qa"] - 1.0)) < 1e-9
        assert np.max(np.abs(data["norm_qb"] - 1.0)) < 1e-9

    def test_rv_cartesian_agreement_first_100s(self, tmp_path):
        config = load_scenario(bundled_scenario_path("entry_table3"))
        results, report, code = run_scenario(
            config, params=["rv", "cartesian"], outdir=tmp_path, compare=True
        )
        assert code == 0
        key = "rv|cartesian"
        times = np.array(report.times[key])
        e_r = np.array(report.pair_errors[key][0])
        early = e_r[times <= 100.0]
        assert len(early) >= 5
        assert np.max(early) < 1.0

    def test_nonfinite_derivative_exit_code(self, tmp_path, monkeypatch):
        spec = PARAMETERIZATIONS["cartesian"]

        def make_poisoned_rhs(controls, env):
            rhs = spec.make_rhs(controls, env)
            return lambda t, y: rhs(t, y) * (math.nan if t > 10.0 else 1.0)

        monkeypatch.setitem(
            PARAMETERIZATIONS, "cartesian", dataclasses.replace(spec, make_rhs=make_poisoned_rhs)
        )
        config = parse_config(minimal_config_dict(name="poisoned"))
        results, _, code = run_scenario(config, params=["cartesian"], outdir=tmp_path)
        assert code == 4
        event = results[0].event
        assert (event.kind, event.message) == ("step_failure", "non-finite state")
        traj = results[0].trajectory
        assert np.all(np.isfinite(traj.y))
        assert 0.0 < traj.t[-1] <= 10.0
        assert (tmp_path / "poisoned_cartesian.csv").exists()

    def test_integration_failure_exit_code(self, tmp_path):
        data = minimal_config_dict(
            name="starved",
            integrator={"method": "rk4-fixed", "step": 0.001, "max_steps": 5},
        )
        config = parse_config(data)
        results, _, code = run_scenario(config, params=["cartesian"], outdir=tmp_path)
        assert code == 4
        assert results[0].event.kind == "step_failure"
