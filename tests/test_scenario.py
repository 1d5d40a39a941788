import ast
import dataclasses
import importlib
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
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import quatflight
from quatflight.cli import main as cli_main
from quatflight.dynamics import PARAMETERIZATIONS
from quatflight.errors import ConfigError
from quatflight.scenario import (
    CSV_COLUMNS,
    bundled_scenario_path,
    initial_array_for,
    load_scenario,
    parse_config,
    run_parameterization,
    run_scenario,
    write_trajectory_csv,
)
from quatflight.quat import renormalize
from quatflight.states import (
    CartesianState,
    RvhState,
    RvState,
    SphericalState,
    cartesian_to_spherical,
)

from reference import read_trajectory_csv

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

    @pytest.mark.parametrize(
        "kind, broken",
        [
            ("rv", {"eta_a": 1.1}),
            ("rv", {"eta_b": 0.6}),
            ("rvh", {"eta_a": 1.1}),
            ("rvh", {"eta_b": 0.9}),
        ],
        ids=["rv-qa", "rv-qb", "rvh-qa", "rvh-pair"],
    )
    def test_bad_quaternion_norm_rejected(self, kind, broken):
        fields = {
            "rv": {"eps_b": [0.5, 0.5, 0.5], "eta_b": 0.5},
            "rvh": {"eps_b3": 0.6, "eta_b": 0.8},
        }[kind]
        init = {"kind": kind, "r": 7e6, "v": 7000.0, "eps_a": [0.0, 0.0, 0.0], "eta_a": 1.0, **fields}
        parse_config(minimal_config_dict(initial_state=init))
        with pytest.raises(ConfigError, match="initial_state: quaternion norm"):
            parse_config(minimal_config_dict(initial_state={**init, **broken}))

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


# Test-side layout of each native initial state: YAML key -> array index.
FIELD_INDEX = {
    "rv": {"r": 0, "eps_a": slice(1, 4), "eta_a": 4, "v": 5, "eps_b": slice(6, 9), "eta_b": 9},
    "rvh": {"r": 0, "eps_a": slice(1, 4), "eta_a": 4, "v": 5, "eps_b3": 6, "eta_b": 7},
    "spherical": {"r": 0, "lon": 1, "lat": 2, "v": 3, "gamma": 4, "psi": 5},
    "cartesian": {"position": slice(0, 3), "velocity": slice(3, 6)},
}


def initial_state_fields(kind, y):
    fields = {"kind": kind}
    for key, i in FIELD_INDEX[kind].items():
        fields[key] = y[i].tolist() if isinstance(i, slice) else float(y[i])
    return fields


def _nonzero(n):
    return st.tuples(*[st.floats(-1.0, 1.0)] * n).filter(lambda xs: sum(x * x for x in xs) > 0.01)


_quaternions = _nonzero(4).map(renormalize)
_directions = _nonzero(3).map(lambda xyz: np.array(xyz) / math.sqrt(sum(x * x for x in xyz)))
_radii = st.floats(6378137.0 + 1e5, 6378137.0 + 1e6)
_speeds = st.floats(100.0, 8000.0)
_angles = st.floats(-math.pi, math.pi)

NATIVE_STATES = {
    "rv": st.builds(RvState, r=_radii, qa=_quaternions, v=_speeds, qb=_quaternions),
    "rvh": st.builds(
        lambda r, qa, v, half: RvhState(r=r, qa=qa, v=v, eps_b3=math.sin(half), eta_b=math.cos(half)),
        _radii, _quaternions, _speeds, st.floats(0.01, math.pi / 2 - 0.01),
    ),
    "spherical": st.builds(
        SphericalState, r=_radii, lon=_angles, lat=st.floats(-1.5, 1.5), v=_speeds,
        gamma=st.floats(-1.5, 1.5), psi=_angles,
    ),
    "cartesian": st.builds(
        lambda up, r, ahead, v: CartesianState(r * up, v * ahead), _directions, _radii, _directions, _speeds
    ),
}


def off_poles_and_vertical(c):
    # near a pole cartesian_to_spherical takes the latitude from asin(z / r),
    # which loses about sqrt(eps) of it; in vertical flight rvh is undefined
    up = c.position / c.r
    return math.hypot(up[0], up[1]) > 1e-3 and np.linalg.norm(np.cross(up, c.velocity / c.v)) > 1e-2


class TestInitialStateProperties:
    @pytest.mark.parametrize("kind", list(FIELD_INDEX))
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_native_fields_parse_to_the_state_array(self, kind, data):
        state = data.draw(NATIVE_STATES[kind])
        reference = PARAMETERIZATIONS[kind].to_cartesian(state.to_array())
        assume(off_poles_and_vertical(reference))
        config = parse_config(minimal_config_dict(initial_state=initial_state_fields(kind, state.to_array())))
        assert config.initial_state.y.tobytes() == state.to_array().tobytes()

        for form in PARAMETERIZATIONS:
            back = PARAMETERIZATIONS[form].to_cartesian(initial_array_for(form, config))
            # the round-trip tolerances of test_states, relative to the vector's length
            np.testing.assert_allclose(back.position, reference.position, rtol=0, atol=1e-10 * reference.r)
            np.testing.assert_allclose(back.velocity, reference.velocity, rtol=0, atol=1e-10 * reference.v)

    @pytest.mark.parametrize("kind", ["rv", "rvh"])
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_quaternion_norm_kept_or_renormalized(self, kind, data):
        y0 = data.draw(NATIVE_STATES[kind]).to_array()
        for lo, hi in PARAMETERIZATIONS[kind].quat_spans:
            for off, kept in ((1e-13, True), (1e-10, False)):
                y = y0.copy()
                y[lo:hi] *= 1.0 + off
                fields = initial_state_fields(kind, y)
                parsed = parse_config(minimal_config_dict(initial_state=fields)).initial_state.y
                if kept:
                    assert parsed.tobytes() == y.tobytes()
                else:
                    block = parsed[lo:hi]
                    assert abs(float(np.linalg.norm(block)) - 1.0) < 1e-15
                    np.testing.assert_array_equal(block, y[lo:hi] / np.linalg.norm(y[lo:hi]))
                    rest = np.ones(len(y), dtype=bool)
                    rest[lo:hi] = False
                    assert parsed[rest].tobytes() == y[rest].tobytes()


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
        y = config.initial_state.y
        assert y[0] == 6378137.0 + 37e3
        assert y[5] == 7138.0
        assert y[1:5].tolist() == [0.0, 0.0, 0.0, 1.0]
        assert y[6:10].tolist() == [HALF_SQRT2, HALF_SQRT2, 0.0, 0.0]

    def test_initial_array_native_reuse(self):
        config = load_scenario(bundled_scenario_path("entry_table3"))
        y0 = initial_array_for("rv", config)
        assert np.array_equal(y0, config.initial_state.y)
        assert not np.shares_memory(y0, config.initial_state.y)


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
        for argv in (
            ["validate", str(late)],
            ["run", str(late), "--out", str(tmp_path)],
            ["bench", str(late)],
        ):
            assert cli_main(argv) == 2
            assert "t0: must be less than stop.t_final" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, message",
        [("position", "position must be nonzero"), ("velocity", "degenerate state: zero velocity")],
    )
    def test_zero_cartesian_vector_rejected(self, tmp_path, capsys, key, message):
        data = minimal_config_dict()
        data["initial_state"][key] = [0.0, 0.0, 0.0]
        path = tmp_path / "zero.yaml"
        path.write_text(yaml.safe_dump(data))
        for argv in (
            ["validate", str(path)],
            ["run", str(path), "--out", str(tmp_path)],
            ["bench", str(path)],
        ):
            assert cli_main(argv) == 2
            assert f"initial_state: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "path, value",
        [
            ("vehicle.mass", ".nan"),
            ("stop.t_final", ".inf"),
            ("integrator.rel_tol", ".nan"),
            ("integrator.rel_tol", "-1.0"),
            ("initial_state.r", ".inf"),
            ("aero.S", ".inf"),
            ("integrator.max_steps", ".inf"),
            ("compare_points", ".nan"),
            ("t0", "-.inf"),
            ("initial_state.velocity", "[0.0, .nan, 0.0]"),
            ("controls.alpha", ".nan"),
            ("controls.bank", "{times: [0.0, .inf], values: [0.0, 1.0]}"),
            ("controls.thrust", "{times: [0.0, 10.0], values: [0.0, .nan]}"),
        ],
    )
    def test_nonfinite_or_out_of_range_number_rejected(self, tmp_path, capsys, path, value):
        data = minimal_config_dict()
        if path == "initial_state.r":
            data["initial_state"] = {"kind": "spherical", "r": 7e6, "v": 7546.0}
        *sections, key = path.split(".")
        target = data
        for section in sections:
            target = target[section]
        target[key] = yaml.safe_load(value)
        config = tmp_path / "nonfinite.yaml"
        config.write_text(yaml.safe_dump(data))
        assert cli_main(["validate", str(config)]) == 2
        assert f"config error: {path}: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "path, value",
        [("csv_stride", 2.7), ("compare_points", 3.9), ("integrator.max_steps", 10.5)],
    )
    def test_non_integer_count_rejected(self, tmp_path, capsys, path, value):
        *sections, key = path.split(".")
        data = minimal_config_dict()
        target = data
        for section in sections:
            target = target[section]
        config = tmp_path / "count.yaml"
        target[key] = value
        config.write_text(yaml.safe_dump(data))
        for argv in (
            ["validate", str(config)],
            ["run", str(config), "--out", str(tmp_path)],
            ["bench", str(config)],
        ):
            assert cli_main(argv) == 2
            assert f"config error: {path}: must be a whole number, got {value}" in (
                capsys.readouterr().err
            )
        target[key] = float(round(value))
        config.write_text(yaml.safe_dump(data))
        assert cli_main(["validate", str(config)]) == 0
        loaded = load_scenario(config)
        if key == "max_steps":
            loaded = loaded.integrator
        assert getattr(loaded, key) == round(value)
        assert type(getattr(loaded, key)) is int

    @pytest.mark.parametrize("thrust, code", [(0.0, 0), (5e4, 2), (-1.0, 2)])
    def test_vehicle_thrust_must_be_zero(self, tmp_path, capsys, thrust, code):
        data = minimal_config_dict()
        data["vehicle"]["thrust"] = thrust
        config = tmp_path / "thrust.yaml"
        config.write_text(yaml.safe_dump(data))
        assert cli_main(["validate", str(config)]) == code
        if code:
            assert "vehicle.thrust: " in capsys.readouterr().err

    def test_bench_leaves_guarded_forms_out(self, tmp_path, capsys):
        dive = bundled_scenario_path("vertical_dive")
        assert cli_main(["bench", str(dive), "--evals", "10000"]) == 0
        out = capsys.readouterr().out
        rows = [line.split()[0] for line in out.splitlines()[2:] if ":" not in line]
        assert rows == ["rv", "rvl", "cartesian"]
        assert "rvh: singularity_guard (rvh singular: zero angular momentum)" in out
        assert "spherical: singularity_guard (spherical vertical-flight singularity)" in out

        data = yaml.safe_load(dive.read_text())
        data["stop"]["expected_guards"] = []
        unexpected = tmp_path / "dive.yaml"
        unexpected.write_text(yaml.safe_dump(data))
        assert cli_main(["bench", str(unexpected), "--evals", "10000"]) == 3
        assert "rvh: singularity_guard" in capsys.readouterr().out

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

    @pytest.mark.parametrize("module", ["quatflight", "quatflight.cli"])
    def test_python_dash_m_runs_the_cli(self, module):
        env = dict(os.environ, PYTHONPATH=str(Path(quatflight.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", module, "validate", str(bundled_scenario_path("circular_orbit"))],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "valid" in proc.stdout


class TestPackageExports:
    # the scenario API, the registry, the configuration types, propagation
    # and the errors; everything else is imported from its submodule
    EXPORTS = {
        "ScenarioConfig", "load_scenario", "run_scenario", "bundled_scenario_path",
        "PARAMETERIZATIONS", "CartesianState",
        "ControlProfile", "PiecewiseLinear", "AeroModel", "Atmosphere", "CentralBody",
        "Environment", "Vehicle", "EARTH", "IntegratorConfig",
        "propagate", "StopEvent", "Trajectory",
        "QuatflightError", "ConfigError", "PropagationError", "SingularityError",
    }
    # test oracles, which live in tests/reference.py, and wrappers the
    # program has no use for
    GONE = {
        "quat": (
            "AxisAngle", "skew", "dcm_from_axis_angle", "quat_from_axis_angle",
            "quat_rates", "omega_from_rate_arrays", "omega_from_quat_rates",
        ),
        "environment": ("ControlInput", "density", "aero_forces", "net_force_B", "apparent_force_B"),
        "dynamics": ("beta_from_sigma", "sigma_from_beta", "beta_rate"),
        "scenario": ("read_trajectory_csv",),
        "bench": ("benchmark_derivatives",),
    }

    def test_every_export_resolves(self):
        assert sorted(quatflight.__all__) == sorted(self.EXPORTS)
        assert [n for n in quatflight.__all__ if not hasattr(quatflight, n)] == []
        namespace = {}
        exec("from quatflight import *", namespace)
        assert set(quatflight.__all__) <= set(namespace)
        # each form converts through its Parameterization's to_cartesian_rows
        for gone in ("rv_to_cartesian", "rvh_to_cartesian", "spherical_to_cartesian"):
            assert gone not in quatflight.__all__ and not hasattr(quatflight, gone)
        for module, names in self.GONE.items():
            for gone in names:
                assert not hasattr(importlib.import_module(f"quatflight.{module}"), gone), gone
                assert not hasattr(quatflight, gone), gone
        for cls in (RvState, RvhState, CartesianState, SphericalState):
            assert not hasattr(cls, "from_array"), cls
        assert not hasattr(quatflight.quat.UnitQuaternion, "norm")

    def test_src_holds_only_what_the_program_runs(self):
        # a top-level function or class in the package is referenced by the
        # package or the benchmark, or exported; test-only code lives in tests/
        root = Path(__file__).resolve().parents[1]
        package = root / "src" / "quatflight"
        referenced = set()
        defined = []
        for path in [*package.glob("*.py"), *(root / "perfbench").rglob("*.py")]:
            tree = ast.parse(path.read_text())
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    referenced.add(node.id)
                elif isinstance(node, ast.Attribute):
                    referenced.add(node.attr)
            if path.parent == package:
                defined += [
                    (path.name, node.name)
                    for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                ]
        kept = referenced | set(quatflight.__all__)
        assert [d for d in defined if d[1] not in kept] == []


class TestEntryScenarioInvariants:
    def test_rvl_initial_twist_uses_t0(self):
        # entry_table3 started mid-profile from a spherical initial state:
        # the lift gauge must start on the bank command at t0, not at t = 0
        data = yaml.safe_load(bundled_scenario_path("entry_table3").read_text())
        y = parse_config(data).initial_state.y
        sph = cartesian_to_spherical(PARAMETERIZATIONS["rv"].to_cartesian(y))
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
            return lambda t, y: [v * (math.nan if t > 10.0 else 1.0) for v in rhs(t, y)]

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
