import ast
import copy
import dataclasses
import functools
import importlib
import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import quatflight
import quatflight.scenario as scenario_module
from quatflight.bench import MIN_EVALS, benchmark_form
from quatflight.cli import main as cli_main
from quatflight.dynamics import PARAMETERIZATIONS
from quatflight.environment import AeroModel, Atmosphere, CentralBody, Vehicle
from quatflight.errors import ConfigError, SingularityError
from quatflight.propagation import IntegratorConfig
from quatflight.scenario import (
    CSV_COLUMNS,
    InitialState,
    StopConditions,
    bundled_scenario_path,
    initial_array_for,
    load_scenario,
    parse_config,
    run_parameterization,
    run_scenario,
)
from quatflight.quat import twist
from quatflight.states import cartesian_to_spherical

from reference import constant_controls, read_trajectory_csv, rv_row, rvh_row, spherical_row, unit

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

    @pytest.mark.parametrize("data", [None, [], ["name", "mini"], "name: mini", 3])
    def test_top_level_that_is_not_a_mapping_rejected(self, data, tmp_path):
        with pytest.raises(ConfigError) as err:
            parse_config(data)
        assert err.value.messages == ["top level: must be a mapping"]
        # and from a file; an empty one loads as None
        path = tmp_path / "top.yaml"
        path.write_text(yaml.safe_dump(data) if data is not None else "")
        with pytest.raises(ConfigError) as err:
            load_scenario(path)
        assert err.value.messages == ["top level: must be a mapping"]

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

    def test_overflowing_profile_is_named_as_the_profile(self, tmp_path, capsys):
        # (v1 - v0) * (t - t0) of this segment overflows inside it
        data = yaml.safe_load(bundled_scenario_path("norm_drift").read_text())
        data["controls"]["bank"]["times"][0] = -1e308
        with pytest.raises(ConfigError, match="^controls.bank: segment steps"):
            parse_config(data)
        path = tmp_path / "norm_drift.yaml"
        path.write_text(yaml.safe_dump(data))
        assert cli_main(["validate", str(path)]) == 2
        assert "config error: controls.bank: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "t0, t_final, knot", [(1.5e308, 1.6e308, -1.7e308), (-1.6e308, 1.0, 1.7e308)]
    )
    def test_knot_an_infinite_distance_from_the_run_rejected(
        self, tmp_path, capsys, t0, t_final, knot
    ):
        # the lookup takes t - knot, NaN where that overflows: every form
        # would fail at t0 on a non-finite state
        data = yaml.safe_load(bundled_scenario_path("circular_orbit").read_text())
        data["t0"], data["stop"]["t_final"] = t0, t_final
        data["controls"]["alpha"] = {"times": [knot], "values": [0.1]}
        path = tmp_path / "far_knot.yaml"
        path.write_text(yaml.safe_dump(data))
        for argv in (
            ["validate", str(path)],
            ["run", str(path), "--out", str(tmp_path)],
            ["bench", str(path)],
        ):
            assert cli_main(argv) == 2
            assert capsys.readouterr().err == (
                "config error: controls.alpha.times: every knot must be a finite distance from"
                f" every time from t0 to stop.t_final, got knots {knot:g} to {knot:g}\n"
            )
        assert not list(tmp_path.glob("*.csv"))
        data["controls"]["alpha"]["times"] = [0.0]
        path.write_text(yaml.safe_dump(data))
        assert cli_main(["validate", str(path)]) == 0

    def test_span_that_overflows_rejected(self, tmp_path, capsys):
        # t_final - t0 is inf: the compare grid would hold non-finite times
        data = yaml.safe_load(bundled_scenario_path("circular_orbit").read_text())
        data["t0"], data["stop"]["t_final"] = -1e308, 1e308
        path = tmp_path / "endless.yaml"
        path.write_text(yaml.safe_dump(data))
        assert cli_main(["run", str(path), "--compare", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "config error: t0: must be a finite distance from stop.t_final (1e+308), got -1e+308\n"
        )
        assert list(tmp_path.iterdir()) == [path]

    def test_misspelled_keys_rejected_one_message_each(self):
        # read as defaults, these keys would run rk45-adaptive at its default
        # tolerance with no radius stop
        data = minimal_config_dict()
        data["integrator"] = {"metod": "rk4-fixed", "rel_tolerance": 1.0e-3}
        data["stop"] = {"t_final": 50.0, "radus": 6000000.0}
        with pytest.raises(ConfigError) as err:
            parse_config(data)
        assert sorted(err.value.messages) == [
            "integrator.metod: unknown key",
            "integrator.rel_tolerance: unknown key",
            "stop.radus: unknown key",
        ]

    def test_mapping_shared_by_an_alias_is_checked_once(self):
        text = yaml.safe_dump(minimal_config_dict()).replace(
            "  alpha: 0.0\n", "  alpha: &knots {times: [0.0, 10.0], values: [0.1, 0.2], valuse: []}\n"
        ).replace("  bank: 0.0\n", "  bank: *knots\n")
        with pytest.raises(ConfigError) as err:
            parse_config(yaml.safe_load(text))
        assert err.value.messages == ["controls.alpha.valuse: unknown key"]
        config = parse_config(yaml.safe_load(text.replace(", valuse: []", "")))
        assert config.controls.alpha.values == config.controls.bank.values == [0.1, 0.2]
        # each use keeps its own path, and a key one use does not read is unknown there
        with pytest.raises(ConfigError) as err:
            parse_config(yaml.safe_load(text.replace("[0.1, 0.2], valuse: []", "[0.1, x]")))
        assert err.value.messages == [
            "controls.alpha.values: every entry must be a number, got 'x'",
            "controls.bank.values: every entry must be a number, got 'x'",
        ]
        data = minimal_config_dict()
        data["atmosphere"] = data["body"]
        with pytest.raises(ConfigError) as err:
            parse_config(yaml.safe_load(yaml.safe_dump(data)))
        assert err.value.messages == [f"atmosphere.{key}: unknown key" for key in data["body"]]

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
SPHERICAL_KEYS = tuple(FIELD_INDEX["spherical"])


def initial_state_fields(kind, y):
    fields = {"kind": kind}
    for key, i in FIELD_INDEX[kind].items():
        fields[key] = y[i].tolist() if isinstance(i, slice) else float(y[i])
    return fields


def _nonzero(n):
    return st.tuples(*[st.floats(-1.0, 1.0)] * n).filter(lambda xs: sum(x * x for x in xs) > 0.01)


_quaternions = _nonzero(4).map(unit)
_directions = _nonzero(3).map(lambda xyz: np.array(xyz) / math.sqrt(sum(x * x for x in xyz)))
_radii = st.floats(6378137.0 + 1e5, 6378137.0 + 1e6)
_speeds = st.floats(100.0, 8000.0)
_angles = st.floats(-math.pi, math.pi)

# state rows of each native form
NATIVE_STATES = {
    "rv": st.builds(rv_row, r=_radii, qa=_quaternions, v=_speeds, qb=_quaternions),
    "rvh": st.builds(
        lambda r, qa, v, half: rvh_row(r, qa, v, math.sin(half), math.cos(half)),
        _radii, _quaternions, _speeds, st.floats(0.01, math.pi / 2 - 0.01),
    ),
    "spherical": st.builds(
        spherical_row, r=_radii, lon=_angles, lat=st.floats(-1.5, 1.5), v=_speeds,
        gamma=st.floats(-1.5, 1.5), psi=_angles,
    ),
    "cartesian": st.builds(
        lambda up, r, ahead, v: np.concatenate((r * up, v * ahead)),
        _directions, _radii, _directions, _speeds,
    ),
}


def off_vertical(c):
    # in vertical flight rvh is undefined; cartesian_to_spherical takes the
    # latitude and flight-path angle from atan2, exact to rounding at any
    # distance from a pole or from vertical flight
    up = c.position / c.r
    return np.linalg.norm(np.cross(up, c.velocity / c.v)) > 1e-2


class TestInitialStateProperties:
    @pytest.mark.parametrize("kind", list(FIELD_INDEX))
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_native_fields_parse_to_the_state_array(self, kind, data):
        state = data.draw(NATIVE_STATES[kind])
        reference = PARAMETERIZATIONS[kind].to_cartesian(state)
        assume(off_vertical(reference))
        config = parse_config(minimal_config_dict(initial_state=initial_state_fields(kind, state)))
        assert config.initial_state.y.tobytes() == state.tobytes()

        for form in PARAMETERIZATIONS:
            back = PARAMETERIZATIONS[form].to_cartesian(initial_array_for(form, config))
            # the round-trip tolerances of test_states, relative to the vector's length
            np.testing.assert_allclose(back.position, reference.position, rtol=0, atol=1e-10 * reference.r)
            np.testing.assert_allclose(back.velocity, reference.velocity, rtol=0, atol=1e-10 * reference.v)

    @pytest.mark.parametrize("kind", ["rv", "rvh"])
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_quaternion_norm_kept_or_renormalized(self, kind, data):
        y0 = data.draw(NATIVE_STATES[kind])
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


BUNDLED = ("entry_table3", "vertical_dive", "circular_orbit", "bench_entry", "norm_drift")


class TestBundledScenarios:
    def test_all_bundled_files_load(self):
        for name in BUNDLED:
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


class TestInitialRows:
    """A config derives every form's initial row once, when it is built."""

    @pytest.mark.parametrize("name", ["circular_orbit", "vertical_dive"])
    def test_each_row_is_derived_once(self, name, tmp_path, monkeypatch):
        calls = []

        def counted(form, derive):
            def counting(*args):
                calls.append(form)
                return derive(*args)

            return counting

        for form, spec in list(PARAMETERIZATIONS.items()):
            hooks = {
                hook: counted(form, getattr(spec, hook))
                for hook in ("from_cartesian", "from_rv")
                if getattr(spec, hook) is not None
            }
            monkeypatch.setitem(PARAMETERIZATIONS, form, dataclasses.replace(spec, **hooks))
        config = load_scenario(bundled_scenario_path(name))
        derived = sorted(f for f in PARAMETERIZATIONS if f != config.initial_state.kind)
        assert sorted(calls) == derived
        run_scenario(config, params=list(PARAMETERIZATIONS), outdir=tmp_path, compare=True)
        benchmark_form("rvl", config, MIN_EVALS)
        assert sorted(calls) == derived

    def test_replace_derives_the_rows_again(self):
        config = load_scenario(bundled_scenario_path("circular_orbit"))
        banked = dataclasses.replace(config, controls=constant_controls(bank=0.5))
        rv, rvl = initial_array_for("rv", banked), initial_array_for("rvl", banked)
        assert rv.tobytes() == initial_array_for("rv", config).tobytes()
        assert rvl[:6].tobytes() == rv[:6].tobytes()
        assert rvl[6:10].tobytes() == twist(rv[6:10], 0.5).tobytes()
        assert rvl.tobytes() != initial_array_for("rvl", config).tobytes()

    def test_a_config_built_in_code_checks_quaternion_norms_as_a_file_does(self):
        config = load_scenario(bundled_scenario_path("entry_table3"))
        y = config.initial_rows["rv"].copy()
        y[6:10] *= 1.5
        with pytest.raises(ValueError, match=r"^quaternion norm 1\.500+\d* violates unit constraint$"):
            dataclasses.replace(config, initial_state=InitialState("rv", y.copy()))
        with pytest.raises(ConfigError, match=r"^initial_state: quaternion norm 1\.500+\d* violates unit"):
            parse_config(minimal_config_dict(initial_state=initial_state_fields("rv", y)))
        # off by more than the keep tolerance, the block is renormalized
        y[6:10] *= (1.0 + 1e-10) / 1.5
        rows = dataclasses.replace(config, initial_state=InitialState("rv", y.copy())).initial_rows
        assert abs(float(np.linalg.norm(rows["rv"][6:10])) - 1.0) < 1e-15
        assert rows["rv"][:6].tobytes() == y[:6].tobytes()

    def test_a_row_that_overflows_is_not_finite(self):
        # a file's overflow is trapped on the way ("initial_state: overflow
        # encountered ..."); a config built in code meets the rows' finite check
        config = load_scenario(bundled_scenario_path("circular_orbit"))
        init = InitialState("cartesian", np.array([1e200, 0.0, 0.0, 0.0, 1e3, 0.0]))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="^the rv initial state is not finite$"):
                dataclasses.replace(config, initial_state=init)
        with pytest.raises(ConfigError, match="^initial_state: overflow encountered"):
            parse_config(minimal_config_dict(initial_state=initial_state_fields("cartesian", init.y)))

    def test_fields_cannot_be_assigned(self):
        config = load_scenario(bundled_scenario_path("circular_orbit"))
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.integrator = dataclasses.replace(config.integrator, step=1.0)


# every number field of the records a scenario builds: (its section, or ""
# at the top level, its YAML key, its field name, its bound)
NUMBER_FIELDS = [
    ("body", "mu", "mu", (">", 0.0)),
    ("body", "radius", "radius", (">", 0.0)),
    ("body", "spin_rate", "spin_rate", (">=", 0.0)),
    ("atmosphere", "rho0", "rho0", (">=", 0.0)),
    ("atmosphere", "scale_height", "scale_height", (">", 0.0)),
    ("aero", "S", "s", (">", 0.0)),
    ("aero", "CL_alpha", "cl_alpha", None),
    ("aero", "CD0", "cd0", (">=", 0.0)),
    ("aero", "K", "k", (">=", 0.0)),
    ("vehicle", "mass", "mass", (">", 0.0)),
    ("vehicle", "thrust_offset", "thrust_offset", None),
    ("integrator", "step", "step", (">", 0.0)),
    ("integrator", "rel_tol", "rel_tol", (">", 0.0)),
    ("integrator", "abs_tol", "abs_tol", (">", 0.0)),
    ("integrator", "max_steps", "max_steps", (">=", 1.0)),
    ("stop", "t_final", "t_final", (">", 0.0)),
    ("stop", "radius", "radius", (">", 0.0)),
    ("", "t0", "t0", None),
    ("", "compare_points", "compare_points", (">=", 2.0)),
    ("", "csv_stride", "csv_stride", (">=", 1.0)),
]
COUNTS = ("max_steps", "compare_points", "csv_stride")


def record_of(config, section):
    """The record of ``config`` that holds the numbers of ``section``."""
    if section in ("integrator", "stop"):
        return getattr(config, section)
    return getattr(config.environment, section) if section else config


def bad_values(name, bound):
    """NaN, and the nearest value past ``bound`` (an int for a count), with the phrase each breaks."""
    cases = [(math.nan, "must be finite, got nan")]
    if bound is not None:
        op, limit = bound
        past = limit if op == ">" else math.nextafter(limit, -math.inf)
        if name in COUNTS:
            past = int(limit) - 1
        cases.append((past, f"must be {op} {limit}, got {float(past)!r}"))
    return cases


class TestNumberRules:
    """One rule per number field, enforced by its record and reported by the reader."""

    def test_the_table_holds_every_number_field(self):
        config = parse_config(minimal_config_dict())
        declared = {
            (section, f.name)
            for section in {row[0] for row in NUMBER_FIELDS}
            for f in dataclasses.fields(record_of(config, section))
            if "bound" in f.metadata
        }
        assert declared == {(section, name) for section, _, name, _ in NUMBER_FIELDS}

    @pytest.mark.parametrize(
        "section, key, name, value, phrase",
        [
            pytest.param(section, key, name, value, phrase, id=f"{section or 'top'}.{key}={value}")
            for section, key, name, bound in NUMBER_FIELDS
            for value, phrase in bad_values(name, bound)
        ],
    )
    def test_record_and_reader_reject_with_one_phrase(self, section, key, name, value, phrase):
        config = parse_config(minimal_config_dict())
        with pytest.raises(ValueError) as err:
            dataclasses.replace(record_of(config, section), **{name: value})
        assert str(err.value) == f"{name} {phrase}"
        data = minimal_config_dict()
        (data[section] if section else data)[key] = value
        with pytest.raises(ConfigError) as err:
            parse_config(data)
        assert err.value.messages == [f"{section + '.' if section else ''}{key}: {phrase}"]

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda c: dataclasses.replace(c, csv_stride=0), "csv_stride must be >= 1.0, got 0.0"),
            (lambda c: dataclasses.replace(c, csv_stride=2.5), "csv_stride must be a whole number, got 2.5"),
            (lambda c: dataclasses.replace(c, compare_points=1), "compare_points must be >= 2.0, got 1.0"),
            (lambda c: StopConditions(t_final=10.0, radius=-1.0), "radius must be > 0.0, got -1.0"),
            (lambda c: StopConditions(t_final=math.nan), "t_final must be finite, got nan"),
            (lambda c: IntegratorConfig(max_steps=0.5), "max_steps must be >= 1.0, got 0.5"),
        ],
        ids=["csv_stride=0", "csv_stride=2.5", "compare_points=1", "stop.radius=-1",
             "stop.t_final=nan", "max_steps=0.5"],
    )
    def test_a_record_built_through_the_api_keeps_the_file_rule(self, build, message):
        config = parse_config(minimal_config_dict())
        with pytest.raises(ValueError) as err:
            build(config)
        assert str(err.value) == message

    def test_a_whole_float_count_is_held_as_an_int(self):
        config = parse_config(minimal_config_dict())
        counts = [
            dataclasses.replace(config, csv_stride=7.0).csv_stride,
            dataclasses.replace(config, compare_points=3.0).compare_points,
            IntegratorConfig(max_steps=10.0).max_steps,
        ]
        assert counts == [7, 3, 10]
        assert {type(n) for n in counts} == {int}

    def test_an_absent_key_reads_the_record_default(self):
        data = minimal_config_dict(integrator={})
        data["body"] = {"mu": 1e14, "radius": 6e6}
        data["atmosphere"] = {}
        data["aero"] = {"S": 2.0}
        config = parse_config(data)
        env = config.environment
        assert env.body == CentralBody(mu=1e14, radius=6e6)
        assert env.atmosphere == Atmosphere() == Atmosphere(rho0=0.0, scale_height=8500.0)
        assert env.aero == AeroModel(s=2.0, cl_alpha=0.0, cd0=0.0, k=0.0)
        assert env.vehicle == Vehicle(mass=1000.0, thrust_offset=0.0)
        assert config.integrator == IntegratorConfig()
        assert (config.t0, config.compare_points, config.csv_stride) == (0.0, 101, 1)
        assert config.stop == StopConditions(t_final=50.0)


# what a mutation puts in place of a value: each YAML kind that is not a
# number, and numbers beyond, at and just inside the edges of the float range
FUZZ_VALUES = (
    None, True, False, "x", 10**400, math.nan, math.inf, -math.inf,
    1e308, -1e308, 5e-324, [], {}, [[1.0]],
)
_DELETE = object()


@functools.cache
def bundled_dict(name):
    return yaml.safe_load(bundled_scenario_path(name).read_text())


def value_paths(node, prefix=()):
    """The path of every mapping value and list entry under ``node``."""
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield prefix + (key,)
            yield from value_paths(child, prefix + (key,))


@st.composite
def mutated_bundled_scenarios(draw):
    """A bundled scenario with one or two values replaced by a FUZZ_VALUES entry, or deleted."""
    data = copy.deepcopy(bundled_dict(draw(st.sampled_from(BUNDLED))))
    for _ in range(draw(st.integers(1, 2))):
        *parents, key = draw(st.sampled_from(list(value_paths(data))))
        target = data
        for parent in parents:
            target = target[parent]
        value = draw(st.sampled_from(FUZZ_VALUES + (_DELETE,)))
        if value is _DELETE:
            del target[key]
        else:
            target[key] = copy.deepcopy(value)
    return data


class TestScenarioFuzz:
    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(data=mutated_bundled_scenarios())
    def test_mutated_scenario_is_a_config_error_or_starts_every_form(self, data):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                config = parse_config(data)
            except ConfigError:
                return
            for form in PARAMETERIZATIONS:
                try:
                    y0 = initial_array_for(form, config)
                except SingularityError:
                    continue
                assert np.isfinite(y0).all()


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

    def test_stride_that_leaves_a_remainder_keeps_the_last_sample(self, tmp_path):
        data = bundled_dict("circular_orbit")
        data["csv_stride"] = 7
        results, _, code = run_scenario(parse_config(data), params=["rv"], outdir=tmp_path)
        assert code == 0
        t = results[0].trajectory.t
        assert (len(t) - 1) % 7 != 0
        written = read_trajectory_csv(results[0].csv_path)["t"]
        assert written.tolist() == [*t[::7], t[-1]]
        assert written[-1] == t[-1]

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

    def test_unknown_parameterization_rejected_before_any_output(self, tmp_path):
        config = load_scenario(bundled_scenario_path("circular_orbit"))
        outdir = tmp_path / "out"
        with pytest.raises(ConfigError) as err:
            run_scenario(config, params=["rv", "polar", "cartesian"], outdir=outdir, compare=True)
        assert err.value.messages == ["parameterizations: unknown entries ['polar']"]
        assert not outdir.exists()

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


    def test_span_time_cannot_step_through_fails_fast(self, tmp_path, capsys):
        # at t0 = 1e300, t + h rounds to t: every form ends at t0 without a
        # derivative call instead of spending its step budget
        data = yaml.safe_load(bundled_scenario_path("circular_orbit").read_text())
        data["t0"], data["stop"]["t_final"] = 1e300, 1.0000000001e300
        data["integrator"]["max_steps"] = 50
        path = tmp_path / "far_future.yaml"
        path.write_text(yaml.safe_dump(data))
        results, _, code = run_scenario(load_scenario(path), outdir=tmp_path, compare=True)
        assert code == 4
        for res in results:
            assert (res.event.kind, res.event.message) == ("step_failure", "step size underflow")
            assert res.event.t_event == 1e300
            assert res.trajectory.n_evals == 0


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

    def test_unwritable_output_path_is_exit_2_before_any_work(self, tmp_path, capsys, monkeypatch):
        # an --out that is a file, and a --json in a missing directory, end
        # the command before anything is propagated or timed
        import quatflight.cli as cli_module

        work = []
        monkeypatch.setattr(scenario_module, "propagate", lambda *a, **k: work.append(a))
        monkeypatch.setattr(cli_module, "benchmark_form", lambda *a: work.append(a))
        dive = str(bundled_scenario_path("vertical_dive"))
        taken = tmp_path / "taken"
        taken.write_text("")
        for argv, message in (
            (["run", dive, "--out", str(taken)], "config error: output directory: "),
            (
                ["bench", dive, "--evals", "10000", "--json", str(tmp_path / "nodir" / "b.json")],
                "config error: output file: ",
            ),
        ):
            assert cli_main(argv) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith(message) and captured.err.count("\n") == 1
            assert "Traceback" not in captured.err and captured.out == ""
        assert work == []
        assert not (tmp_path / "nodir").exists()

    def test_bench_json_written(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("QUATFLIGHT_OUTPUT_DIR", str(tmp_path / "envout"))
        dive = str(bundled_scenario_path("vertical_dive"))
        assert cli_main(["bench", dive, "--evals", "10000", "--json", "b.json"]) == 0
        rows = json.loads((tmp_path / "envout" / "b.json").read_text())
        assert [row["name"] for row in rows] == ["rv", "rvl", "cartesian"]

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

    @staticmethod
    def config_with(path, value):
        """The minimal scenario with the YAML ``value`` at the dotted ``path``."""
        data = minimal_config_dict()
        if path == "initial_state.r":
            data["initial_state"] = {"kind": "spherical", "r": 7e6, "v": 7546.0}
        if path == "initial_state.eps_a":
            data["initial_state"] = {
                "kind": "rv", "r": 7e6, "v": 7546.0, "eps_a": [0.0, 0.0, 0.0], "eta_a": 1.0,
                "eps_b": [HALF_SQRT2, HALF_SQRT2, 0.0], "eta_b": 0.0,
            }
        if path.startswith("controls.") and path.count(".") == 2:  # a knot list of a profile
            data["controls"][path.split(".")[1]] = {"times": [0.0, 10.0], "values": [0.0, 1.0]}
        *sections, key = path.split(".")
        target = data
        for section in sections:
            target = target[section]
        target[key] = yaml.safe_load(value) if isinstance(value, str) else value
        return data

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
            ("controls.bank.times", "[0.0, .inf]"),
            ("controls.thrust.values", "[0.0, .nan]"),
            pytest.param("vehicle.mass", 10**400, id="vehicle.mass-10**400"),
            pytest.param("initial_state.eps_a", [10**400, 0.0, 0.0], id="eps_a-10**400"),
            pytest.param("controls.alpha.times", [0.0, 10**400], id="knot-10**400"),
        ],
    )
    def test_nonfinite_or_out_of_range_number_rejected(self, tmp_path, capsys, path, value):
        data = self.config_with(path, value)
        config = tmp_path / "nonfinite.yaml"
        config.write_text(yaml.safe_dump(data))
        assert cli_main(["validate", str(config)]) == 2
        err = capsys.readouterr().err
        assert f"config error: {path}: " in err
        # an integer beyond the float range is named as such, not printed digit by digit
        assert ("float range" in err) == ("1" + "0" * 400 in yaml.safe_dump(data))
        assert "0" * 100 not in err

    @pytest.mark.parametrize(
        "path, value",
        [
            ("initial_state.r", '"7000000.0"'),
            ("initial_state.position", '["6393137.0", 0.0, 0.0]'),
            ("initial_state.position", "[6393137.0, true, 0.0]"),
            ("controls.alpha.times", '[0.0, "10.0"]'),
            ("controls.bank.values", "[false, 0.2]"),
            ("controls.thrust.values", "0.0"),
        ],
    )
    def test_non_number_rejected(self, tmp_path, capsys, path, value):
        # a vector entry and a profile knot follow the rule of a scalar: an
        # int or a float, never a bool or a string
        data = self.config_with(path, value)
        with pytest.raises(ConfigError, match=f"^{path}: "):
            parse_config(data)
        config = tmp_path / "strings.yaml"
        config.write_text(yaml.safe_dump(data))
        assert cli_main(["run", str(config), "--out", str(tmp_path)]) == 2
        assert f"config error: {path}: " in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize(
        "path, value",
        [
            ("parameterizations", [{"a": 1}]),
            ("initial_state.kind", ["rv"]),
            ("stop.expected_guards", [[1]]),
        ],
    )
    def test_name_that_is_not_a_string_rejected(self, tmp_path, capsys, path, value):
        # a name is a string from its set; a list or a mapping in its place
        # is a config error, not an unhashable-type traceback
        config = tmp_path / "names.yaml"
        config.write_text(yaml.safe_dump(self.config_with(path, value)))
        for argv in (
            ["validate", str(config)],
            ["run", str(config), "--out", str(tmp_path)],
            ["bench", str(config)],
        ):
            assert cli_main(argv) == 2
            assert f"config error: {path}: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "path",
        [
            "nmae",
            "body.spin",
            "atmosphere.rho_0",
            "aero.cd0",
            "vehicle.masss",
            "initial_state.lat",  # a spherical key in a cartesian state
            "controls.bank_rate",
            "integrator.metod",
            "stop.radus",
        ],
    )
    def test_unknown_key_rejected(self, tmp_path, capsys, path):
        config = tmp_path / "typo.yaml"
        config.write_text(yaml.safe_dump(self.config_with(path, 1.0)))
        for argv in (
            ["validate", str(config)],
            ["run", str(config), "--out", str(tmp_path)],
            ["bench", str(config)],
        ):
            assert cli_main(argv) == 2
            assert capsys.readouterr().err == f"config error: {path}: unknown key\n"
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("scenario", BUNDLED)
    def test_unknown_key_in_every_mapping_of_a_bundled_scenario_rejected(
        self, tmp_path, capsys, scenario
    ):
        # the top level, each section and each {times, values} profile mapping
        def mappings(node, path):
            yield node, path
            for key, value in node.items():
                if type(value) is dict:
                    yield from mappings(value, f"{path}{key}.")

        data = copy.deepcopy(bundled_dict(scenario))
        config = tmp_path / "typo.yaml"
        for mapping, path in list(mappings(data, "")):
            mapping["typo"] = 1.0
            config.write_text(yaml.safe_dump(data))
            del mapping["typo"]
            with pytest.raises(ConfigError) as err:
                load_scenario(config)
            assert err.value.messages == [f"{path}typo: unknown key"]
            assert cli_main(["validate", str(config)]) == 2
            assert capsys.readouterr().err == f"config error: {path}typo: unknown key\n"

    @pytest.mark.parametrize(
        "key, value", [("position", [1e200, 0.0, 1e200]), ("velocity", [1e300, 1e300, 0.0])]
    )
    def test_validate_derives_every_initial_state(self, tmp_path, capsys, key, value):
        # a state whose derived forms overflow fails validate as it fails run
        data = yaml.safe_load(bundled_scenario_path("vertical_dive").read_text())
        data["initial_state"][key] = value
        config = tmp_path / "huge.yaml"
        config.write_text(yaml.safe_dump(data))
        for argv in (
            ["validate", str(config)],
            ["run", str(config), "--out", str(tmp_path)],
            ["bench", str(config)],
        ):
            assert cli_main(argv) == 2
            assert "config error: initial_state: overflow" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

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

    @staticmethod
    def overflowing(tmp_path, scenario, **changes):
        """A bundled scenario flown from 100 km from the centre, where the
        atmosphere's density ``exp((re - r) / hscale)`` overflows."""
        data = yaml.safe_load(bundled_scenario_path(scenario).read_text())
        if data["initial_state"]["kind"] == "cartesian":
            data["initial_state"]["position"] = [100e3, 0.0, 0.0]
        else:
            data["initial_state"]["r"] = 100e3
        for section, values in changes.items():
            data[section].update(values)
        path = tmp_path / f"{scenario}.yaml"
        path.write_text(yaml.safe_dump(data))
        return path

    @pytest.mark.parametrize("method", ["rk45-adaptive", "rk4-fixed"])
    def test_run_overflowing_derivative_is_a_step_failure(self, tmp_path, capsys, method):
        config = self.overflowing(tmp_path, "bench_entry", integrator={"method": method})
        assert cli_main(["run", str(config), "--out", str(tmp_path)]) == 4
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 5
        for name, line in zip(PARAMETERIZATIONS, lines):
            assert line.startswith(
                f"bench_entry [{name}] -> step_failure at t=0.000 s (OverflowError: math range error)"
            )

    def test_rk4_step_past_zero_speed_ends_at_its_start(self, tmp_path, capsys):
        # drag takes the speed below zero within the first 40 s step; the step
        # fails where the next first stage would, at its new state, so no
        # kept sample holds a state that the row conversions reject
        path = tmp_path / "rk4_overshoot.yaml"
        path.write_text(
            "{name: rk4_overshoot, body: {mu: 398600441800000.0, radius: 6378137.0, spin_rate: 0.0},"
            " atmosphere: {rho0: 1.225, scale_height: 7000.0},"
            " aero: {S: 1.0, CL_alpha: 1.0, CD0: 0.5, K: 0.1}, vehicle: {mass: 4000.0},"
            " controls: {alpha: 0.1}, initial_state: {kind: cartesian,"
            " position: [6400000.0, 0.0, 0.0], velocity: [-600.0, 4200.0, 0.0]},"
            " integrator: {method: rk4-fixed, step: 40.0},"
            " stop: {t_final: 200.0, expected_guards: [rv, rvl, rvh]}, parameterizations: [rv, rvl, rvh]}"
        )
        assert cli_main(["run", str(path), "--out", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        for name, line in zip(("rv", "rvl", "rvh"), lines):
            assert line.startswith(
                f"rk4_overshoot [{name}] -> singularity_guard (expected) at t=0.000 s"
                " (kinetic singularity: nonpositive speed)"
            )
            assert read_trajectory_csv(tmp_path / f"rk4_overshoot_{name}.csv")["t"].tolist() == [0.0]

    def test_run_lines_stay_short_at_huge_times(self, tmp_path, capsys, monkeypatch):
        # a stop time prints as .3f below 1e9 s and as .6e beyond, never digit by digit
        data = copy.deepcopy(bundled_dict("circular_orbit"))
        data["t0"], data["stop"]["t_final"] = 1e300, 1.0000000001e300
        (tmp_path / "huge.yaml").write_text(yaml.safe_dump(data))
        monkeypatch.chdir(tmp_path)
        assert cli_main(["run", "huge.yaml", "--out", "."]) == 4
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(data["parameterizations"])
        for line in lines:
            assert "at t=1.000000e+300 s" in line and len(line) < 200

    def test_bench_overflowing_derivative_is_a_step_failure(self, tmp_path, capsys):
        config = self.overflowing(tmp_path, "bench_entry")
        assert cli_main(["bench", str(config), "--evals", "10000"]) == 4
        out = capsys.readouterr().out
        for name in PARAMETERIZATIONS:
            assert f"{name}: step_failure (OverflowError: math range error)" in out
        # an unexpected guard takes precedence, as it does for run
        for expected, code in (([], 3), (["rvh", "spherical"], 4)):
            dive = self.overflowing(tmp_path, "vertical_dive", stop={"expected_guards": expected})
            assert cli_main(["bench", str(dive), "--evals", "10000"]) == code
            assert cli_main(["run", str(dive), "--out", str(tmp_path)]) == code
            out = capsys.readouterr().out
            assert "rv: step_failure (OverflowError: math range error)" in out
            assert "rvh: singularity_guard (rvh singular: zero angular momentum)" in out

    def test_bench_rejects_tiny_eval_count(self, tmp_path, capsys):
        out = tmp_path / "new.json"
        code = cli_main(
            ["bench", str(bundled_scenario_path("bench_entry")), "--evals", "10", "--json", str(out)]
        )
        assert code == 2
        assert capsys.readouterr().err == f"config error: --evals must be at least {MIN_EVALS}, got 10\n"
        assert not out.exists()

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


class TestYamlLoading:
    LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if hasattr(yaml, "CSafeLoader") else [])

    def test_libyaml_parser_when_available(self):
        assert scenario_module._YAML_LOADER is getattr(yaml, "CSafeLoader", yaml.SafeLoader)

    @staticmethod
    def generated_entry_case(seed):
        """The bundled entry with its initial state and knot values perturbed."""
        rng = np.random.default_rng(seed)
        data = yaml.safe_load(bundled_scenario_path("entry_table3").read_text())
        y = parse_config(data).initial_state.y
        sph = cartesian_to_spherical(PARAMETERIZATIONS["rv"].to_cartesian(y))
        sph = dict(zip(SPHERICAL_KEYS, sph.tolist()))
        data["initial_state"] = {
            "kind": "spherical",
            **{k: sph[k] * rng.uniform(0.98, 1.02) for k in ("r", "lon", "v", "psi")},
            "lat": float(rng.uniform(-0.3, 0.3)),
            "gamma": 0.0,
        }
        for key in ("alpha", "bank"):
            profile = data["controls"][key]
            profile["values"] = [v + float(rng.uniform(-0.05, 0.05)) for v in profile["values"]]
        return yaml.safe_dump(data, sort_keys=False)

    def test_loaders_parse_to_equal_dicts(self):
        bundled = sorted(bundled_scenario_path("norm_drift").parent.glob("*.yaml"))
        texts = [path.read_text() for path in bundled]
        texts += [self.generated_entry_case(seed) for seed in range(3)]
        assert len(texts) == 8
        for text in texts:
            parsed = [yaml.load(text, Loader=loader) for loader in self.LOADERS]
            assert all(p == parsed[0] for p in parsed)
            assert parsed[0] == yaml.safe_load(text)

    @pytest.mark.parametrize("loader", LOADERS)
    @pytest.mark.parametrize(
        "text",
        [
            "name: entry\nbody: {mu: 3.986e14, radius: [6378137.0\n",
            # an integer too long for Python's int parser, which raises ValueError
            "name: entry\nbody: {mu: 1" + "0" * 5000 + "}\n",
        ],
        ids=["unclosed", "5001-digit-int"],
    )
    def test_malformed_yaml_is_a_config_error(self, loader, text, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(scenario_module, "_YAML_LOADER", loader)
        bad = tmp_path / "bad.yaml"
        bad.write_text(text)
        with pytest.raises(ConfigError, match="bad.yaml"):
            load_scenario(bad)
        assert cli_main(["run", str(bad), "--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err


class TestPackageExports:
    # the scenario API, the registry, the configuration types, propagation
    # and the errors; everything else is imported from its submodule
    EXPORTS = {
        "ScenarioConfig", "load_scenario", "run_scenario", "bundled_scenario_path",
        "PARAMETERIZATIONS", "CartesianState",
        "ControlProfile", "PiecewiseLinear", "AeroModel", "Atmosphere", "CentralBody",
        "Environment", "Vehicle", "EARTH", "IntegratorConfig",
        "propagate", "StopEvent", "Trajectory",
        "QuatflightError", "ConfigError", "SingularityError",
    }
    # test oracles, which live in tests/reference.py, and wrappers and
    # records the program has no use for
    GONE = {
        "quat": (
            "AxisAngle", "skew", "dcm_from_axis_angle", "quat_from_axis_angle",
            "quat_rates", "omega_from_rate_arrays", "omega_from_quat_rates",
            "UnitQuaternion", "renormalize",
            # a gauge change is a twist about a first axis, not a matrix
            "quat_from_dcm", "ORTHONORMALITY_TOL",
        ),
        "environment": ("ControlInput", "density", "aero_forces", "net_force_B", "apparent_force_B"),
        "dynamics": ("beta_from_sigma", "sigma_from_beta", "beta_rate"),
        # the comparison report is the JSON mapping it is written as
        "scenario": ("read_trajectory_csv", "ComparisonReport"),
        "bench": ("benchmark_derivatives",),
        # a state is its form's row, and a quaternion four floats of one
        "states": (
            "RvState", "RvhState", "SphericalState", "cartesian_to_rvh", "twist_about_b1",
            "CartesianState.from_array", "CartesianState.to_array",
        ),
        # the step budget ends a run as a step failure
        "errors": ("PropagationError",),
        # tests build constant profiles with reference.constant_controls
        "controls": ("ControlProfile.constant",),
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
                *owner, attr = gone.split(".")  # a module attribute, or "Class.attribute"
                holder = importlib.import_module(f"quatflight.{module}")
                assert not hasattr(getattr(holder, owner[0]) if owner else holder, attr), gone
                assert not hasattr(quatflight, gone), gone

    def test_src_holds_only_what_the_program_runs(self):
        # a top-level function, class or constant in the package is
        # referenced by the package, the benchmark or the tools, or
        # exported; a method or property of one of its classes (dunders
        # aside) is referenced there as an attribute, and a classmethod as
        # "Class.method"; test-only code lives in tests/
        root = Path(__file__).resolve().parents[1]
        package = root / "src" / "quatflight"
        names, attributes, qualified = set(), set(), set()
        defined, methods = [], []
        for path in [*package.glob("*.py"), *(root / "perfbench").rglob("*.py"),
                     *(root / "tools").rglob("*.py")]:
            tree = ast.parse(path.read_text())
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    attributes.add(node.attr)
                    if isinstance(node.value, ast.Name) and isinstance(node.ctx, ast.Load):
                        qualified.add(f"{node.value.id}.{node.attr}")
            if path.parent == package:
                defined += [
                    (path.name, node.name)
                    for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                ]
                defined += [
                    (path.name, target.id)
                    for node in tree.body
                    if isinstance(node, (ast.Assign, ast.AnnAssign))
                    for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
                    if isinstance(target, ast.Name) and not target.id.startswith("__")
                ]
                methods += [
                    (path.name, cls.name, node.name,
                     "classmethod" in [getattr(d, "id", None) for d in node.decorator_list])
                    for cls in tree.body
                    if isinstance(cls, ast.ClassDef)
                    for node in cls.body
                    if isinstance(node, ast.FunctionDef) and not node.name.startswith("__")
                ]
        kept = names | attributes | set(quatflight.__all__)
        assert [d for d in defined if d[1] not in kept] == []
        assert [
            (module, cls, name)
            for module, cls, name, on_class in methods
            if (f"{cls}.{name}" not in qualified if on_class else name not in attributes)
        ] == []

    def test_every_import_is_used(self):
        # each name that a module of the package, the tools or the tests
        # imports is loaded in that module, or exported by its __all__
        root = Path(__file__).resolve().parents[1]
        unused = []
        for path in [*(root / "src" / "quatflight").glob("*.py"), *(root / "tools").rglob("*.py"),
                     *(root / "tests").rglob("*.py")]:
            tree = ast.parse(path.read_text())
            imported, loaded, exported = [], set(), set()
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                    imported += [alias.asname or alias.name for alias in node.names]
                elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    loaded.add(node.id)
                elif isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
                    exported = set(ast.literal_eval(node.value))
            unused += [(path.name, name) for name in imported if name not in loaded | exported]
        assert unused == []


class TestEntryScenarioInvariants:
    def test_rvl_initial_twist_uses_t0(self):
        # entry_table3 started mid-profile from a spherical initial state:
        # the lift gauge must start on the bank command at t0, not at t = 0
        data = yaml.safe_load(bundled_scenario_path("entry_table3").read_text())
        y = parse_config(data).initial_state.y
        sph = cartesian_to_spherical(PARAMETERIZATIONS["rv"].to_cartesian(y))
        data["initial_state"] = {"kind": "spherical", **dict(zip(SPHERICAL_KEYS, sph.tolist()))}
        data["t0"] = 100.0
        data["stop"]["t_final"] = 300.0
        data["controls"]["bank"] = {"times": [0.0, 100.0, 400.0], "values": [0.0, 0.6, 0.9]}
        config = parse_config(data)
        finals = {}
        for name in config.parameterizations:
            res = run_parameterization(name, config)
            assert res.event.kind == "terminal_time"
            finals[name] = PARAMETERIZATIONS[name].to_cartesian(res.trajectory.y[-1])
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
        times = np.array(report["pairs"][key]["t"])
        e_r = np.array(report["pairs"][key]["e_r"])
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

    def test_step_budget_keeps_the_accepted_samples(self, tmp_path, capsys):
        # the budget ends the run as a step failure, exit code 4, with the
        # steps accepted until then kept and written
        data = yaml.safe_load(bundled_scenario_path("entry_table3").read_text())
        data["integrator"]["max_steps"] = 50
        path = tmp_path / "entry_table3.yaml"
        path.write_text(yaml.safe_dump(data))
        assert cli_main(["run", str(path), "--param", "rv", "--out", str(tmp_path)]) == 4
        out = capsys.readouterr().out
        assert "entry_table3 [rv] -> step_failure at t=" in out
        assert "(maximum step count exceeded)" in out
        res = run_parameterization("rv", load_scenario(path))
        traj = res.trajectory
        assert traj.n_steps + traj.n_rejected == 50
        assert len(traj) == traj.n_steps + 1
        assert res.event.t_event == traj.t[-1] > 0.0
        csv = read_trajectory_csv(tmp_path / "entry_table3_rv.csv")
        assert csv["t"].tolist() == traj.t.tolist()

    def test_integration_failure_exit_code(self, tmp_path):
        data = minimal_config_dict(
            name="starved",
            integrator={"method": "rk4-fixed", "step": 0.001, "max_steps": 5},
        )
        config = parse_config(data)
        results, _, code = run_scenario(config, params=["cartesian"], outdir=tmp_path)
        assert code == 4
        assert results[0].event.kind == "step_failure"
