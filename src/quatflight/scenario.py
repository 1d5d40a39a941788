"""Configuration-driven scenario running: load, validate, propagate, report.

A scenario is one YAML file holding the central-body constants, atmosphere,
aerodynamic and vehicle parameters, an initial state in any supported form,
piecewise-linear control profiles, integrator settings, and stop
conditions.  Running it propagates the same physical initial condition in
each selected parameterization, writes one CSV per parameterization, and
(optionally) a comparison report of the forms' observation-frame positions
and speeds on a shared time grid.  The grid is sampled from each accepted
step's interpolant and does not change the steps, so a CSV, which holds
accepted samples only, is the same with or without the report.

Each form has one conversion to Cartesian coordinates, its
``to_cartesian_rows`` over state rows: each CSV converts the rows it
writes, and the report the grid and final rows of each form, in one call;
loading converts the initial state as a one-row stack.

All physical quantities are SI; angles are radians.
"""

from __future__ import annotations

import importlib.resources
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np
import yaml

from .controls import BANK_MODES, ControlProfile, PiecewiseLinear
from .dynamics import PARAMETERIZATIONS, sample_diagnostics
from .environment import AeroModel, Atmosphere, CentralBody, Environment, Vehicle
from .errors import ConfigError, PropagationError, SingularityError
from .propagation import IntegratorConfig, StopEvent, Trajectory, propagate
from .quat import row_norms

OUTPUT_DIR_ENV_VAR = "QUATFLIGHT_OUTPUT_DIR"

CSV_COLUMNS = [
    "t",
    "r",
    "v",
    "eps_a1",
    "eps_a2",
    "eps_a3",
    "eta_a",
    "eps_b1",
    "eps_b2",
    "eps_b3",
    "eta_b",
    "x",
    "y",
    "z",
    "vx",
    "vy",
    "vz",
    "alpha",
    "sigma",
    "beta",
    "h_mag",
    "energy",
    "norm_qa",
    "norm_qb",
]


@dataclass
class StopConditions:
    t_final: float
    radius: Optional[float] = None
    expected_guards: tuple = ()


# YAML keys of each native initial state, in the order of its state array.
_INITIAL_KEYS = {
    "rv": ("r", "eps_a", "eta_a", "v", "eps_b", "eta_b"),
    "rvh": ("r", "eps_a", "eta_a", "v", "eps_b3", "eta_b"),
    "spherical": ("r", "lon", "lat", "v", "gamma", "psi"),
    "cartesian": ("position", "velocity"),
}
_VECTOR_KEYS = ("eps_a", "eps_b", "position", "velocity")
_POSITIVE_KEYS = ("r", "v")
_ANGLE_KEYS = ("lon", "lat", "gamma", "psi")  # spherical angles default to 0.0

# A file quaternion whose norm is off by more than this is an error; off by
# more than the keep tolerance it is renormalized, otherwise kept bit-exactly.
_UNIT_NORM_ERROR = 1e-9
_UNIT_NORM_KEEP = 1e-12


@dataclass(eq=False)
class InitialState:
    """Initial condition: the native form's name and its flat state array.

    ``y`` holds the file values in the form's array layout, bit-exactly
    except for a quaternion block whose norm was off by more than 1e-12,
    which is renormalized.
    """

    kind: str
    y: np.ndarray


@dataclass
class ScenarioConfig:
    name: str
    body: CentralBody
    atmosphere: Atmosphere
    aero: AeroModel
    vehicle: Vehicle
    initial_state: InitialState
    controls: ControlProfile
    integrator: IntegratorConfig
    stop: StopConditions
    parameterizations: tuple
    t0: float = 0.0
    compare_points: int = 101
    csv_stride: int = 1

    @property
    def environment(self) -> Environment:
        return Environment(
            body=self.body,
            atmosphere=self.atmosphere,
            aero=self.aero,
            vehicle=self.vehicle,
        )


@dataclass(eq=False)
class RunResult:
    """Outcome of one parameterization's propagation."""

    name: str
    trajectory: Optional[Trajectory]
    event: StopEvent
    csv_path: Optional[str] = None

    @property
    def guard_tripped(self) -> bool:
        return self.event.kind == "singularity_guard"


class _Validator:
    """Collects field-level error messages while walking the config tree."""

    def __init__(self):
        self.errors = []

    def fail(self, path, message):
        self.errors.append(f"{path}: {message}")

    def section(self, data, path, required=True):
        value = data.get(path.split(".")[-1]) if isinstance(data, dict) else None
        if value is None:
            if required:
                self.fail(path, "missing section")
            return {}
        if not isinstance(value, dict):
            self.fail(path, "must be a mapping")
            return {}
        return value

    def number(self, data, key, path, default=None, minimum=None, exclusive=False):
        where = f"{path}.{key}".lstrip(".")  # top-level keys have an empty path
        if key not in data:
            if default is None:
                self.fail(where, "missing required value")
                return 0.0
            return default
        raw = data[key]
        if not isinstance(raw, (int, float)) or isinstance(raw, bool):
            self.fail(where, f"must be a number, got {raw!r}")
            return 0.0
        value = float(raw)
        if not math.isfinite(value):
            self.fail(where, f"must be finite, got {value}")
            return 0.0
        if minimum is not None:
            if exclusive and value <= minimum:
                self.fail(where, f"must be > {minimum}, got {value}")
            elif not exclusive and value < minimum:
                self.fail(where, f"must be >= {minimum}, got {value}")
        return value

    def count(self, data, key, path, default, minimum):
        """A whole number, as an ``int``; ``2.0`` is 2, ``2.7`` an error."""
        value = self.number(data, key, path, default=default, minimum=minimum)
        if value != int(value):
            self.fail(f"{path}.{key}".lstrip("."), f"must be a whole number, got {value}")
        return int(value)

    def vector(self, data, key, path, length):
        raw = data.get(key)
        if raw is None:
            self.fail(f"{path}.{key}", "missing required value")
            return [0.0] * length
        if not isinstance(raw, (list, tuple)) or len(raw) != length:
            self.fail(f"{path}.{key}", f"must be a {length}-vector")
            return [0.0] * length
        try:
            values = [float(x) for x in raw]
        except (TypeError, ValueError):
            self.fail(f"{path}.{key}", "entries must be numbers")
            return [0.0] * length
        if not all(map(math.isfinite, values)):
            self.fail(f"{path}.{key}", f"entries must be finite, got {values}")
            return [0.0] * length
        return values


def _parse_profile(validator, data, key, path, default=0.0):
    raw = data.get(key)
    if raw is None:
        return PiecewiseLinear.constant(default)
    try:
        if isinstance(raw, (int, float)) and not isinstance(raw, bool):
            return PiecewiseLinear.constant(float(raw))
        if isinstance(raw, dict) and "times" in raw and "values" in raw:
            return PiecewiseLinear(raw["times"], raw["values"])
    except (TypeError, ValueError) as exc:
        validator.fail(f"{path}.{key}", str(exc))
        return PiecewiseLinear.constant(default)
    validator.fail(f"{path}.{key}", "must be a number or {times, values} mapping")
    return PiecewiseLinear.constant(default)


def parse_config(data: dict, name_hint: str = "scenario") -> ScenarioConfig:
    """Build a validated :class:`ScenarioConfig` from a raw mapping.

    Raises
    ------
    ConfigError
        With one message per offending field.
    """
    if not isinstance(data, dict):
        raise ConfigError(["top level: must be a mapping"])
    v = _Validator()

    name = data.get("name", name_hint)
    if not isinstance(name, str) or not name:
        v.fail("name", "must be a non-empty string")
        name = name_hint

    sec = v.section(data, "body")
    body = None
    mu = v.number(sec, "mu", "body", minimum=0.0, exclusive=True)
    radius = v.number(sec, "radius", "body", minimum=0.0, exclusive=True)
    spin = v.number(sec, "spin_rate", "body", default=0.0, minimum=0.0)
    if not v.errors:
        body = CentralBody(mu=mu, radius=radius, spin_rate=spin)

    sec = v.section(data, "atmosphere")
    rho0 = v.number(sec, "rho0", "atmosphere", default=0.0, minimum=0.0)
    hs = v.number(sec, "scale_height", "atmosphere", default=8500.0, minimum=0.0, exclusive=True)
    atmosphere = Atmosphere(rho0=rho0, scale_height=hs) if not v.errors else None

    sec = v.section(data, "aero")
    s_ref = v.number(sec, "S", "aero", minimum=0.0, exclusive=True)
    cl_alpha = v.number(sec, "CL_alpha", "aero", default=0.0)
    cd0 = v.number(sec, "CD0", "aero", default=0.0, minimum=0.0)
    k = v.number(sec, "K", "aero", default=0.0, minimum=0.0)
    aero = AeroModel(s=s_ref, cl_alpha=cl_alpha, cd0=cd0, k=k) if not v.errors else None

    sec = v.section(data, "vehicle")
    mass = v.number(sec, "mass", "vehicle", minimum=0.0, exclusive=True)
    if v.number(sec, "thrust", "vehicle", default=0.0) != 0.0:
        v.fail("vehicle.thrust", "no force reads it; give the thrust as controls.thrust")
    delta = v.number(sec, "thrust_offset", "vehicle", default=0.0)
    vehicle = Vehicle(mass=mass, thrust_offset=delta) if not v.errors else None

    init = _parse_initial_state(v, data)
    controls = _parse_controls(v, data)
    integrator = _parse_integrator(v, data)
    stop = _parse_stop(v, data)
    params = _parse_parameterizations(v, data)

    t0 = v.number(data, "t0", "", default=0.0)
    compare_points = v.count(data, "compare_points", "", default=101.0, minimum=2.0)
    csv_stride = v.count(data, "csv_stride", "", default=1.0, minimum=1.0)

    if v.errors:
        raise ConfigError(v.errors)
    if t0 >= stop.t_final:
        raise ConfigError([f"t0: must be less than stop.t_final ({stop.t_final:g}), got {t0:g}"])
    config = ScenarioConfig(
        name=name,
        body=body,
        atmosphere=atmosphere,
        aero=aero,
        vehicle=vehicle,
        initial_state=init,
        controls=controls,
        integrator=integrator,
        stop=stop,
        parameterizations=params,
        t0=t0,
        compare_points=compare_points,
        csv_stride=csv_stride,
    )
    # unit-norm, range and degeneracy errors of the native state (the other
    # forms are derived from it, and all of them need a nonzero velocity)
    try:
        _check_unit_blocks(init)
        if PARAMETERIZATIONS[init.kind].to_cartesian(init.y).v == 0.0:
            raise ValueError("degenerate state: zero velocity")
    except (ValueError, SingularityError) as exc:
        raise ConfigError([f"initial_state: {exc}"]) from exc
    return config


def _parse_initial_state(v, data):
    sec = v.section(data, "initial_state")
    kind = sec.get("kind")
    if kind not in _INITIAL_KEYS:
        v.fail("initial_state.kind", f"must be rv, rvh, spherical, or cartesian, got {kind!r}")
        return None
    values = []
    for key in _INITIAL_KEYS[kind]:
        if key in _VECTOR_KEYS:
            values += v.vector(sec, key, "initial_state", 3)
        elif key in _POSITIVE_KEYS:
            values.append(v.number(sec, key, "initial_state", minimum=0.0, exclusive=True))
        else:
            default = 0.0 if key in _ANGLE_KEYS else None
            values.append(v.number(sec, key, "initial_state", default=default))
    return InitialState(kind=kind, y=np.array(values, dtype=float))


def _check_unit_blocks(init: InitialState):
    """Reject, renormalize in place, or keep each quaternion block of ``init.y``."""
    for lo, hi in PARAMETERIZATIONS[init.kind].quat_spans:
        n = float(np.linalg.norm(init.y[lo:hi]))
        if abs(n - 1.0) > _UNIT_NORM_ERROR:
            raise ValueError(f"quaternion norm {n!r} violates unit constraint")
        if abs(n - 1.0) > _UNIT_NORM_KEEP:
            init.y[lo:hi] = init.y[lo:hi] / n


def _parse_controls(v, data):
    sec = v.section(data, "controls", required=False)
    bank_mode = sec.get("bank_mode", "sigma")
    if bank_mode not in BANK_MODES:
        v.fail("controls.bank_mode", f"must be one of {BANK_MODES}, got {bank_mode!r}")
        bank_mode = "sigma"
    return ControlProfile(
        alpha=_parse_profile(v, sec, "alpha", "controls"),
        bank=_parse_profile(v, sec, "bank", "controls"),
        wb1=_parse_profile(v, sec, "wb1", "controls"),
        thrust=_parse_profile(v, sec, "thrust", "controls"),
        bank_mode=bank_mode,
    )


def _parse_integrator(v, data):
    sec = v.section(data, "integrator", required=False)
    method = sec.get("method", "rk45-adaptive")
    if method not in ("rk4-fixed", "rk45-adaptive"):
        v.fail("integrator.method", f"unknown method {method!r}")
        method = "rk45-adaptive"
    step = v.number(sec, "step", "integrator", default=0.1, minimum=0.0, exclusive=True)
    rel = v.number(sec, "rel_tol", "integrator", default=1e-10, minimum=0.0, exclusive=True)
    abs_ = v.number(sec, "abs_tol", "integrator", default=1e-12, minimum=0.0, exclusive=True)
    renorm = sec.get("renormalize", True)
    if not isinstance(renorm, bool):
        v.fail("integrator.renormalize", "must be a boolean")
        renorm = True
    max_steps = v.count(sec, "max_steps", "integrator", default=2e6, minimum=1.0)
    if v.errors:
        return None
    return IntegratorConfig(
        method=method,
        step=step,
        rel_tol=rel,
        abs_tol=abs_,
        renormalize_every_step=renorm,
        max_steps=max_steps,
    )


def _parse_stop(v, data):
    sec = v.section(data, "stop")
    t_final = v.number(sec, "t_final", "stop", minimum=0.0, exclusive=True)
    radius = None
    if "radius" in sec:
        radius = v.number(sec, "radius", "stop", minimum=0.0, exclusive=True)
    guards = sec.get("expected_guards", [])
    if not isinstance(guards, list) or any(g not in PARAMETERIZATIONS for g in guards):
        v.fail("stop.expected_guards", "must be a list of parameterization names")
        guards = []
    return StopConditions(t_final=t_final, radius=radius, expected_guards=tuple(guards))


def _parse_parameterizations(v, data):
    raw = data.get("parameterizations", list(PARAMETERIZATIONS))
    if not isinstance(raw, list) or not raw:
        v.fail("parameterizations", "must be a non-empty list")
        return tuple(PARAMETERIZATIONS)
    bad = [p for p in raw if p not in PARAMETERIZATIONS]
    if bad:
        v.fail("parameterizations", f"unknown entries {bad}")
        return tuple(PARAMETERIZATIONS)
    return tuple(raw)


def load_scenario(path) -> ScenarioConfig:
    """Load and validate a scenario YAML file."""
    path = Path(path)
    try:
        data = yaml.safe_load(path.read_text())
    except (OSError, yaml.YAMLError) as exc:
        raise ConfigError([f"{path}: {exc}"]) from exc
    return parse_config(data, name_hint=path.stem)


def bundled_scenario_path(name: str) -> Path:
    """Filesystem path of a scenario shipped with the package."""
    resource = importlib.resources.files("quatflight") / "scenarios" / f"{name}.yaml"
    return Path(str(resource))


def initial_array_for(name: str, config: ScenarioConfig):
    """Initial flat state for one parameterization.

    The native form gets a copy of the parsed array.  A form with a
    ``from_rv`` hook (the lift-aligned one) keeps a native rv state's gauge
    and its file bits; every other form is derived from the physical
    (Cartesian) initial condition with that form's gauge rule.  The native
    form's ``to_cartesian`` renormalizes its quaternions, so a derived form
    may move in the last bits when a file quaternion's norm is not exactly
    1.0.
    """
    init = config.initial_state
    if name == init.kind:
        return init.y.copy()
    spec = PARAMETERIZATIONS[name]
    if spec.from_rv is not None and init.kind == "rv":
        return spec.from_rv(init.y, config.controls, config.t0)
    cart = PARAMETERIZATIONS[init.kind].to_cartesian(init.y)
    return spec.from_cartesian(cart, config.controls, config.t0)


def resolve_output_dir(outdir=None) -> Path:
    """CLI flag, then the environment variable, then the working directory."""
    if outdir:
        path = Path(outdir)
    else:
        path = Path(os.environ.get(OUTPUT_DIR_ENV_VAR, "."))
    path.mkdir(parents=True, exist_ok=True)
    return path


def run_parameterization(name: str, config: ScenarioConfig, compare_times=()) -> RunResult:
    """Propagate one parameterization of the scenario.

    ``compare_times`` are sampled from the step interpolants into the
    trajectory's ``t_eval``/``y_eval``; they do not change its accepted
    samples.
    """
    spec = PARAMETERIZATIONS[name]
    env = config.environment
    try:
        y0 = initial_array_for(name, config)
    except SingularityError as exc:
        return RunResult(
            name=name,
            trajectory=None,
            event=StopEvent(kind="singularity_guard", t_event=config.t0, message=str(exc)),
        )
    rhs = spec.make_rhs(config.controls, env)
    try:
        trajectory, event = propagate(
            rhs,
            config.t0,
            y0,
            config.stop.t_final,
            config.integrator,
            quat_spans=spec.quat_spans,
            radius_fn=spec.radius if config.stop.radius is not None else None,
            radius_target=config.stop.radius,
            t_eval=compare_times,
            scales=spec.scales,
            t_knots=config.controls.knot_times(),
        )
    except PropagationError as exc:
        return RunResult(
            name=name,
            trajectory=None,
            event=StopEvent(kind="step_failure", t_event=exc.t or config.t0, message=str(exc)),
        )
    return RunResult(name=name, trajectory=trajectory, event=event)


def write_trajectory_csv(path, name, trajectory, config: ScenarioConfig) -> str:
    """Every ``csv_stride``-th sample and the last, fixed column schema, 17 significant digits.

    The written rows are selected first and converted in one
    ``sample_diagnostics`` call, so a long trajectory with a coarse stride
    never converts the samples it does not write.  A NaN cell is left
    blank: it marks a column that does not apply to the form.
    """
    idx = list(range(0, len(trajectory), config.csv_stride))
    if idx[-1] != len(trajectory) - 1:
        idx.append(len(trajectory) - 1)
    t = trajectory.t[idx]
    columns = sample_diagnostics(name, t, trajectory.y[idx], config.controls, config.environment)
    columns["t"] = t
    # one %-template per row: "%.17g" for a column without NaN, an empty
    # field for an all-NaN one, preformatted cells for a mixed one
    fields, cells = [], []
    for col in CSV_COLUMNS:
        values = columns[col]
        nan = np.isnan(values)
        if nan.all():
            fields.append("")
        elif nan.any():
            fields.append("%s")
            cells.append(["" if x != x else format(x, ".17g") for x in values.tolist()])
        else:
            fields.append("%.17g")
            cells.append(values.tolist())
    row = ",".join(fields) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\r\n")
        fh.writelines(row % values for values in zip(*cells))
    return str(path)


@dataclass(eq=False)
class ComparisonReport:
    """Cross-parameterization agreement on a shared time grid."""

    scenario: str
    times: dict
    pair_errors: dict
    final_states: dict
    norm_drift: dict
    timing: dict

    def to_json(self) -> str:
        payload = {
            "scenario": self.scenario,
            "pairs": {
                key: {"t": list(map(float, self.times[key])), "e_r": list(map(float, er[0])), "e_v": list(map(float, er[1]))}
                for key, er in self.pair_errors.items()
            },
            "final_states": self.final_states,
            "norm_drift": self.norm_drift,
            "timing": self.timing,
        }
        return json.dumps(payload, indent=2)


def build_comparison(config: ScenarioConfig, results) -> ComparisonReport:
    """Pairwise position/speed differences at the shared output times.

    Each form's output-time samples (``Trajectory.t_eval``) and its final
    sample are converted to Cartesian coordinates in one
    ``to_cartesian_rows`` call.
    """
    samples = {}  # name -> ({output time: row in p and speed}, p, speed)
    norm_drift = {}
    timing = {}
    final_states = {}
    for res in results:
        if res.trajectory is None or len(res.trajectory) == 0:
            continue
        spec = PARAMETERIZATIONS[res.name]
        traj = res.trajectory
        p, v = spec.to_cartesian_rows(np.concatenate((traj.y_eval, traj.y[-1:])))
        speed = row_norms(v)
        samples[res.name] = ({t: k for k, t in enumerate(traj.t_eval.tolist())}, p, speed)
        timing[res.name] = {
            "wall_time_s": traj.wall_time,
            "derivative_evaluations": traj.n_evals,
            "accepted_steps": traj.n_steps,
            "rejected_steps": traj.n_rejected,
        }
        drift = []
        for lo, hi in spec.quat_spans:
            norms = np.linalg.norm(traj.y[:, lo:hi], axis=1)
            drift.append(float(np.max(np.abs(norms - 1.0))))
        norm_drift[res.name] = drift
        final_states[res.name] = {
            "t": float(traj.t[-1]),
            "position": p[-1].tolist(),
            "velocity": v[-1].tolist(),
            "r": float(row_norms(p[-1:])[0]),
            "v": float(speed[-1]),
            "stop": res.event.kind,
        }

    pair_errors = {}
    times = {}
    names = list(samples)
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            (rows_a, p_a, speed_a), (rows_b, p_b, speed_b) = samples[a], samples[b]
            shared = sorted(set(rows_a) & set(rows_b))
            if not shared:
                continue
            ka = [rows_a[t] for t in shared]
            kb = [rows_b[t] for t in shared]
            key = f"{a}|{b}"
            times[key] = shared
            pair_errors[key] = (
                row_norms(p_a[ka] - p_b[kb]).tolist(),
                np.abs(speed_a[ka] - speed_b[kb]).tolist(),
            )
    return ComparisonReport(
        scenario=config.name,
        times=times,
        pair_errors=pair_errors,
        final_states=final_states,
        norm_drift=norm_drift,
        timing=timing,
    )


def run_scenario(
    config: ScenarioConfig,
    params=None,
    outdir=None,
    compare: bool = False,
):
    """Run every selected parameterization; write CSVs and an optional report.

    Returns
    -------
    (results, report, exit_code)
        ``results`` is a list of :class:`RunResult`; ``report`` is the
        :class:`ComparisonReport` or None; ``exit_code`` follows the CLI
        contract (0 ok, 3 unexpected singularity guard, 4 integration
        failure).
    """
    chosen = tuple(params) if params else config.parameterizations
    bad = [p for p in chosen if p not in PARAMETERIZATIONS]
    if bad:
        raise ConfigError([f"parameterizations: unknown entries {bad}"])
    out_path = resolve_output_dir(outdir)
    compare_times = ()
    if compare:
        compare_times = tuple(
            np.linspace(config.t0, config.stop.t_final, config.compare_points)
        )
    results = []
    for name in chosen:
        res = run_parameterization(name, config, compare_times=compare_times)
        if res.trajectory is not None and len(res.trajectory):
            csv_path = out_path / f"{config.name}_{name}.csv"
            res.csv_path = write_trajectory_csv(csv_path, name, res.trajectory, config)
        results.append(res)

    report = None
    if compare:
        report = build_comparison(config, results)
        report_path = out_path / f"{config.name}_comparison.json"
        report_path.write_text(report.to_json())

    exit_code = 0
    for res in results:
        if res.event.kind == "step_failure":
            exit_code = 4
    for res in results:
        if res.guard_tripped and res.name not in config.stop.expected_guards:
            exit_code = 3
    return results, report, exit_code
