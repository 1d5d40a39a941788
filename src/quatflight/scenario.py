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

Each record that a section builds declares the default and the bound of
each of its number fields once (``errors.number``), and the reader reads
the section by walking those fields; only the initial-state keys, which
become a state row and not a record, take their rules from
``_INITIAL_ROWS``.  Every value is read through one of five accessors: a
number, a vector of numbers, a name, a list of names or a profile.  A
number is an int or a float, not a bool or a string; it must fit in a
float, be finite and meet its bound, and a count (a field whose default
is an int) must be whole.  A name is a string from a known set.
Each bad value is one ``ConfigError`` message that begins with its dotted
path, and so is each key that no accessor reads (``"<dotted path>:
unknown key"``): a misspelled key is an error, not a default.  A
:class:`ScenarioConfig` derives every form's initial row once, when it is
built, and every run reads the row it holds: a state that a form cannot
start from is a ``ConfigError`` too, while a singularity of a form's gauge
there stays that form's ``singularity_guard`` at run time.

Each form has one conversion to Cartesian coordinates, its
``to_cartesian_rows`` over state rows: each CSV converts the rows it
writes, and the report the grid and final rows of each form, in one call.

All physical quantities are SI; angles are radians.
"""

from __future__ import annotations

import importlib.resources
import json
import math
import os
import reprlib
import sys
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Optional

import numpy as np
import yaml

from .controls import BANK_MODES, ControlProfile, PiecewiseLinear
from .dynamics import PARAMETERIZATIONS, sample_diagnostics
from .environment import AeroModel, Atmosphere, CentralBody, Environment, Vehicle
from .errors import ConfigError, SingularityError, check_numbers, number, number_problem
from .propagation import METHODS, IntegratorConfig, StopEvent, Trajectory, propagate
from .quat import row_norms

# libyaml's parser when PyYAML was built with it: the same safe constructors
# and resolvers, parsing an entry case about seven times faster
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

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
    t_final: float = number(bound=(">", 0.0))
    radius: Optional[float] = number(None, (">", 0.0))
    expected_guards: tuple = ()

    __post_init__ = check_numbers


# --- the layout of a scenario file; each number field's rule is on its record

_ABSENT = object()  # what _Reader._read returns for a key that is not given
_FORMS = tuple(PARAMETERIZATIONS)
_RECORDS = {"body": CentralBody, "atmosphere": Atmosphere, "aero": AeroModel, "vehicle": Vehicle}
# the YAML key of each number field that is not spelled as its name
_YAML_KEYS = {"s": "S", "cl_alpha": "CL_alpha", "cd0": "CD0", "k": "K"}
_PROFILES = ("alpha", "bank", "wb1", "thrust")

# an initial-state key's rule: (default, bound) as errors.number takes them
_POSITIVE = (MISSING, (">", 0.0))
_NUMBER = (MISSING, None)
_OPTIONAL = (0.0, None)
_VECTOR = "3-vector"  # the rule of a key that holds three numbers

# each initial-state kind's YAML keys, in the order of its state row
_INITIAL_ROWS = {
    "rv": {"r": _POSITIVE, "eps_a": _VECTOR, "eta_a": _NUMBER,
           "v": _POSITIVE, "eps_b": _VECTOR, "eta_b": _NUMBER},
    "rvh": {"r": _POSITIVE, "eps_a": _VECTOR, "eta_a": _NUMBER,
            "v": _POSITIVE, "eps_b3": _NUMBER, "eta_b": _NUMBER},
    "spherical": {"r": _POSITIVE, "lon": _OPTIONAL, "lat": _OPTIONAL,
                  "v": _POSITIVE, "gamma": _OPTIONAL, "psi": _OPTIONAL},
    "cartesian": {"position": _VECTOR, "velocity": _VECTOR},
}

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


@dataclass(frozen=True)
class ScenarioConfig:
    """A validated scenario and every form's initial row, derived once when it is built.

    ``initial_rows`` maps each form to its flat state at ``t0``, or to the
    message of the ``SingularityError`` of its gauge there; construction,
    ``dataclasses.replace`` included, derives them.  The native form keeps
    the parsed array, rvl and rvh are the rv row through ``from_rv``, and
    rv, spherical and cartesian come from one conversion of the native
    state to Cartesian coordinates, which renormalizes its quaternions.
    """

    name: str
    environment: Environment
    initial_state: InitialState
    controls: ControlProfile
    integrator: IntegratorConfig
    stop: StopConditions
    parameterizations: tuple
    t0: float = number(0.0)
    compare_points: int = number(101, (">=", 2.0))
    csv_stride: int = number(1, (">=", 1.0))
    initial_rows: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_numbers(self)
        init = self.initial_state
        cart = PARAMETERIZATIONS[init.kind].to_cartesian(init.y)
        rows = {}
        for form, spec in PARAMETERIZATIONS.items():
            try:
                if form == init.kind:
                    row = init.y
                elif spec.from_rv is not None:  # rv precedes it in PARAMETERIZATIONS
                    row = spec.from_rv(rows["rv"], self.controls, self.t0)
                else:
                    row = spec.from_cartesian(cart)
            except SingularityError as exc:
                rows[form] = str(exc)
                continue
            if not np.isfinite(row).all():
                raise ValueError(f"the {form} initial state is not finite")
            rows[form] = row
        object.__setattr__(self, "initial_rows", rows)


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


def _as_float(raw):
    """``(value, None)`` for a YAML number ``raw``, else ``(None, what is wrong)``."""
    if type(raw) is not int and type(raw) is not float:
        return None, f"must be a number, got {reprlib.repr(raw)}"
    try:
        value = float(raw)
    except OverflowError:
        return None, f"must be within the float range, |x| <= {sys.float_info.max:.4g}"
    if not math.isfinite(value):
        return None, f"must be finite, got {value}"
    return value, None


def _is_one_of(raw, choices) -> bool:
    """Whether ``raw`` is one of ``choices`` and of their type, or with no
    ``choices`` a non-empty string."""
    if choices is None:
        return type(raw) is str and raw != ""
    return type(raw) is type(choices[0]) and raw in choices


class _Reader:
    """The accessors that read every value of a scenario file.

    Each bad value adds one message, ``"<dotted path>: <what is wrong>"``,
    to ``errors`` and reads as its default; ``unread`` adds one per key of
    a file mapping that a use of it did not read.
    """

    def __init__(self, top):
        self.errors = []
        # by id, a copy per use of each mapping handed out (YAML aliases may
        # share one): (the copy, its path prefix, the keys read, the id it copies)
        self.mappings = {id(top): (top, "", set(), id(top))}

    def _read(self, data, key, default=None):
        self.mappings[id(data)][2].add(key)
        return data.get(key, default)

    def _hand_out(self, data, key, value) -> dict:
        """A copy of ``value``, the mapping at ``key`` of ``data``, with its own path."""
        copy = dict(value)
        self.mappings[id(copy)] = (copy, f"{self.mappings[id(data)][1]}{key}.", set(), id(value))
        return copy

    def fail(self, data, key, message):
        self.errors.append(f"{self.mappings[id(data)][1]}{key}: {message}")

    def unread(self):
        """Fail once for each key of a YAML mapping that a use of it did not read."""
        reported = set()
        for data, _, read, origin in self.mappings.values():
            for key in data:
                if key not in read and (origin, key) not in reported:
                    reported.add((origin, key))
                    self.fail(data, key, "unknown key")

    def section(self, data, key, required=True) -> dict:
        value = self._read(data, key)
        if type(value) is not dict:
            if value is not None or required:
                self.fail(data, key, "missing section" if value is None else "must be a mapping")
            value = {}
        return self._hand_out(data, key, value)

    def row(self, data, table) -> dict:
        """The value of each key of ``table`` in the section ``data``, by key."""
        return {key: self.vector(data, key, 3) if rule is _VECTOR else self.number(data, key, *rule)
                for key, rule in table.items()}

    def numbers(self, data, record) -> dict:
        """The value of each number field of ``record`` in the section ``data``, by field name."""
        return {f.name: self.number(data, _YAML_KEYS.get(f.name, f.name), f.default, f.metadata["bound"])
                for f in fields(record) if "bound" in f.metadata}

    def number(self, data, key, default=MISSING, bound=None):
        """The number at ``key`` under the rule of ``errors.number(default, bound)``."""
        raw = self._read(data, key, _ABSENT)
        if raw is _ABSENT:
            if default is MISSING:
                self.fail(data, key, "missing required value")
            return default
        value, problem = _as_float(raw)
        if problem is None:
            problem = number_problem(value, default, bound)
        if problem is not None:
            self.fail(data, key, problem)
            return default
        return value

    def vector(self, data, key, length=None):
        """The list of numbers at ``key``; ``length`` of them when it is given."""
        raw = self._read(data, key, _ABSENT)
        if raw is _ABSENT:
            self.fail(data, key, "missing required value")
            return []
        if type(raw) is not list or length not in (None, len(raw)):
            wanted = f"a {length}-vector" if length else "a list of numbers"
            self.fail(data, key, f"must be {wanted}")
            return []
        values = [_as_float(x) for x in raw]
        problem = next((p for _, p in values if p is not None), None)
        if problem is not None:
            self.fail(data, key, f"every entry {problem}")
            return []
        return [x for x, _ in values]

    def name(self, data, key, choices, default=None):
        """The entry at ``key``: one of ``choices`` (strings, or True and False)."""
        raw = self._read(data, key, default)
        if _is_one_of(raw, choices):
            return raw
        wanted = f"one of {', '.join(map(str, choices))}" if choices else "a non-empty string"
        self.fail(data, key, f"must be {wanted}, got {reprlib.repr(raw)}")
        return default

    def names(self, data, key, choices, default=()):
        """The list at ``key`` of entries from ``choices``, as a tuple; it may
        be empty only when ``default`` is."""
        raw = self._read(data, key, _ABSENT)
        if raw is _ABSENT:
            return default
        if type(raw) is list and (raw or not default) and all(_is_one_of(x, choices) for x in raw):
            return tuple(raw)
        empty = "" if not default else "non-empty "
        self.fail(data, key, f"must be a {empty}list of {', '.join(choices)}, got {reprlib.repr(raw)}")
        return default

    def profile(self, data, key) -> PiecewiseLinear:
        """The profile at ``key``: one number, or a ``{times, values}`` mapping
        of number lists; 0.0 when absent or null."""
        errors, raw = len(self.errors), self._read(data, key)
        if type(raw) is dict:
            raw = self._hand_out(data, key, raw)
            knots = self.vector(raw, "times"), self.vector(raw, "values")
        else:
            knots = [0.0], [0.0 if raw is None else self.number(data, key)]
        if len(self.errors) == errors:
            try:
                return PiecewiseLinear(*knots)
            except ValueError as exc:
                self.fail(data, key, str(exc))
        return PiecewiseLinear.constant(0.0)


def parse_config(data: dict, name_hint: str = "scenario") -> ScenarioConfig:
    """Build a validated :class:`ScenarioConfig` from a raw mapping.

    Raises
    ------
    ConfigError
        With one message per offending field.
    """
    if type(data) is not dict:
        raise ConfigError(["top level: must be a mapping"])
    v = _Reader(data)
    name = v.name(data, "name", None, name_hint)
    sections = {key: v.section(data, key) for key in _RECORDS}
    records = {key: v.numbers(sections[key], record) for key, record in _RECORDS.items()}
    if v.number(sections["vehicle"], "thrust", 0.0) != 0.0:
        v.fail(sections["vehicle"], "thrust", "no force reads it; give the thrust as controls.thrust")

    sec = v.section(data, "initial_state")
    kind = v.name(sec, "kind", tuple(_INITIAL_ROWS))
    if kind is None:  # a bad kind is the section's one message: its other keys go unchecked
        sec.clear()
    row = v.row(sec, _INITIAL_ROWS.get(kind, {}))

    ctl = v.section(data, "controls", required=False)
    profiles = {key: v.profile(ctl, key) for key in _PROFILES}
    bank_mode = v.name(ctl, "bank_mode", BANK_MODES, "sigma")

    sec = v.section(data, "integrator", required=False)
    method = v.name(sec, "method", METHODS, "rk45-adaptive")
    renormalize = v.name(sec, "renormalize", (True, False), True)
    steps = v.numbers(sec, IntegratorConfig)

    sec = v.section(data, "stop")
    stop = v.numbers(sec, StopConditions)
    guards = v.names(sec, "expected_guards", _FORMS)
    params = v.names(data, "parameterizations", _FORMS, _FORMS)
    top = v.numbers(data, ScenarioConfig)
    v.unread()

    if not v.errors:
        t0, t_final = top["t0"], stop["t_final"]
        if not t0 < t_final:
            v.fail(data, "t0", f"must be less than stop.t_final ({t_final:g}), got {t0:g}")
        elif not math.isfinite(t_final - t0):
            v.fail(data, "t0", f"must be a finite distance from stop.t_final ({t_final:g}), got {t0:g}")
        for key, profile in profiles.items():
            # the lookup takes t - knot, which must be finite at every time of the run
            first, last = profile.times[0], profile.times[-1]
            if not (math.isfinite(t_final - first) and math.isfinite(last - t0)):
                v.fail(ctl, f"{key}.times", "every knot must be a finite distance from every"
                       f" time from t0 to stop.t_final, got knots {first:g} to {last:g}")
    if v.errors:
        raise ConfigError(v.errors)
    environment = Environment(**{key: record(**records[key]) for key, record in _RECORDS.items()})
    init = InitialState(kind=kind, y=np.hstack(list(row.values())))
    # a quaternion off unit norm, or an initial row that cannot be derived or
    # is not finite, is a config error, while a gauge singular there stays
    # that form's singularity_guard at run time; underflow is not trapped,
    # as valid states underflow on the way to rows
    try:
        with np.errstate(over="raise", invalid="raise"):
            _check_unit_blocks(init)
            return ScenarioConfig(
                name=name,
                environment=environment,
                initial_state=init,
                controls=ControlProfile(**profiles, bank_mode=bank_mode),
                integrator=IntegratorConfig(method=method, renormalize_every_step=renormalize, **steps),
                stop=StopConditions(**stop, expected_guards=guards),
                parameterizations=params,
                **top,
            )
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError([f"initial_state: {exc}"]) from exc


def _check_unit_blocks(init: InitialState):
    """Reject, renormalize in place, or keep each quaternion block of ``init.y``."""
    for lo, hi in PARAMETERIZATIONS[init.kind].quat_spans:
        n = float(row_norms(init.y[None, lo:hi])[0])
        if not abs(n - 1.0) <= _UNIT_NORM_ERROR:
            raise ValueError(f"quaternion norm {n!r} violates unit constraint")
        if abs(n - 1.0) > _UNIT_NORM_KEEP:
            init.y[lo:hi] = init.y[lo:hi] / n


def load_scenario(path) -> ScenarioConfig:
    """Load and validate a scenario YAML file."""
    path = Path(path)
    try:
        data = yaml.load(path.read_text(), Loader=_YAML_LOADER)
    except (OSError, ValueError, yaml.YAMLError) as exc:
        raise ConfigError([f"{path}: {exc}"]) from exc
    return parse_config(data, name_hint=path.stem)


def bundled_scenario_path(name: str) -> Path:
    """Filesystem path of a scenario shipped with the package."""
    resource = importlib.resources.files("quatflight") / "scenarios" / f"{name}.yaml"
    return Path(str(resource))


def initial_array_for(name: str, config: ScenarioConfig):
    """A copy of form ``name``'s initial row in ``config``, or the ``SingularityError`` of its gauge."""
    row = config.initial_rows[name]
    if isinstance(row, str):
        raise SingularityError(row)
    return row.copy()


def resolve_output_dir(outdir=None) -> Path:
    """CLI flag, then the environment variable, then the working directory, created if missing.

    A directory that cannot be created, such as a path to an existing file,
    is a ``ConfigError``.
    """
    if outdir:
        path = Path(outdir)
    else:
        path = Path(os.environ.get(OUTPUT_DIR_ENV_VAR, "."))
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError([f"output directory: {exc}"]) from exc
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
    trajectory, event = propagate(
        spec.make_rhs(config.controls, env),
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
    # one %-template per row: an empty field for an all-NaN column, "%.17g"
    # for any other; finite rows give no column that mixes NaN and numbers
    fields, cells = [], []
    for col in CSV_COLUMNS:
        values = columns[col]
        if np.isnan(values).all():
            fields.append("")
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
    ``to_cartesian_rows`` call.  Every form samples a prefix of the same
    sorted grid from ``t0``, so a pair shares the shorter prefix.
    """
    samples = {}  # name -> (output times, p, speed)
    norm_drift = {}
    timing = {}
    final_states = {}
    for res in results:
        if res.trajectory is None:
            continue
        spec = PARAMETERIZATIONS[res.name]
        traj = res.trajectory
        p, v = spec.to_cartesian_rows(np.concatenate((traj.y_eval, traj.y[-1:])))
        speed = row_norms(v)
        samples[res.name] = (traj.t_eval, p, speed)
        timing[res.name] = {
            "wall_time_s": traj.wall_time,
            "derivative_evaluations": traj.n_evals,
            "accepted_steps": traj.n_steps,
            "rejected_steps": traj.n_rejected,
        }
        norm_drift[res.name] = [
            float(np.max(np.abs(row_norms(traj.y[:, lo:hi]) - 1.0))) for lo, hi in spec.quat_spans
        ]
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
            (t_a, p_a, speed_a), (t_b, p_b, speed_b) = samples[a], samples[b]
            n = min(len(t_a), len(t_b))
            key = f"{a}|{b}"
            times[key] = t_a[:n].tolist()
            pair_errors[key] = (
                row_norms(p_a[:n] - p_b[:n]).tolist(),
                np.abs(speed_a[:n] - speed_b[:n]).tolist(),
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
        if res.trajectory is not None:
            csv_path = out_path / f"{config.name}_{name}.csv"
            res.csv_path = write_trajectory_csv(csv_path, name, res.trajectory, config)
        results.append(res)

    report = None
    if compare:
        report = build_comparison(config, results)
        report_path = out_path / f"{config.name}_comparison.json"
        report_path.write_text(report.to_json())

    stops = {res.name: res.event.kind for res in results}
    return results, report, exit_code_for(stops, config.stop.expected_guards)


def exit_code_for(stops: dict, expected_guards) -> int:
    """The CLI exit code of forms that stopped as ``stops``, form name to stop kind.

    3 when a form tripped a guard it was not expected to, otherwise 4 when
    one ended in a step failure, otherwise 0.
    """
    if any(k == "singularity_guard" and n not in expected_guards for n, k in stops.items()):
        return 3
    return 4 if "step_failure" in stops.values() else 0
