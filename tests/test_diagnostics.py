"""Column-wise diagnostics, CSV writing and comparison against a per-row reference.

The reference below is the per-sample code the column-wise one replaced:
one state row, DCM, matrix product, ``np.cross`` and ``np.linalg.norm``
per sample, and one ``csv.writer`` row per sample.  Every CSV byte, every
comparison-report byte and every diagnostic column must come out the same,
bit for bit.  A comparison only observes: the CSVs of a ``--compare`` run are
those of a plain run, and its grid samples agree with propagations that
land on the grid.
"""

import csv
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quatflight import cli, dynamics, scenario
from quatflight.controls import ControlProfile, PiecewiseLinear
from quatflight.dynamics import (
    PARAMETERIZATIONS,
    VERTICAL_SIN_EPS,
    sample_diagnostics,
)
from quatflight.environment import EARTH, AeroModel, Atmosphere, CentralBody, Environment, Vehicle
from quatflight.propagation import Trajectory
from quatflight.quat import dcm_from_quat, twist
from quatflight.scenario import (
    CSV_COLUMNS,
    build_comparison,
    bundled_scenario_path,
    load_scenario,
    run_scenario,
    write_trajectory_csv,
)
from quatflight.states import CartesianState

from reference import (
    AxisAngle,
    beta_from_sigma,
    constant_controls,
    dcm_from_axis_angle,
    initial_row,
    profile_value,
    quat_from_axis_angle,
    sigma_from_beta,
    unit,
)

BUNDLED = ("entry_table3", "vertical_dive", "circular_orbit", "bench_entry", "norm_drift")


# --- the per-row reference ---------------------------------------------------


def ref_dcm(q):
    e1, e2, e3, eta = map(float, q)
    return np.array(
        [
            [1.0 - 2.0 * (e2 * e2 + e3 * e3), 2.0 * (e1 * e2 + e3 * eta), 2.0 * (e1 * e3 - e2 * eta)],
            [2.0 * (e2 * e1 - e3 * eta), 1.0 - 2.0 * (e3 * e3 + e1 * e1), 2.0 * (e2 * e3 + e1 * eta)],
            [2.0 * (e3 * e1 + e2 * eta), 2.0 * (e3 * e2 - e1 * eta), 1.0 - 2.0 * (e1 * e1 + e2 * e2)],
        ]
    )


def ref_widened(y):
    """The ten-parameter row of an eight-parameter row: B over A is about the third axis."""
    return np.array([*y[0:6], 0.0, 0.0, *y[6:8]], dtype=float)


def ref_rv_to_cartesian(y):
    c_ae = ref_dcm(unit(y[1:5]))
    c_be = ref_dcm(unit(y[6:10])) @ c_ae
    return CartesianState(float(y[0]) * c_ae[0, :], float(y[5]) * c_be[0, :])


def ref_spherical_to_cartesian(y):
    r, lon, lat, v, gamma, psi = map(float, y)
    ct, st_ = math.cos(lat), math.sin(lat)
    cl, sl = math.cos(lon), math.sin(lon)
    up = np.array([ct * cl, ct * sl, st_])
    east = np.array([-sl, cl, 0.0])
    north = np.array([-st_ * cl, -st_ * sl, ct])
    cg, sg = math.cos(gamma), math.sin(gamma)
    cp, sp = math.cos(psi), math.sin(psi)
    vel = v * (sg * up + cg * (cp * north + sp * east))
    return CartesianState(r * up, vel)


# each takes a row that its form's conversion accepts
REF_TO_CARTESIAN = {
    "rv": ref_rv_to_cartesian,
    "rvl": ref_rv_to_cartesian,
    "rvh": lambda y: ref_rv_to_cartesian(ref_widened(y)),
    "spherical": ref_spherical_to_cartesian,
    "cartesian": lambda y: CartesianState(y[0:3].copy(), y[3:6].copy()),
}


class _Vertical(Exception):
    pass


def ref_beta_from_sigma(sigma, c_ba):
    c21, c31 = c_ba[1, 0], c_ba[2, 0]
    if c21 * c21 + c31 * c31 < VERTICAL_SIN_EPS * VERTICAL_SIN_EPS:
        raise _Vertical
    return math.atan2(
        math.sin(sigma) * c21 - math.cos(sigma) * c31,
        math.cos(sigma) * c21 + math.sin(sigma) * c31,
    )


def ref_sigma_from_beta(beta, c_ba):
    c21, c31 = c_ba[1, 0], c_ba[2, 0]
    if c21 * c21 + c31 * c31 < VERTICAL_SIN_EPS * VERTICAL_SIN_EPS:
        raise _Vertical
    return beta + math.atan2(c31, c21)


def ref_bank_columns(sigma, c_ba):
    try:
        beta = ref_beta_from_sigma(sigma, c_ba)
    except _Vertical:
        beta = 0.0
    return {"sigma": sigma, "beta": beta}


def ref_ten_parameter_columns(native_bank):
    def columns(t, y, controls):
        c_ba = ref_dcm(unit(y[6:10]))
        return {
            "norm_qa": float(np.linalg.norm(y[1:5])),
            "norm_qb": float(np.linalg.norm(y[6:10])),
            "eps_a1": y[1], "eps_a2": y[2], "eps_a3": y[3], "eta_a": y[4],
            "eps_b1": y[6], "eps_b2": y[7], "eps_b3": y[8], "eta_b": y[9],
            **ref_bank_columns(native_bank(t, controls, c_ba), c_ba),
        }

    return columns


def ref_rv_bank(t, controls, c_ba):
    if controls.bank_mode == "sigma":
        return profile_value(controls.bank, t)
    # the rv derivative's rule, in vertical flight too; + 0.0 turns a -0.0 into +0.0
    return profile_value(controls.bank, t) + math.atan2(c_ba[2, 0], c_ba[1, 0] + 0.0)


def ref_baseline_columns(t, y, controls):
    return {"beta": profile_value(controls.bank, t)}


REF_GAUGE_COLUMNS = {
    "rv": ref_ten_parameter_columns(ref_rv_bank),
    "rvl": ref_ten_parameter_columns(lambda t, controls, c_ba: 0.0),
    "rvh": lambda t, y, controls: REF_GAUGE_COLUMNS["rv"](t, ref_widened(y), controls),
    "spherical": ref_baseline_columns,
    "cartesian": ref_baseline_columns,
}


def ref_sample_diagnostics(name, t, y, controls, env):
    y = np.asarray(y, dtype=float)
    cart = REF_TO_CARTESIAN[name](y)
    h_mag = float(np.linalg.norm(np.cross(cart.position, cart.velocity)))
    energy = 0.5 * cart.v**2 - env.body.mu / cart.r
    out = {
        "x": float(cart.position[0]),
        "y": float(cart.position[1]),
        "z": float(cart.position[2]),
        "vx": float(cart.velocity[0]),
        "vy": float(cart.velocity[1]),
        "vz": float(cart.velocity[2]),
        "r": cart.r,
        "v": cart.v,
        "h_mag": h_mag,
        "energy": energy,
        "alpha": profile_value(controls.alpha, t),
    }
    out.update(REF_GAUGE_COLUMNS[name](t, y, controls))
    return out


def ref_fmt(x):
    return format(float(x), ".17g")


def ref_write_trajectory_csv(path, name, trajectory, config):
    env = config.environment
    stride = config.csv_stride
    idx = list(range(0, len(trajectory), stride))
    if idx[-1] != len(trajectory) - 1:
        idx.append(len(trajectory) - 1)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for i in idx:
            t = float(trajectory.t[i])
            diag = ref_sample_diagnostics(name, t, trajectory.y[i], config.controls, env)
            # a column the form does not have is an empty cell
            cells = [ref_fmt(diag[col]) if col in diag else "" for col in CSV_COLUMNS[1:]]
            writer.writerow([ref_fmt(t)] + cells)


def ref_build_comparison(config, results):
    samples, norm_drift, timing, final_states = {}, {}, {}, {}
    for res in results:
        if res.trajectory is None or len(res.trajectory) == 0:
            continue
        spec = PARAMETERIZATIONS[res.name]
        to_cartesian = REF_TO_CARTESIAN[res.name]
        traj = res.trajectory
        samples[res.name] = {
            grid_t: to_cartesian(y) for grid_t, y in zip(traj.t_eval.tolist(), traj.y_eval)
        }
        timing[res.name] = {
            "wall_time_s": traj.wall_time,
            "derivative_evaluations": traj.n_evals,
            "accepted_steps": traj.n_steps,
            "rejected_steps": traj.n_rejected,
        }
        drift = []
        for lo, hi in spec.quat_spans:
            norms = np.array([np.linalg.norm(row[lo:hi]) for row in traj.y])
            drift.append(float(np.max(np.abs(norms - 1.0))))
        norm_drift[res.name] = drift
        cart_final = to_cartesian(traj.y[-1])
        final_states[res.name] = {
            "t": float(traj.t[-1]),
            "position": [float(x) for x in cart_final.position],
            "velocity": [float(x) for x in cart_final.velocity],
            "r": cart_final.r,
            "v": cart_final.v,
            "stop": res.event.kind,
        }
    pairs = {}
    names = list(samples)
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            shared = sorted(set(samples[a]) & set(samples[b]))
            if not shared:
                continue
            e_r = [float(np.linalg.norm(samples[a][t].position - samples[b][t].position)) for t in shared]
            e_v = [abs(samples[a][t].v - samples[b][t].v) for t in shared]
            pairs[f"{a}|{b}"] = {"t": shared, "e_r": e_r, "e_v": e_v}
    return {
        "scenario": config.name,
        "pairs": pairs,
        "final_states": final_states,
        "norm_drift": norm_drift,
        "timing": timing,
    }


def assert_columns_match_reference(name, t, y, controls, env):
    columns = sample_diagnostics(name, t, y, controls, env)
    rows = [ref_sample_diagnostics(name, float(tk), yk, controls, env) for tk, yk in zip(t, y)]
    assert set(columns) == set(rows[0])
    for col, values in columns.items():
        assert values.shape == (len(t),), (name, col)
        expected = np.array([row[col] for row in rows], dtype=float)
        assert values.astype(float).tobytes() == expected.tobytes(), (name, col)


# --- the bundled scenarios, byte for byte ------------------------------------


@pytest.fixture(scope="module")
def bundled_runs(tmp_path_factory):
    runs = {}
    for name in BUNDLED:
        config = load_scenario(bundled_scenario_path(name))
        outdir = tmp_path_factory.mktemp(name)
        results, report, _ = run_scenario(config, outdir=outdir, compare=True)
        runs[name] = (config, results, report, outdir)
    return runs


class TestMatchesPerRowReference:
    def test_bundled_csvs_byte_identical(self, bundled_runs, tmp_path):
        written = 0
        for name, (config, results, _, _) in bundled_runs.items():
            for res in results:
                if res.csv_path is None:
                    continue
                ref_path = tmp_path / f"{name}_{res.name}.csv"
                ref_write_trajectory_csv(ref_path, res.name, res.trajectory, config)
                with open(res.csv_path, "rb") as fh:
                    assert fh.read() == ref_path.read_bytes(), (name, res.name)
                written += 1
        assert written == 18
        # norm_drift writes every 200th of its 1e5 fixed steps
        config, (norm_drift,), *_ = bundled_runs["norm_drift"]
        assert config.csv_stride == 200 and len(norm_drift.trajectory) > 100_000

    def test_comparison_json_byte_identical(self, bundled_runs):
        for name, (config, results, report, outdir) in bundled_runs.items():
            expected = json.dumps(ref_build_comparison(config, results), indent=2)
            assert json.dumps(report, indent=2) == expected, name
            assert (outdir / f"{name}_comparison.json").read_text() == expected, name

    def test_report_rebuilt_from_the_same_results_is_identical(self, bundled_runs):
        config, results, report, _ = bundled_runs["entry_table3"]
        assert json.dumps(build_comparison(config, results), indent=2) == json.dumps(report, indent=2)


@pytest.fixture(scope="module")
def plain_runs(tmp_path_factory):
    """The bundled scenarios run without ``--compare``."""
    runs = {}
    for name in BUNDLED:
        config = load_scenario(bundled_scenario_path(name))
        results, _, _ = run_scenario(config, outdir=tmp_path_factory.mktemp(f"{name}_plain"))
        runs[name] = results
    return runs


class TestComparisonObservesOnly:
    """The compare grid is sampled from the step interpolants, never landed on."""

    def test_compare_csvs_byte_identical_to_plain_csvs(self, bundled_runs, plain_runs):
        written = 0
        for name, (_, results, _, _) in bundled_runs.items():
            for res, plain in zip(results, plain_runs[name]):
                assert (res.name, res.event.kind) == (plain.name, plain.event.kind), name
                if res.csv_path is None:
                    continue
                with open(res.csv_path, "rb") as a, open(plain.csv_path, "rb") as b:
                    assert a.read() == b.read(), (name, res.name)
                written += 1
        assert written == 18

    def test_rk4_grid_adds_no_steps(self, bundled_runs, plain_runs):
        # the fixed step's time grows by repeated + 0.1 and misses most grid
        # times by rounding; landing on them would add sub-1e-10 s steps
        (with_grid,) = bundled_runs["norm_drift"][1]
        (plain,) = plain_runs["norm_drift"]
        traj = with_grid.trajectory
        assert len(traj) == 100_001
        assert traj.n_steps == 100_000
        assert np.array_equal(traj.y[-1], plain.trajectory.y[-1])
        assert len(traj.t_eval) == bundled_runs["norm_drift"][0].compare_points

    def test_grid_samples_match_a_landed_propagation(self, bundled_runs):
        config, results, _, _ = bundled_runs["entry_table3"]
        checked = 0
        for res in results:
            spec = PARAMETERIZATIONS[res.name]
            traj = res.trajectory
            positions, _ = spec.to_cartesian_rows(traj.y_eval)
            for t, p in zip(traj.t_eval.tolist(), positions):
                if t == config.t0:
                    continue
                stop = dataclasses.replace(config.stop, t_final=t)
                landed = scenario.run_parameterization(res.name, dataclasses.replace(config, stop=stop))
                assert (landed.event.kind, landed.event.t_event) == ("terminal_time", t)
                p_landed = spec.to_cartesian(landed.trajectory.y[-1]).position
                assert float(np.linalg.norm(p - p_landed)) < 1e-3, (res.name, t)
                checked += 1
        assert checked == 5 * (len(results[0].trajectory.t_eval) - 1)


def _controls(mode):
    return ControlProfile(
        alpha=PiecewiseLinear([0.0, 40.0, 100.0], [0.1, -0.2, 0.25]),
        bank=PiecewiseLinear([0.0, 30.0, 70.0, 100.0], [0.4, -2.5, 3.0, 1.0]),
        bank_mode=mode,
    )


ENV = Environment(
    body=CentralBody(mu=EARTH.mu, radius=EARTH.radius, spin_rate=EARTH.spin_rate),
    atmosphere=Atmosphere(rho0=1.225, scale_height=8500.0),
    aero=AeroModel(s=12.0, cl_alpha=1.5, cd0=0.05, k=0.3),
    vehicle=Vehicle(mass=2000.0),
)


def _unit(rng, n, k):
    q = rng.normal(size=(n, k))
    return q / np.linalg.norm(q, axis=1)[:, None]


def random_rows(form, rng, n=40):
    """``n`` random rows of ``form``, quaternions 1e-10 off unit in every other
    row, followed by vertical and near-vertical rows."""
    r = EARTH.radius + rng.uniform(1e3, 2e5, n)
    v = rng.uniform(100.0, 8000.0, n)
    off = 1.0 + np.where(np.arange(n) % 2, 1e-10, 0.0)[:, None] * rng.choice([-1.0, 1.0], (n, 1))
    if form in ("rv", "rvl"):
        qb_vertical = [[0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, -1.0]]
        qb_vertical += [[0.0, 0.0, math.sin(h), math.cos(h)] for h in (1e-13, -1e-13, 1e-11)]
        qb_vertical += [[0.0, math.sin(h), 0.0, math.cos(h)] for h in (4e-13, 1e-11)]
        qb = np.vstack([_unit(rng, n, 4) * off, qb_vertical])
        m = len(qb)
        qa = _unit(rng, m, 4)
        qa[:n] *= off
        r = np.concatenate([r, np.full(m - n, EARTH.radius + 5e4)])
        v = np.concatenate([v, np.full(m - n, 3000.0)])
        return np.column_stack([r, qa, v, qb])
    if form == "rvh":
        half = np.concatenate([rng.uniform(-1.5, 1.5, n), [1e-13, -1e-13, 3e-13, 1e-11]])
        m = len(half)
        pair = np.column_stack([np.sin(half), np.cos(half)])
        pair[:n] *= off
        qa = _unit(rng, m, 4)
        qa[:n] *= off
        r = np.concatenate([r, np.full(m - n, EARTH.radius + 5e4)])
        v = np.concatenate([v, np.full(m - n, 3000.0)])
        return np.column_stack([r, qa, v, pair])
    if form == "spherical":
        lat = np.concatenate([rng.uniform(-1.5, 1.5, n), [0.3, -0.2]])
        gamma = np.concatenate([rng.uniform(-1.5, 1.5, n), [math.pi / 2, -math.pi / 2]])
        m = len(lat)
        r = np.concatenate([r, [EARTH.radius + 5e4] * 2])
        v = np.concatenate([v, [3000.0] * 2])
        return np.column_stack(
            [r, rng.uniform(-math.pi, math.pi, m), lat, v, gamma, rng.uniform(-math.pi, math.pi, m)]
        )
    pos = _unit(rng, n + 1, 3) * np.concatenate([r, [EARTH.radius + 5e4]])[:, None]
    vel = rng.normal(size=(n + 1, 3)) * 3000.0
    vel[-1] = -pos[-1] / np.linalg.norm(pos[-1]) * 300.0  # straight down
    return np.column_stack([pos, vel])


class TestColumnsMatchReference:
    @pytest.mark.parametrize("mode", ["sigma", "beta"])
    @pytest.mark.parametrize("form", list(PARAMETERIZATIONS))
    def test_random_rows(self, form, mode):
        rng = np.random.default_rng(sum(map(ord, form + mode)))
        y = random_rows(form, rng)
        t = rng.uniform(-10.0, 110.0, len(y))
        t[:4] = (0.0, 30.0, 70.0, 100.0)  # on the knots
        assert_columns_match_reference(form, t, y, _controls(mode), ENV)

    @pytest.mark.parametrize("form", ["rv", "rvh"])
    def test_vertical_rows_take_the_guard_branches(self, form):
        # the near-vertical rows give beta exactly 0.0, and the native sigma
        # the rv derivative's rule: the command plus atan2(c31, c21 + 0.0)
        y = random_rows(form, np.random.default_rng(5), n=0)
        controls = _controls("beta")
        columns = sample_diagnostics(form, np.full(len(y), 50.0), y, controls, ENV)
        guarded = columns["beta"] == 0.0
        assert 2 <= guarded.sum() < len(y)
        command = profile_value(controls.bank, 50.0)
        for row, sigma in zip(y[guarded], columns["sigma"][guarded]):
            c_ba = ref_dcm(unit((ref_widened(row) if form == "rvh" else row)[6:10]))
            assert sigma == command + math.atan2(c_ba[2, 0], c_ba[1, 0] + 0.0)

    def test_beta_mode_sigma_in_vertical_flight_is_the_bank_flown(self, monkeypatch, tmp_path):
        # vertical_dive's rv row at alpha 0.1 and bank 0.3 in beta mode: the
        # CSV's sigma is the angle the rv derivative passes to cos
        config = load_scenario(bundled_scenario_path("vertical_dive"))
        config = dataclasses.replace(config, controls=constant_controls(alpha=0.1, bank=0.3, bank_mode="beta"))
        y0 = config.initial_rows["rv"]
        rhs = PARAMETERIZATIONS["rv"].make_rhs(config.controls, config.environment)
        angles = []

        def recording_cos(x):
            angles.append(x)
            return math.cos(x)

        monkeypatch.setattr(dynamics, "cos", recording_cos)
        rhs(config.t0, y0.tolist())
        monkeypatch.undo()
        traj = Trajectory(t=np.array([config.t0]), y=y0[None, :])
        write_trajectory_csv(tmp_path / "rv.csv", "rv", traj, config)
        with open(tmp_path / "rv.csv", newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert angles == [float(row["sigma"])] == [0.3]

    @pytest.mark.parametrize("form", list(PARAMETERIZATIONS))
    def test_one_row(self, form):
        y = random_rows(form, np.random.default_rng(11), n=3)[:1]
        assert_columns_match_reference(form, np.array([12.5]), y, _controls("beta"), ENV)

    @pytest.mark.parametrize("form", list(PARAMETERIZATIONS))
    def test_one_row_trajectory_csv(self, form, tmp_path):
        config = load_scenario(bundled_scenario_path("entry_table3"))
        y = random_rows(form, np.random.default_rng(13), n=2)[:1]
        traj = Trajectory(t=np.array([3.0]), y=y)
        write_trajectory_csv(tmp_path / "new.csv", form, traj, config)
        ref_write_trajectory_csv(tmp_path / "ref.csv", form, traj, config)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize(
        "form, col, value, message",
        [
            ("rv", 1, (0.0, 0.0, 0.0, 0.0), "zero-norm"),
            ("rv", 0, (-1.0,), "radius must be positive"),
            ("rvh", 5, (0.0,), "speed must be positive"),
            ("spherical", 2, (1.6,), "latitude"),
            ("spherical", 4, (-1.6,), "flight path angle"),
            ("cartesian", 0, (0.0, 0.0, 0.0), "position must be nonzero"),
            ("rv", 5, (-2.0,), "speed must be positive"),
            ("rv", 6, (0.0, 0.0, 0.0, 0.0), "zero-norm quaternion"),
            ("rvh", 0, (0.0,), "radius must be positive"),
            ("rvh", 1, (0.0, 0.0, 0.0, 0.0), "zero-norm quaternion"),
            ("rvh", 6, (0.0, 0.0), "zero-norm quaternion"),
            ("spherical", 0, (-1.0,), "radius must be positive"),
            ("cartesian", 3, (math.nan,), "velocity must be finite"),
            ("spherical", 5, (math.nan,), "velocity must be finite"),
            ("spherical", 3, (math.inf,), "velocity must be finite"),
        ],
    )
    def test_rows_are_checked_like_single_states(self, form, col, value, message):
        # a state's validity rules live in its form's row conversion alone
        y = random_rows(form, np.random.default_rng(19), n=4)[:4]
        y[2, col : col + len(value)] = value
        spec = PARAMETERIZATIONS[form]
        with pytest.raises(ValueError, match=message):
            spec.to_cartesian_rows(y)
        with pytest.raises(ValueError, match=message):
            spec.to_cartesian(y[2])


# --- round-trip properties ---------------------------------------------------


def _nonzero(n):
    return st.tuples(*[st.floats(-1.0, 1.0)] * n).filter(lambda xs: sum(x * x for x in xs) > 0.01)


_quaternions = _nonzero(4).map(unit)
_directions = _nonzero(3).map(lambda xyz: np.array(xyz) / math.sqrt(sum(x * x for x in xyz)))
_radii = st.floats(EARTH.radius + 1e3, EARTH.radius + 1e6)
_speeds = st.floats(100.0, 8000.0)
_angles = st.floats(-math.pi, math.pi)
_drift = st.sampled_from([1.0, 1.0 + 1e-10, 1.0 - 1e-10, 1.0 + 3e-13])


def _drifted(q, scale):
    return (q * scale).tolist()


STATE_ROWS = {
    "rv": st.builds(
        lambda r, qa, v, qb, da, db: [r, *_drifted(qa, da), v, *_drifted(qb, db)],
        _radii, _quaternions, _speeds, _quaternions, _drift, _drift,
    ),
    "rvh": st.builds(
        lambda r, qa, v, half, da, db: [r, *_drifted(qa, da), v, db * math.sin(half), db * math.cos(half)],
        _radii, _quaternions, _speeds, st.floats(-1.55, 1.55), _drift, _drift,
    ),
    "spherical": st.builds(
        lambda *xs: list(xs), _radii, _angles, st.floats(-1.5, 1.5), _speeds, st.floats(-1.5, 1.5), _angles
    ),
    "cartesian": st.builds(
        lambda up, r, ahead, v: [*(r * up), *(v * ahead)], _directions, _radii, _directions, _speeds
    ),
}
STATE_ROWS["rvl"] = STATE_ROWS["rv"]


class TestConversionProperties:
    @pytest.mark.parametrize("form", list(PARAMETERIZATIONS))
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_rows_convert_as_single_states(self, form, data):
        y = np.array(data.draw(st.lists(STATE_ROWS[form], min_size=1, max_size=6)))
        p, v = PARAMETERIZATIONS[form].to_cartesian_rows(y)
        for k, row in enumerate(y):
            expected = REF_TO_CARTESIAN[form](row)
            single = PARAMETERIZATIONS[form].to_cartesian(row)
            for got in (p[k], single.position):
                assert got.tobytes() == expected.position.tobytes()
            for got in (v[k], single.velocity):
                assert got.tobytes() == expected.velocity.tobytes()

    @pytest.mark.parametrize("form", list(PARAMETERIZATIONS))
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(up=_directions, r=_radii, ahead=_directions, v=_speeds, bank=_angles)
    def test_every_form_to_cartesian_and_back(self, form, up, r, ahead, v, bank):
        c = CartesianState(r * up, v * ahead)
        # in vertical flight rvh is undefined; near a pole the spherical
        # latitude loses about sqrt(eps) (see test_scenario)
        assume(math.hypot(up[0], up[1]) > 1e-3 and np.linalg.norm(np.cross(up, ahead)) > 1e-2)
        spec = PARAMETERIZATIONS[form]
        y = initial_row(form, c, constant_controls(bank=bank, bank_mode="beta"))
        p, vel = spec.to_cartesian_rows(y[None, :])
        # the round-trip tolerances of test_scenario, relative to the vector's length
        np.testing.assert_allclose(p[0], c.position, rtol=0, atol=1e-10 * r)
        np.testing.assert_allclose(vel[0], c.velocity, rtol=0, atol=1e-10 * v)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(axis=_directions, delta=st.floats(0.0, 1e-6))
    def test_twist_of_a_near_half_turn(self, axis, delta):
        c = dcm_from_axis_angle(AxisAngle(axis, math.pi - delta))
        q = twist(quat_from_axis_angle(AxisAngle(axis, math.pi - delta)), delta)
        assert q[3] >= 0.0
        turn = dcm_from_axis_angle(AxisAngle(np.array([1.0, 0.0, 0.0]), delta))
        np.testing.assert_allclose(dcm_from_quat(q), turn @ c, atol=1e-12)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(qb=_quaternions, sigma=_angles)
    def test_bank_maps_are_inverse(self, qb, sigma):
        c_ba = dcm_from_quat(qb)
        assume(1.0 - c_ba[0, 0] ** 2 >= 1e-6)
        beta = beta_from_sigma(sigma, c_ba)
        assert beta == ref_beta_from_sigma(sigma, c_ba)
        back = sigma_from_beta(beta, c_ba)
        assert back == ref_sigma_from_beta(beta, c_ba)
        assert abs((sigma - back + math.pi) % (2.0 * math.pi) - math.pi) < 1e-12


# --- what the long fixed-step run converts, and what the tracer patches ------


def test_csv_converts_only_the_written_rows(monkeypatch, tmp_path):
    # norm_drift: 1e5 fixed steps, csv_stride 200, so 501 rows are written.
    # Whole-trajectory (n, 3, 3) stacks would cost far more memory than the
    # trajectory itself.
    config = load_scenario(bundled_scenario_path("norm_drift"))
    assert config.csv_stride == 200
    n = 100_001
    y = np.tile(config.initial_state.y, (n, 1))
    traj = Trajectory(t=np.linspace(0.0, 1e4, n), y=y)
    seen = []
    original = scenario.sample_diagnostics

    def spy(name, t, rows, controls, env):
        seen.append(len(rows))
        return original(name, t, rows, controls, env)

    monkeypatch.setattr(scenario, "sample_diagnostics", spy)
    write_trajectory_csv(tmp_path / "long.csv", "rv", traj, config)
    assert seen == [501]


def test_benchmark_patch_points_resolve(monkeypatch, tmp_path):
    # The layered benchmark times the program by replacing these module
    # attributes; write_trajectory_csv must look sample_diagnostics up by
    # its module-global name so that the replacement is what it calls.
    assert callable(cli.load_scenario)
    for attr in (
        "initial_array_for",
        "propagate",
        "write_trajectory_csv",
        "sample_diagnostics",
        "build_comparison",
    ):
        assert callable(getattr(scenario, attr)), attr
    calls = []
    original = scenario.sample_diagnostics

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(scenario, "sample_diagnostics", counted)
    config = load_scenario(bundled_scenario_path("circular_orbit"))
    results, _, _ = run_scenario(config, params=["rv", "cartesian"], outdir=tmp_path)
    assert calls == ["rv", "cartesian"]
    assert all(res.csv_path for res in results)
