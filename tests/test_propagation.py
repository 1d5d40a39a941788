import dataclasses
import inspect
import json
import math
import os
import subprocess
import sys
import traceback
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from quatflight.controls import ControlProfile, PiecewiseLinear
from quatflight.dynamics import PARAMETERIZATIONS, make_cartesian_rhs, make_rv_rhs
from quatflight.environment import (
    EARTH,
    AeroModel,
    Atmosphere,
    CentralBody,
    Environment,
    Vehicle,
)
from quatflight.errors import SingularityError
from quatflight.propagation import (
    _RK54_A,
    _RK54_C,
    _RK54_E,
    _RK54_P,
    _EVENT_MAX_ITERATIONS,
    EVENT_RADIUS_TOL,
    EVENT_TIME_TOL,
    IntegratorConfig,
    _generated,
    _locate_crossing,
    propagate,
)
from quatflight.scenario import (
    bundled_scenario_path,
    initial_array_for,
    load_scenario,
    run_parameterization,
)
from quatflight.states import CartesianState, cartesian_to_rv

from reference import array_rhs, constant_controls, illinois_root, initial_row

MU = EARTH.mu


ABS_TOL, REL_TOL = 1e-12, 1e-9  # the tolerances the step tests take their error norms with
# the fifth-order solution weights: first same as last, stage 7's state is the solution
_RK54_B = _RK54_A[6] + (0.0,)
RV_SPANS = PARAMETERIZATIONS["rv"].quat_spans  # ((1, 5), (6, 10))
RVH_SPANS = PARAMETERIZATIONS["rvh"].quat_spans  # ((1, 5), (6, 8))


def generated_step(kind, rhs, t, y, h, k1=None, t_end=None, spans=()):
    """A generated step projecting ``spans``, with ``ABS_TOL`` for every component.

    The first stage ``k1`` is evaluated and ``t_end`` is ``t + h`` unless given.
    """
    k1 = rhs(t, y) if k1 is None else k1
    t_end = t + h if t_end is None else t_end
    step = _generated(kind, len(y), spans)
    return step(rhs, t, y, h, k1, t_end, [ABS_TOL] * len(y), REL_TOL)


def rk4_step(rhs, t, y, h, k1=None, t_end=None, spans=()):
    return generated_step("rk4", rhs, t, y, h, k1, t_end, spans)


def rk54_step(rhs, t, y, h, k1=None, t_end=None, spans=()):
    return generated_step("rk54", rhs, t, y, h, k1, t_end, spans)


def projected(y, spans):
    return _generated("project", len(y), spans)(y)


def same_float(a, b):
    """``a`` and ``b`` are the same float, or both NaN."""
    return a == b or (math.isnan(a) and math.isnan(b))


# Textbook stepper: the array-copying forms the stepper must match bit for bit.
# Derivatives take and return lists of floats; the oracles convert at their
# boundary and do their own arithmetic on arrays.


def reference_renormalize(y, quat_spans):
    out = y.copy()
    for lo, hi in quat_spans:
        n = math.hypot(*out[lo:hi])
        if n == 0.0:
            raise ValueError("cannot renormalize a zero-norm quaternion block")
        out[lo:hi] /= n
    return out


def reference_error_norm(err, y, y5, abs_tol=ABS_TOL, rel_tol=REL_TOL):
    """The RMS of the scaled error estimate, by ``np.mean``."""
    with np.errstate(all="ignore"):
        tol = abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y5))
        return float(np.sqrt(np.mean((err / tol) ** 2)))


def reference_rk4_step(rhs, t, y, h):
    rhs = array_rhs(rhs)
    k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * h, y + (0.5 * h) * k1)
    k3 = rhs(t + 0.5 * h, y + (0.5 * h) * k2)
    k4 = rhs(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def reference_rk54_step(rhs, t, y, h, t_end=None, project=None):
    """``t_end`` replaces ``t + h`` as the time of the two ``c = 1`` stages.

    ``project``, when given, maps stage 7's state, the fifth-order
    solution, before stage 7 is evaluated there, and the returned solution.
    """
    rhs = array_rhs(rhs)
    k = [rhs(t, y)]
    for i in range(1, 7):
        yi = y.copy()
        for j, a in enumerate(_RK54_A[i]):
            if a != 0.0:
                yi = yi + (h * a) * k[j]
        if i == 6 and project is not None:
            yi = project(yi)
        t_i = t_end if _RK54_C[i] == 1.0 and t_end is not None else t + _RK54_C[i] * h
        k.append(rhs(t_i, yi))
    y5 = y.copy()
    for b, ki in zip(_RK54_B, k):
        if b != 0.0:
            y5 = y5 + (h * b) * ki
    if project is not None:
        y5 = project(y5)
    err = np.zeros_like(y)
    for e, ki in zip(_RK54_E, k):
        if e != 0.0:
            err = err + (h * e) * ki
    return y5, err


def reference_adaptive(rhs, t0, y0, t_final, config, quat_spans=(), scales=None, t_knots=()):
    """The array-copying adaptive loop, without events.

    Same landings and projection as ``propagate``, and its PI step-size
    rule written as two updates, one per outcome, with the error norm taken
    by ``np.mean``.  A step that lands on a knot or on the terminal time
    evaluates its ``c = 1`` stages at the landing's left limit.  Every step
    evaluates all seven stages afresh, so there is no first-same-as-last
    reuse to skip after a knot.  Returns ``(t, y, n_steps, n_rejected)``.
    """
    y = np.asarray(y0, dtype=float).copy()
    ts, ys = [t0], [y]
    n_steps = n_rejected = 0
    landings = sorted({t_final, *(float(b) for b in t_knots if t0 < b < t_final)}, reverse=True)
    project = None
    if config.renormalize_every_step and quat_spans:
        project = lambda v: reference_renormalize(v, quat_spans)
    abs_tol = config.abs_tol
    if scales is not None:
        abs_tol = abs_tol * np.asarray(scales, dtype=float)
    t = t0
    h = min(1.0, (t_final - t0) / 100.0)
    err_prev, rejected = 1e-4, False
    while landings:
        target = landings[-1]
        landing = target - t - h < 1e-6 * h or t + h >= target
        h_try = target - t if landing else h
        t_end = math.nextafter(target, -math.inf) if landing else None
        y_new, err = reference_rk54_step(rhs, t, y, h_try, t_end, project)
        err_norm = reference_error_norm(err, y, y_new, abs_tol, config.rel_tol)
        if math.isnan(err_norm):
            err_norm = math.inf
        if err_norm > 1.0:
            n_rejected += 1
            h = h_try * max(0.2, 0.9 * err_norm ** (-0.17))
            rejected = True
            continue
        n_steps += 1
        t = target if landing else t + h_try
        y = y_new
        ts.append(t)
        ys.append(y)
        if landing:
            landings.pop()
        factor = 0.9 * err_norm ** (-0.17) * err_prev ** 0.04 if err_norm > 0.0 else 5.0
        h = h_try * min(1.0 if rejected else 5.0, max(0.2, factor))
        err_prev, rejected = max(err_norm, 1e-4), False
    return np.array(ts), np.array(ys), n_steps, n_rejected


def random_cases(seed, n):
    """``(name, rhs, t, y)`` for every form at ``n`` random flight states.

    Spin, atmosphere, thrust and bank mode vary from case to case; cases a
    form cannot represent (a guard at the initial state) are left out.
    """
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(n):
        env = Environment(
            body=CentralBody(mu=MU, radius=EARTH.radius, spin_rate=(0.0, EARTH.spin_rate)[i % 2]),
            atmosphere=Atmosphere(rho0=(0.0, 1.225)[i // 2 % 2], scale_height=8500.0),
            aero=AeroModel(s=12.0, cl_alpha=1.5, cd0=0.05, k=0.3),
            vehicle=Vehicle(mass=2000.0, thrust_offset=0.1 * (i % 3)),
        )
        thrust = (0.0, 5e4)[i // 4 % 2]
        controls = ControlProfile(
            alpha=PiecewiseLinear([0.0, 50.0, 100.0], rng.uniform(-0.3, 0.3, 3)),
            bank=PiecewiseLinear([0.0, 60.0, 100.0], rng.uniform(-2.0, 2.0, 3)),
            wb1=PiecewiseLinear([0.0, 100.0], rng.uniform(-0.01, 0.01, 2)),
            thrust=PiecewiseLinear([0.0, 100.0], [thrust, 0.5 * thrust]),
            bank_mode=("sigma", "beta")[i // 8 % 2],
        )
        pos = rng.normal(size=3)
        pos *= (EARTH.radius + rng.uniform(1e3, 1e5)) / np.linalg.norm(pos)
        c = CartesianState(pos, rng.normal(size=3) * 3000.0)
        t = float(rng.uniform(0.0, 100.0))
        for name, spec in PARAMETERIZATIONS.items():
            y = initial_row(name, c, controls)
            rhs = spec.make_rhs(controls, env)
            try:
                rhs(t, y)
            except SingularityError:
                continue
            cases.append((name, rhs, t, y))
    return cases


STEPS = (1e-3, 0.1, 2.5)


def vacuum_env(spin=0.0):
    return Environment(
        body=CentralBody(mu=MU, radius=EARTH.radius, spin_rate=spin),
        atmosphere=Atmosphere(rho0=0.0, scale_height=8500.0),
        aero=AeroModel(s=1.0, cl_alpha=1.0, cd0=0.0, k=0.0),
        vehicle=Vehicle(mass=1000.0),
    )


class TestScalarProbe:
    def test_exponential_decay_rk4(self):
        rhs = lambda t, y: [-v for v in y]
        cfg = IntegratorConfig(method="rk4-fixed", step=0.01)
        traj, event = propagate(rhs, 0.0, np.array([1.0]), 1.0, cfg)
        assert event.kind == "terminal_time"
        np.testing.assert_allclose(traj.y[-1][0], math.exp(-1.0), atol=1e-9)

    def test_exponential_decay_adaptive(self):
        rhs = lambda t, y: [-v for v in y]
        cfg = IntegratorConfig(method="rk45-adaptive", rel_tol=1e-12, abs_tol=1e-14)
        traj, event = propagate(rhs, 0.0, np.array([1.0]), 1.0, cfg)
        np.testing.assert_allclose(traj.y[-1][0], math.exp(-1.0), rtol=1e-11)

    def test_time_grid_strictly_increasing(self):
        rhs = lambda t, y: [-v for v in y]
        cfg = IntegratorConfig(method="rk45-adaptive")
        traj, _ = propagate(rhs, 0.0, np.array([1.0]), 2.0, cfg, t_eval=[0.5, 1.5, 2.0])
        assert np.all(np.diff(traj.t) > 0)
        assert traj.t_eval.tolist() == [0.5, 1.5, 2.0]


class TestCircularOrbit:
    def test_one_period_returns_to_start(self):
        r = 7e6
        v = math.sqrt(MU / r)
        period = 2.0 * math.pi * math.sqrt(r**3 / MU)
        env = vacuum_env()
        rhs = make_cartesian_rhs(constant_controls(), env)
        y0 = np.array([r, 0.0, 0.0, 0.0, v, 0.0])
        cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-12)
        traj, event = propagate(
            rhs, 0.0, y0, period, cfg, scales=PARAMETERIZATIONS["cartesian"].scales
        )
        assert event.kind == "terminal_time"
        np.testing.assert_allclose(traj.y[-1][0:3], y0[0:3], atol=1e-6 * r)
        radii = np.linalg.norm(traj.y[:, 0:3], axis=1)
        assert np.max(np.abs(radii - r)) < 1e-8 * r

    def test_rv_form_conserves_energy(self):
        r = 7e6
        v = math.sqrt(MU / r)
        env = vacuum_env()
        period = 2.0 * math.pi * math.sqrt(r**3 / MU)
        c0 = CartesianState([r, 0, 0], [0, v, 0])
        y0 = cartesian_to_rv(c0)
        rhs = make_rv_rhs(constant_controls(), env)
        spec = PARAMETERIZATIONS["rv"]
        cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-12)
        traj, _ = propagate(
            rhs, 0.0, y0, period, cfg, quat_spans=spec.quat_spans, scales=spec.scales
        )
        e0 = 0.5 * v * v - MU / r
        for k in range(0, len(traj), max(1, len(traj) // 50)):
            cs = spec.to_cartesian(traj.y[k])
            e = 0.5 * cs.v**2 - MU / cs.r
            assert abs((e - e0) / e0) < 1e-9


    @pytest.mark.parametrize("spin", [EARTH.spin_rate, 10.0 * EARTH.spin_rate])
    def test_every_form_keeps_the_jacobi_integral(self, spin):
        # gravity alone in the body's rotating frame keeps
        # 1/2 |v|^2 - mu/r - 1/2 w^2 (x^2 + y^2); an inclined orbit turns
        # every quaternion and angle of the five forms
        r0, inclination = 7e6, 0.6
        v0 = 1.05 * math.sqrt(MU / r0)
        c0 = CartesianState([r0, 0.0, 0.0], [0.0, v0 * math.cos(inclination), v0 * math.sin(inclination)])
        controls, env = constant_controls(), vacuum_env(spin)
        cfg = IntegratorConfig(rel_tol=1e-12)
        for name, spec in PARAMETERIZATIONS.items():
            y0 = initial_row(name, c0, controls)
            traj, event = propagate(
                spec.make_rhs(controls, env), 0.0, y0, 3000.0, cfg,
                quat_spans=spec.quat_spans, scales=spec.scales,
            )
            assert event.kind == "terminal_time", name
            p, v = spec.to_cartesian_rows(traj.y)
            jacobi = (0.5 * (v**2).sum(axis=1) - MU / np.linalg.norm(p, axis=1)
                      - 0.5 * spin**2 * (p[:, 0] ** 2 + p[:, 1] ** 2))
            assert np.max(np.abs(jacobi / jacobi[0] - 1.0)) < 1e-11, name


class TestRadiusEvent:
    def test_vertical_drop_matches_quadrature(self):
        # gravity-only fall: the time from r0 to r_target follows from the
        # energy integral dt = dr / sqrt(2 (E + mu/r))
        r0 = EARTH.radius + 50e3
        v0 = 10.0  # downward
        r_target = EARTH.radius + 10e3
        env = vacuum_env()
        rhs = make_cartesian_rhs(constant_controls(), env)
        y0 = np.array([r0, 0.0, 0.0, -v0, 0.0, 0.0])
        cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-12)
        traj, event = propagate(
            rhs,
            0.0,
            y0,
            5000.0,
            cfg,
            radius_fn=lambda y: math.hypot(y[0], math.hypot(y[1], y[2])),
            radius_target=r_target,
            scales=PARAMETERIZATIONS["cartesian"].scales,
        )
        assert event.kind == "radius_crossing"
        energy = 0.5 * v0 * v0 - MU / r0
        t_oracle, err = quad(
            lambda rr: 1.0 / math.sqrt(2.0 * (energy + MU / rr)),
            r_target,
            r0,
            epsabs=1e-12,
            epsrel=1e-13,
        )
        assert err < 1e-6
        assert abs(event.t_event - t_oracle) < 1e-5
        r_final = float(np.linalg.norm(event.y_event[0:3]))
        assert abs(r_final - r_target) < 1e-3

    def test_crossing_radius_refined(self):
        env = vacuum_env()
        rhs = make_cartesian_rhs(constant_controls(), env)
        r0 = EARTH.radius + 15e3
        y0 = np.array([r0, 0.0, 0.0, -300.0, 0.0, 0.0])
        cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
        traj, event = propagate(
            rhs,
            0.0,
            y0,
            200.0,
            cfg,
            radius_fn=lambda y: float(np.linalg.norm(y[0:3])),
            radius_target=EARTH.radius,
        )
        assert event.kind == "radius_crossing"
        assert abs(float(np.linalg.norm(event.y_event[0:3])) - EARTH.radius) < 1e-3
        assert traj.t[-1] == event.t_event


    @pytest.mark.parametrize("method", ["rk4-fixed", "rk45-adaptive"])
    @pytest.mark.parametrize("side", [1.0, -1.0], ids=["rising", "falling"])
    def test_start_on_target_is_not_a_crossing(self, method, side):
        # x = target + side * (t - t^2 / 2): leaves the target at once and
        # comes back at t = 2 s, from above or from below
        target = 10.0
        traj, event = propagate(
            lambda t, y: [y[1], -side],
            0.0,
            np.array([target, side]),
            5.0,
            IntegratorConfig(method=method, step=0.1),
            radius_fn=lambda y: float(y[0]),
            radius_target=target,
        )
        assert event.kind == "radius_crossing"
        assert abs(event.t_event - 2.0) < EVENT_TIME_TOL
        assert traj.t[-1] == event.t_event


class TestEventOnInterpolant:
    # start altitude, radial speed and target altitude
    DIRECTIONS = {"falling": (60e3, -300.0, 20e3), "rising": (20e3, 900.0, 50e3)}

    @pytest.mark.parametrize(
        "config",
        [IntegratorConfig(), IntegratorConfig(method="rk4-fixed", step=1.0)],
        ids=["rk45-adaptive", "rk4-fixed"],
    )
    @pytest.mark.parametrize("direction", ["falling", "rising"])
    def test_located_without_derivative_calls(self, direction, config):
        altitude, v_r, target = self.DIRECTIONS[direction]
        target += EARTH.radius
        spec = PARAMETERIZATIONS["rv"]
        controls = constant_controls()
        rhs = spec.make_rhs(controls, vacuum_env(spin=EARTH.spin_rate))
        c0 = CartesianState([EARTH.radius + altitude, 0.0, 0.0], [v_r, 2000.0, 500.0])
        y0 = spec.from_cartesian(c0)
        n_calls = 0

        def spy(t, y):
            nonlocal n_calls
            n_calls += 1
            return rhs(t, y)

        radii = []  # (radius - target, derivative calls made so far)

        def radius(y):
            r = spec.radius(y)
            radii.append((r - target, n_calls))
            return r

        def run(cfg, rhs, radius_fn):
            return propagate(
                rhs,
                0.0,
                y0,
                500.0,
                cfg,
                quat_spans=spec.quat_spans,
                radius_fn=radius_fn,
                radius_target=target,
                scales=spec.scales,
            )

        traj, event = run(config, spy, radius)
        assert event.kind == "radius_crossing"
        # the first radius on the other side is that of the accepted step
        # that brackets the crossing; no derivative call follows it
        above = radii[0][0] > 0.0
        bracketed = next(calls for g, calls in radii if g == 0.0 or (g > 0.0) != above)
        assert n_calls == bracketed
        assert traj.t[-1] == event.t_event
        assert abs(spec.radius(event.y_event) - target) < EVENT_RADIUS_TOL
        for lo, hi in spec.quat_spans:
            assert abs(np.linalg.norm(event.y_event[lo:hi]) - 1.0) < 1e-15
        _, reference = run(IntegratorConfig(rel_tol=1e-13, abs_tol=1e-12), rhs, spec.radius)
        assert abs(event.t_event - reference.t_event) < EVENT_TIME_TOL

    @pytest.mark.parametrize("bracket", [(0.0, 60.0), (5.0, 30.0), (20.0, 23.5)])
    @pytest.mark.parametrize("direction", ["falling", "rising"])
    def test_refinement_is_the_illinois_iteration(self, direction, bracket):
        # a curved radius, crossing at 10 ln 10 s: the secant iterates fall
        # on one side until the halving of the other end's value moves it
        base = EARTH.radius
        sign = 1.0 if direction == "falling" else -1.0
        target = base + sign * 1e4

        def radius_at(t):
            return base + sign * 1e5 * math.exp(-t / 10.0)

        calls = []

        def radius_fn(y):
            calls.append(y[0])
            return radius_at(y[0])

        t_a, t_b = bracket
        g_a, g_b = radius_at(t_a) - target, radius_at(t_b) - target
        t_event, y_event = _locate_crossing(lambda s: [s], t_a, t_b, g_a, g_b, radius_fn, target)
        t_ref, n_ref = illinois_root(
            lambda t: radius_at(t) - target, t_a, t_b, g_a, g_b,
            EVENT_RADIUS_TOL, EVENT_TIME_TOL, _EVENT_MAX_ITERATIONS,
        )
        assert (t_event, len(calls)) == (t_ref, n_ref)
        assert y_event == [t_event] and calls[-1] == t_event
        assert abs(t_event - 10.0 * math.log(10.0)) < EVENT_TIME_TOL

    def test_secant_root_rounded_onto_an_end_takes_the_midpoint(self):
        # g_b is so small beside g_a that the secant root rounds onto t_b;
        # the iterate is then the bracket's midpoint, twice: 0.5, then 0.75
        calls = []

        def radius_fn(y):
            calls.append(y[0])
            return y[0]

        t_event, y_event = _locate_crossing(lambda s: [s], 0.0, 1.0, -1.0, 1e-300, radius_fn, 0.75)
        t_ref, n_ref = illinois_root(
            lambda t: t - 0.75, 0.0, 1.0, -1.0, 1e-300,
            EVENT_RADIUS_TOL, EVENT_TIME_TOL, _EVENT_MAX_ITERATIONS,
        )
        assert calls == [0.5, 0.75]
        assert (t_event, len(calls)) == (t_ref, n_ref) == (0.75, 2)
        assert y_event == [0.75]


class TestRenormalizationPolicy:
    def test_unit_state_unchanged(self):
        y = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 2.0])
        out = projected(y.tolist(), ((1, 5),))
        np.testing.assert_allclose(out, y, atol=0)

    def test_small_drift_rescaled(self):
        q = np.array([0.0, 0.0, 0.0, 1.0 + 1e-9])
        y = np.concatenate([[7e6], q])
        out = np.asarray(projected(y.tolist(), ((1, 5),)))
        assert abs(np.linalg.norm(out[1:5]) - 1.0) < 1e-15
        assert out[0] == 7e6
        # direction preserved
        np.testing.assert_allclose(out[1:5] * (1.0 + 1e-9), q, rtol=1e-12)

    @pytest.mark.parametrize("method", ["rk4-fixed", "rk45-adaptive"])
    def test_zero_norm_block_is_a_step_failure(self, method):
        # the state is (x, q0, q1), its block (q0, q1) starts at (1, 0) and
        # q0' = -1 takes it to exactly (0, 0) in one step of 1 s: from t = 2
        # in the fixed run, whose q0' is 0 before; on the first adaptive
        # trial (1 s), whose stages read q0' one ulp short of -1 but for the
        # sixth, which reads -1.  No later step of 1 s reaches (0, 0): with
        # q0' one ulp short of -1 at every stage it ends 4.4e-16 off
        calls = []

        def rhs(t, y):
            calls.append(t)
            if method == "rk4-fixed":
                return [1.0, 0.0 if t < 2.0 else -1.0, 0.0]
            return [1.0, -1.0 if len(calls) == 6 else math.nextafter(-1.0, 0.0), 0.0]

        cfg = IntegratorConfig(method=method, step=1.0)
        traj, event = propagate(rhs, 0.0, [0.0, 1.0, 0.0], 100.0, cfg, quat_spans=((1, 3),))
        assert np.all(np.abs(traj.y[:, 1]) == 1.0)
        if method == "rk4-fixed":
            # a fixed step ends the run at its last accepted sample
            assert event.kind == "step_failure"
            assert event.message == "ZeroDivisionError: float division by zero"
            assert event.t_event == traj.t[-1] == 2.0
            assert np.array_equal(event.y_event, traj.y[-1])
        else:
            # the adaptive trial stops before its stage 7 and is rejected;
            # the retry, 0.2 times as long, keeps its first stage
            assert event.kind == "terminal_time"
            assert calls[5:7] == [1.0, _RK54_C[1] * 0.2]
            assert traj.n_rejected == 1 and traj.t[1] == 0.2

    def test_policy_on_off_position_agreement(self):
        # renormalization changes the trajectory by far less than the
        # integration tolerance over ten thousand fixed steps
        env = vacuum_env()
        r = 6.8e6
        v = math.sqrt(MU / r)
        c0 = CartesianState([r, 0, 0], [0, v * 0.98, v * 0.1])
        y0 = cartesian_to_rv(c0)
        rhs = make_rv_rhs(constant_controls(), env)
        spec = PARAMETERIZATIONS["rv"]
        t1 = 1000.0
        cfg_on = IntegratorConfig(method="rk4-fixed", step=0.1, renormalize_every_step=True)
        cfg_off = IntegratorConfig(method="rk4-fixed", step=0.1, renormalize_every_step=False)
        traj_on, _ = propagate(rhs, 0.0, y0, t1, cfg_on, quat_spans=spec.quat_spans)
        traj_off, _ = propagate(rhs, 0.0, y0, t1, cfg_off, quat_spans=spec.quat_spans)
        p_on = spec.to_cartesian(traj_on.y[-1]).position
        p_off = spec.to_cartesian(traj_off.y[-1]).position
        assert float(np.linalg.norm(p_on - p_off)) < 1e-8 * r


class TestDeterminism:
    def test_bitwise_identical_runs(self):
        env = vacuum_env(spin=EARTH.spin_rate)
        rhs = make_rv_rhs(constant_controls(alpha=0.1, bank=0.4), env)
        c0 = CartesianState([6.9e6, 1e5, -2e5], [500.0, 7100.0, 300.0])
        y0 = cartesian_to_rv(c0)
        spec = PARAMETERIZATIONS["rv"]
        cfg = IntegratorConfig()
        out = []
        for _ in range(2):
            traj, event = propagate(
                rhs, 0.0, y0, 120.0, cfg, quat_spans=spec.quat_spans, scales=spec.scales
            )
            out.append((traj.t.copy(), traj.y.copy()))
        assert np.array_equal(out[0][0], out[1][0])
        assert np.array_equal(out[0][1], out[1][1])


class TestGuardsAndBudget:
    def test_max_steps_exceeded(self):
        # the step budget ends the run at its last accepted sample, as a
        # step failure, and the samples accepted until then are returned
        rhs = lambda t, y: [-v for v in y]
        for method in ("rk4-fixed", "rk45-adaptive"):
            cfg = IntegratorConfig(method=method, step=0.001, max_steps=10)
            traj, event = propagate(rhs, 0.0, np.array([1.0]), 1.0, cfg)
            assert (event.kind, event.message) == ("step_failure", "maximum step count exceeded")
            assert traj.n_steps + traj.n_rejected == 10
            assert len(traj) == traj.n_steps + 1
            assert 0.0 < event.t_event == traj.t[-1] < 1.0
            assert event.y_event.tolist() == traj.y[-1].tolist()

    @pytest.mark.parametrize("method", ["rk4-fixed", "rk45-adaptive"])
    def test_empty_span_rejected(self, method):
        cfg = IntegratorConfig(method=method)
        with pytest.raises(ValueError, match="^t_final must exceed t0$"):
            propagate(lambda t, y: [1.0], 5.0, [0.0], 5.0, cfg)

    @pytest.mark.parametrize("method", ["rk4-fixed", "rk45-adaptive"])
    def test_step_that_cannot_move_time_ends_the_run(self, method):
        # at t0 = 1e300 a spacing of floats is about 1e284, so t + h rounds
        # to t for any step the span allows: no step could ever land
        t0, t_final = 1e300, 1.0000000001e300
        cfg = IntegratorConfig(method=method, step=1.0, max_steps=50)
        traj, event = propagate(lambda t, y: [1.0], t0, [0.0], t_final, cfg)
        assert (event.kind, event.message) == ("step_failure", "step size underflow")
        assert (traj.n_evals, traj.n_steps, traj.n_rejected) == (0, 0, 0)
        assert event.t_event == t0 and traj.t.tolist() == [t0]

    def test_singularity_guard_returns_partial_trajectory(self):
        from quatflight.dynamics import make_spherical_rhs

        env = vacuum_env()
        rhs = make_spherical_rhs(constant_controls(), env)
        # circular-speed flight due north: the great circle crosses the pole
        r = EARTH.radius + 500e3
        v = math.sqrt(MU / r)
        y0 = np.array([r, 0.0, 0.8, v, 0.0, 0.0])
        cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
        traj, event = propagate(rhs, 0.0, y0, 2000.0, cfg)
        assert event.kind == "singularity_guard"
        assert "pole" in event.message
        assert len(traj) > 1
        assert np.all(np.isfinite(traj.y))
        # reached the guard just short of the pole
        assert traj.y[-1][2] > 0.8

    @staticmethod
    def circle(failure=None):
        """The oscillator on the unit circle at loose tolerance, to t = 50.

        With a ``failure``, the derivative raises it off the circle by more
        than 5 % of its squared radius, which only the trial states of a
        too-long step reach.  Returns the trajectory, its stop, the final
        state's distance from the exact solution and the times it raised.
        """
        trips = []

        def rhs(t, y):
            x, v = y
            if failure is not None and x * x + v * v > 1.05:
                trips.append(t)
                raise failure
            return [v, -x]

        cfg = IntegratorConfig(rel_tol=1e-3, abs_tol=1e-3)
        traj, event = propagate(rhs, 0.0, np.array([1.0, 0.0]), 50.0, cfg)
        miss = float(np.linalg.norm(traj.y[-1] - [math.cos(50.0), -math.sin(50.0)]))
        return traj, event, miss, trips

    @pytest.mark.parametrize(
        "failure", [SingularityError("off the circle"), OverflowError("math range error")]
    )
    def test_trial_stage_failure_rejects_the_step(self, failure):
        traj, event, miss, trips = self.circle(failure)
        assert event.kind == "terminal_time"
        assert traj.t[-1] == 50.0
        assert trips and traj.n_rejected >= len(trips)
        assert np.all(np.sum(traj.y**2, axis=1) <= 1.05)
        # recovering from the guard costs no accuracy: the run lands no
        # farther from the exact solution than the method's own error at
        # this tolerance, the unguarded run's (0.0134 against 0.0319 m)
        assert miss <= self.circle()[2]

    def test_trial_stage_failure_recovers_cheaply(self):
        # the retries after a guard cost few calls: 412 against the
        # unguarded run's 259, for 9 guard trips on long steps whose middle
        # stages stray off the circle
        guarded = self.circle(SingularityError("off the circle"))[0]
        assert guarded.n_evals <= 1.75 * self.circle()[0].n_evals
        assert guarded.n_evals <= 450

    def test_guard_at_accepted_state_ends_the_run(self):
        # the controls forbid flight from the knot on: the step that lands
        # there sees the segment before it, the next step's first stage not
        def rhs(t, y):
            if t >= 1.0:
                raise SingularityError("past the knot")
            return [1.0]

        traj, event = propagate(
            rhs, 0.0, np.array([0.0]), 2.0, IntegratorConfig(), t_knots=[1.0]
        )
        assert (event.kind, event.message, event.t_event) == (
            "singularity_guard",
            "past the knot",
            1.0,
        )
        assert traj.t[-1] == 1.0
        # y' = 1 integrated exactly, up to the rounding of the weights' sum
        assert abs(traj.y[-1][0] - 1.0) <= 1e-15
        assert traj.n_rejected == 0

    @pytest.mark.parametrize(
        "failure, kind, message",
        [
            (SingularityError("beyond t*"), "singularity_guard", "beyond t*"),
            (OverflowError("math range error"), "step_failure", "OverflowError: math range error"),
        ],
    )
    def test_failure_beyond_a_time_ends_at_the_step_floor(self, failure, kind, message):
        t_star = 0.7

        def rhs(t, y):
            if t > t_star:
                raise failure
            return [-v for v in y]

        traj, event = propagate(rhs, 0.0, np.array([1.0]), 1.0, IntegratorConfig())
        assert (event.kind, event.message) == (kind, message)
        # the steps shrank until even the shortest one allowed crossed t*
        assert 0.0 <= t_star - event.t_event < 1e-13
        assert event.t_event == traj.t[-1]
        assert traj.n_rejected > 0
        assert np.all(np.isfinite(traj.y))

    def test_overflow_in_a_fixed_step_stage_ends_the_run(self):
        calls = []

        def rhs(t, y):
            calls.append(t)
            if len(calls) == 7:  # stage 3 of the second step
                raise OverflowError("math range error")
            return [-v for v in y]

        cfg = IntegratorConfig(method="rk4-fixed", step=0.1)
        traj, event = propagate(rhs, 0.0, [1.0], 1.0, cfg)
        assert (event.kind, event.message) == ("step_failure", "OverflowError: math range error")
        assert traj.t.tolist() == [0.0, 0.1] and event.t_event == 0.1
        assert np.array_equal(event.y_event, traj.y[-1])
        assert traj.n_steps == 1 and traj.n_rejected == 0


class TestStepSizeControl:
    """The 5(4) controller: PI control after an acceptance, no growth right after a rejection."""

    T_FINAL = 50.0

    @staticmethod
    def attempts(monkeypatch, failure):
        """Every adaptive attempt on the circle of ``TestGuardsAndBudget``, guarded by ``failure``.

        Returns ``(t, h, err_norm)`` per attempt, in order; a trial that
        failed has the error norm ``inf``.
        """
        import quatflight.propagation as propagation

        record = []

        def recording(kind, n, spans):
            step = _generated(kind, n, spans)

            def recorded(rhs, t, y, h, *rest):
                try:
                    out = step(rhs, t, y, h, *rest)
                except (SingularityError, ArithmeticError):
                    record.append((t, h, math.inf))
                    raise
                record.append((t, h, out[1]))
                return out

            return recorded if kind == "rk54" else step

        monkeypatch.setattr(propagation, "_generated", recording)
        TestGuardsAndBudget.circle(failure)
        return record

    @pytest.mark.parametrize("failure", [None, SingularityError("off the circle")])
    def test_every_step_size_follows_the_rule(self, monkeypatch, failure):
        record = self.attempts(monkeypatch, failure)
        assert record[0][1] == min(1.0, self.T_FINAL / 100.0)
        err_prev, rejected = 1e-4, False
        checked = 0
        for (t, h, err), (t_next, h_next, _) in zip(record, record[1:]):
            if err > 1.0:
                expected = h * max(0.2, 0.9 * err**-0.17)
            else:
                factor = 0.9 * err**-0.17 * err_prev**0.04 if err > 0.0 else 5.0
                expected = h * min(1.0 if rejected else 5.0, max(0.2, factor))
                err_prev = max(err, 1e-4)
            rejected = err > 1.0
            if h_next != self.T_FINAL - t_next:  # not the landing on t_final
                assert h_next == expected, t_next
                checked += 1
        assert checked >= len(record) - 3
        if failure is not None:
            assert math.inf in [err for _, _, err in record]

    def test_no_growth_right_after_a_rejection(self, monkeypatch):
        record = self.attempts(monkeypatch, SingularityError("off the circle"))
        capped = 0
        for before, (_, h, err), (_, h_next, _) in zip(record, record[1:], record[2:]):
            if before[2] > 1.0 and err <= 1.0:
                assert h_next <= h
                # the error alone would have grown the step
                capped += 0.9 * err**-0.17 > 1.0
        assert capped > 0


class TestIntegratorConfig:
    @pytest.mark.parametrize("method", ["rk4", "RK45-adaptive", ""])
    def test_unknown_method_rejected(self, method):
        with pytest.raises(ValueError, match=f"^unknown integration method {method!r}$"):
            IntegratorConfig(method=method)

    @pytest.mark.parametrize("name", ["step", "rel_tol", "abs_tol"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1e-3])
    def test_nonfinite_or_nonpositive_rejected(self, name, value):
        # a NaN tolerance used to pass and end a run as a misleading
        # "non-finite state" step failure
        with pytest.raises(ValueError, match=f"^{name} must be"):
            IntegratorConfig(**{name: value})


class TestAdaptiveVsFixed:
    def test_methods_agree_on_smooth_problem(self):
        env = vacuum_env(spin=EARTH.spin_rate)
        rhs = make_rv_rhs(constant_controls(alpha=0.05, bank=0.2), env)
        c0 = CartesianState([EARTH.radius + 80e3, 0, 0], [0.0, 7400.0, 1000.0])
        y0 = cartesian_to_rv(c0)
        spec = PARAMETERIZATIONS["rv"]
        adaptive = IntegratorConfig(method="rk45-adaptive", rel_tol=1e-12, abs_tol=1e-12)
        fixed = IntegratorConfig(method="rk4-fixed", step=0.01)
        t1 = 100.0
        traj_a, _ = propagate(
            rhs, 0.0, y0, t1, adaptive, quat_spans=spec.quat_spans, scales=spec.scales
        )
        traj_f, _ = propagate(rhs, 0.0, y0, t1, fixed, quat_spans=spec.quat_spans)
        p_a = spec.to_cartesian(traj_a.y[-1]).position
        p_f = spec.to_cartesian(traj_f.y[-1]).position
        assert float(np.linalg.norm(p_a - p_f)) < 1e-8 * float(np.linalg.norm(p_a))


class TestStepperMatchesReference:
    def test_steps_bitwise_equal_to_textbook_forms(self):
        cases = random_cases(seed=7, n=24)
        assert {name for name, *_ in cases} == set(PARAMETERIZATIONS)
        for name, rhs, t, y in cases:
            y_list = y.tolist()
            for h in STEPS:
                try:
                    expected = reference_rk4_step(rhs, t, y, h)
                except SingularityError:
                    with pytest.raises(SingularityError):
                        rk4_step(rhs, t, y_list, h)
                else:
                    assert np.array_equal(rk4_step(rhs, t, y_list, h)[0], expected), (name, h)
                try:
                    y5_ref, err_ref = reference_rk54_step(rhs, t, y, h)
                except SingularityError:
                    with pytest.raises(SingularityError):
                        rk54_step(rhs, t, y_list, h)
                else:
                    y5, err_norm, _, _ = rk54_step(rhs, t, y_list, h)
                    assert np.array_equal(y5, y5_ref), (name, h)
                    assert err_norm == reference_error_norm(err_ref, y, y5_ref), (name, h)

    @pytest.mark.parametrize("n", [1, 3, 7, 9, 16, 17])
    def test_steps_bitwise_equal_at_any_size(self, n):
        rng = np.random.default_rng(n)

        def rhs(t, y):
            # each component reads its neighbours, so a stage that mixed
            # up components would show
            return [
                math.sin(t + y[i]) * y[(i + 1) % n] - 0.5 * y[i - 1] + 1e-3 * t
                for i in range(n)
            ]

        for _ in range(20):
            y = rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
            t = float(rng.uniform(0.0, 100.0))
            for h in STEPS:
                y_list = y.tolist()
                assert np.array_equal(
                    rk4_step(rhs, t, y_list, h)[0], reference_rk4_step(rhs, t, y, h)
                ), (n, h)
                for t_end in (None, math.nextafter(t + h, -math.inf)):
                    y5_ref, err_ref = reference_rk54_step(rhs, t, y, h, t_end)
                    step = rk54_step(rhs, t, y_list, h, None, t_end)
                    y5, err_norm, k7, _ = step
                    assert np.array_equal(y5, y5_ref), (n, h)
                    assert err_norm == reference_error_norm(err_ref, y, y5_ref), (n, h)
                    assert k7 == rhs(t + h if t_end is None else t_end, y5), (n, h)
                    assert rk54_step(rhs, t, y_list, h, rhs(t, y_list), t_end) == step, (n, h)

    def test_renormalization_bitwise_equal_to_norm_division(self):
        rng = np.random.default_rng(8)
        for name, _, _, y in random_cases(seed=8, n=8):
            spans = PARAMETERIZATIONS[name].quat_spans
            drifted = y * (1.0 + rng.uniform(-1e-6, 1e-6, y.size))
            assert np.array_equal(
                projected(drifted.tolist(), spans), reference_renormalize(drifted, spans)
            ), name

    def test_supplied_first_stage_changes_nothing(self):
        for name, rhs, t, y in random_cases(seed=10, n=8):
            y = y.tolist()
            for h in STEPS:
                try:
                    expected = rk54_step(rhs, t, y, h)
                except SingularityError:
                    continue
                supplied = rk54_step(rhs, t, y, h, rhs(t, y))
                for a, b in zip(supplied, expected):
                    assert np.array_equal(a, b), (name, h)

    @pytest.mark.parametrize(
        "n, spans",
        [(n, ()) for n in (1, 3, 6, 7, 8, 9, 10, 16, 17, 300)]
        + [(10, RV_SPANS), (17, RV_SPANS), (8, RVH_SPANS), (16, RVH_SPANS)],
    )
    def test_error_norm_bitwise_equal_to_numpy(self, n, spans):
        # the step's error norm is np.mean's RMS of the textbook step's
        # error estimate, scaled by the start and the projected solution.
        # Where the last component lies in a block (rv at 10 floats, rvh
        # at 8), an infinite one projects to NaN, which the maximum must
        # carry although the error estimate is finite there
        rng = np.random.default_rng(n + len(spans))
        rel_tol = 1e-9
        reference_project = (lambda v: reference_renormalize(v, spans)) if spans else None
        for i in range(4000):
            y = rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 7.0, n)
            rate = (rng.standard_normal(n) * 10.0 ** rng.uniform(-12.0, 1.0, n)).tolist()
            abs_tol = 1e-12 * 10.0 ** rng.integers(0, 7, n)
            h = float(rng.uniform(1e-3, 2.0))
            # one huge, infinite or NaN entry in y (call 0) or in the
            # derivative of one of the seven stages (calls 1 to 7)
            value = (None, 1e300, math.inf, math.nan)[i % 4]
            call, where = int(rng.integers(8)), int(rng.integers(n))
            if value is None:
                call = -1
            else:
                value *= float(rng.choice([-1.0, 1.0]))
                if call == 0:
                    y[where] = value
            with np.errstate(all="ignore"):
                rhs = planted_rhs(rate, call, where, value)
                y5_ref, err_ref = reference_rk54_step(rhs, 0.5, y, h, None, reference_project)
                expected = reference_error_norm(err_ref, y, y5_ref, abs_tol, rel_tol)
            rhs = planted_rhs(rate, call, where, value)
            y_list = y.tolist()
            y5, got, _, _ = _generated("rk54", n, spans)(
                rhs, 0.5, y_list, h, rhs(0.5, y_list), 0.5 + h, abs_tol.tolist(), rel_tol
            )
            assert np.array_equal(y5, y5_ref, equal_nan=True), i
            assert same_float(got, expected), (i, got, expected)


def planted_rhs(rate, call, where, value):
    """``ydot_0 = rate_0 * t`` and ``ydot_i = rate_i * (y_i-1 + t)``, ``value`` planted.

    Call number ``call`` returns ``value`` in component ``where``.  No
    component reads the last one, so a non-finite last component of ``y``
    reaches ``y5`` but not the error estimate.
    """
    calls = 0

    def rhs(t, y):
        nonlocal calls
        calls += 1
        ydot = [rate[0] * t] + [r * (v + t) for r, v in zip(rate[1:], y)]
        if calls == call:
            ydot[where] = value
        return ydot

    return rhs


def rooted_trees(max_order):
    """Every rooted tree of up to ``max_order`` nodes, with its order.

    A tree is the tuple of its subtrees' indices into the returned list, in
    non-decreasing order, so each tree appears once: 1, 1, 2, 4 and 9 trees
    of orders 1 to 5.
    """
    trees = [((), 1)]

    def forests(total, first):
        # the multisets of trees, from index ``first`` on, of ``total`` nodes
        if total == 0:
            yield ()
            return
        for i in range(first, len(trees)):
            if trees[i][1] <= total:
                for rest in forests(total - trees[i][1], i):
                    yield (i,) + rest

    for order in range(2, max_order + 1):
        trees += [(forest, order) for forest in forests(order - 1, 0)]
    return trees


def order_residuals(weights, max_order, theta=1.0):
    """``weights . Phi(t) - theta**|t| / gamma(t)`` for every tree ``t`` up to ``max_order``.

    ``Phi(t)`` is the tree's stage vector for the pair's matrix and nodes,
    a one-node subtree contributing the nodes ``c`` (the row sums of the
    matrix), and ``gamma(t)`` its density (Butcher, *Numerical Methods for
    Ordinary Differential Equations*, §31).  A method, or its continuous
    extension at ``theta``, has order ``p`` when every tree of order ``p``
    or less has a zero residual.
    """
    a = np.array([row + (0.0,) * (7 - len(row)) for row in _RK54_A])
    phi, gamma, residuals = [], [], []
    for children, order in rooted_trees(max_order):
        stage = np.ones(len(weights))
        density = order
        for i in children:
            stage = stage * (np.array(_RK54_C) if i == 0 else a @ phi[i])
            density *= gamma[i]
        phi.append(stage)
        gamma.append(density)
        residuals.append(weights @ stage - theta**order / density)
    return np.array(residuals)


class TestTableau:
    """The 5(4) pair's tables are a fifth-order method, its embedded fourth-order one and
    its 4th-order interpolant, to the rounding of their decimals."""

    B = np.array(_RK54_B)

    def test_rooted_trees(self):
        orders = [order for _, order in rooted_trees(5)]
        assert [orders.count(k) for k in range(1, 6)] == [1, 1, 2, 4, 9]

    def test_nodes_are_row_sums(self):
        assert [math.fsum(row) for row in _RK54_A] == pytest.approx(_RK54_C, rel=0, abs=1e-15)

    def test_last_stage_is_first_same_as_last(self):
        # stage 7 sits at the step's end, and its row is the solution's
        # weights (test_solution_is_fifth_order)
        assert len(_RK54_A[6]) == 6
        assert _RK54_C[5] == _RK54_C[6] == 1.0

    def test_solution_is_fifth_order(self):
        assert np.max(np.abs(order_residuals(self.B, 5))) <= 1e-14

    def test_embedded_solution_is_fourth_order(self):
        embedded = self.B - np.array(_RK54_E)
        residuals = order_residuals(embedded, 5)
        assert np.max(np.abs(residuals[:8])) <= 1e-14
        # and no more, or the estimate would not measure the local error
        assert np.max(np.abs(residuals[8:])) > 1e-4

    @pytest.mark.parametrize("theta", [0.1, 0.37, 0.5, 0.8, 1.0])
    def test_interpolant_is_fourth_order(self, theta):
        weights = _RK54_P @ theta ** np.arange(1, 5)
        assert np.max(np.abs(order_residuals(weights, 4, theta))) <= 1e-14

    def test_interpolant_ends_on_the_solution_weights(self):
        sums = [math.fsum(row) for row in _RK54_P.tolist()]
        assert sums == pytest.approx(_RK54_B, rel=0, abs=1e-14)


class TestStepContract:
    """Both generated steps take ``(rhs, t, y, h, k1, t_end, abs_tol, rel_tol)``.

    Each returns a 4-tuple.
    """

    @pytest.mark.parametrize("kind, n_stages", [("rk4", 4), ("rk54", 7)])
    @pytest.mark.parametrize(
        "n, spans", [(1, ()), (6, ()), (10, ()), (10, RV_SPANS), (8, RVH_SPANS)]
    )
    def test_one_signature_and_result(self, kind, n_stages, n, spans):
        calls = []

        def rhs(t, y):
            calls.append(t)
            return [math.cos(t) * v - 0.1 * i for i, v in enumerate(y)]

        t, h = 2.0, 0.25
        y = [0.5 + i for i in range(n)]
        k1 = rhs(t, y)
        t_end = math.nextafter(t + h, -math.inf)
        del calls[:]
        out = _generated(kind, n, spans)(rhs, t, y, h, k1, t_end, [ABS_TOL] * n, REL_TOL)
        assert isinstance(out, tuple) and len(out) == 4
        y_new, err_norm, k_last, stages = out
        assert type(y_new) is list and len(y_new) == n
        assert all(type(v) is float for v in y_new)
        for lo, hi in spans:
            assert abs(math.hypot(*y_new[lo:hi]) - 1.0) <= 1e-15
        # the caller's first stage is used as given, never evaluated again
        assert len(calls) == n_stages - 1 and t not in calls
        assert len(stages) == n_stages and stages[0] is k1
        assert type(err_norm) is float
        if kind == "rk4":
            assert err_norm == 0.0 and k_last is None
            assert calls[-1] == t_end
        else:
            assert 0.0 < err_norm < math.inf
            assert calls[-2:] == [t_end, t_end]
            assert k_last == rhs(t_end, y_new) and stages[-1] is k_last


class TestFailurePolicy:
    """Where a derivative fails, and how, decides how the run ends (one policy, two methods)."""

    T_STAR = 0.35  # a trial stage fails beyond it

    @staticmethod
    def failing_rhs(what, t_star):
        def rhs(t, y):
            if t > t_star:
                if what == "nan":
                    return [math.nan] * len(y)
                raise {"guard": SingularityError("planted"), "overflow": OverflowError("planted")}[what]
            return [-v for v in y]

        return rhs

    @pytest.mark.parametrize("method", ["rk4-fixed", "rk45-adaptive"])
    @pytest.mark.parametrize("where", ["first stage", "trial stage"])
    @pytest.mark.parametrize(
        "what, kind, message",
        [
            ("guard", "singularity_guard", "planted"),
            ("overflow", "step_failure", "OverflowError: planted"),
            ("nan", "step_failure", "non-finite state"),
        ],
    )
    def test_failure_ends_at_the_last_accepted_sample(self, method, where, what, kind, message):
        t_star = -1.0 if where == "first stage" else self.T_STAR
        cfg = IntegratorConfig(method=method, step=0.1)
        traj, event = propagate(self.failing_rhs(what, t_star), 0.0, [1.0, 2.0], 1.0, cfg)
        assert event.kind == kind
        assert event.message.startswith(message)
        assert event.t_event == traj.t[-1]
        assert np.array_equal(event.y_event, traj.y[-1])
        assert np.all(np.isfinite(traj.y))
        # a fixed step ends the run at once; an adaptive trial is rejected
        # down to the step floor unless its first stage raised
        rejects = method == "rk45-adaptive" and (where == "trial stage" or what == "nan")
        assert (traj.n_rejected > 0) == rejects
        if where == "first stage":
            assert len(traj) == 1 and event.t_event == 0.0
        elif method == "rk4-fixed":
            assert self.T_STAR - 0.1 < event.t_event < self.T_STAR
        else:
            assert 0.0 < self.T_STAR - event.t_event < 1e-13

    @pytest.mark.parametrize("method", ["rk4-fixed", "rk45-adaptive"])
    def test_a_nonfinite_state_is_never_accepted(self, method):
        # the state overflows to inf within two seconds; the error estimate
        # divides by that inf and reads 0, so only the state itself shows it
        cfg = IntegratorConfig(method=method)
        traj, event = propagate(lambda t, y: [1e308], 0.0, [0.0], 100.0, cfg)
        assert (event.kind, event.message) == ("step_failure", "non-finite state")
        assert event.t_event == traj.t[-1] < 2.0
        assert np.all(np.isfinite(traj.y))


class TestGeneratedSource:
    """The generated steps show their own lines in ``inspect`` and in tracebacks."""

    @pytest.mark.parametrize("kind", ["rk4", "rk54", "project"])
    @pytest.mark.parametrize(
        "spans, name",
        [
            ((), "n=10"),
            (RV_SPANS, "n=10 spans=((1, 5), (6, 10))"),
            (RVH_SPANS, "n=10 spans=((1, 5), (6, 8))"),
        ],
    )
    def test_source_is_registered(self, kind, spans, name):
        fn = _generated(kind, 10, spans)
        assert inspect.getsourcefile(fn) == f"<quatflight {kind} {name}>"
        source = inspect.getsource(fn)
        assert source.startswith(f"def {kind}(")
        # each block is divided by its norm, and nothing else is
        norms = [line.strip() for line in source.splitlines() if "hypot" in line]
        blocks = [", ".join(f"z_{i}" for i in range(lo, hi)) for lo, hi in spans]
        assert norms == [f"n = hypot({block})" for block in blocks]
        divided = [line.strip() for line in source.splitlines() if line.endswith(" / n")]
        assert divided == [f"z_{i} = z_{i} / n" for lo, hi in spans for i in range(lo, hi)]

    @pytest.mark.parametrize(
        "method, line",
        [("rk45-adaptive", "k4 = rhs(t + 0.9 * h, ["), ("rk4-fixed", "k4 = rhs(t_end, [")],
    )
    def test_traceback_shows_the_stage_line(self, method, line):
        calls = []

        def rhs(t, y):
            calls.append(t)
            if len(calls) == 4:
                raise RuntimeError("planted in stage 4")
            return [1.0, -1.0, 0.5]

        with pytest.raises(RuntimeError) as info:
            propagate(rhs, 0.0, [0.0, 0.0, 0.0], 1.0, IntegratorConfig(method=method))
        kind = "rk54" if method == "rk45-adaptive" else "rk4"
        frames = traceback.extract_tb(info.value.__traceback__)
        stage = [f for f in frames if f.filename == f"<quatflight {kind} n=3>"]
        assert [f.line for f in stage] == [line]
        assert line in "".join(traceback.format_exception(info.value))


class TestKnotLandings:
    def test_rate_jump_at_knot_costs_no_rejection(self):
        # a right-continuous rate jump at the knot: the step that lands
        # there integrates the segment before it exactly, and the next
        # step starts from the derivative after it
        rhs = lambda t, y: [1.0 if t < 1.0 else 2.0]
        traj, event = propagate(
            rhs, 0.0, np.array([0.0]), 2.0, IntegratorConfig(), t_knots=[1.0]
        )
        assert event.kind == "terminal_time"
        assert traj.n_rejected == 0
        # up to the rounding of the weights' sum
        assert abs(traj.y[traj.t.tolist().index(1.0)][0] - 1.0) <= 1e-15
        assert traj.y[-1][0] == pytest.approx(3.0, abs=1e-12)

    def test_step_rounding_onto_a_knot_lands_there(self):
        # after 188 steps of 0.1 s the gap to the knot at 18.9 exceeds 0.1
        # by 1.4e-15, yet t + 0.1 rounds onto 18.9: that step must count as
        # the landing, or the next step has length zero
        rhs = lambda t, y: [1.0]
        cfg = IntegratorConfig(method="rk4-fixed", step=0.1)
        traj, event = propagate(rhs, 0.0, np.array([0.0]), 20.0, cfg, t_knots=[18.9])
        assert event.kind == "terminal_time"
        assert 18.9 in traj.t.tolist()
        assert (np.diff(traj.t) > 0).all()
        assert traj.n_evals == 4 * traj.n_steps + 1

    def test_step_just_short_of_a_landing_takes_the_whole_gap(self):
        # the sum of 0.1 s steps drifts off the knots and the terminal time
        # by far more than an absolute slack of 1e-15 s: a step that stops
        # short by less than a millionth of itself lands, or a sliver step
        # of 1e-12 to 1e-9 s would follow
        rhs = lambda t, y: [1.0]
        cfg = IntegratorConfig(method="rk4-fixed", step=0.1)
        traj, event = propagate(
            rhs, 0.0, np.array([0.0]), 2000.0, cfg, t_knots=[123.4, 1234.5]
        )
        assert (event.kind, event.t_event) == ("terminal_time", 2000.0)
        assert traj.n_steps == 20_000
        assert np.diff(traj.t).min() > 0.09
        assert {123.4, 1234.5} <= set(traj.t.tolist())

    def test_terminal_time_is_reached_from_the_left(self):
        # the terminal twin of the guard at a knot: the derivative is
        # undefined from t_final on, which is no knot, and the last step
        # evaluates its c = 1 stages at t_final's left limit
        def rhs(t, y):
            if t >= 2.0:
                raise SingularityError("past the terminal time")
            return [1.0]

        traj, event = propagate(rhs, 0.0, np.array([0.0]), 2.0, IntegratorConfig())
        assert (event.kind, event.t_event) == ("terminal_time", 2.0)
        assert traj.t[-1] == 2.0
        assert traj.y[-1][0] == pytest.approx(2.0, abs=1e-12)
        assert traj.n_rejected == 0

    def test_rvl_entry_lands_on_bank_knot_without_cascade(self):
        # rvl in beta mode feeds the bank profile's rate to its derivative
        config = load_scenario(bundled_scenario_path("entry_table3"))
        res = run_parameterization("rvl", config)
        assert res.event.kind == "radius_crossing"
        assert res.trajectory.n_rejected <= 20
        assert res.trajectory.n_evals <= 1200


class TestDerivativeReuse:
    """The adaptive loop evaluates the derivative at no point twice."""

    T_FINAL = 450.0

    @staticmethod
    def entry_runs():
        """Every form on the first minutes of the bundled entry, at two tolerances."""
        config = load_scenario(bundled_scenario_path("entry_table3"))
        knots = config.controls.knot_times()
        for rel_tol in (1e-10, 1e-7):
            integrator = dataclasses.replace(config.integrator, rel_tol=rel_tol)
            for name, spec in PARAMETERIZATIONS.items():
                rhs = spec.make_rhs(config.controls, config.environment)
                kwargs = dict(quat_spans=spec.quat_spans, t_knots=knots, scales=spec.scales)
                yield name, rhs, initial_array_for(name, config), integrator, kwargs

    def test_matches_array_loop_bit_for_bit(self):
        attempts = rejected = evals = 0
        for name, rhs, y0, cfg, kwargs in self.entry_runs():
            traj, event = propagate(rhs, 0.0, y0, self.T_FINAL, cfg, **kwargs)
            t, y, n_steps, n_rejected = reference_adaptive(rhs, 0.0, y0, self.T_FINAL, cfg, **kwargs)
            assert event.kind == "terminal_time", name
            assert np.array_equal(traj.t, t), name
            assert np.array_equal(traj.y, y), name
            assert (traj.n_steps, traj.n_rejected) == (n_steps, n_rejected), name
            attempts += n_steps + n_rejected
            rejected += n_rejected
            evals += traj.n_evals
        assert rejected > 0
        assert evals < 7 * attempts

    def test_no_point_evaluated_twice(self):
        for name, rhs, y0, cfg, kwargs in self.entry_runs():
            seen = set()

            def recording(t, y):
                key = (t, np.array(y).tobytes())
                assert key not in seen, (name, t)
                seen.add(key)
                return rhs(t, y)

            traj, _ = propagate(recording, 0.0, y0, self.T_FINAL, cfg, **kwargs)
            assert len(seen) == traj.n_evals, name


class TestProjectionKeepsFirstSameAsLast:
    """Projection before stage 7 leaves the stage-7 derivative reusable in every form."""

    # (n_evals, n_steps, n_rejected) of the baselines, which have no
    # quaternion block to project, at the two tolerances
    BASELINE_COUNTS = {
        (1e-10, "spherical"): (1061, 164, 12),
        (1e-10, "cartesian"): (1175, 183, 12),
        (1e-7, "spherical"): (395, 55, 10),
        (1e-7, "cartesian"): (419, 60, 9),
    }

    @pytest.fixture(scope="class")
    def entry_runs(self):
        """Every form over the whole bundled entry, to its radius stop, at two tolerances."""
        config = load_scenario(bundled_scenario_path("entry_table3"))
        runs = {}
        for rel_tol in (1e-10, 1e-7):
            integrator = dataclasses.replace(config.integrator, rel_tol=rel_tol)
            scenario = dataclasses.replace(config, integrator=integrator)
            for name in PARAMETERIZATIONS:
                runs[rel_tol, name] = run_parameterization(name, scenario)
        return set(config.controls.knot_times()), runs

    def test_six_calls_per_attempt(self, entry_runs):
        knots, runs = entry_runs
        for (rel_tol, name), res in runs.items():
            traj = res.trajectory
            assert res.event.kind == "radius_crossing", name
            # the first step's first stage, and one more after each knot
            # landing that the run goes on from
            fresh = 1 + sum(t in knots for t in traj.t[1:-1].tolist())
            assert fresh > 1, name
            attempts = traj.n_steps + traj.n_rejected
            assert traj.n_evals == 6 * attempts + fresh, (rel_tol, name)

    def test_accepted_quaternions_are_unit(self, entry_runs):
        _, runs = entry_runs
        for (rel_tol, name), res in runs.items():
            for lo, hi in PARAMETERIZATIONS[name].quat_spans:
                norms = np.linalg.norm(res.trajectory.y[:, lo:hi], axis=1)
                assert np.max(np.abs(norms - 1.0)) <= 1e-15, (rel_tol, name, lo)

    def test_baseline_counts_unchanged(self, entry_runs):
        _, runs = entry_runs
        for key, counts in self.BASELINE_COUNTS.items():
            traj = runs[key].trajectory
            assert (traj.n_evals, traj.n_steps, traj.n_rejected) == counts, key

    def test_projected_steps_bitwise_equal_to_textbook_forms(self):
        for name, rhs, t, y in random_cases(seed=12, n=8):
            spec = PARAMETERIZATIONS[name]
            spans = spec.quat_spans
            reference_project = lambda v: reference_renormalize(v, spans)
            abs_tol = ABS_TOL * np.asarray(spec.scales)
            y_list = y.tolist()
            for h in STEPS:
                try:
                    y5_ref, err_ref = reference_rk54_step(rhs, t, y, h, None, reference_project)
                    rk4_ref = reference_renormalize(reference_rk4_step(rhs, t, y, h), spans)
                except SingularityError:
                    continue
                k1 = rhs(t, y_list)
                step = _generated("rk54", len(y), spans)
                y5, err_norm, k7, _ = step(rhs, t, y_list, h, k1, t + h, abs_tol.tolist(), REL_TOL)
                assert np.array_equal(y5, y5_ref), (name, h)
                assert err_norm == reference_error_norm(err_ref, y, y5_ref, abs_tol), (name, h)
                assert k7 == rhs(t + h, y5), (name, h)
                y4 = rk4_step(rhs, t, y_list, h, k1, spans=spans)[0]
                assert np.array_equal(y4, rk4_ref), (name, h)


def unusual_layouts(y):
    """The state as a read-only array, as a non-contiguous row view and as a list."""
    read_only = y.copy()
    read_only.setflags(write=False)
    backing = np.zeros((3, 2 * y.size))
    backing[1, ::2] = y
    view = backing[1, ::2]
    assert not view.flags.c_contiguous
    as_list = y.tolist()
    return {
        "read-only": (read_only, read_only),
        "row view": (view, backing),
        "list": (as_list, as_list),
    }


class TestNoAliasingNoMutation:
    def test_derivatives_and_steps_leave_inputs_alone(self):
        steppers = {
            "rhs": lambda rhs, t, y: (rhs(t, y),),
            "rk4": lambda rhs, t, y: rk4_step(rhs, t, y, 0.1),
            "rk54": lambda rhs, t, y: rk54_step(rhs, t, y, 0.1),
        }
        for name, rhs, t, y in random_cases(seed=9, n=8):
            for step_name, step in steppers.items():
                try:
                    expected = step(rhs, t, y.copy())
                except SingularityError:
                    continue
                for layout, (state, owner) in unusual_layouts(y).items():
                    before = owner.copy()
                    first = step(rhs, t, state)
                    second = step(rhs, t, state)
                    label = (name, step_name, layout)
                    assert np.array_equal(owner, before), label
                    for a, b, ref in zip(first, second, expected):
                        if not isinstance(ref, (list, tuple)):
                            # the error norm, and RK4's missing last-stage derivative
                            assert a == ref and b == ref, label
                            continue
                        assert np.array_equal(a, ref), label
                        assert np.array_equal(b, ref), label
                        assert not np.shares_memory(a, b), label
                        assert not np.shares_memory(a, owner), label
                        assert a is not b and a is not owner, label

    @pytest.mark.parametrize("method", ["rk4-fixed", "rk45-adaptive"])
    def test_trajectory_rows_are_independent(self, method):
        env = vacuum_env(spin=EARTH.spin_rate)
        rhs = make_rv_rhs(constant_controls(alpha=0.1, bank=0.4), env)
        y0 = cartesian_to_rv(CartesianState([6.9e6, 1e5, -2e5], [500.0, 7100.0, 300.0]))
        y0.setflags(write=False)
        spec = PARAMETERIZATIONS["rv"]
        cfg = IntegratorConfig(method=method, step=1.0)
        traj, event = propagate(
            rhs, 0.0, y0, 20.0, cfg, quat_spans=spec.quat_spans, scales=spec.scales
        )
        assert len(traj) > 3
        assert not np.shares_memory(traj.y, y0)
        assert not np.shares_memory(traj.y, event.y_event)
        for i in range(len(traj)):
            for j in range(i + 1, len(traj)):
                assert not np.shares_memory(traj.y[i], traj.y[j])


class TestNonFiniteDerivative:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_first_stage_ends_after_one_attempt(self, bad):
        # every retry would keep the first stage, so the first failed
        # attempt ends the run: one first-stage call and six trial stages
        traj, event = propagate(lambda t, y: [bad], 0.0, [0.0], 1.0, IntegratorConfig())
        assert (event.kind, event.message) == ("step_failure", "non-finite state")
        assert (traj.n_evals, traj.n_steps, traj.n_rejected) == (7, 0, 1)
        assert len(traj) == 1 and event.t_event == 0.0

    def test_nonfinite_first_stage_after_a_knot_landing(self):
        # the derivative turns NaN at the knot: the landing's c = 1 stages
        # run at its left limit, the next step's first stage at the knot
        times = []

        def rhs(t, y):
            times.append(t)
            return [math.nan if t >= 0.5 else -y[0]]

        traj, event = propagate(rhs, 0.0, [1.0], 1.0, IntegratorConfig(), t_knots=[0.5])
        assert (event.kind, event.message) == ("step_failure", "non-finite state")
        assert event.t_event == traj.t[-1] == 0.5
        assert np.all(np.isfinite(traj.y))
        assert traj.n_rejected == 1
        assert len(times) - times.index(0.5) == 7

    @pytest.mark.parametrize("method", ["rk4-fixed", "rk45-adaptive"])
    def test_nan_derivative_ends_as_step_failure(self, method):
        rhs = lambda t, y: [-v * (math.nan if t > 0.5 else 1.0) for v in y]
        cfg = IntegratorConfig(method=method, step=0.1)
        traj, event = propagate(rhs, 0.0, np.array([1.0]), 1.0, cfg)
        assert (event.kind, event.message) == ("step_failure", "non-finite state")
        assert np.all(np.isfinite(traj.y))
        assert 0.4 < traj.t[-1] <= 0.5
        assert event.t_event == traj.t[-1]
        assert np.array_equal(event.y_event, traj.y[-1])

    @pytest.mark.parametrize("bad", [math.inf, math.nan, 1e300])
    def test_nonfinite_error_estimate_rejects_the_step(self, bad):
        # the seventh call is the first step's last stage, whose weight in
        # the solution is zero: the state stays finite, the error does not
        # (as when that stage's trial state lies far enough out to overflow);
        # a finite 1e300 overflows the scaled error's square
        times = []

        def rhs(t, y):
            times.append(t)
            return [bad] * len(y) if len(times) == 7 else [-v for v in y]

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj, event = propagate(rhs, 0.0, np.array([1.0]), 1.0, IntegratorConfig())
        # the retry keeps the first stage and costs six calls
        h_retry = times[12]
        assert times[7:13] == [c * h_retry for c in _RK54_C[1:]]
        assert 0.0 < h_retry < times[6]
        clean, _ = propagate(lambda t, y: [-v for v in y], 0.0, np.array([1.0]), 1.0, IntegratorConfig())
        assert event.kind == "terminal_time"
        # the first attempt was rejected, so the first accepted step is shorter
        assert traj.t[1] < clean.t[1]
        assert traj.n_rejected >= 1
        assert np.all(np.isfinite(traj.y))


_PEAK_MEMORY_RUN = """
import dataclasses, json, tracemalloc
from quatflight.dynamics import PARAMETERIZATIONS
from quatflight.scenario import bundled_scenario_path, load_scenario, run_parameterization

zero = [0.0] * 10
spec = PARAMETERIZATIONS["rv"]
PARAMETERIZATIONS["rv"] = dataclasses.replace(spec, make_rhs=lambda controls, env: lambda t, y: zero)
config = load_scenario(bundled_scenario_path("norm_drift"))
tracemalloc.start()
res = run_parameterization("rv", config)
_, peak = tracemalloc.get_traced_memory()
print(json.dumps([res.trajectory.y.shape, peak]))
"""


class TestTrajectoryMemory:
    def test_long_run_peak_memory(self):
        # 1e5 fixed steps of ten components: an 8.0 MB result.  The stored
        # trajectory, not the derivative, sets the peak, so a constant
        # derivative stands in for the rv one to keep the traced run short.
        # The run goes in a fresh interpreter: tracemalloc's cost grows with
        # the objects a process already holds, so here it would depend on
        # the tests that ran before.
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run(
            [sys.executable, "-c", _PEAK_MEMORY_RUN],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        shape, peak = json.loads(proc.stdout)
        assert shape == [100_001, 10]
        assert peak <= 24e6

    @pytest.mark.parametrize("n_rows", [2, 511, 512, 513, 1024, 1537])
    def test_rows_across_chunk_boundaries(self, n_rows):
        # every row comes back once, in order, whatever the run's length,
        # here around multiples of 512 rows
        cfg = IntegratorConfig(method="rk4-fixed", step=1.0)
        traj, _ = propagate(lambda t, y: [1.0, -2.0], 0.0, [0.0, 0.0], n_rows - 1.0, cfg)
        expected = np.arange(n_rows, dtype=float)
        assert np.array_equal(traj.t, expected)
        assert np.array_equal(traj.y, np.column_stack((expected, -2.0 * expected)))

    @pytest.mark.parametrize("n_eval", [0, 1, 600])
    def test_arrays_are_owned_float64_rows(self, n_eval):
        # 600 output times sample between and on the accepted times of a
        # 1,000-step run; each array is its own writable float64 block
        cfg = IntegratorConfig(method="rk4-fixed", step=1.0)
        grid = np.linspace(0.0, 999.0, n_eval)

        def run():
            return propagate(lambda t, y: [1.0, -2.0], 0.0, [0.0, 0.0], 999.0, cfg, t_eval=grid)

        (traj, event), (other, _) = run(), run()
        arrays = {"t": traj.t, "y": traj.y, "t_eval": traj.t_eval, "y_eval": traj.y_eval}
        assert traj.y.shape == (1000, 2) and traj.y_eval.shape == (n_eval, 2)
        assert np.array_equal(traj.t_eval, grid)
        assert np.allclose(traj.y_eval, np.column_stack((grid, -2.0 * grid)), rtol=1e-14, atol=0.0)
        for name, a in arrays.items():
            assert a.dtype == np.float64, name
            assert a.flags.c_contiguous and a.flags.writeable, name
            assert not np.shares_memory(a, event.y_event), name
            assert not np.shares_memory(a, getattr(other, name)), name
            for other_name, b in arrays.items():
                assert other_name == name or not np.shares_memory(a, b), (name, other_name)


class TestListProtocol:
    """The state and every derivative pass as lists of Python floats.

    A NumPy scalar in a state keeps the bits but costs more per operation,
    and turns a float overflow into a ``RuntimeWarning``.
    """

    @pytest.mark.parametrize("method", ["rk4-fixed", "rk45-adaptive"])
    @pytest.mark.parametrize("name", list(PARAMETERIZATIONS))
    def test_derivative_sees_and_returns_float_lists(self, name, method, monkeypatch):
        config = load_scenario(bundled_scenario_path("entry_table3"))
        integrator = dataclasses.replace(config.integrator, method=method, step=1.0)
        config = dataclasses.replace(config, integrator=integrator)
        spec = PARAMETERIZATIONS[name]
        strays = []

        def not_float_list(v):
            return type(v) is not list or any(type(c) is not float for c in v)

        def make_checked_rhs(controls, env):
            rhs = spec.make_rhs(controls, env)

            def checked(t, y):
                ydot = rhs(t, y)
                if not_float_list(y) or not_float_list(ydot):
                    strays.append((t, type(y), type(ydot)))
                return ydot

            return checked

        monkeypatch.setitem(
            PARAMETERIZATIONS, name, dataclasses.replace(spec, make_rhs=make_checked_rhs)
        )
        grid = np.linspace(config.t0, config.stop.t_final, config.compare_points)
        res = run_parameterization(name, config, compare_times=tuple(grid))
        traj = res.trajectory
        # the run covered a radius stop, knot landings and grid samples
        assert res.event.kind == "radius_crossing"
        assert {300.0, 400.0, 600.0, 800.0} <= set(traj.t.tolist())
        assert len(traj.t_eval) > 50
        assert traj.n_evals > 0
        assert strays == []
