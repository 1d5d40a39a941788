"""Acceptance suite: one test per top-level criterion, at stated tolerances.

Each test prints a PASS line when its assertions hold, so a verbose run
doubles as the acceptance report.
"""

import math
import time

import numpy as np
import pytest

from quatflight.bench import benchmark_form, count_trig_calls, format_bench_table
from quatflight.controls import ControlProfile, PiecewiseLinear
from quatflight.dynamics import (
    PARAMETERIZATIONS,
    make_rv_rhs,
    make_rvh_rhs,
    make_rvl_rhs,
    make_spherical_rhs,
)
from quatflight.environment import (
    EARTH,
    AeroModel,
    Atmosphere,
    CentralBody,
    Environment,
    Vehicle,
)
from quatflight.errors import SingularityError
from quatflight.propagation import IntegratorConfig, propagate
from quatflight.quat import dcm_from_quat, twist
from quatflight.scenario import (
    bundled_scenario_path,
    initial_array_for,
    load_scenario,
)
from quatflight.states import CartesianState, cartesian_to_rv

from reference import (
    AxisAngle,
    array_rhs,
    beta_from_sigma,
    beta_rate,
    constant_controls,
    dcm_from_axis_angle,
    initial_row,
    omega_from_rate_arrays,
    profile_rate,
    profile_value,
    quat_from_axis_angle,
    quat_rates,
    rv_row,
    rvh_row,
    spherical_row,
    unit,
)

HALF_SQRT2 = math.sqrt(2.0) / 2.0
RE = EARTH.radius
MU = EARTH.mu


def entry_env():
    return Environment(
        body=EARTH,
        atmosphere=Atmosphere(rho0=1.225, scale_height=8500.0),
        aero=AeroModel(s=30.0, cl_alpha=1.5, cd0=0.05, k=0.9),
        vehicle=Vehicle(mass=75000.0),
    )


def vacuum_env():
    return Environment(
        body=CentralBody(mu=MU, radius=RE, spin_rate=0.0),
        atmosphere=Atmosphere(rho0=0.0, scale_height=8500.0),
        aero=AeroModel(s=1.0, cl_alpha=0.0, cd0=0.0, k=0.0),
        vehicle=Vehicle(mass=1000.0),
    )


def test_criterion_1_quaternion_round_trips():
    rng = np.random.default_rng(2024)
    tic = time.perf_counter()
    for _ in range(1000):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        aa = AxisAngle(axis, rng.uniform(-math.pi, math.pi))
        q = quat_from_axis_angle(aa)
        c_direct = dcm_from_axis_angle(aa)
        c_quat = dcm_from_quat(q)
        assert np.max(np.abs(c_direct - c_quat)) < 1e-12

        # a gauge change turns a frame about its first axis, and back
        q_back = twist(twist(q, aa.angle), -aa.angle)
        assert np.max(np.abs(dcm_from_quat(q_back) - c_quat)) < 1e-12

        q_rand = unit(rng.normal(size=4))
        omega = rng.normal(size=3)
        qdot = quat_rates(q_rand, omega)
        omega_back = omega_from_rate_arrays(qdot, q_rand)
        assert np.max(np.abs(omega_back - omega)) < 1e-12
        assert abs(float(np.dot(q_rand, qdot))) < 1e-14
    elapsed = time.perf_counter() - tic
    assert elapsed < 1.0, f"quaternion suite took {elapsed:.2f} s"
    print(f"\nPASS criterion 1: 1000 quaternion round trips within 1e-12 in {elapsed:.2f} s")


def _random_entry_ic(rng):
    return spherical_row(
        r=RE + rng.uniform(60e3, 120e3),
        lon=rng.uniform(-math.pi, math.pi),
        lat=rng.uniform(-1.0, 1.0),
        v=rng.uniform(5500.0, 7500.0),
        gamma=rng.uniform(-0.035, 0.035),
        psi=rng.uniform(-math.pi, math.pi),
    )


def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(7)
    env = entry_env()
    cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-12)
    checkpoints = [20.0, 40.0, 60.0, 80.0, 100.0]
    tic = time.perf_counter()
    for case in range(20):
        sph0 = _random_entry_ic(rng)
        cart0 = PARAMETERIZATIONS["spherical"].to_cartesian(sph0)
        profile = ControlProfile(
            alpha=PiecewiseLinear([0.0, 100.0], sorted(rng.uniform(0.05, 0.25, size=2))),
            bank=PiecewiseLinear([0.0, 100.0], list(rng.uniform(-1.0, 1.0, size=2))),
            bank_mode="beta",
        )
        samples = {}
        for name in ("rv", "rvl", "rvh", "cartesian"):
            spec = PARAMETERIZATIONS[name]
            y0 = initial_row(name, cart0, profile)
            rhs = spec.make_rhs(profile, env)
            traj, event = propagate(
                rhs,
                0.0,
                y0,
                100.0,
                cfg,
                quat_spans=spec.quat_spans,
                t_eval=checkpoints,
                scales=spec.scales,
                t_knots=profile.knot_times(),
            )
            assert event.kind == "terminal_time"
            assert traj.t_eval.tolist() == checkpoints
            samples[name] = {t: spec.to_cartesian(y) for t, y in zip(checkpoints, traj.y_eval)}
        ref = samples["cartesian"]
        for name in ("rv", "rvl", "rvh"):
            for t in checkpoints:
                cs, cr = samples[name][t], ref[t]
                assert float(np.linalg.norm(cs.position - cr.position)) < 1e-6 * cr.r
                assert abs(cs.v - cr.v) < 1e-8 * cr.v
    elapsed = time.perf_counter() - tic
    assert elapsed < 30.0, f"equivalence suite took {elapsed:.1f} s"
    print(
        "\nPASS criterion 2: rv/rvl/rvh match the Cartesian oracle within "
        f"1e-6*r and 1e-8*v over 100 s for 20 ICs in {elapsed:.1f} s"
    )


def test_criterion_3_two_body_conservation():
    env = vacuum_env()
    profile = constant_controls()
    cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-12)
    orbits = []
    # circular at 500 km and an eccentric orbit from perigee
    r_c = RE + 500e3
    orbits.append((r_c, math.sqrt(MU / r_c)))
    r_p = RE + 400e3
    a = r_p / (1.0 - 0.15)
    orbits.append((r_p, math.sqrt(MU * (2.0 / r_p - 1.0 / a))))
    for r0, v0 in orbits:
        sma = 1.0 / (2.0 / r0 - v0 * v0 / MU)
        period = 2.0 * math.pi * math.sqrt(sma**3 / MU)
        cart0 = CartesianState([r0, 0, 0], [0, v0, 0])
        e0 = 0.5 * v0 * v0 - MU / r0
        h0 = r0 * v0
        for name in ("rv", "rvh"):
            spec = PARAMETERIZATIONS[name]
            y0 = initial_row(name, cart0, profile)
            rhs = spec.make_rhs(profile, env)
            traj, event = propagate(
                rhs,
                0.0,
                y0,
                period,
                cfg,
                quat_spans=spec.quat_spans,
                scales=spec.scales,
            )
            assert event.kind == "terminal_time"
            step = max(1, len(traj) // 100)
            for i in list(range(0, len(traj), step)) + [len(traj) - 1]:
                cs = spec.to_cartesian(traj.y[i])
                energy = 0.5 * cs.v**2 - MU / cs.r
                h = float(np.linalg.norm(np.cross(cs.position, cs.velocity)))
                assert abs((energy - e0) / e0) < 1e-9
                assert abs((h - h0) / h0) < 1e-9
    print(
        "\nPASS criterion 3: specific energy and |r x v| conserved to 1e-9 over one "
        "period (circular and e=0.15) in rv and rvh forms"
    )


def test_criterion_4_vertical_flight_dichotomy():
    env = entry_env()
    env = Environment(
        body=CentralBody(mu=MU, radius=RE, spin_rate=0.0),
        atmosphere=env.atmosphere,
        aero=AeroModel(s=0.5, cl_alpha=2.0, cd0=0.05, k=1.0),
        vehicle=Vehicle(mass=5000.0),
    )
    profile = constant_controls()
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)

    # (a) the ten-parameter forms: finite derivatives exactly at the
    # vertical configuration and a full dive to the surface
    y0 = rv_row(
        r=RE + 15e3,
        qa=unit([0.0, 0.0, 0.0, 1.0]),
        v=300.0,
        qb=unit([0.0, 0.0, 1.0, 0.0]),
    )
    assert y0[6] == 0.0 and y0[9] == 0.0
    for maker in (make_rv_rhs, make_rvl_rhs):
        rhs = maker(profile, env)
        ydot = rhs(0.0, y0)
        assert np.all(np.isfinite(ydot))
        spec = PARAMETERIZATIONS["rv"]
        traj, event = propagate(
            rhs,
            0.0,
            y0,
            60.0,
            cfg,
            quat_spans=spec.quat_spans,
            radius_fn=spec.radius,
            radius_target=RE,
            scales=spec.scales,
        )
        assert event.kind == "radius_crossing"
        assert event.t_event < 60.0
        assert abs(float(traj.y[-1][0]) - RE) < 1e-3

    # (b) the spherical baseline refuses the same physical state
    sph_rhs = make_spherical_rhs(profile, env)
    with pytest.raises(SingularityError, match="vertical"):
        sph_rhs(0.0, np.array([RE + 15e3, 0.0, 0.0, 300.0, -math.pi / 2, 0.0]))
    with pytest.raises(SingularityError, match="vertical"):
        sph_rhs(0.0, np.array([RE + 15e3, 0.0, 0.0, 300.0, -(math.pi / 2 - 5e-7), 0.0]))

    # (c) the eight-parameter form guards as its in-plane pair decays to zero
    eta_b0 = 1.02e-8
    near_vertical = rvh_row(
        r=RE + 15e3,
        qa=unit([0.0, 0.0, 0.0, 1.0]),
        v=300.0,
        eps_b3=math.sqrt(1.0 - eta_b0 * eta_b0),
        eta_b=eta_b0,
    )
    rvh_rhs = make_rvh_rhs(profile, env)
    spec = PARAMETERIZATIONS["rvh"]
    traj, event = propagate(
        rvh_rhs,
        0.0,
        near_vertical,
        60.0,
        cfg,
        quat_spans=spec.quat_spans,
        radius_fn=spec.radius,
        radius_target=RE,
        scales=spec.scales,
    )
    assert event.kind == "singularity_guard"
    assert "rvh vertical" in event.message
    pair = traj.y[-1][6] * traj.y[-1][7]
    assert abs(pair) < 2e-8
    print(
        "\nPASS criterion 4: vertical dive finite and completed in rv/rvl; spherical "
        "and rvh raise their singularity guards"
    )


def test_criterion_5_gauge_constraints():
    config = load_scenario(bundled_scenario_path("entry_table3"))
    env = config.environment

    # rv gauge: both free angular-velocity components stay at zero
    spec = PARAMETERIZATIONS["rv"]
    rhs = spec.make_rhs(config.controls, env)
    y0 = initial_array_for("rv", config)
    traj, _ = propagate(
        rhs,
        0.0,
        y0,
        300.0,
        config.integrator,
        quat_spans=spec.quat_spans,
        t_knots=config.controls.knot_times(),
        scales=spec.scales,
    )
    for i in range(len(traj)):
        ydot = rhs(traj.t[i], traj.y[i])
        wa = omega_from_rate_arrays(ydot[1:5], traj.y[i][1:5])
        wb = omega_from_rate_arrays(ydot[6:10], traj.y[i][6:10])
        assert abs(wa[0]) < 1e-12
        assert abs(wb[0]) < 1e-12

    # rvh gauge: no rotation about the position direction beyond the
    # angular-momentum constraint, and the h identity holds throughout
    spec_h = PARAMETERIZATIONS["rvh"]
    rhs_h = spec_h.make_rhs(config.controls, env)
    y0_h = initial_array_for("rvh", config)
    traj_h, _ = propagate(
        rhs_h,
        0.0,
        y0_h,
        300.0,
        config.integrator,
        quat_spans=spec_h.quat_spans,
        t_knots=config.controls.knot_times(),
        scales=spec_h.scales,
    )
    for i in range(len(traj_h)):
        y = traj_h.y[i]
        ydot = rhs_h(traj_h.t[i], y)
        wa = omega_from_rate_arrays(ydot[1:5], y[1:5])
        assert abs(wa[1]) < 1e-10
        cs = spec_h.to_cartesian(y)
        h_true = float(np.linalg.norm(np.cross(cs.position, cs.velocity)))
        h_param = 2.0 * y[0] * y[5] * y[6] * y[7]
        assert abs(h_param - h_true) < 1e-8 * h_true
    print(
        "\nPASS criterion 5: rv free gauge rates < 1e-12; rvh wa2 < 1e-10 and the "
        "angular-momentum identity holds to 1e-8 along trajectories"
    )


def test_criterion_6_unit_norm_drift():
    config = load_scenario(bundled_scenario_path("norm_drift"))
    env = config.environment
    spec = PARAMETERIZATIONS["rv"]
    rhs = spec.make_rhs(config.controls, env)
    y0 = initial_array_for("rv", config)
    assert config.integrator.method == "rk4-fixed"
    assert config.integrator.step == 0.1
    results = {}
    for renorm in (False, True):
        cfg = IntegratorConfig(
            method="rk4-fixed",
            step=0.1,
            renormalize_every_step=renorm,
            max_steps=config.integrator.max_steps,
        )
        traj, event = propagate(
            rhs, 0.0, y0, config.stop.t_final, cfg, quat_spans=spec.quat_spans
        )
        assert event.kind == "terminal_time"
        assert abs(traj.n_steps - 100_000) <= 1
        worst = 0.0
        for lo, hi in spec.quat_spans:
            norms = np.linalg.norm(traj.y[:, lo:hi], axis=1)
            worst = max(worst, float(np.max(np.abs(norms - 1.0))))
        results[renorm] = worst
    assert results[False] < 1e-9
    assert results[True] < 1e-15
    print(
        f"\nPASS criterion 6: norm drift over 1e5 fixed steps {results[False]:.2e} "
        f"(renormalization off, < 1e-9) and {results[True]:.2e} (on, < 1e-15)"
    )


def test_criterion_7_bank_angle_maps():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 500:
        pos = rng.normal(size=3)
        pos = (RE + rng.uniform(1e5, 1e6)) * pos / np.linalg.norm(pos)
        vel = rng.normal(size=3)
        vel *= rng.uniform(200.0, 8000.0) / np.linalg.norm(vel)
        cart = CartesianState(pos, vel)
        s = cartesian_to_rv(cart)
        c_ba = dcm_from_quat(s[6:10])
        if 1.0 - c_ba[0, 0] ** 2 < 1e-6:
            continue
        checked += 1
        sigma = rng.uniform(-math.pi, math.pi)
        beta = beta_from_sigma(sigma, c_ba)
        c_be = c_ba @ dcm_from_quat(s[1:5])
        lift_e = c_be.T @ np.array([0.0, math.cos(sigma), math.sin(sigma)])
        g3 = vel / np.linalg.norm(vel)
        h = np.cross(pos, vel)
        g2 = -h / np.linalg.norm(h)
        g1 = np.cross(g2, g3)
        beta_geo = math.atan2(float(np.dot(lift_e, g2)), float(np.dot(lift_e, g1)))
        diff = (beta - beta_geo + math.pi) % (2.0 * math.pi) - math.pi
        assert abs(diff) < 1e-10

    # rate map against central differences along a propagated trajectory
    env = entry_env()
    profile = ControlProfile(
        alpha=PiecewiseLinear([0.0, 200.0], [0.15, 0.05]),
        bank=PiecewiseLinear([0.0, 200.0], [0.2, 1.4]),
        bank_mode="sigma",
    )
    rhs = make_rv_rhs(profile, env)
    cart0 = CartesianState([RE + 8e4, 1e5, 2e5], [1200.0, 6300.0, -400.0])
    spec = PARAMETERIZATIONS["rv"]
    cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-12)
    traj, _ = propagate(
        rhs,
        0.0,
        cartesian_to_rv(cart0),
        40.0,
        cfg,
        quat_spans=spec.quat_spans,
        scales=spec.scales,
    )
    t0 = 40.0
    y0 = traj.y[-1]
    ydot = array_rhs(rhs)(t0, y0)
    wb = omega_from_rate_arrays(ydot[6:10], y0[6:10])
    c_ba = dcm_from_quat(unit(y0[6:10]))
    analytic = beta_rate(profile_rate(profile.bank, t0), wb[0], wb[1], wb[2], c_ba)

    errs = []
    for h in (0.4, 0.2):
        n = 256
        step = h / n
        yp = y0.copy()
        tt = t0
        for _ in range(n):
            yp = _rk4(rhs, tt, yp, step)
            tt += step
        ym = y0.copy()
        tt = t0
        for _ in range(n):
            ym = _rk4(rhs, tt, ym, -step)
            tt -= step
        bp = beta_from_sigma(profile_value(profile.bank, t0 + h), dcm_from_quat(unit(yp[6:10])))
        bm = beta_from_sigma(profile_value(profile.bank, t0 - h), dcm_from_quat(unit(ym[6:10])))
        fd = ((bp - bm + math.pi) % (2.0 * math.pi) - math.pi) / (2.0 * h)
        errs.append(abs(fd - analytic))
    ratio = errs[0] / max(errs[1], 1e-18)
    assert errs[1] < errs[0]
    assert 2.0 < ratio < 8.0 or errs[1] < 1e-11
    print(
        "\nPASS criterion 7: plane-referenced bank matches the geometric oracle to "
        f"1e-10 on 500 states; rate map error falls {ratio:.1f}x when halving h"
    )


def _rk4(rhs, t, y, h):
    """One RK4 step on arrays; the derivative's lists are converted here."""
    rhs = array_rhs(rhs)
    k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * h, y + (0.5 * h) * k1)
    k3 = rhs(t + 0.5 * h, y + (0.5 * h) * k2)
    k4 = rhs(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def test_criterion_8_trig_counts_and_benchmark():
    config = load_scenario(bundled_scenario_path("bench_entry"))
    env = config.environment
    counts = {}
    for name in ("rv", "rvl", "rvh", "spherical", "cartesian"):
        spec = PARAMETERIZATIONS[name]
        rhs = spec.make_rhs(config.controls, env)
        counts[name] = count_trig_calls(rhs, 0.0, initial_array_for(name, config))
    assert counts["rvl"] == 0
    assert counts["rv"] <= 2
    assert counts["spherical"] >= 8

    rows = [benchmark_form(name, config, n_evals=1_000_000) for name in config.parameterizations]
    table = format_bench_table(rows)
    assert all(row.n_evals >= 1_000_000 for row in rows)
    print("\n" + table)
    print(
        f"\nPASS criterion 8: trig calls per evaluation rv={counts['rv']}, "
        f"rvl={counts['rvl']}, spherical={counts['spherical']}; benchmark completed "
        "1e6 evaluations per parameterization"
    )


def test_criterion_9_entry_fixture():
    config = load_scenario(bundled_scenario_path("entry_table3"))
    # the raw parsed array: rv layout (r, qa, v, qb), no renormalizing conversion
    y = config.initial_state.y
    assert y[0] == RE + 37e3
    assert y[5] == 7138.0
    assert y[6] == HALF_SQRT2
    assert y[7] == HALF_SQRT2
    assert y[8] == 0.0
    assert y[9] == 0.0
    assert y[1:5].tolist() == [0.0, 0.0, 0.0, 1.0]

    rhs = make_rv_rhs(config.controls, config.environment)
    ydot = rhs(0.0, y)
    assert abs(ydot[0]) < 1e-8
    print(
        "\nPASS criterion 9: entry fixture loads the boundary values bit-exactly and "
        f"the first radius rate is {ydot[0]:.2e} m/s"
    )
