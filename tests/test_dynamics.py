import math

import numpy as np
import pytest

from quatflight.controls import ControlProfile, PiecewiseLinear
from quatflight.dynamics import (
    PARAMETERIZATIONS,
    VERTICAL_SIN_EPS,
    make_cartesian_rhs,
    make_forces,
    make_rv_rhs,
    make_spherical_rhs,
)
from quatflight.environment import EARTH, AeroModel, Atmosphere, CentralBody, Environment, Vehicle
from quatflight.errors import SingularityError
from quatflight.propagation import IntegratorConfig, propagate
from quatflight.quat import dcm_from_quat
from quatflight.states import (
    CartesianState,
    cartesian_to_rv,
    cartesian_to_spherical,
    rv_to_rvh,
)

from reference import (
    IDENTITY,
    ControlInput,
    aero_forces,
    array_rhs,
    apparent_force_B,
    beta_from_sigma,
    beta_rate,
    cartesian_row,
    constant_controls,
    density,
    initial_row,
    net_force_B,
    omega_from_rate_arrays,
    profile_rate,
    profile_value,
    rv_row,
    rvh_row,
    sigma_from_beta,
    spherical_row,
    ten_parameter_rhs,
    unit,
)

HALF_SQRT2 = math.sqrt(2.0) / 2.0


def make_env(
    spin=EARTH.spin_rate,
    rho0=1.225,
    mass=75000.0,
    s=30.0,
    cl_alpha=1.5,
    cd0=0.05,
    k=0.9,
    thrust_offset=0.0,
):
    return Environment(
        body=CentralBody(mu=EARTH.mu, radius=EARTH.radius, spin_rate=spin),
        atmosphere=Atmosphere(rho0=rho0, scale_height=8500.0),
        aero=AeroModel(s=s, cl_alpha=cl_alpha, cd0=cd0, k=k),
        vehicle=Vehicle(mass=mass, thrust_offset=thrust_offset),
    )


VACUUM_ENV = make_env(spin=0.0, rho0=0.0)


def rates(name, y, env, **controls):
    """One derivative of a registered form at state row ``y``, t = 0, under constant controls."""
    rhs = PARAMETERIZATIONS[name].make_rhs(constant_controls(**controls), env)
    return rhs(0.0, y)


def rk4_step(rhs, t, y, h):
    """One RK4 step on arrays; the derivative's lists are converted here."""
    rhs = array_rhs(rhs)
    k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = rhs(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_run(rhs, t0, y0, t1, n):
    h = (t1 - t0) / n
    t, y = t0, y0.copy()
    for _ in range(n):
        y = rk4_step(rhs, t, y, h)
        t += h
    return y


class TestRvDerivatives:
    def test_radial_flight_kinematics(self):
        s = rv_row(
            r=7e6,
            qa=IDENTITY,
            v=500.0,
            qb=IDENTITY,
        )
        ydot = rates("rv", s, VACUUM_ENV)
        assert ydot[0] == 500.0
        np.testing.assert_allclose(ydot[1:5], np.zeros(4), atol=1e-18)

    def test_entry_fixture_zero_radius_rate(self):
        qb = (HALF_SQRT2, HALF_SQRT2, 0.0, 0.0)
        s = rv_row(r=EARTH.radius + 37e3, qa=IDENTITY, v=7138.0, qb=qb)
        ydot = rates("rv", s, make_env(), alpha=0.1, bank=0.3)
        assert abs(ydot[0]) < 1e-8

    def test_gravity_only_descent_accelerates(self):
        # velocity antiparallel to position: half turn about the third axis
        s = rv_row(
            r=7e6,
            qa=IDENTITY,
            v=300.0,
            qb=(0.0, 0.0, 1.0, 0.0),
        )
        ydot = rates("rv", s, VACUUM_ENV)
        assert ydot[0] == -300.0
        np.testing.assert_allclose(ydot[5], EARTH.mu / 7e6**2, rtol=1e-14)

    def test_vertical_state_all_finite(self):
        s = rv_row(
            r=EARTH.radius + 15e3,
            qa=IDENTITY,
            v=300.0,
            qb=(0.0, 0.0, 1.0, 0.0),
        )
        env = make_env()
        ydot = rates("rv", s, env)
        assert np.isfinite(ydot[0]) and np.isfinite(ydot[5])
        assert np.all(np.isfinite(ydot[1:5]))
        assert np.all(np.isfinite(ydot[6:10]))

    def test_norm_derivative_is_zero(self):
        rng = np.random.default_rng(3)
        env = make_env()
        for _ in range(200):
            s = rv_row(
                r=EARTH.radius + rng.uniform(2e4, 8e5),
                qa=unit(rng.normal(size=4)),
                v=rng.uniform(100.0, 8000.0),
                qb=unit(rng.normal(size=4)),
            )
            ydot = rates("rv", s, env, alpha=rng.uniform(-0.2, 0.2), bank=rng.uniform(-3, 3))
            assert abs(float(np.dot(s[1:5], ydot[1:5]))) < 1e-14
            assert abs(float(np.dot(s[6:10], ydot[6:10]))) < 1e-14

    def test_zero_speed_raises(self):
        rhs = make_rv_rhs(constant_controls(), make_env())
        y = np.array([7e6, 0, 0, 0, 1, 0.0, 0, 0, 0, 1])
        with pytest.raises(SingularityError, match="kinetic"):
            rhs(0.0, y)


class TestGeneralForm:
    """The rv and rvl forms are the general two-quaternion form with gauge
    rates (wa1, wb1) = (0, 0) and (0, commanded)."""

    def test_zero_gauge_bitwise_matches_rv(self):
        # with lift on: the lift gauge at a zero bank-rate command flies the
        # rv form's zero bank bit for bit
        rng = np.random.default_rng(5)
        env = make_env()
        profile = constant_controls(alpha=0.12, bank=0.0, wb1=0.0)
        rv_rhs = make_rv_rhs(profile, env)
        rvl_rhs = PARAMETERIZATIONS["rvl"].make_rhs(profile, env)
        for _ in range(100):
            y = rv_row(
                EARTH.radius + rng.uniform(2e4, 8e5),
                unit(rng.normal(size=4)),
                rng.uniform(100.0, 8000.0),
                unit(rng.normal(size=4)),
            )
            assert np.array_equal(rv_rhs(0.0, y), rvl_rhs(0.0, y))

    def test_gauge_rates_recovered(self):
        rng = np.random.default_rng(7)
        env = make_env()
        y = rv_row(
            r=7e6,
            qa=unit(rng.normal(size=4)),
            v=3000.0,
            qb=unit(rng.normal(size=4)),
        )
        wa1, wb1 = 0.0, -0.021
        rhs = PARAMETERIZATIONS["rvl"].make_rhs(constant_controls(alpha=0.1, wb1=wb1), env)
        ydot = rhs(0.0, y)
        wa = omega_from_rate_arrays(ydot[1:5], y[1:5])
        wb = omega_from_rate_arrays(ydot[6:10], y[6:10])
        np.testing.assert_allclose(wa[0], wa1, atol=1e-12)
        np.testing.assert_allclose(wb[0], wb1, atol=1e-12)

    def test_recovered_gauge_zero_for_rv(self):
        rng = np.random.default_rng(11)
        env = make_env()
        profile = constant_controls(alpha=0.05, bank=1.0)
        rhs = PARAMETERIZATIONS["rv"].make_rhs(profile, env)
        for _ in range(100):
            y = rv_row(
                r=EARTH.radius + rng.uniform(2e4, 8e5),
                qa=unit(rng.normal(size=4)),
                v=rng.uniform(100.0, 8000.0),
                qb=unit(rng.normal(size=4)),
            )
            ydot = rhs(0.0, y)
            wa = omega_from_rate_arrays(ydot[1:5], y[1:5])
            wb = omega_from_rate_arrays(ydot[6:10], y[6:10])
            assert abs(wa[0]) < 1e-12
            assert abs(wb[0]) < 1e-12


THRUST_OFFSET = 0.05
TEN_PARAMETER_BLOCKS = ((0, 1), (1, 5), (5, 6), (6, 10))


def ten_parameter_case(bank_mode, spin, thrust, transverse):
    """Controls and environment of one case of the ten-parameter oracle tests.

    Without a transverse force the lift slope is zero and the angle of
    attack cancels the thrust offset, so the force kernel gives exactly 0.0.
    """
    env = make_env(
        spin=EARTH.spin_rate if spin else 0.0,
        cl_alpha=1.5 if transverse else 0.0,
        thrust_offset=THRUST_OFFSET,
    )
    controls = ControlProfile(
        alpha=(
            PiecewiseLinear([0.0, 400.0], [0.2, 0.05])
            if transverse
            else PiecewiseLinear.constant(-THRUST_OFFSET)
        ),
        bank=PiecewiseLinear([0.0, 400.0], [0.3, 1.7]),
        wb1=PiecewiseLinear([0.0, 400.0], [0.02, -0.01]),
        thrust=PiecewiseLinear.constant(2.0e5 if thrust else 0.0),
        bank_mode=bank_mode,
    )
    return controls, env


def ten_parameter_scales(controls, env, lift_along_b2, t, y):
    """The largest term of each output block of a ten-parameter derivative.

    The blocks are the radius rate, the A quaternion rate, the speed rate
    and the B quaternion rate.  The quaternion rates are bounded by the
    angular rates they are made of: v/r, each force over m v and, in rvl,
    the wb1 command and the bank-tracking term.
    """
    r, v = y[0], y[5]
    m, mu, we = env.vehicle.mass, env.body.mu, env.body.spin_rate
    alpha, thrust, _ = controls.lookup("bank")(t)
    axial, transverse = make_forces(env)(r, v, alpha, thrust)
    force = max(abs(axial), abs(transverse), m * mu / r**2, 2.0 * m * we * v, m * we * we * r)
    rate = max(force / (m * v), v / r)
    qb = rate
    if lift_along_b2:
        beta_mode = controls.bank_mode == "beta"
        command = controls.lookup("bank", rate=True)(t)[2] if beta_mode else controls.lookup("wb1")(t)[2]
        qb = max(rate, abs(command))
        if beta_mode:
            c = dcm_from_quat(y[6:10])
            tracking = abs(c[0, 0]) * (abs(c[1, 0]) + abs(c[2, 0])) / (1.0 - c[0, 0] ** 2)
            qb = max(qb, rate * tracking)
    return (v, v / r, force / m, qb)


TEN_PARAMETER_CASES = [
    pytest.param(mode, spin, thrust, transverse, id=f"{mode}-spin{spin:d}-thrust{thrust:d}-transverse{transverse:d}")
    for mode in ("sigma", "beta")
    for spin in (True, False)
    for thrust in (True, False)
    for transverse in (True, False)
]


class TestTenParameterOracle:
    """rv and rvl against the term-by-term ten-parameter derivative of ``reference``.

    The program reuses the entries of C_BA, rotates the spin axis into B
    once and drops the zero gauge terms; the oracle forms every entry and
    carries the zeros.  The two agree to 1e-12 of each output block's
    largest term, and each quaternion block's rate is orthogonal to the
    block to rounding.
    """

    @staticmethod
    def check(controls, env, states):
        for form, lift_along_b2 in (("rv", False), ("rvl", True)):
            rhs = PARAMETERIZATIONS[form].make_rhs(controls, env)
            oracle = ten_parameter_rhs(controls, env, lift_along_b2)
            for t, y in states:
                y = [float(x) for x in y]
                got = np.array(rhs(t, y))
                want = np.array(oracle(t, y))
                scales = ten_parameter_scales(controls, env, lift_along_b2, t, y)
                for (lo, hi), scale in zip(TEN_PARAMETER_BLOCKS, scales):
                    assert np.max(np.abs(got[lo:hi] - want[lo:hi])) <= 1e-12 * scale, (form, t, lo)
                for (lo, hi), scale in ((TEN_PARAMETER_BLOCKS[1], scales[1]), (TEN_PARAMETER_BLOCKS[3], scales[3])):
                    assert abs(float(np.dot(y[lo:hi], got[lo:hi]))) <= 1e-14 * scale, (form, t, lo)

    @pytest.mark.parametrize("mode, spin, thrust, transverse", TEN_PARAMETER_CASES)
    def test_random_states(self, mode, spin, thrust, transverse):
        controls, env = ten_parameter_case(mode, spin, thrust, transverse)
        rng = np.random.default_rng(21)
        states = [
            (
                rng.uniform(0.0, 500.0),
                rv_row(
                    EARTH.radius + rng.uniform(2e4, 8e5),
                    unit(rng.normal(size=4)),
                    rng.uniform(100.0, 8000.0),
                    unit(rng.normal(size=4)),
                ),
            )
            for _ in range(100)
        ]
        self.check(controls, env, states)

    @pytest.mark.parametrize("mode, spin, thrust, transverse", TEN_PARAMETER_CASES)
    def test_trajectory_states(self, mode, spin, thrust, transverse):
        controls, env = ten_parameter_case(mode, spin, thrust, transverse)
        s0 = spherical_row(r=EARTH.radius + 8e4, lon=0.3, lat=0.4, v=7000.0, gamma=-0.02, psi=1.0)
        spec = PARAMETERIZATIONS["rv"]
        y0 = spec.from_cartesian(PARAMETERIZATIONS["spherical"].to_cartesian(s0))
        traj, _ = propagate(
            spec.make_rhs(controls, env),
            0.0,
            y0,
            300.0,
            IntegratorConfig(rel_tol=1e-9),
            quat_spans=spec.quat_spans,
            t_knots=controls.knot_times(),
            scales=spec.scales,
        )
        assert len(traj) > 10
        self.check(controls, env, zip(traj.t.tolist(), traj.y))


class TestVerticalBankRule:
    """In beta mode at exactly vertical flight rv flies the command as its
    native bank, whatever the signs of the zero b21 and b31; rvl cannot
    track the bank."""

    # the last one's b21 = 2 (eb1 eb2 - eb3 eta_b) is -0.0
    @pytest.mark.parametrize(
        "qb", [IDENTITY, (0.0, 0.0, 1.0, 0.0), (math.sin(-0.3), 0.0, 0.0, math.cos(-0.3))]
    )
    def test_rv_beta_equals_sigma(self, qb):
        y = rv_row(EARTH.radius + 15e3, IDENTITY, 300.0, qb)
        env = make_env()
        beta = rates("rv", y, env, alpha=0.05, bank=1.0, bank_mode="beta")
        sigma = rates("rv", y, env, alpha=0.05, bank=1.0, bank_mode="sigma")
        assert beta == sigma
        assert beta != rates("rv", y, env, alpha=0.05, bank=0.0, bank_mode="sigma")

    def test_rvl_beta_raises(self):
        y = rv_row(EARTH.radius + 15e3, IDENTITY, 300.0, (0.0, 0.0, 1.0, 0.0))
        with pytest.raises(SingularityError, match="bank tracking undefined in vertical flight"):
            rates("rvl", y, make_env(), alpha=0.05, bank=1.0, bank_mode="beta")


class TestRvlDerivatives:
    def test_matches_rv_without_lift(self):
        rng = np.random.default_rng(13)
        env = make_env()
        for _ in range(50):
            s = rv_row(
                r=EARTH.radius + rng.uniform(2e4, 8e5),
                qa=unit(rng.normal(size=4)),
                v=rng.uniform(500.0, 8000.0),
                qb=unit(rng.normal(size=4)),
            )
            rv = rates("rv", s, env, alpha=0.0)
            rvl = rates("rvl", s, env, alpha=0.0)
            assert rv[0] == rvl[0]
            assert rv[5] == rvl[5]
            np.testing.assert_array_equal(rv[1:5], rvl[1:5])
            np.testing.assert_array_equal(rv[6:10], rvl[6:10])

    def test_bank_rate_command_spins_quaternion(self):
        # scalar-dominant attitude, zero force: eb1 rate is half the command
        c = 0.04
        s = rv_row(
            r=7e6,
            qa=IDENTITY,
            v=3000.0,
            qb=IDENTITY,
        )
        contribution = rates("rvl", s, VACUUM_ENV, wb1=c)[6]
        # remove the orbital-geometry part by comparing against zero command
        base = rates("rvl", s, VACUUM_ENV, wb1=0.0)[6]
        np.testing.assert_allclose(contribution - base, 0.5 * c, rtol=1e-12)

    def test_vertical_state_finite(self):
        s = rv_row(
            r=EARTH.radius + 15e3,
            qa=IDENTITY,
            v=300.0,
            qb=(0.0, 0.0, 1.0, 0.0),
        )
        ydot = rates("rvl", s, make_env(), wb1=0.01)
        assert np.all(np.isfinite(ydot[6:10]))


class TestForceKernel:
    def test_matches_matrix_reference_model(self):
        # the scalar force kernel, through the rv and rvl derivatives, against
        # the matrix-form model: vdot = f~1/m and the B-frame turn rates
        # wb2 = -f~3/(m v) - (v/r) C31, wb3 = f~2/(m v) + (v/r) C21
        rng = np.random.default_rng(29)
        checked = 0
        for thrust in (0.0, 5e4):
            for spin in (0.0, EARTH.spin_rate):
                env = make_env(spin=spin, thrust_offset=0.1)
                m = env.vehicle.mass
                for _ in range(25):
                    s = rv_row(
                        r=EARTH.radius + rng.uniform(2e4, 8e5),
                        qa=unit(rng.normal(size=4)),
                        v=rng.uniform(500.0, 8000.0),
                        qb=unit(rng.normal(size=4)),
                    )
                    r, v = s[0], s[5]
                    c_ba = dcm_from_quat(s[6:10])
                    if 1.0 - c_ba[0, 0] ** 2 < 1e-4:
                        continue
                    u = ControlInput(
                        alpha=rng.uniform(-0.2, 0.2), sigma=rng.uniform(-3, 3), thrust=thrust
                    )
                    rho = density(r - env.body.radius, env.atmosphere)
                    lift, drag, _ = aero_forces(rho, v, u.alpha, env.aero)
                    for name, lift_along_b2 in (("rv", False), ("rvl", True)):
                        f = net_force_B(
                            r, c_ba, u, env.vehicle, lift, drag, env.body, lift_along_b2
                        )
                        f_app = apparent_force_B(
                            f, r, v, c_ba, dcm_from_quat(s[1:5]), env.body, m
                        )
                        ydot = rates(name, s, env, alpha=u.alpha, bank=u.sigma, thrust=thrust)
                        wb = omega_from_rate_arrays(ydot[6:10], s[6:10])
                        np.testing.assert_allclose(ydot[5], f_app[0] / m, rtol=1e-9, atol=1e-9)
                        np.testing.assert_allclose(
                            wb[1],
                            -f_app[2] / (m * v) - (v / r) * c_ba[2, 0],
                            rtol=1e-9,
                            atol=1e-9,
                        )
                        np.testing.assert_allclose(
                            wb[2],
                            f_app[1] / (m * v) + (v / r) * c_ba[1, 0],
                            rtol=1e-9,
                            atol=1e-9,
                        )
                    checked += 1
        assert checked > 80


class TestRvhDerivatives:
    def test_circular_orbit_equilibrium(self):
        r = 7e6
        v = math.sqrt(EARTH.mu / r)
        s = rvh_row(
            r=r,
            qa=IDENTITY,
            v=v,
            eps_b3=HALF_SQRT2,
            eta_b=HALF_SQRT2,
        )
        ydot = rates("rvh", s, VACUUM_ENV)
        assert abs(ydot[0]) < 1e-9
        assert abs(ydot[6]) < 1e-12
        assert abs(ydot[7]) < 1e-12

    def test_planar_motion_keeps_gauge_axis(self):
        # no out-of-plane force: wa1 = 0, the A quaternion rotates only
        # about its third axis
        r, v = 7.2e6, 6500.0
        cart = CartesianState([r, 0, 0], [v * 0.4, v * math.sqrt(1 - 0.16), 0.0])
        y = rv_to_rvh(cartesian_to_rv(cart))
        wa = omega_from_rate_arrays(rates("rvh", y, VACUUM_ENV)[1:5], y[1:5])
        assert abs(wa[0]) < 1e-12

    def test_singular_guard(self):
        s = rvh_row(
            r=7e6,
            qa=IDENTITY,
            v=300.0,
            eps_b3=math.sqrt(1.0 - (5e-9) ** 2),
            eta_b=5e-9,
        )
        with pytest.raises(SingularityError, match="rvh vertical"):
            rates("rvh", s, make_env())


class TestCartesianDerivatives:
    def test_two_body_acceleration(self):
        c = CartesianState([7e6, 0, 0], [0, 7000.0, 0])
        ydot = rates("cartesian", cartesian_row(c), VACUUM_ENV)
        np.testing.assert_allclose(ydot[0:3], c.velocity, atol=1e-15)
        np.testing.assert_allclose(
            ydot[3:6], [-EARTH.mu / 7e6**2, 0.0, 0.0], rtol=1e-14
        )

    def test_centripetal_term_at_equator(self):
        env = make_env(rho0=0.0)
        c = CartesianState([7e6, 0, 0], [1e-9, 0, 0])
        ydot = rates("cartesian", cartesian_row(c), env)
        we = EARTH.spin_rate
        np.testing.assert_allclose(
            ydot[3], -EARTH.mu / 7e6**2 + we * we * 7e6, rtol=1e-10
        )

    def test_vertical_lift_ambiguity_raises(self):
        env = make_env(rho0=1.225)
        c = CartesianState([EARTH.radius + 1e4, 0, 0], [-300.0, 0, 0])
        with pytest.raises(SingularityError, match="lift direction"):
            rates("cartesian", cartesian_row(c), env, alpha=0.1)

    def test_vertical_without_lift_is_fine(self):
        env = make_env(rho0=1.225)
        c = CartesianState([EARTH.radius + 1e4, 0, 0], [-300.0, 0, 0])
        ydot = rates("cartesian", cartesian_row(c), env, alpha=0.0)
        assert np.all(np.isfinite(ydot))

    @pytest.mark.parametrize("speed", [3.0, 7000.0])
    def test_lift_guard_threshold(self, speed):
        # the lift direction is defined while |r x v| > VERTICAL_SIN_EPS r v,
        # that is while the sine of the angle between position and velocity
        # is above VERTICAL_SIN_EPS, at any speed
        env = make_env(rho0=1.225)
        r = EARTH.radius + 1e4
        for factor in (0.5, 2.0):
            sin_angle = factor * VERTICAL_SIN_EPS
            c = CartesianState([r, 0, 0], [-speed, speed * sin_angle, 0])
            if factor < 1.0:
                with pytest.raises(SingularityError, match="lift direction"):
                    rates("cartesian", cartesian_row(c), env, alpha=0.1)
            else:
                assert np.all(np.isfinite(rates("cartesian", cartesian_row(c), env, alpha=0.1)))

    def test_radius_is_the_float_norm(self):
        # the event's radius of a Cartesian row is sqrt(x*x + y*y + z*z) in
        # floats, whatever the row's type, so its bits depend on no BLAS dot
        spec = PARAMETERIZATIONS["cartesian"]
        rng = np.random.default_rng(20)
        rows = rng.normal(0.0, 7e6, (1000, 6))
        for row in rows:
            x, y, z = row[:3].tolist()
            expected = math.sqrt(x * x + y * y + z * z)
            assert spec.radius(row.tolist()) == expected
            assert spec.radius(row) == expected
            assert abs(expected - np.linalg.norm(row[:3])) <= 4e-16 * expected


class TestSphericalDerivatives:
    def test_term_zeroing_case(self):
        # equatorial eastward flight, no lift, non-rotating body: the
        # azimuth rate collapses entirely
        s = spherical_row(
            r=7e6, lon=0.0, lat=0.0, v=5000.0, gamma=0.0, psi=math.pi / 2
        )
        ydot = rates("spherical", s, VACUUM_ENV)
        assert abs(ydot[5]) < 1e-15
        assert abs(ydot[2]) < 1e-15

    def test_vertical_flight_raises(self):
        s = spherical_row(r=7e6, lon=0.0, lat=0.1, v=300.0, gamma=-math.pi / 2, psi=0.0)
        with pytest.raises(SingularityError, match="vertical"):
            rates("spherical", s, make_env())

    def test_near_vertical_guard_threshold(self):
        s = spherical_row(
            r=7e6, lon=0.0, lat=0.1, v=300.0, gamma=math.pi / 2 - 5e-7, psi=0.0
        )
        with pytest.raises(SingularityError, match="vertical"):
            rates("spherical", s, make_env())

    def test_azimuth_rate_grows_as_inverse_cos_gamma(self):
        # fixed lateral force; |psidot| scales like 1/cos(gamma)
        env = make_env(spin=0.0, rho0=0.0)
        vals = []
        gammas = [math.radians(g) for g in (89.0, 89.9)]
        for gamma in gammas:
            s = spherical_row(
                r=7e6, lon=0.3, lat=0.0, v=4000.0, gamma=gamma, psi=1.0
            )
            # inject lateral force through a banked lift with fixed magnitude
            rates = _spherical_rates_with_forced_lift(s, env, lift=1000.0, beta=math.pi / 2)
            vals.append(abs(rates[5]))
        ratio = vals[1] / vals[0]
        expected = math.cos(gammas[0]) / math.cos(gammas[1])
        np.testing.assert_allclose(ratio, expected, rtol=1e-3)

    def test_finite_difference_against_cartesian_oracle(self):
        # every kinematic, gravity, Coriolis, and centripetal term is
        # checked by differencing the ground-truth flow through the
        # coordinate conversion
        rng = np.random.default_rng(17)
        for _ in range(25):
            s = spherical_row(
                r=EARTH.radius + rng.uniform(3e4, 6e5),
                lon=rng.uniform(-math.pi, math.pi),
                lat=rng.uniform(-1.2, 1.2),
                v=rng.uniform(500.0, 7500.0),
                gamma=rng.uniform(-0.8, 0.8),
                psi=rng.uniform(-math.pi, math.pi),
            )
            alpha = rng.uniform(0.0, 0.2)
            beta = rng.uniform(-math.pi, math.pi)
            thrust = rng.choice([0.0, 5e4])
            env = make_env()
            profile = constant_controls(
                alpha=alpha, bank=beta, thrust=thrust, bank_mode="beta"
            )
            sph_rhs = make_spherical_rhs(profile, env)
            cart_rhs = make_cartesian_rhs(profile, env)
            analytic = np.asarray(sph_rhs(0.0, s.tolist()))

            c0 = cartesian_row(PARAMETERIZATIONS["spherical"].to_cartesian(s))

            def sph_at(dt):
                steps = 4
                y = c0.copy()
                tt = 0.0
                h = dt / steps
                for _ in range(steps):
                    y = rk4_step(cart_rhs, tt, y, h)
                    tt += h
                return cartesian_to_spherical(CartesianState(y[0:3], y[3:6]))

            dt = 1e-2
            fd = (sph_at(dt) - sph_at(-dt)) / (2.0 * dt)
            fd2 = (sph_at(dt / 2) - sph_at(-dt / 2)) / dt
            richardson = (4.0 * fd2 - fd) / 3.0
            scale = np.maximum(np.abs(analytic), np.array([1.0, 1e-7, 1e-7, 1e-3, 1e-7, 1e-7]))
            np.testing.assert_allclose(
                analytic / scale, richardson / scale, rtol=0, atol=5e-6
            )

    def test_short_arc_propagation_matches_oracle(self):
        s = spherical_row(
            r=EARTH.radius + 6e4, lon=0.2, lat=0.4, v=6000.0, gamma=-0.05, psi=1.1
        )
        env = make_env()
        profile = constant_controls(alpha=0.12, bank=0.5, bank_mode="beta")
        sph_rhs = make_spherical_rhs(profile, env)
        cart_rhs = make_cartesian_rhs(profile, env)
        y_sph = rk4_run(sph_rhs, 0.0, s, 10.0, 2000)
        y_cart = rk4_run(cart_rhs, 0.0, cartesian_row(PARAMETERIZATIONS["spherical"].to_cartesian(s)), 10.0, 2000)
        pos_sph = PARAMETERIZATIONS["spherical"].to_cartesian(y_sph).position
        np.testing.assert_allclose(pos_sph, y_cart[0:3], rtol=1e-6)


def _spherical_rates_with_forced_lift(s, env, lift, beta):
    # pick alpha so the linear lift model produces the requested force
    r, v = s[0], s[3]
    rho = density(r - env.body.radius, env.atmosphere)
    if rho == 0.0:
        env = make_env(spin=env.body.spin_rate, rho0=1.225)
        rho = density(r - env.body.radius, env.atmosphere)
    q = 0.5 * rho * v * v
    alpha = lift / (q * env.aero.s * env.aero.cl_alpha)
    profile = constant_controls(alpha=alpha, bank=beta, bank_mode="beta")
    return make_spherical_rhs(profile, env)(0.0, s)


class TestBankAngleMaps:
    def test_aligned_geometry(self):
        c = np.zeros((3, 3))
        c[1, 0] = 1.0
        assert beta_from_sigma(0.0, c) == 0.0

    def test_lift_frame_reduction(self):
        c = np.zeros((3, 3))
        c[1, 0] = 0.0
        c[2, 0] = -1.0
        np.testing.assert_allclose(beta_from_sigma(0.0, c), math.pi / 2, atol=1e-15)

    def test_rvh_offset_by_pi(self):
        phi = 1.1
        s = rvh_row(
            r=7e6,
            qa=IDENTITY,
            v=4000.0,
            eps_b3=math.sin(phi / 2),
            eta_b=math.cos(phi / 2),
        )
        c_ba = dcm_from_quat((0.0, 0.0, s[6], s[7]))
        sigma = 0.7
        beta = beta_from_sigma(sigma, c_ba)
        assert abs(((beta - sigma) - math.pi) % (2 * math.pi)) < 1e-12 or abs(
            ((beta - sigma) + math.pi) % (2 * math.pi)
        ) < 1e-12

    def test_geometric_oracle(self):
        # lift direction rotated to observation coordinates versus the
        # plane-referenced basis built directly from r and v
        rng = np.random.default_rng(19)
        checked = 0
        while checked < 500:
            pos = rng.normal(size=3)
            pos = (EARTH.radius + rng.uniform(1e5, 1e6)) * pos / np.linalg.norm(pos)
            vel = rng.normal(size=3)
            vel *= rng.uniform(200.0, 8000.0) / np.linalg.norm(vel)
            cart = CartesianState(pos, vel)
            s = cartesian_to_rv(cart)
            c_ba = dcm_from_quat(s[6:10])
            if 1.0 - c_ba[0, 0] ** 2 < 1e-4:
                continue
            checked += 1
            sigma = rng.uniform(-math.pi, math.pi)
            beta = beta_from_sigma(sigma, c_ba)
            c_be = c_ba @ dcm_from_quat(s[1:5])
            lift_b = np.array([0.0, math.cos(sigma), math.sin(sigma)])
            lift_e = c_be.T @ lift_b
            g3 = vel / np.linalg.norm(vel)
            h = np.cross(pos, vel)
            g2 = -h / np.linalg.norm(h)
            g1 = np.cross(g2, g3)
            beta_geo = math.atan2(float(np.dot(lift_e, g2)), float(np.dot(lift_e, g1)))
            diff = (beta - beta_geo + math.pi) % (2.0 * math.pi) - math.pi
            assert abs(diff) < 1e-10

    def test_sigma_beta_inverse(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            qb = unit(rng.normal(size=4))
            c_ba = dcm_from_quat(qb)
            if 1.0 - c_ba[0, 0] ** 2 < 1e-6:
                continue
            sigma = rng.uniform(-math.pi, math.pi)
            beta = beta_from_sigma(sigma, c_ba)
            sigma_back = sigma_from_beta(beta, c_ba)
            diff = (sigma - sigma_back + math.pi) % (2.0 * math.pi) - math.pi
            assert abs(diff) < 1e-12

    def test_beta_rate_simple_case(self):
        c = np.zeros((3, 3))
        c[1, 0] = 1.0  # C_BA(1,1) = 0
        assert beta_rate(0.3, 0.1, 0.5, -0.2, c) == 0.3 + 0.1

    def test_vertical_flight_raises(self):
        c = np.eye(3)
        with pytest.raises(SingularityError):
            beta_from_sigma(0.1, c)
        with pytest.raises(SingularityError):
            beta_rate(0.0, 0.0, 0.1, 0.1, c)

    def test_beta_rate_matches_central_difference(self):
        # propagate the ten-parameter form and difference the bank angle
        env = make_env()
        profile = ControlProfile(
            alpha=PiecewiseLinear([0.0, 200.0], [0.15, 0.05]),
            bank=PiecewiseLinear([0.0, 200.0], [0.2, 1.4]),
            bank_mode="sigma",
        )
        rhs = make_rv_rhs(profile, env)
        cart = CartesianState(
            [EARTH.radius + 8e4, 1e5, 2e5], [1200.0, 6300.0, -400.0]
        )
        y0 = cartesian_to_rv(cart)
        y0 = rk4_run(rhs, 0.0, y0, 40.0, 4000)  # move off the initial gauge
        t0 = 40.0

        def beta_at(t, y_start, t_start, n_per_s=200):
            n = max(1, int(round(abs(t - t_start) * n_per_s)))
            y = rk4_run(rhs, t_start, y_start, t, n)
            c_ba = dcm_from_quat(unit(y[6:10]))
            return beta_from_sigma(profile_value(profile.bank, t), c_ba), y

        beta0, _ = beta_at(t0, y0, t0)
        ydot = array_rhs(rhs)(t0, y0)
        wb = omega_from_rate_arrays(ydot[6:10], y0[6:10])
        c_ba = dcm_from_quat(unit(y0[6:10]))
        analytic = beta_rate(profile_rate(profile.bank, t0), wb[0], wb[1], wb[2], c_ba)

        errs = []
        for h in (0.4, 0.2):
            bp, _ = beta_at(t0 + h, y0, t0)
            bm, _ = beta_at(t0 - h, y0, t0)
            fd = ((bp - bm + math.pi) % (2 * math.pi) - math.pi) / (2 * h)
            errs.append(abs(fd - analytic))
        assert errs[0] > 0
        ratio = errs[0] / max(errs[1], 1e-18)
        assert 2.0 < ratio < 8.0 or errs[1] < 1e-12


class TestCrossParameterizationEquivalence:
    def test_short_arc_all_forms_agree(self):
        env = make_env()
        profile = ControlProfile(
            alpha=PiecewiseLinear([0.0, 60.0], [0.15, 0.08]),
            bank=PiecewiseLinear([0.0, 60.0], [0.1, 0.9]),
            bank_mode="beta",
        )
        s0 = spherical_row(
            r=EARTH.radius + 7e4, lon=0.3, lat=0.35, v=6800.0, gamma=-0.01, psi=1.2
        )
        cart0 = PARAMETERIZATIONS["spherical"].to_cartesian(s0)
        t1, n = 30.0, 6000
        finals = {}
        for name in ("rv", "rvl", "rvh", "spherical", "cartesian"):
            spec = PARAMETERIZATIONS[name]
            y0 = initial_row(name, cart0, profile)
            rhs = spec.make_rhs(profile, env)
            y1 = rk4_run(rhs, 0.0, y0, t1, n)
            finals[name] = spec.to_cartesian(y1)
        ref = finals["cartesian"]
        for name, cs in finals.items():
            np.testing.assert_allclose(
                cs.position, ref.position, atol=1e-6 * ref.r, rtol=0
            )
            np.testing.assert_allclose(cs.v, ref.v, rtol=1e-8)
