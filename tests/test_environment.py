import math

import numpy as np
import pytest

from quatflight.controls import ControlProfile, PiecewiseLinear
from quatflight.environment import EARTH, AeroModel, Atmosphere, CentralBody, Vehicle
from quatflight.quat import dcm_from_quat
from quatflight.states import CartesianState, cartesian_to_rv

from reference import (
    ControlInput,
    aero_forces,
    apparent_force_B,
    density,
    net_force_B,
    profile_rate,
    profile_value,
    unit,
)


class TestDensity:
    ATM = Atmosphere(rho0=1.225, scale_height=8500.0)

    def test_sea_level(self):
        assert density(0.0, self.ATM) == 1.225

    def test_one_scale_height(self):
        np.testing.assert_allclose(density(8500.0, self.ATM), 1.225 / math.e, rtol=1e-15)

    def test_reference_value(self):
        # 1.225 / e = 0.45065...
        assert abs(density(8500.0, self.ATM) - 0.4506) < 1e-4

    def test_monotone_decreasing(self):
        hs = np.linspace(-5e3, 100e3, 50)
        rho = [density(h, self.ATM) for h in hs]
        assert all(a > b for a, b in zip(rho, rho[1:]))


class TestAeroForces:
    MODEL = AeroModel(s=2.0, cl_alpha=2.0, cd0=0.05, k=0.5)

    def test_zero_speed(self):
        lift, drag, q = aero_forces(1.0, 0.0, 0.3, self.MODEL)
        assert lift == 0.0 and drag == 0.0 and q == 0.0

    def test_zero_alpha(self):
        lift, drag, q = aero_forces(1.2, 50.0, 0.0, self.MODEL)
        assert lift == 0.0
        np.testing.assert_allclose(drag, q * self.MODEL.s * self.MODEL.cd0, rtol=1e-15)

    def test_hand_evaluated_case(self):
        # q = 0.5*1*100^2 = 5000 Pa; cl = 2*0.1 = 0.2
        # lift = 5000*2*0.2 = 2000 N; drag = 5000*2*(0.05 + 0.5*0.04) = 700 N
        lift, drag, q = aero_forces(1.0, 100.0, 0.1, self.MODEL)
        assert q == 5000.0
        np.testing.assert_allclose(lift, 2000.0, rtol=1e-15)
        np.testing.assert_allclose(drag, 700.0, rtol=1e-15)

    def test_lift_sign_follows_alpha(self):
        lift_neg, drag_neg, _ = aero_forces(1.0, 100.0, -0.1, self.MODEL)
        lift_pos, drag_pos, _ = aero_forces(1.0, 100.0, 0.1, self.MODEL)
        assert lift_neg == -lift_pos
        assert drag_neg == drag_pos > 0.0


class TestNetForce:
    def test_gravity_only_aligned(self):
        vehicle = Vehicle(mass=1.0)
        f = net_force_B(
            7e6, np.eye(3), ControlInput(), vehicle, lift=0.0, drag=0.0, body=EARTH
        )
        np.testing.assert_allclose(f, [-EARTH.mu / 7e6**2, 0.0, 0.0], rtol=1e-15)

    def test_gravity_scales_with_mass(self):
        vehicle = Vehicle(mass=250.0)
        f = net_force_B(
            7e6, np.eye(3), ControlInput(), vehicle, lift=0.0, drag=0.0, body=EARTH
        )
        np.testing.assert_allclose(f[0], -250.0 * EARTH.mu / 7e6**2, rtol=1e-15)

    def test_gravity_magnitude_exact(self):
        # first column of any DCM is a unit vector, so the gravity block has
        # magnitude m*mu/r^2 exactly
        rng = np.random.default_rng(5)
        vehicle = Vehicle(mass=3.0)
        for _ in range(50):
            c_ba = dcm_from_quat(unit(rng.normal(size=4)))
            f = net_force_B(
                8e6, c_ba, ControlInput(), vehicle, lift=0.0, drag=0.0, body=EARTH
            )
            np.testing.assert_allclose(
                np.linalg.norm(f), 3.0 * EARTH.mu / 8e6**2, rtol=1e-12
            )

    def test_entry_force_structure(self):
        # thrust off: aero block is (-D, L cos sigma, L sin sigma)
        vehicle = Vehicle(mass=100.0)
        sigma = 0.7
        lift, drag = 900.0, 400.0
        c_ba = dcm_from_quat(unit([0.1, -0.4, 0.2, 0.88]))
        f = net_force_B(
            7e6, c_ba, ControlInput(sigma=sigma), vehicle, lift, drag, EARTH
        )
        grav = 100.0 * EARTH.mu / 7e6**2
        expected = np.array(
            [-drag, lift * math.cos(sigma), lift * math.sin(sigma)]
        ) - grav * c_ba[:, 0]
        np.testing.assert_allclose(f, expected, rtol=1e-14)

    def test_right_angle_bank(self):
        vehicle = Vehicle(mass=1.0)
        lift = 50.0
        f = net_force_B(
            7e6,
            np.eye(3),
            ControlInput(sigma=math.pi / 2),
            vehicle,
            lift,
            0.0,
            EARTH,
        )
        np.testing.assert_allclose(f[1], 0.0, atol=1e-13)
        np.testing.assert_allclose(f[2], lift, rtol=1e-15)

    def test_lift_frame_variant_drops_bank(self):
        vehicle = Vehicle(mass=10.0)
        lift = 120.0
        c_ba = dcm_from_quat(unit([0.3, 0.1, -0.2, 0.93]))
        f = net_force_B(
            7e6,
            c_ba,
            ControlInput(sigma=2.0),
            vehicle,
            lift,
            5.0,
            EARTH,
            lift_along_b2=True,
        )
        grav = 10.0 * EARTH.mu / 7e6**2
        np.testing.assert_allclose(f[1], lift - grav * c_ba[1, 0], rtol=1e-14)
        np.testing.assert_allclose(f[2], -grav * c_ba[2, 0], rtol=1e-14)


class TestApparentForce:
    def test_non_rotating_body(self):
        body = CentralBody(mu=EARTH.mu, radius=EARTH.radius, spin_rate=0.0)
        f = np.array([1.0, -2.0, 3.0])
        out = apparent_force_B(f, 7e6, 100.0, np.eye(3), np.eye(3), body, 10.0)
        assert np.array_equal(out, f)

    def test_equatorial_centripetal(self):
        # aligned frames at the equator: centripetal term pushes outward
        # along the first axis with magnitude m*r*we^2
        m, r, v = 5.0, 7e6, 0.0
        f = np.zeros(3)
        out = apparent_force_B(f, r, v, np.eye(3), np.eye(3), EARTH, m)
        we = EARTH.spin_rate
        np.testing.assert_allclose(out, [m * r * we * we, 0.0, 0.0], atol=1e-12)

    def test_coriolis_vanishes_for_axis_aligned_velocity(self):
        # C_BE third column (1,0,0): velocity along the spin axis
        c_ae = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]])
        body = CentralBody(mu=EARTH.mu, radius=EARTH.radius, spin_rate=EARTH.spin_rate)
        f = np.zeros(3)
        out = apparent_force_B(f, 7e6, 1000.0, np.eye(3), c_ae, body, 1.0)
        out_coriolis_free = apparent_force_B(f, 7e6, 2000.0, np.eye(3), c_ae, body, 1.0)
        # doubling speed leaves the result unchanged when Coriolis is zero
        np.testing.assert_allclose(out, out_coriolis_free, atol=1e-12)

    def test_frame_independence_against_direct_assembly(self):
        # rotate f_apparent to the observation frame and compare with the
        # acceleration assembled directly in observation coordinates
        rng = np.random.default_rng(23)
        m = 7.0
        omega = np.array([0.0, 0.0, EARTH.spin_rate])
        for _ in range(200):
            pos = rng.normal(size=3)
            pos = (EARTH.radius + rng.uniform(1e5, 8e5)) * pos / np.linalg.norm(pos)
            vel = rng.normal(size=3)
            vel *= rng.uniform(500.0, 8000.0) / np.linalg.norm(vel)
            y = cartesian_to_rv(CartesianState(pos, vel))
            c_ae = dcm_from_quat(y[1:5])
            c_ba = dcm_from_quat(y[6:10])
            c_be = c_ba @ c_ae
            f_b = rng.normal(size=3) * 100.0
            f_tilde = apparent_force_B(f_b, y[0], y[5], c_ba, c_ae, EARTH, m)
            accel_from_b = (c_be.T @ f_tilde) / m
            f_e = c_be.T @ f_b
            accel_direct = (
                f_e / m - 2.0 * np.cross(omega, vel) - np.cross(omega, np.cross(omega, pos))
            )
            np.testing.assert_allclose(accel_from_b, accel_direct, rtol=1e-9, atol=1e-9)


def bank_lookup(profile, rate=False):
    """``profile`` as the bank command, evaluated by ``ControlProfile.lookup``."""
    lookup = ControlProfile(bank=profile).lookup("bank", rate)
    return lambda t: lookup(t)[2]


class TestPiecewiseLinear:
    def test_interpolation_and_clamping(self):
        p = bank_lookup(PiecewiseLinear([0.0, 10.0], [1.0, 3.0]))
        assert p(-5.0) == 1.0
        assert p(0.0) == 1.0
        assert p(5.0) == 2.0
        assert p(10.0) == 3.0
        assert p(20.0) == 3.0

    def test_rate(self):
        rate = bank_lookup(PiecewiseLinear([0.0, 10.0, 20.0], [1.0, 3.0, 3.0]), rate=True)
        assert rate(5.0) == 0.2
        assert rate(15.0) == 0.0
        assert rate(-1.0) == 0.0
        assert rate(25.0) == 0.0

    def test_constant(self):
        p = PiecewiseLinear.constant(4.2)
        assert bank_lookup(p)(123.0) == 4.2
        assert bank_lookup(p, rate=True)(123.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            PiecewiseLinear([0.0, 0.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            PiecewiseLinear([0.0], [1.0, 2.0])

    @pytest.mark.parametrize("times, values", [
        ([0.0, math.inf], [1.0, 2.0]), ([-math.inf], [1.0]), ([0.0, 1.0], [1.0, math.nan]), ([0.0], [-math.inf]),
    ])
    def test_nonfinite_knot_rejected(self, times, values):
        with pytest.raises(ValueError, match="^times and values must be finite$"):
            PiecewiseLinear(times, values)

    def test_profile_knots(self):
        profile = ControlProfile(
            alpha=PiecewiseLinear([0.0, 5.0], [0.1, 0.0]),
            bank=PiecewiseLinear([0.0, 2.0, 8.0], [0.0, 0.3, 0.3]),
        )
        assert profile.knot_times() == [0.0, 2.0, 5.0, 8.0]


class TestControlLookup:
    """``ControlProfile.lookup`` has the bits of ``reference.profile_value`` and ``profile_rate``."""

    @staticmethod
    def probe_times(controls):
        knots = controls.knot_times()
        times = [knots[0] - 1e3, knots[0] - 1.0, knots[-1] + 1.0, knots[-1] + 1e3]
        for k in knots:
            times += [k, math.nextafter(k, -math.inf), math.nextafter(k, math.inf)]
        rng = np.random.default_rng(11)
        times += rng.uniform(knots[0] - 5.0, knots[-1] + 5.0, 200).tolist()
        return times

    @staticmethod
    def assert_same_bits(controls, third, rate):
        lookup = controls.lookup(third, rate)
        profile = getattr(controls, third)
        third_of = profile_rate if rate else profile_value
        for t in TestControlLookup.probe_times(controls):
            expected = (
                profile_value(controls.alpha, t),
                profile_value(controls.thrust, t),
                third_of(profile, t),
            )
            got = lookup(t)
            assert [v.hex() for v in got] == [v.hex() for v in expected], (third, rate, t)

    CASES = {
        "signed zeros": ControlProfile(
            # -0.0 at the first knot, where the value is the first one as it is,
            # and flat -0.0 segments, where the formula makes it +0.0
            alpha=PiecewiseLinear([0.0, 10.0, 20.0, 30.0], [-0.0, 0.5, -0.0, -0.0]),
            bank=PiecewiseLinear([-5.0, 3.0, 12.5, 40.0], [-0.0, -0.0, 2.0, -1.0]),
            wb1=PiecewiseLinear([2.0, 7.0], [0.5, -0.0]),
            thrust=PiecewiseLinear([5.0], [-0.0]),
        ),
        "single knots": ControlProfile(
            alpha=PiecewiseLinear([3.0], [0.2]),
            bank=PiecewiseLinear([-1.0], [-0.0]),
            wb1=PiecewiseLinear([8.0], [1e-3]),
            thrust=PiecewiseLinear([0.0], [5e4]),
        ),
        "adjacent knots": ControlProfile(
            # a knot one ulp after another profile's first knot
            alpha=PiecewiseLinear([1.0, 4.0], [-0.0, 0.3]),
            bank=PiecewiseLinear([math.nextafter(1.0, 2.0), 2.0, 9.0], [1.0, -0.5, 0.25]),
            wb1=PiecewiseLinear([1.0, math.nextafter(1.0, 2.0), 6.0], [-0.0, 1e-3, 2e-3]),
            thrust=PiecewiseLinear([0.0, 1.0], [2e4, 0.0]),
        ),
    }

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("third, rate", [("bank", False), ("bank", True), ("wb1", False)])
    def test_bits_of_value_and_rate(self, case, third, rate):
        self.assert_same_bits(self.CASES[case], third, rate)

    def test_reads_only_times_and_values(self):
        # a stand-in that forwards times and values, as a tracing proxy does
        class Forwarding:
            def __init__(self, profile):
                self._profile = profile

            def __getattr__(self, name):
                return getattr(self._profile, name)

        base = self.CASES["signed zeros"]
        proxied = ControlProfile(
            alpha=Forwarding(base.alpha), bank=Forwarding(base.bank),
            wb1=Forwarding(base.wb1), thrust=Forwarding(base.thrust),
        )
        t = 12.0
        assert proxied.lookup("bank")(t) == base.lookup("bank")(t)


class TestValidation:
    def test_positive_fields_enforced(self):
        with pytest.raises(ValueError):
            CentralBody(mu=-1.0, radius=1.0, spin_rate=0.0)
        with pytest.raises(ValueError):
            Atmosphere(rho0=1.0, scale_height=0.0)
        with pytest.raises(ValueError):
            AeroModel(s=0.0, cl_alpha=1.0, cd0=0.0, k=0.0)
        with pytest.raises(ValueError):
            Vehicle(mass=0.0)
        with pytest.raises(ValueError):
            ControlProfile(bank_mode="bogus")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "record, valid, field",
        [
            (CentralBody, {"mu": 1.0, "radius": 1.0, "spin_rate": 0.0}, field)
            for field in ("mu", "radius", "spin_rate")
        ]
        + [(Atmosphere, {"rho0": 1.0, "scale_height": 1.0}, field) for field in ("rho0", "scale_height")]
        + [
            (AeroModel, {"s": 1.0, "cl_alpha": 1.0, "cd0": 0.0, "k": 0.0}, field)
            for field in ("s", "cl_alpha", "cd0", "k")
        ]
        + [(Vehicle, {"mass": 1.0, "thrust_offset": 0.0}, field) for field in ("mass", "thrust_offset")],
    )
    def test_every_field_must_be_finite(self, record, valid, field, bad):
        record(**valid)
        with pytest.raises(ValueError, match=f"{field} must be finite, got {bad!r}"):
            record(**{**valid, field: bad})
