import math

import numpy as np
import pytest

from quatflight.controls import ControlProfile
from quatflight.dynamics import PARAMETERIZATIONS
from quatflight.errors import SingularityError
from quatflight.quat import UnitQuaternion, dcm_from_quat, renormalize
from quatflight.states import (
    CartesianState,
    RvhState,
    RvState,
    SphericalState,
    cartesian_to_rv,
    cartesian_to_rvh,
    cartesian_to_spherical,
    twist_about_b1,
)

from reference import rv_state_from_array, rvh_state_from_array

HALF_SQRT2 = math.sqrt(2.0) / 2.0
R_EARTH = 6378137.0


def random_cartesian(rng):
    pos = rng.normal(size=3)
    pos = (R_EARTH + rng.uniform(1e5, 1e6)) * pos / np.linalg.norm(pos)
    vel = rng.normal(size=3)
    vel = rng.uniform(100.0, 8000.0) * vel / np.linalg.norm(vel)
    return CartesianState(pos, vel)


class TestRvCartesian:
    def test_aligned_frames(self):
        s = RvState(r=7e6, qa=UnitQuaternion.identity(), v=500.0, qb=UnitQuaternion.identity())
        c = PARAMETERIZATIONS["rv"].to_cartesian(s.to_array())
        np.testing.assert_allclose(c.position, [7e6, 0, 0], atol=1e-9)
        np.testing.assert_allclose(c.velocity, [500.0, 0, 0], atol=1e-12)

    def test_entry_fixture_velocity_perpendicular(self):
        qb = UnitQuaternion(HALF_SQRT2, HALF_SQRT2, 0.0, 0.0)
        s = RvState(r=R_EARTH + 37e3, qa=UnitQuaternion.identity(), v=7138.0, qb=qb)
        c = PARAMETERIZATIONS["rv"].to_cartesian(s.to_array())
        cos_angle = float(np.dot(c.position, c.velocity)) / (c.r * c.v)
        assert abs(cos_angle) < 1e-12
        np.testing.assert_allclose(c.velocity, [0.0, 7138.0, 0.0], atol=1e-9)

    def test_round_trip_preserves_physical_state(self):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            c = random_cartesian(rng)
            s = cartesian_to_rv(c)
            back = PARAMETERIZATIONS["rv"].to_cartesian(s.to_array())
            np.testing.assert_allclose(back.position, c.position, rtol=1e-10, atol=1e-8)
            np.testing.assert_allclose(back.velocity, c.velocity, rtol=1e-10, atol=1e-10)
            assert abs(s.r - c.r) <= 1e-12 * c.r
            assert abs(s.v - c.v) <= 1e-12 * c.v

    def test_axis_aligned_gauge(self):
        c = CartesianState([R_EARTH, 0, 0], [0, 400.0, 0])
        s = cartesian_to_rv(c)
        np.testing.assert_allclose(s.qa.as_array(), [0, 0, 0, 1], atol=1e-15)
        np.testing.assert_allclose(
            s.qb.as_array(), [0, 0, HALF_SQRT2, HALF_SQRT2], atol=1e-15
        )

    def test_vertical_ascent_identity_gauge(self):
        c = CartesianState([R_EARTH, 0, 0], [400.0, 0, 0])
        s = cartesian_to_rv(c)
        np.testing.assert_allclose(s.qb.as_array(), [0, 0, 0, 1], atol=1e-15)

    def test_antipodal_tie_break(self):
        c = CartesianState([R_EARTH, 0, 0], [-400.0, 0, 0])
        s = cartesian_to_rv(c)
        # half turn about the third axis, exactly
        assert s.qb.as_array().tolist() == [0.0, 0.0, 1.0, 0.0]
        back = PARAMETERIZATIONS["rv"].to_cartesian(s.to_array())
        np.testing.assert_allclose(back.position, c.position, rtol=1e-12)
        np.testing.assert_allclose(back.velocity, c.velocity, rtol=1e-12)

    def test_degenerate_velocity_rejected(self):
        c = CartesianState([R_EARTH, 0, 0], [0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="degenerate"):
            cartesian_to_rv(c)


class TestRvhCartesian:
    def test_perpendicular_geometry(self):
        c = CartesianState([7e6, 0, 0], [0, 7000.0, 0])
        s = cartesian_to_rvh(c)
        np.testing.assert_allclose([s.eps_b3, s.eta_b], [HALF_SQRT2, HALF_SQRT2], atol=1e-12)
        h = 2.0 * s.r * s.v * s.eps_b3 * s.eta_b
        assert abs(h - 7e6 * 7000.0) < 1e-3

    def test_thirty_degree_angle(self):
        # velocity 30 degrees off the position direction: h = 0.5 r v
        v = 3000.0
        c = CartesianState(
            [7e6, 0, 0], [v * math.cos(math.pi / 6), v * math.sin(math.pi / 6), 0]
        )
        s = cartesian_to_rvh(c)
        h = 2.0 * s.r * s.v * s.eps_b3 * s.eta_b
        np.testing.assert_allclose(h, 0.5 * 7e6 * v, rtol=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(103)
        for _ in range(500):
            c = random_cartesian(rng)
            s = cartesian_to_rvh(c)
            back = PARAMETERIZATIONS["rvh"].to_cartesian(s.to_array())
            np.testing.assert_allclose(back.position, c.position, rtol=1e-10, atol=1e-8)
            np.testing.assert_allclose(back.velocity, c.velocity, rtol=1e-10, atol=1e-9)

    def test_h_consistency(self):
        rng = np.random.default_rng(107)
        for _ in range(500):
            c = random_cartesian(rng)
            s = cartesian_to_rvh(c)
            h_param = 2.0 * s.r * s.v * s.eps_b3 * s.eta_b
            h_true = float(np.linalg.norm(np.cross(c.position, c.velocity)))
            np.testing.assert_allclose(h_param, h_true, rtol=1e-10)

    def test_vertical_flight_rejected(self):
        c = CartesianState([7e6, 0, 0], [-300.0, 0, 0])
        with pytest.raises(SingularityError, match="zero angular momentum"):
            cartesian_to_rvh(c)


class TestSphericalCartesian:
    def test_equatorial_eastward(self):
        c = CartesianState([R_EARTH, 0, 0], [0, 400.0, 0])
        s = cartesian_to_spherical(c)
        assert abs(s.lat) < 1e-12 and abs(s.lon) < 1e-12
        assert abs(s.gamma) < 1e-12
        np.testing.assert_allclose(s.psi, math.pi / 2, atol=1e-12)

    def test_purely_radial_velocity(self):
        c = CartesianState([R_EARTH, 0, 0], [400.0, 0, 0])
        s = cartesian_to_spherical(c)
        np.testing.assert_allclose(s.gamma, math.pi / 2, atol=1e-12)
        assert s.psi == 0.0

    def test_round_trip(self):
        rng = np.random.default_rng(109)
        n = 0
        while n < 500:
            c = random_cartesian(rng)
            s = cartesian_to_spherical(c)
            if abs(s.gamma) > math.pi / 2 - 1e-6:
                continue
            n += 1
            back = PARAMETERIZATIONS["spherical"].to_cartesian(s.to_array())
            np.testing.assert_allclose(back.position, c.position, rtol=1e-10, atol=1e-7)
            np.testing.assert_allclose(back.velocity, c.velocity, rtol=1e-10, atol=1e-9)


class TestTwist:
    def test_twist_moves_b2_toward_b3(self):
        rng = np.random.default_rng(131)
        qb = renormalize(rng.normal(size=4))
        tau = 0.73
        c0 = dcm_from_quat(qb)
        c1 = dcm_from_quat(twist_about_b1(qb, tau))
        # b1 unchanged, first column of C_BA unchanged in direction
        np.testing.assert_allclose(c1[:, 0][0], c0[:, 0][0], atol=1e-12)
        b2_new_in_old = np.array(
            [0.0, math.cos(tau), math.sin(tau)]
        )  # rows are basis vectors
        np.testing.assert_allclose(
            c1[1, :], b2_new_in_old @ np.vstack([c0[0, :], c0[1, :], c0[2, :]]), atol=1e-12
        )


class TestStateValidation:
    def test_rv_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            RvState(r=-1.0, qa=UnitQuaternion.identity(), v=1.0, qb=UnitQuaternion.identity())
        with pytest.raises(ValueError):
            RvState(r=1.0, qa=UnitQuaternion.identity(), v=0.0, qb=UnitQuaternion.identity())

    def test_rvh_pair_norm(self):
        with pytest.raises(ValueError):
            RvhState(r=1e6, qa=UnitQuaternion.identity(), v=1.0, eps_b3=0.5, eta_b=0.5)

    def test_spherical_bounds(self):
        with pytest.raises(ValueError):
            SphericalState(r=1e6, lon=0.0, lat=2.0, v=1.0, gamma=0.0, psi=0.0)

    def test_array_round_trip(self):
        rng = np.random.default_rng(137)
        c = random_cartesian(rng)
        s = cartesian_to_rv(c)
        s2 = rv_state_from_array(s.to_array())
        np.testing.assert_allclose(s2.to_array(), s.to_array(), atol=1e-15)
        sh = cartesian_to_rvh(c)
        sh2 = rvh_state_from_array(sh.to_array())
        np.testing.assert_allclose(sh2.to_array(), sh.to_array(), atol=1e-15)


def rvl_from_cartesian(c, twist=0.0):
    # sigma bank mode: the lift gauge twists B about b1 by the bank at t0
    return PARAMETERIZATIONS["rvl"].from_cartesian(c, ControlProfile.constant(bank=twist), 0.0)


class TestRvlGauge:
    def test_zero_twist_matches_rv(self):
        rng = np.random.default_rng(139)
        c = random_cartesian(rng)
        assert np.array_equal(rvl_from_cartesian(c), cartesian_to_rv(c).to_array())

    def test_twist_preserves_physical_state(self):
        rng = np.random.default_rng(149)
        for _ in range(100):
            c = random_cartesian(rng)
            s = rv_state_from_array(rvl_from_cartesian(c, twist=rng.uniform(-math.pi, math.pi)))
            back = PARAMETERIZATIONS["rv"].to_cartesian(s.to_array())
            np.testing.assert_allclose(back.position, c.position, rtol=1e-10)
            np.testing.assert_allclose(back.velocity, c.velocity, rtol=1e-9, atol=1e-8)
