import math

import numpy as np
import pytest

from quatflight.dynamics import PARAMETERIZATIONS, rvl_twist
from quatflight.errors import SingularityError
from quatflight.quat import dcm_from_quat, twist
from quatflight.states import (
    ANGULAR_MOMENTUM_FLOOR,
    CartesianState,
    cartesian_to_rv,
    cartesian_to_spherical,
    rv_to_rvh,
)

from reference import (
    IDENTITY,
    AxisAngle,
    constant_controls,
    dcm_from_axis_angle,
    initial_row,
    rv_row,
    rvh_row,
    unit,
)

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
        c = PARAMETERIZATIONS["rv"].to_cartesian(rv_row(7e6, IDENTITY, 500.0, IDENTITY))
        np.testing.assert_allclose(c.position, [7e6, 0, 0], atol=1e-9)
        np.testing.assert_allclose(c.velocity, [500.0, 0, 0], atol=1e-12)

    def test_entry_fixture_velocity_perpendicular(self):
        qb = (HALF_SQRT2, HALF_SQRT2, 0.0, 0.0)
        c = PARAMETERIZATIONS["rv"].to_cartesian(rv_row(R_EARTH + 37e3, IDENTITY, 7138.0, qb))
        cos_angle = float(np.dot(c.position, c.velocity)) / (c.r * c.v)
        assert abs(cos_angle) < 1e-12
        np.testing.assert_allclose(c.velocity, [0.0, 7138.0, 0.0], atol=1e-9)

    def test_round_trip_preserves_physical_state(self):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            c = random_cartesian(rng)
            y = cartesian_to_rv(c)
            back = PARAMETERIZATIONS["rv"].to_cartesian(y)
            np.testing.assert_allclose(back.position, c.position, rtol=1e-10, atol=1e-8)
            np.testing.assert_allclose(back.velocity, c.velocity, rtol=1e-10, atol=1e-10)
            assert abs(y[0] - c.r) <= 1e-12 * c.r
            assert abs(y[5] - c.v) <= 1e-12 * c.v

    def test_axis_aligned_gauge(self):
        c = CartesianState([R_EARTH, 0, 0], [0, 400.0, 0])
        y = cartesian_to_rv(c)
        np.testing.assert_allclose(y[1:5], [0, 0, 0, 1], atol=1e-15)
        np.testing.assert_allclose(y[6:10], [0, 0, HALF_SQRT2, HALF_SQRT2], atol=1e-15)

    def test_vertical_ascent_identity_gauge(self):
        c = CartesianState([R_EARTH, 0, 0], [400.0, 0, 0])
        y = cartesian_to_rv(c)
        np.testing.assert_allclose(y[6:10], [0, 0, 0, 1], atol=1e-15)

    def test_antipodal_tie_break(self):
        c = CartesianState([R_EARTH, 0, 0], [-400.0, 0, 0])
        y = cartesian_to_rv(c)
        # half turn about the third axis, exactly
        assert y[6:10].tolist() == [0.0, 0.0, 1.0, 0.0]
        back = PARAMETERIZATIONS["rv"].to_cartesian(y)
        np.testing.assert_allclose(back.position, c.position, rtol=1e-12)
        np.testing.assert_allclose(back.velocity, c.velocity, rtol=1e-12)

    def test_degenerate_velocity_rejected(self):
        c = CartesianState([R_EARTH, 0, 0], [0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="degenerate"):
            cartesian_to_rv(c)


def rvh_from_cartesian(c):
    # the rvh row of a physical state: its rv row, regauged
    return rv_to_rvh(cartesian_to_rv(c))


class TestRvhCartesian:
    def test_perpendicular_geometry(self):
        c = CartesianState([7e6, 0, 0], [0, 7000.0, 0])
        r, *_, v, eps_b3, eta_b = rvh_from_cartesian(c)
        np.testing.assert_allclose([eps_b3, eta_b], [HALF_SQRT2, HALF_SQRT2], atol=1e-12)
        h = 2.0 * r * v * eps_b3 * eta_b
        assert abs(h - 7e6 * 7000.0) < 1e-3

    def test_thirty_degree_angle(self):
        # velocity 30 degrees off the position direction: h = 0.5 r v
        v = 3000.0
        c = CartesianState(
            [7e6, 0, 0], [v * math.cos(math.pi / 6), v * math.sin(math.pi / 6), 0]
        )
        r, *_, speed, eps_b3, eta_b = rvh_from_cartesian(c)
        h = 2.0 * r * speed * eps_b3 * eta_b
        np.testing.assert_allclose(h, 0.5 * 7e6 * v, rtol=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(103)
        for _ in range(500):
            c = random_cartesian(rng)
            back = PARAMETERIZATIONS["rvh"].to_cartesian(rvh_from_cartesian(c))
            np.testing.assert_allclose(back.position, c.position, rtol=1e-10, atol=1e-8)
            np.testing.assert_allclose(back.velocity, c.velocity, rtol=1e-10, atol=1e-9)

    def test_h_consistency(self):
        rng = np.random.default_rng(107)
        for _ in range(500):
            c = random_cartesian(rng)
            r, *_, v, eps_b3, eta_b = rvh_from_cartesian(c)
            h_param = 2.0 * r * v * eps_b3 * eta_b
            h_true = float(np.linalg.norm(np.cross(c.position, c.velocity)))
            np.testing.assert_allclose(h_param, h_true, rtol=1e-10)

    def test_gauge(self):
        # A's third axis lies along r x v, and both scalar parts are
        # non-negative
        rng = np.random.default_rng(127)
        for _ in range(500):
            c = random_cartesian(rng)
            y = rvh_from_cartesian(c)
            h = np.cross(c.position, c.velocity)
            np.testing.assert_allclose(dcm_from_quat(y[1:5])[2], h / np.linalg.norm(h), atol=1e-12)
            assert y[4] >= 0.0 and y[7] >= 0.0

    def test_vertical_flight_rejected(self):
        c = CartesianState([7e6, 0, 0], [-300.0, 0, 0])
        with pytest.raises(SingularityError, match="zero angular momentum"):
            rvh_from_cartesian(c)

    @pytest.mark.parametrize("speed", [1e-3, 7000.0])
    def test_angular_momentum_floor(self, speed):
        # r v sin(angle) is the relative angular momentum; the row exists
        # only above ANGULAR_MOMENTUM_FLOOR
        r = 7e6
        for factor, singular in ((0.5, True), (2.0, False)):
            h = factor * ANGULAR_MOMENTUM_FLOOR
            qb = (0.0, 0.0, math.sin(0.5 * h / (r * speed)), math.cos(0.5 * h / (r * speed)))
            y = rv_row(r, IDENTITY, speed, qb)
            if singular:
                with pytest.raises(SingularityError, match="zero angular momentum"):
                    rv_to_rvh(y)
            else:
                assert 2.0 * r * speed * rv_to_rvh(y)[6] == pytest.approx(h, rel=1e-12)


class TestSphericalCartesian:
    def test_equatorial_eastward(self):
        c = CartesianState([R_EARTH, 0, 0], [0, 400.0, 0])
        r, lon, lat, v, gamma, psi = cartesian_to_spherical(c)
        assert abs(lat) < 1e-12 and abs(lon) < 1e-12
        assert abs(gamma) < 1e-12
        np.testing.assert_allclose(psi, math.pi / 2, atol=1e-12)

    def test_purely_radial_velocity(self):
        c = CartesianState([R_EARTH, 0, 0], [400.0, 0, 0])
        r, lon, lat, v, gamma, psi = cartesian_to_spherical(c)
        np.testing.assert_allclose(gamma, math.pi / 2, atol=1e-12)
        assert psi == 0.0

    def test_round_trip(self):
        rng = np.random.default_rng(109)
        n = 0
        while n < 500:
            c = random_cartesian(rng)
            y = cartesian_to_spherical(c)
            if abs(y[4]) > math.pi / 2 - 1e-6:
                continue
            n += 1
            back = PARAMETERIZATIONS["spherical"].to_cartesian(y)
            np.testing.assert_allclose(back.position, c.position, rtol=1e-10, atol=1e-7)
            np.testing.assert_allclose(back.velocity, c.velocity, rtol=1e-10, atol=1e-9)

    @pytest.mark.parametrize("off", [1e-2, 1e-8, 0.0])
    def test_round_trip_near_a_pole_and_near_vertical(self, off):
        # latitude and flight-path angle come from atan2, which keeps every
        # digit where an asin loses about sqrt(eps): 1e-8 rad off the pole
        # that is 0.065 m here, where the asin latitude put the position
        # 3.2 cm off
        r = R_EARTH + 1e5
        position = [r * math.sin(off), 0.0, r * math.cos(off)]
        for velocity in ([300.0, 7000.0, 10.0], [1e-6 * off, 0.0, -300.0]):
            c = CartesianState(position, velocity)
            back = PARAMETERIZATIONS["spherical"].to_cartesian(cartesian_to_spherical(c))
            np.testing.assert_allclose(back.position, c.position, rtol=0, atol=1e-15 * r)
            np.testing.assert_allclose(back.velocity, c.velocity, rtol=0, atol=1e-15 * c.v)


class TestTwist:
    def test_twist_moves_b2_toward_b3(self):
        rng = np.random.default_rng(131)
        qb = unit(rng.normal(size=4))
        tau = 0.73
        c0 = dcm_from_quat(qb)
        c1 = dcm_from_quat(twist(qb, tau))
        # b1 unchanged, first column of C_BA unchanged in direction
        np.testing.assert_allclose(c1[:, 0][0], c0[:, 0][0], atol=1e-12)
        b2_new_in_old = np.array(
            [0.0, math.cos(tau), math.sin(tau)]
        )  # rows are basis vectors
        np.testing.assert_allclose(
            c1[1, :], b2_new_in_old @ np.vstack([c0[0, :], c0[1, :], c0[2, :]]), atol=1e-12
        )

    def test_matrix_is_the_turn_times_the_frame(self):
        rng = np.random.default_rng(137)
        for _ in range(500):
            q = unit(rng.normal(size=4))
            angle = rng.uniform(-2.0 * math.pi, 2.0 * math.pi)
            turn = dcm_from_axis_angle(AxisAngle(np.array([1.0, 0.0, 0.0]), angle))
            out = twist(q, angle)
            np.testing.assert_allclose(dcm_from_quat(out), turn @ dcm_from_quat(q), atol=1e-12)
            assert out[3] >= 0.0
            assert abs(float(np.linalg.norm(out)) - 1.0) < 1e-15

    @pytest.mark.parametrize(
        "q, expected",
        [
            ((0.0, 0.0, 0.0, -1.0), [0.0, 0.0, 0.0, 1.0]),
            # a zero scalar part: the largest vector component turns positive
            ((0.0, -1.0, 0.0, 0.0), [0.0, 1.0, 0.0, 0.0]),
            ((0.6, -0.8, 0.0, 0.0), [-0.6, 0.8, 0.0, 0.0]),
            ((-0.8, 0.6, 0.0, 0.0), [0.8, -0.6, 0.0, 0.0]),
        ],
    )
    def test_sign_rule(self, q, expected):
        assert twist(q, 0.0).tolist() == expected


class TestStateValidation:
    # a state's validity rules live in its form's row conversion
    @pytest.mark.parametrize("position, velocity", [
        (np.zeros(2), np.ones(3)), (np.ones(3), np.ones(4)), (np.ones((1, 3)), np.ones(3)), (1.0, np.ones(3)),
    ])
    def test_cartesian_state_takes_two_3_vectors(self, position, velocity):
        with pytest.raises(ValueError, match="^position and velocity must be 3-vectors$"):
            CartesianState(position, velocity)

    @pytest.mark.parametrize("position", [[0.0, 0.0, 0.0], [-0.0, 0.0, -0.0], [math.nan, 0.0, 0.0]])
    def test_cartesian_state_position_nonzero(self, position):
        with pytest.raises(ValueError, match="^position must be nonzero$"):
            CartesianState(np.array(position), np.array([0.0, 100.0, 0.0]))

    def test_spherical_of_zero_velocity_rejected(self):
        state = CartesianState(np.array([R_EARTH, 0.0, 0.0]), np.zeros(3))
        with pytest.raises(ValueError, match="^degenerate state: zero velocity$"):
            cartesian_to_spherical(state)

    def test_rv_rejects_nonpositive(self):
        to_cartesian = PARAMETERIZATIONS["rv"].to_cartesian
        with pytest.raises(ValueError, match="radius must be positive, got -1.0"):
            to_cartesian(rv_row(-1.0, IDENTITY, 1.0, IDENTITY))
        with pytest.raises(ValueError, match="speed must be positive, got 0.0"):
            to_cartesian(rv_row(1.0, IDENTITY, 0.0, IDENTITY))
        with pytest.raises(ValueError, match="zero-norm quaternion"):
            to_cartesian(rv_row(1.0, IDENTITY, 1.0, (0.0, 0.0, 0.0, 0.0)))
        # NaN fails every rule
        with pytest.raises(ValueError, match="radius must be positive, got nan"):
            to_cartesian([math.nan, 0, 0, 0, 1, 1.0, 0, 0, 0, 1])
        with pytest.raises(ValueError, match="speed must be positive, got nan"):
            to_cartesian(rv_row(1.0, IDENTITY, math.nan, IDENTITY))
        with pytest.raises(ValueError, match="quaternion norm nan violates"):
            to_cartesian(rv_row(1.0, IDENTITY, 1.0, (math.nan, 0.0, 0.0, 1.0)))

    def test_rvh_rejects_nonpositive(self):
        to_cartesian = PARAMETERIZATIONS["rvh"].to_cartesian
        with pytest.raises(ValueError, match="radius must be positive, got 0.0"):
            to_cartesian(rvh_row(0.0, IDENTITY, 1.0, 0.6, 0.8))
        with pytest.raises(ValueError, match="speed must be positive, got -2.0"):
            to_cartesian(rvh_row(1e6, IDENTITY, -2.0, 0.6, 0.8))
        with pytest.raises(ValueError, match="zero-norm quaternion"):
            to_cartesian(rvh_row(1e6, (0.0, 0.0, 0.0, 0.0), 1.0, 0.6, 0.8))

    def test_rvh_pair_norm(self):
        to_cartesian = PARAMETERIZATIONS["rvh"].to_cartesian
        # the pair converts as the quaternion (0, 0, eps_b3, eta_b)
        with pytest.raises(ValueError, match="zero-norm quaternion"):
            to_cartesian(rvh_row(1e6, IDENTITY, 1.0, 0.0, 0.0))
        # a subnormal pair's squares vanish
        with pytest.raises(ValueError, match="zero-norm quaternion"):
            to_cartesian(rvh_row(1e6, IDENTITY, 1.0, 5e-324, 5e-324))
        # squares near the underflow threshold lose bits of the norm
        with pytest.raises(ValueError, match="quaternion norm 1.0000055664551364 violates unit"):
            to_cartesian(rvh_row(1e6, IDENTITY, 1.0, 1e-160, 1e-160))
        # any other pair converts as the unit pair along it
        off = to_cartesian(rvh_row(1e6, IDENTITY, 1.0, 0.5, 0.5))
        on = to_cartesian(rvh_row(1e6, IDENTITY, 1.0, HALF_SQRT2, HALF_SQRT2))
        np.testing.assert_allclose(off.position, on.position, rtol=1e-15, atol=0)
        np.testing.assert_allclose(off.velocity, on.velocity, rtol=0, atol=1e-15)

    @pytest.mark.parametrize(
        "col, value, message",
        [
            (0, -1.0, "radius must be positive"),
            (2, 2.0, "latitude 2.0 outside"),
            (2, -math.pi / 2 - 1e-11, "latitude .* outside"),
            (4, 1.6, "flight path angle 1.6 outside"),
            (2, math.nan, "latitude nan outside"),
            (4, math.nan, "flight path angle nan outside"),
        ],
    )
    def test_spherical_bounds(self, col, value, message):
        y = np.array([1e6, 0.0, 0.0, 1.0, 0.0, 0.0])
        y[col] = value
        with pytest.raises(ValueError, match=message):
            PARAMETERIZATIONS["spherical"].to_cartesian(y)
        # the bounds are closed, with 1e-12 rad of slack
        edge = math.pi / 2 + 1e-13
        PARAMETERIZATIONS["spherical"].to_cartesian([1e6, 0.0, edge, 1.0, -edge, 0.0])


def rvl_from_cartesian(c, bank=0.0):
    # sigma bank mode: the lift gauge twists B about b1 by the bank at t0
    return initial_row("rvl", c, constant_controls(bank=bank))


class TestRvlGauge:
    def test_zero_twist_matches_rv(self):
        rng = np.random.default_rng(139)
        c = random_cartesian(rng)
        assert np.array_equal(rvl_from_cartesian(c), cartesian_to_rv(c))

    def test_twist_preserves_physical_state(self):
        rng = np.random.default_rng(149)
        for _ in range(100):
            c = random_cartesian(rng)
            y = rvl_from_cartesian(c, bank=rng.uniform(-math.pi, math.pi))
            back = PARAMETERIZATIONS["rv"].to_cartesian(y)
            np.testing.assert_allclose(back.position, c.position, rtol=1e-10)
            np.testing.assert_allclose(back.velocity, c.velocity, rtol=1e-9, atol=1e-8)

    def test_beta_mode_in_vertical_flight_adds_no_half_turn(self):
        # B turned about the shared first axis by 2h < 0: b21 is -0.0 and
        # b31 is 0.0, and the plane offset is atan2(b31, b21 + 0.0) = 0, as
        # the rv derivative takes it, not pi
        h = -0.4
        qb = (math.sin(h), 0.0, 0.0, math.cos(h))
        out = rvl_twist(qb, constant_controls(bank=0.3, bank_mode="beta"), 0.0)
        assert out.tobytes() == twist(qb, 0.3).tobytes()
        np.testing.assert_allclose(out, [math.sin(h + 0.15), 0.0, 0.0, math.cos(h + 0.15)], atol=1e-15)
