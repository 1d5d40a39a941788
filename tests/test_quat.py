import math

import numpy as np
import pytest

from quatflight.quat import dcm_from_quat, renormalize_rows

from reference import (
    IDENTITY,
    AxisAngle,
    dcm_from_axis_angle,
    omega_from_rate_arrays,
    quat_from_axis_angle,
    quat_rates,
    skew,
    unit,
)

HALF_SQRT2 = math.sqrt(2.0) / 2.0


def random_unit_quaternion(rng):
    return unit(rng.normal(size=4))


def random_axis_angle(rng):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return AxisAngle(axis, rng.uniform(-math.pi, math.pi))


class TestSkew:
    def test_zero_vector(self):
        assert np.array_equal(skew([0.0, 0.0, 0.0]), np.zeros((3, 3)))

    def test_unit_x(self):
        expected = np.array([[0, 0, 0], [0, 0, -1], [0, 1, 0]], dtype=float)
        assert np.array_equal(skew([1.0, 0.0, 0.0]), expected)

    def test_self_product_vanishes(self):
        p = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(skew(p) @ p, np.zeros(3))

    def test_matches_cross_product(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p, q = rng.normal(size=3), rng.normal(size=3)
            np.testing.assert_allclose(skew(p) @ q, np.cross(p, q), atol=1e-12)

    def test_antisymmetric(self):
        m = skew([0.3, -1.2, 2.5])
        assert np.array_equal(m, -m.T)


class TestAxisAngleDcm:
    def test_zero_angle_is_identity(self):
        c = dcm_from_axis_angle(AxisAngle(np.array([1.0, 0.0, 0.0]), 0.0))
        np.testing.assert_allclose(c, np.eye(3), atol=1e-15)

    def test_quarter_turn_about_third_axis(self):
        c = dcm_from_axis_angle(AxisAngle(np.array([0.0, 0.0, 1.0]), math.pi / 2))
        expected = np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 1]], dtype=float)
        np.testing.assert_allclose(c, expected, atol=1e-15)

    def test_agrees_with_quaternion_path(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            aa = random_axis_angle(rng)
            direct = dcm_from_axis_angle(aa)
            via_quat = dcm_from_quat(quat_from_axis_angle(aa))
            np.testing.assert_allclose(direct, via_quat, atol=1e-14)

    def test_orthonormal_unit_determinant(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            c = dcm_from_axis_angle(random_axis_angle(rng))
            np.testing.assert_allclose(c @ c.T, np.eye(3), atol=1e-10)
            assert abs(np.linalg.det(c) - 1.0) < 1e-10

    def test_non_unit_axis_rejected(self):
        with pytest.raises(ValueError):
            AxisAngle(np.array([1.0, 1.0, 0.0]), 0.1)


class TestQuatFromAxisAngle:
    def test_zero_angle(self):
        q = quat_from_axis_angle(AxisAngle(np.array([0.0, 1.0, 0.0]), 0.0))
        assert q.tolist() == [0.0, 0.0, 0.0, 1.0]

    def test_half_turn_about_third_axis(self):
        q = quat_from_axis_angle(AxisAngle(np.array([0.0, 0.0, 1.0]), math.pi))
        np.testing.assert_allclose(q, [0, 0, 1, 0], atol=1e-15)

    def test_quarter_turn_about_third_axis(self):
        q = quat_from_axis_angle(AxisAngle(np.array([0.0, 0.0, 1.0]), math.pi / 2))
        np.testing.assert_allclose(q, [0, 0, HALF_SQRT2, HALF_SQRT2], atol=1e-15)


class TestDcmFromQuat:
    def test_identity_quaternion(self):
        np.testing.assert_allclose(
            dcm_from_quat(IDENTITY), np.eye(3), atol=1e-15
        )

    def test_quarter_turn(self):
        q = [0.0, 0.0, HALF_SQRT2, HALF_SQRT2]
        expected = np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 1]], dtype=float)
        np.testing.assert_allclose(dcm_from_quat(q), expected, atol=1e-15)

    def test_cyclic_permutation(self):
        # 120 degrees about (1,1,1)/sqrt(3)
        q = np.array([0.5, 0.5, 0.5, 0.5])
        expected = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float)
        np.testing.assert_allclose(dcm_from_quat(q), expected, atol=1e-15)

    def test_orthonormality_random(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            c = dcm_from_quat(random_unit_quaternion(rng))
            np.testing.assert_allclose(c @ c.T, np.eye(3), atol=1e-10)
            assert abs(np.linalg.det(c) - 1.0) < 1e-10


class TestQuatRates:
    def test_identity_attitude_spin_about_one_axis(self):
        qdot = quat_rates(IDENTITY, [0.4, 0.0, 0.0])
        np.testing.assert_allclose(qdot, [0.2, 0, 0, 0], atol=1e-15)

    def test_zero_angular_velocity(self):
        rng = np.random.default_rng(37)
        q = random_unit_quaternion(rng)
        assert np.array_equal(quat_rates(q, [0.0, 0.0, 0.0]), np.zeros(4))

    def test_norm_preservation_differential(self):
        rng = np.random.default_rng(41)
        for _ in range(1000):
            q = random_unit_quaternion(rng)
            qdot = quat_rates(q, rng.normal(size=3))
            assert abs(float(np.dot(q, qdot))) < 1e-14

    def test_omega_recovery_round_trip(self):
        rng = np.random.default_rng(43)
        for _ in range(1000):
            q = random_unit_quaternion(rng)
            omega = rng.normal(size=3)
            qdot = quat_rates(q, omega)
            np.testing.assert_allclose(
                omega_from_rate_arrays(qdot, q), omega, atol=1e-12
            )


class TestOmegaFromQuatRates:
    def test_zero_rates(self):
        rng = np.random.default_rng(47)
        q = random_unit_quaternion(rng)
        assert np.array_equal(omega_from_rate_arrays(np.zeros(4), q), np.zeros(3))

    def test_identity_attitude(self):
        w = omega_from_rate_arrays([0.25, 0.0, 0.0, 0.0], IDENTITY)
        np.testing.assert_allclose(w, [0.5, 0, 0], atol=1e-15)


class TestRenormalize:
    # the rows of renormalize_rows; the unit-norm rule of the two-quaternion
    # forms' conversions (rv_rows_to_cartesian) and of the diagnostics
    def test_scales_down(self):
        q = renormalize_rows(np.array([[0.0, 0.0, 0.0, 2.0], [0.0, 3.0, 0.0, 4.0]]))
        assert q.tolist() == [[0.0, 0.0, 0.0, 1.0], [0.0, 0.6, 0.0, 0.8]]

    def test_unit_unchanged(self):
        q = renormalize_rows(np.array([[0.0, 0.0, 0.0, 1.0]]))
        assert q.tolist() == [[0.0, 0.0, 0.0, 1.0]]

    def test_equal_components(self):
        q = renormalize_rows(np.array([[1.0, 1.0, 1.0, 1.0]]))
        np.testing.assert_allclose(q, [[0.5, 0.5, 0.5, 0.5]], atol=1e-16)

    def test_zero_norm_rejected(self):
        rows = np.array([[0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="zero-norm"):
            renormalize_rows(rows)

    def test_result_off_unit_norm_rejected(self):
        # squares near the underflow threshold lose bits of the norm
        with pytest.raises(ValueError, match="quaternion norm .* violates unit constraint"):
            renormalize_rows(np.array([[1e-160, 3e-161, 0.0, 7e-161]]))
