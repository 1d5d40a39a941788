import math

import numpy as np
import pytest

from quatflight.quat import UnitQuaternion, dcm_from_quat, quat_from_dcm, renormalize

from reference import (
    AxisAngle,
    dcm_from_axis_angle,
    omega_from_rate_arrays,
    quat_from_axis_angle,
    quat_rates,
    skew,
)

HALF_SQRT2 = math.sqrt(2.0) / 2.0


def random_unit_quaternion(rng):
    q = rng.normal(size=4)
    return renormalize(q)


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
        assert (q.eps1, q.eps2, q.eps3, q.eta) == (0.0, 0.0, 0.0, 1.0)

    def test_half_turn_about_third_axis(self):
        q = quat_from_axis_angle(AxisAngle(np.array([0.0, 0.0, 1.0]), math.pi))
        np.testing.assert_allclose(q.as_array(), [0, 0, 1, 0], atol=1e-15)

    def test_quarter_turn_about_third_axis(self):
        q = quat_from_axis_angle(AxisAngle(np.array([0.0, 0.0, 1.0]), math.pi / 2))
        np.testing.assert_allclose(
            q.as_array(), [0, 0, HALF_SQRT2, HALF_SQRT2], atol=1e-15
        )


class TestDcmFromQuat:
    def test_identity_quaternion(self):
        np.testing.assert_allclose(
            dcm_from_quat(UnitQuaternion.identity()), np.eye(3), atol=1e-15
        )

    def test_quarter_turn(self):
        q = UnitQuaternion(0.0, 0.0, HALF_SQRT2, HALF_SQRT2)
        expected = np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 1]], dtype=float)
        np.testing.assert_allclose(dcm_from_quat(q), expected, atol=1e-15)

    def test_cyclic_permutation(self):
        # 120 degrees about (1,1,1)/sqrt(3)
        q = UnitQuaternion(0.5, 0.5, 0.5, 0.5)
        expected = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float)
        np.testing.assert_allclose(dcm_from_quat(q), expected, atol=1e-15)

    def test_orthonormality_random(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            c = dcm_from_quat(random_unit_quaternion(rng))
            np.testing.assert_allclose(c @ c.T, np.eye(3), atol=1e-10)
            assert abs(np.linalg.det(c) - 1.0) < 1e-10


class TestQuatFromDcm:
    def test_identity(self):
        q = quat_from_dcm(np.eye(3))
        assert (q.eps1, q.eps2, q.eps3, q.eta) == (0.0, 0.0, 0.0, 1.0)

    def test_quarter_turn_inverse(self):
        c = np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 1]], dtype=float)
        q = quat_from_dcm(c)
        np.testing.assert_allclose(
            q.as_array(), [0, 0, HALF_SQRT2, HALF_SQRT2], atol=1e-15
        )

    def test_round_trip_random(self):
        rng = np.random.default_rng(19)
        for _ in range(500):
            c = dcm_from_quat(random_unit_quaternion(rng))
            np.testing.assert_allclose(dcm_from_quat(quat_from_dcm(c)), c, atol=1e-12)

    def test_round_trip_near_half_turns(self):
        # 180-degree rotations exercise every extraction branch
        for axis in np.eye(3):
            c = dcm_from_axis_angle(AxisAngle(axis, math.pi))
            np.testing.assert_allclose(dcm_from_quat(quat_from_dcm(c)), c, atol=1e-12)
        rng = np.random.default_rng(23)
        for _ in range(100):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            c = dcm_from_axis_angle(AxisAngle(axis, math.pi - 1e-7))
            np.testing.assert_allclose(dcm_from_quat(quat_from_dcm(c)), c, atol=1e-12)

    def test_scalar_part_nonnegative(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            q = quat_from_dcm(dcm_from_quat(random_unit_quaternion(rng)))
            assert q.eta >= 0.0

    def test_exact_round_trip_for_positive_scalar_part(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            q = random_unit_quaternion(rng)
            if q.eta < 0:
                q = UnitQuaternion(-q.eps1, -q.eps2, -q.eps3, -q.eta)
            back = quat_from_dcm(dcm_from_quat(q))
            np.testing.assert_allclose(back.as_array(), q.as_array(), atol=1e-12)

    def test_rejects_non_orthonormal(self):
        bad = np.eye(3)
        bad[0, 1] = 1e-4
        with pytest.raises(ValueError, match="orthonormal"):
            quat_from_dcm(bad)

    def test_rejects_reflection(self):
        with pytest.raises(ValueError):
            quat_from_dcm(np.diag([1.0, 1.0, -1.0]))


class TestQuatRates:
    def test_identity_attitude_spin_about_one_axis(self):
        qdot = quat_rates(UnitQuaternion.identity(), [0.4, 0.0, 0.0])
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
            assert abs(float(np.dot(q.as_array(), qdot))) < 1e-14

    def test_omega_recovery_round_trip(self):
        rng = np.random.default_rng(43)
        for _ in range(1000):
            q = random_unit_quaternion(rng)
            omega = rng.normal(size=3)
            qdot = quat_rates(q, omega)
            np.testing.assert_allclose(
                omega_from_rate_arrays(qdot, q.as_array()), omega, atol=1e-12
            )


class TestOmegaFromQuatRates:
    def test_zero_rates(self):
        rng = np.random.default_rng(47)
        q = random_unit_quaternion(rng)
        assert np.array_equal(omega_from_rate_arrays(np.zeros(4), q.as_array()), np.zeros(3))

    def test_identity_attitude(self):
        w = omega_from_rate_arrays([0.25, 0.0, 0.0, 0.0], UnitQuaternion.identity().as_array())
        np.testing.assert_allclose(w, [0.5, 0, 0], atol=1e-15)


class TestRenormalize:
    def test_scales_down(self):
        q = renormalize([0.0, 0.0, 0.0, 2.0])
        assert q.as_array().tolist() == [0.0, 0.0, 0.0, 1.0]

    def test_unit_unchanged(self):
        q = renormalize([0.0, 0.0, 0.0, 1.0])
        assert q.as_array().tolist() == [0.0, 0.0, 0.0, 1.0]

    def test_equal_components(self):
        q = renormalize([1.0, 1.0, 1.0, 1.0])
        np.testing.assert_allclose(q.as_array(), [0.5, 0.5, 0.5, 0.5], atol=1e-16)

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError, match="zero-norm"):
            renormalize([0.0, 0.0, 0.0, 0.0])


class TestUnitQuaternionInvariant:
    def test_norm_enforced_at_construction(self):
        with pytest.raises(ValueError):
            UnitQuaternion(0.5, 0.5, 0.5, 0.6)

    def test_tolerance_is_tight(self):
        with pytest.raises(ValueError):
            UnitQuaternion(0.0, 0.0, 0.0, 1.0 + 1e-9)
