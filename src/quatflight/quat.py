"""Unit-quaternion (Euler parameter) algebra for frame-to-frame rotations.

Quaternions are stored vector-first as ``(eps1, eps2, eps3, eta)`` with
``eta`` the scalar part.  A quaternion encodes a direction cosine matrix in
the passive (coordinate-transform) sense: if frame B is obtained by rotating
frame A's basis by ``angle`` about ``axis``, then ``dcm_from_quat(q) @ p_A``
gives the components of a vector in B's basis from its components in A's
basis.

This module holds what the state conversions and diagnostics use: the
direction cosine matrix of a quaternion, one at a time or over row stacks,
its inverse, and renormalization.  The axis-angle forms and the rate
kinematics that the tests check these against live in ``tests/reference.py``.

All operations are pure functions on immutable values and are safe to call
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

UNIT_NORM_TOL = 1e-12
ORTHONORMALITY_TOL = 1e-8


@dataclass(frozen=True)
class UnitQuaternion:
    """Four Euler parameters with a unit-norm invariant.

    Attributes
    ----------
    eps1, eps2, eps3 : float
        Vector part (direction of the rotation axis scaled by sin(angle/2)).
    eta : float
        Scalar part, cos(angle/2).
    """

    eps1: float
    eps2: float
    eps3: float
    eta: float

    def __post_init__(self):
        n = math.sqrt(
            self.eps1 * self.eps1
            + self.eps2 * self.eps2
            + self.eps3 * self.eps3
            + self.eta * self.eta
        )
        if abs(n - 1.0) > UNIT_NORM_TOL:
            raise ValueError(f"quaternion norm {n!r} violates unit constraint")

    @classmethod
    def identity(cls) -> "UnitQuaternion":
        return cls(0.0, 0.0, 0.0, 1.0)

    @classmethod
    def from_array(cls, q) -> "UnitQuaternion":
        q = np.asarray(q, dtype=float)
        return cls(float(q[0]), float(q[1]), float(q[2]), float(q[3]))

    def as_array(self) -> np.ndarray:
        return np.array([self.eps1, self.eps2, self.eps3, self.eta])


def dcm_from_quat(q: UnitQuaternion) -> np.ndarray:
    """Direction cosine matrix from Euler parameters (passive convention)."""
    return np.array(_dcm_entries(q.eps1, q.eps2, q.eps3, q.eta)).reshape(3, 3)


def dcm_rows(q) -> np.ndarray:
    """Row-stacked :func:`dcm_from_quat`: Euler parameters (n, 4) to DCMs (n, 3, 3)."""
    return np.stack(_dcm_entries(q[:, 0], q[:, 1], q[:, 2], q[:, 3]), axis=1).reshape(-1, 3, 3)


def _dcm_entries(e1, e2, e3, eta):
    """The nine DCM entries, row by row, of floats or, elementwise, of arrays.

    Array arithmetic rounds like float arithmetic, so a stacked matrix has
    the bits of the single one.
    """
    return (
        1.0 - 2.0 * (e2 * e2 + e3 * e3),
        2.0 * (e1 * e2 + e3 * eta),
        2.0 * (e1 * e3 - e2 * eta),
        2.0 * (e2 * e1 - e3 * eta),
        1.0 - 2.0 * (e3 * e3 + e1 * e1),
        2.0 * (e2 * e3 + e1 * eta),
        2.0 * (e3 * e1 + e2 * eta),
        2.0 * (e3 * e2 - e1 * eta),
        1.0 - 2.0 * (e1 * e1 + e2 * e2),
    )


def quat_from_dcm(c) -> UnitQuaternion:
    """Euler parameters of an orthonormal direction cosine matrix.

    Uses a largest-denominator branch selection so the extraction stays
    well conditioned near 180-degree rotations.  The scalar part of the
    result is non-negative; when it is exactly zero the sign is fixed by
    making the largest vector component positive.

    Raises
    ------
    ValueError
        If the matrix is not orthonormal with determinant +1 (residual
        above 1e-8).
    """
    c = np.asarray(c, dtype=float)
    if c.shape != (3, 3):
        raise ValueError("direction cosine matrix must be 3x3")
    residual = float(np.max(np.abs(c @ c.T - np.eye(3))))
    if residual > ORTHONORMALITY_TOL:
        raise ValueError(f"matrix is not orthonormal (residual {residual:.3e})")
    det = float(np.linalg.det(c))
    if abs(det - 1.0) > ORTHONORMALITY_TOL:
        raise ValueError(f"matrix determinant {det!r} is not +1")

    tr = c[0, 0] + c[1, 1] + c[2, 2]
    # Four candidate squared components, each times 4.
    quads = (
        1.0 + 2.0 * c[0, 0] - tr,
        1.0 + 2.0 * c[1, 1] - tr,
        1.0 + 2.0 * c[2, 2] - tr,
        1.0 + tr,
    )
    k = max(range(4), key=lambda i: quads[i])
    if k == 3:
        eta = 0.5 * math.sqrt(quads[3])
        f = 0.25 / eta
        e1 = f * (c[1, 2] - c[2, 1])
        e2 = f * (c[2, 0] - c[0, 2])
        e3 = f * (c[0, 1] - c[1, 0])
    elif k == 0:
        e1 = 0.5 * math.sqrt(quads[0])
        f = 0.25 / e1
        e2 = f * (c[0, 1] + c[1, 0])
        e3 = f * (c[0, 2] + c[2, 0])
        eta = f * (c[1, 2] - c[2, 1])
    elif k == 1:
        e2 = 0.5 * math.sqrt(quads[1])
        f = 0.25 / e2
        e1 = f * (c[0, 1] + c[1, 0])
        e3 = f * (c[1, 2] + c[2, 1])
        eta = f * (c[2, 0] - c[0, 2])
    else:
        e3 = 0.5 * math.sqrt(quads[2])
        f = 0.25 / e3
        e1 = f * (c[0, 2] + c[2, 0])
        e2 = f * (c[1, 2] + c[2, 1])
        eta = f * (c[0, 1] - c[1, 0])

    q = np.array([e1, e2, e3, eta])
    if eta < 0.0 or (eta == 0.0 and q[np.argmax(np.abs(q[:3]))] < 0.0):
        q = -q
    return renormalize(q)


def renormalize(q) -> UnitQuaternion:
    """Rescale a 4-vector to unit norm, preserving its direction.

    Raises
    ------
    ValueError
        If the input norm is zero.
    """
    q = np.asarray(q, dtype=float)
    n = float(np.linalg.norm(q))
    if n == 0.0:
        raise ValueError("cannot renormalize a zero-norm quaternion")
    q = q / n
    return UnitQuaternion(float(q[0]), float(q[1]), float(q[2]), float(q[3]))


def renormalize_rows(q) -> np.ndarray:
    """Row-stacked :func:`renormalize`: each row of ``q`` (n, 4) over its norm.

    Raises ``ValueError`` as :func:`renormalize` does, for the first
    offending row: a zero norm, or a result off unit norm by more than
    ``UNIT_NORM_TOL`` (summed in :class:`UnitQuaternion`'s order).
    """
    n = row_norms(q)
    if (n == 0.0).any():
        raise ValueError("cannot renormalize a zero-norm quaternion")
    u = q / n[:, None]
    e1, e2, e3, eta = u[:, 0], u[:, 1], u[:, 2], u[:, 3]
    un = np.sqrt(e1 * e1 + e2 * e2 + e3 * e3 + eta * eta)
    bad = np.abs(un - 1.0) > UNIT_NORM_TOL
    if bad.any():
        raise ValueError(f"quaternion norm {float(un[bad][0])!r} violates unit constraint")
    return u


def row_norms(x) -> np.ndarray:
    """Euclidean norm of each row of ``x`` (n, k), as ``np.linalg.norm`` gives it per row.

    ``np.linalg.norm(x, axis=1)`` and ``einsum`` sum in other orders and
    can differ in the last bit; the square root of a stacked row-by-row
    product takes the same dot product as the per-row call.
    """
    return np.sqrt(x[:, None, :] @ x[:, :, None])[:, 0, 0]
