"""Unit-quaternion (Euler parameter) algebra for frame-to-frame rotations.

Quaternions are stored vector-first as ``(eps1, eps2, eps3, eta)`` with
``eta`` the scalar part.  A quaternion encodes a direction cosine matrix in
the passive (coordinate-transform) sense: if frame B is obtained by rotating
frame A's basis by ``angle`` about ``axis``, then ``dcm_from_quat(q) @ p_A``
gives the components of a vector in B's basis from its components in A's
basis.

A quaternion is any sequence of four floats, such as a slice of a state
row, or four columns of a stack of rows (n, 4).  This module holds what the
state conversions and diagnostics use: the direction cosine matrix of a
quaternion, one at a time or over row stacks, and its entries in floats;
:func:`twist`, a frame turned about its own first axis, which is all that
separates the gauges of the two-quaternion forms; and the renormalization
of row stacks.  Nothing here turns a matrix back into a quaternion.  The
axis-angle forms and the rate kinematics that the tests check these
against live in ``tests/reference.py``.

All operations are pure functions that do not modify their arguments and
are safe to call concurrently.
"""

from __future__ import annotations

import math

import numpy as np

UNIT_NORM_TOL = 1e-12


def dcm_from_quat(q) -> np.ndarray:
    """Direction cosine matrix from Euler parameters ``q``, any 4-sequence (passive convention)."""
    return np.array(dcm_entries(*map(float, q))).reshape(3, 3)


def dcm_rows(q) -> np.ndarray:
    """Row-stacked :func:`dcm_from_quat`: Euler parameters (n, 4) to DCMs (n, 3, 3)."""
    return np.stack(dcm_entries(q[:, 0], q[:, 1], q[:, 2], q[:, 3]), axis=1).reshape(-1, 3, 3)


def dcm_entries(e1, e2, e3, eta):
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


def twist(q, angle: float) -> np.ndarray:
    """Euler parameters of the frame of ``q`` turned about its own first axis by ``angle``.

    The product of ``q`` with the half-angle quaternion of the turn, in
    floats: with ``s = sin(angle / 2)`` and ``c = cos(angle / 2)`` it is
    ``(c e1 + s eta, c e2 + s e3, c e3 - s e2, c eta - s e1)``, so
    ``dcm_from_quat`` of the result is the turn's matrix times that of
    ``q``.  The scalar part of the result is non-negative; when it is
    exactly zero the largest vector component is made positive.
    """
    e1, e2, e3, eta = map(float, q)
    s, c = math.sin(0.5 * angle), math.cos(0.5 * angle)
    out = np.array([c * e1 + s * eta, c * e2 + s * e3, c * e3 - s * e2, c * eta - s * e1])
    if out[3] < 0.0 or (out[3] == 0.0 and out[np.argmax(np.abs(out[:3]))] < 0.0):
        out = -out
    return out


def renormalize_rows(q) -> np.ndarray:
    """Each row of Euler parameters ``q`` (n, 4) over its norm.

    Raises ``ValueError`` for the first offending row: a zero norm, or a
    result off unit norm by more than ``UNIT_NORM_TOL``, its squares summed
    in component order.
    """
    n = row_norms(q)
    if (n == 0.0).any():
        raise ValueError("cannot renormalize a zero-norm quaternion")
    u = q / n[:, None]
    e1, e2, e3, eta = u[:, 0], u[:, 1], u[:, 2], u[:, 3]
    un = np.sqrt(e1 * e1 + e2 * e2 + e3 * e3 + eta * eta)
    bad = ~(np.abs(un - 1.0) <= UNIT_NORM_TOL)
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
