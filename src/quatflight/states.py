"""Flight states as flat float64 rows, and the conversions between forms.

Every form of ``dynamics.PARAMETERIZATIONS`` stores, steps and converts its
state as one flat row of floats, in this layout:

* ``rv`` and ``rvl`` -- ``(r, eps_a1, eps_a2, eps_a3, eta_a, v, eps_b1,
  eps_b2, eps_b3, eta_b)``: radius and speed plus two unit quaternions.  The
  first orients the position frame A (first axis along the position
  vector) relative to the body-fixed observation frame E, the second the
  velocity frame B (first axis along the E-relative velocity) relative to
  A.  The lift-aligned ``rvl`` form pins B's second axis to the positive
  lift direction by its gauge rule.
* ``rvh`` -- ``(r, eps_a1, eps_a2, eps_a3, eta_a, v, eps_b3, eta_b)``: the
  third axes of A and B both point along the relative angular momentum, so
  B over A is a rotation about that axis with Euler parameters ``(0, 0,
  eps_b3, eta_b)``.  :func:`rvh_rows_to_rv` widens such rows to the
  ten-parameter rows they are, which is how every conversion and diagnostic
  reads them; only the derivative works on the eight parameters.
* ``spherical`` -- ``(r, lon, lat, v, gamma, psi)``: radius, longitude in
  the rotating observation frame, geocentric latitude, speed, flight path
  angle (positive above the local horizontal) and azimuth (from north,
  positive toward east); singular in vertical flight.
* ``cartesian`` -- ``(x, y, z, vx, vy, vz)``: observation-frame position
  and relative velocity, the gauge-free ground truth every other form
  converts through.  :class:`CartesianState` holds one such state as two
  3-vectors.

Each form converts state rows (n, size) to Cartesian coordinates through
exactly one function: ``rv_rows_to_cartesian`` (shared by ``rv`` and
``rvl``, and by ``rvh`` on its widened rows), ``spherical_rows_to_cartesian``
and ``cartesian_rows_to_cartesian``.  These hold a state's validity rules.
Each renormalizes the rows' quaternions and raises the ``ValueError`` of
the first row that breaks a rule of its form: a zero-norm quaternion, or
one off unit norm after renormalizing (``rv``, ``rvl``, ``rvh``), a radius
that is not positive, a speed that is not positive (``rv``, ``rvl``,
``rvh``), a latitude or flight path angle outside [-pi/2, pi/2] by more
than 1e-12 (``spherical``), a zero position, or a velocity component that
is not finite.  Each rule is written so that NaN fails it, as
``not (x > 0.0)``.  It returns positions and velocities ``(p, v)``, each
(n, 3).  A single state converts as a one-row stack.

The quaternion gauges are not unique: any initial orientation of the
position frame about the position vector (and of the velocity frame about
the velocity vector) is admissible.  The rv row of a Cartesian state fixes
the gauge deterministically with shortest-arc rotations; antipodal inputs
tie-break about the local third axis.  Round trips therefore preserve the
physical position and velocity, not any particular quaternion values.  The
other two gauges are that row turned about first axes with
:func:`quatflight.quat.twist`: :func:`rv_to_rvh` turns A about the position
direction, and ``dynamics.rvl_twist`` B about the velocity direction; no
Cartesian route builds them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularityError
from .quat import dcm_entries, dcm_from_quat, dcm_rows, renormalize_rows, row_norms, twist

# Angular-momentum floor (m^2/s) below which the rvh form is rejected.
ANGULAR_MOMENTUM_FLOOR = 1e-6

_E3 = np.array([0.0, 0.0, 1.0])


@dataclass(frozen=True, eq=False)
class CartesianState:
    """Observation-frame position (m) and relative velocity (m/s)."""

    position: np.ndarray
    velocity: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.position, dtype=float)
        vel = np.asarray(self.velocity, dtype=float)
        if pos.shape != (3,) or vel.shape != (3,):
            raise ValueError("position and velocity must be 3-vectors")
        if not float(np.linalg.norm(pos)) > 0.0:
            raise ValueError("position must be nonzero")
        object.__setattr__(self, "position", pos)
        object.__setattr__(self, "velocity", vel)

    @property
    def r(self) -> float:
        return float(np.linalg.norm(self.position))

    @property
    def v(self) -> float:
        return float(np.linalg.norm(self.velocity))


def _shortest_arc(target, tie_axis) -> np.ndarray:
    """Euler parameters of the frame whose first axis points along ``target``.

    ``target`` is a unit vector expressed in the base frame.  The rotation
    is the shortest arc taking the base frame's first axis onto ``target``;
    when they are antiparallel the rotation axis degenerates and
    ``tie_axis`` is used for a half turn.
    """
    cross = np.array([0.0, -target[2], target[1]])  # e1 x target
    s = float(np.linalg.norm(cross))
    dot = float(target[0])
    if s < 1e-12:
        if dot > 0.0:
            return np.array([0.0, 0.0, 0.0, 1.0])
        return np.array([*tie_axis, 0.0])
    half = 0.5 * math.atan2(s, dot)
    return np.array([*(cross / s * math.sin(half)), math.cos(half)])


def cartesian_to_rv(state: CartesianState) -> np.ndarray:
    """The ten-parameter row of ``state``, in a deterministic gauge.

    The position-frame quaternion is the shortest-arc rotation taking the
    observation frame's first axis onto the position direction; the
    velocity-frame quaternion is the shortest arc taking the position
    direction onto the velocity direction (expressed in the A basis).
    Antipodal cases tie-break about the corresponding third axis.
    """
    r = state.r
    v = state.v
    if not v > 0.0:
        raise ValueError("degenerate state: zero velocity")
    qa = _shortest_arc(state.position / r, _E3)
    vhat_a = dcm_from_quat(qa) @ (state.velocity / v)
    qb = _shortest_arc(vhat_a, _E3)
    return np.array([r, *qa, v, *qb])


def rv_to_rvh(y) -> np.ndarray:
    """The eight-parameter row of the ten-parameter row ``y``: third axes of A and B along ``r x v``.

    B's first axis in A is the first row ``(b11, b12, b13)`` of C_BA.  A
    turns about its first axis, the position direction, by ``atan2(b13,
    b12)``, which brings its second axis into the {position, velocity}
    plane; B over A is then the turn by ``atan2(hypot(b12, b13), b11)``,
    in [0, pi], about the common third axis.

    Raises
    ------
    SingularityError
        For (near-)vertical flight, where ``r v hypot(b12, b13)``, the
        relative angular momentum, is not above ``ANGULAR_MOMENTUM_FLOOR``
        and the gauge is undefined.
    """
    r, v = float(y[0]), float(y[5])
    b11, b12, b13 = dcm_entries(*map(float, y[6:10]))[:3]
    s = math.hypot(b12, b13)
    if not r * v * s > ANGULAR_MOMENTUM_FLOOR:
        raise SingularityError("rvh singular: zero angular momentum")
    half = 0.5 * math.atan2(s, b11)
    return np.array([r, *twist(y[1:5], math.atan2(b13, b12)), v, math.sin(half), math.cos(half)])


def cartesian_to_spherical(state: CartesianState) -> np.ndarray:
    """The spherical row of ``state``; inverse of :func:`spherical_rows_to_cartesian`.

    The latitude is ``atan2(z, hypot(x, y))`` and the flight-path angle
    ``atan2(v_up, hypot(v_east, v_north))``, exact to rounding near a pole
    and near vertical flight, where an ``asin`` loses half the digits.  In
    vertical flight the horizontal velocity vanishes and the azimuth is set
    to zero by convention.
    """
    r = state.r
    v = state.v
    if not v > 0.0:
        raise ValueError("degenerate state: zero velocity")
    x, y, z = state.position
    lat = math.atan2(z, math.hypot(x, y))
    lon = math.atan2(y, x)
    up = state.position / r
    ct, st = math.cos(lat), math.sin(lat)
    cl, sl = math.cos(lon), math.sin(lon)
    east = np.array([-sl, cl, 0.0])
    north = np.array([-st * cl, -st * sl, ct])
    vu = float(np.dot(state.velocity, up))
    ve = float(np.dot(state.velocity, east))
    vn = float(np.dot(state.velocity, north))
    gamma = math.atan2(vu, math.hypot(ve, vn))
    psi = 0.0 if (ve == 0.0 and vn == 0.0) else math.atan2(ve, vn)
    return np.array([r, lon, lat, v, gamma, psi])


# --- conversion of state rows to Cartesian coordinates ---------------------


def rv_rows_to_cartesian(y):
    """Positions and velocities (n, 3) of ten-parameter rows ``y`` (n, 10).

    Both quaternions are renormalized before the radius and the speed are
    checked.
    """
    u = np.array(y, dtype=float)
    u[:, 1:5] = renormalize_rows(u[:, 1:5])
    u[:, 6:10] = renormalize_rows(u[:, 6:10])
    _require_positive(u[:, 0], "radius")
    _require_positive(u[:, 5], "speed")
    c_ae = dcm_rows(u[:, 1:5])
    c_be = dcm_rows(u[:, 6:10]) @ c_ae
    return _nonzero_positions(u[:, 0:1] * c_ae[:, 0, :], u[:, 5:6] * c_be[:, 0, :])


def rvh_rows_to_rv(y):
    """The ten-parameter rows (n, 10) of eight-parameter rows ``y`` (n, 8).

    B over A is a rotation about the common third axis, so its Euler
    parameters are ``(0, 0, eps_b3, eta_b)``.
    """
    return np.insert(np.asarray(y, dtype=float), [6, 6], 0.0, axis=1)


def spherical_rows_to_cartesian(y):
    """Positions and velocities (n, 3) of spherical rows ``y`` (n, 6).

    The sines and cosines are taken row by row with :mod:`math`; NumPy's are not promised
    to round like the C library's.
    """
    y = np.asarray(y, dtype=float)
    _require_positive(y[:, 0], "radius")
    for col, what in ((2, "latitude"), (4, "flight path angle")):
        bad = ~(np.abs(y[:, col]) <= math.pi / 2 + 1e-12)
        if bad.any():
            raise ValueError(f"{what} {float(y[bad, col][0])!r} outside [-pi/2, pi/2]")
    ct, st, cl, sl, cg, sg, cp, sp = (
        np.array([f(a) for a in y[:, k].tolist()])
        for k in (2, 1, 4, 5)  # latitude, longitude, flight path angle, azimuth
        for f in (math.cos, math.sin)
    )
    up = (ct * cl, ct * sl, st)
    east = (-sl, cl, 0.0)
    north = (-st * cl, -st * sl, ct)
    pos = [y[:, 0] * u for u in up]
    vel = [y[:, 3] * (sg * u + cg * (cp * n + sp * e)) for u, n, e in zip(up, north, east)]
    return _nonzero_positions(np.column_stack(pos), np.column_stack(vel))


def cartesian_rows_to_cartesian(y):
    """Positions and velocities (n, 3) of Cartesian rows ``y`` (n, 6), copied."""
    y = np.asarray(y, dtype=float)
    return _nonzero_positions(y[:, 0:3].copy(), y[:, 3:6].copy())


def _require_positive(values, what):
    bad = ~(values > 0.0)
    if bad.any():
        raise ValueError(f"{what} must be positive, got {float(values[bad][0])!r}")


def _nonzero_positions(p, v):
    if not (row_norms(p) > 0.0).all():
        raise ValueError("position must be nonzero")
    if not np.isfinite(v).all():
        raise ValueError("velocity must be finite")
    return p, v
