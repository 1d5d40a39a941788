"""Flight-state representations and conversions between them.

Four state classes describe the same physical point-mass motion over a
central rotating body; the five forms of ``dynamics.PARAMETERIZATIONS``
store them as flat arrays in the layout of each class's ``to_array``:

* ``RvState`` -- radius and speed plus two unit quaternions: one orients the
  position frame A (first axis along the position vector) relative to the
  body-fixed observation frame E, the other orients the velocity frame B
  (first axis along the E-relative velocity) relative to A.  The
  lift-aligned ``rvl`` form has the same ten parameters, with the B frame's
  second axis pinned to the positive lift direction by its gauge rule, so
  it has no class of its own.
* ``RvhState`` -- eight parameters; the third axes of A and B both point
  along the relative angular momentum, leaving a single in-plane rotation
  angle between them (stored as its half-angle sine/cosine pair).
* ``CartesianState`` -- observation-frame position and relative velocity,
  the gauge-free ground truth every other form converts through.
* ``SphericalState`` -- the classic longitude/latitude/flight-path-angle/
  azimuth baseline, singular in vertical flight.

Each form converts to Cartesian coordinates through exactly one function,
over state rows (n, size) in its class's ``to_array`` layout:
``rv_rows_to_cartesian`` (shared by ``rv`` and ``rvl``),
``rvh_rows_to_cartesian``, ``spherical_rows_to_cartesian`` and
``cartesian_rows_to_cartesian``.  Each renormalizes the rows' quaternions,
checks every row as the state classes check one state, with the same
messages, and returns positions and velocities ``(p, v)``, each (n, 3).  A
single state converts as a one-row stack.

The quaternion gauges are not unique: any initial orientation of the
position frame about the position vector (and of the velocity frame about
the velocity vector) is admissible.  Conversions from Cartesian states fix
the gauge deterministically with shortest-arc rotations; antipodal inputs
tie-break about the local third axis.  Round trips therefore preserve the
physical position and velocity, not any particular quaternion values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularityError
from .quat import (
    UnitQuaternion,
    dcm_from_quat,
    dcm_rows,
    quat_from_dcm,
    renormalize_rows,
    row_norms,
)

# Angular-momentum floor (m^2/s) below which the rvh form is rejected.
ANGULAR_MOMENTUM_FLOOR = 1e-6

_E1 = np.array([1.0, 0.0, 0.0])
_E3 = np.array([0.0, 0.0, 1.0])


@dataclass(frozen=True)
class RvState:
    """Ten-parameter state: radius, speed, and the two frame quaternions."""

    r: float
    qa: UnitQuaternion
    v: float
    qb: UnitQuaternion

    def __post_init__(self):
        if self.r <= 0.0:
            raise ValueError(f"radius must be positive, got {self.r!r}")
        if self.v <= 0.0:
            raise ValueError(f"speed must be positive, got {self.v!r}")

    def to_array(self) -> np.ndarray:
        out = np.empty(10)
        out[0] = self.r
        out[1:5] = self.qa.as_array()
        out[5] = self.v
        out[6:10] = self.qb.as_array()
        return out


@dataclass(frozen=True)
class RvhState:
    """Eight-parameter state with both frames' third axes along the angular momentum."""

    r: float
    qa: UnitQuaternion
    v: float
    eps_b3: float
    eta_b: float

    def __post_init__(self):
        if self.r <= 0.0:
            raise ValueError(f"radius must be positive, got {self.r!r}")
        if self.v <= 0.0:
            raise ValueError(f"speed must be positive, got {self.v!r}")
        n = math.hypot(self.eps_b3, self.eta_b)
        if abs(n - 1.0) > 1e-9:
            raise ValueError(f"in-plane rotation pair norm {n!r} violates unit constraint")

    def to_array(self) -> np.ndarray:
        out = np.empty(8)
        out[0] = self.r
        out[1:5] = self.qa.as_array()
        out[5] = self.v
        out[6] = self.eps_b3
        out[7] = self.eta_b
        return out


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
        if float(np.linalg.norm(pos)) <= 0.0:
            raise ValueError("position must be nonzero")
        object.__setattr__(self, "position", pos)
        object.__setattr__(self, "velocity", vel)

    def to_array(self) -> np.ndarray:
        return np.concatenate([self.position, self.velocity])

    @property
    def r(self) -> float:
        return float(np.linalg.norm(self.position))

    @property
    def v(self) -> float:
        return float(np.linalg.norm(self.velocity))


@dataclass(frozen=True)
class SphericalState:
    """Radius, longitude, geocentric latitude, speed, flight path angle, azimuth.

    Longitude is measured in the rotating observation frame.  The flight
    path angle is positive above the local horizontal; azimuth is measured
    from north, positive toward east.
    """

    r: float
    lon: float
    lat: float
    v: float
    gamma: float
    psi: float

    def __post_init__(self):
        if self.r <= 0.0:
            raise ValueError(f"radius must be positive, got {self.r!r}")
        if abs(self.lat) > math.pi / 2 + 1e-12:
            raise ValueError(f"latitude {self.lat!r} outside [-pi/2, pi/2]")
        if abs(self.gamma) > math.pi / 2 + 1e-12:
            raise ValueError(f"flight path angle {self.gamma!r} outside [-pi/2, pi/2]")

    def to_array(self) -> np.ndarray:
        return np.array([self.r, self.lon, self.lat, self.v, self.gamma, self.psi])


def _shortest_arc(target, tie_axis) -> UnitQuaternion:
    """Quaternion of the frame whose first axis points along ``target``.

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
            return UnitQuaternion.identity()
        return UnitQuaternion(float(tie_axis[0]), float(tie_axis[1]), float(tie_axis[2]), 0.0)
    axis = cross / s
    half = 0.5 * math.atan2(s, dot)
    sh = math.sin(half)
    return UnitQuaternion(
        float(axis[0]) * sh, float(axis[1]) * sh, float(axis[2]) * sh, math.cos(half)
    )


def cartesian_to_rv(state: CartesianState) -> RvState:
    """Fix a deterministic gauge for the ten-parameter form.

    The position-frame quaternion is the shortest-arc rotation taking the
    observation frame's first axis onto the position direction; the
    velocity-frame quaternion is the shortest arc taking the position
    direction onto the velocity direction (expressed in the A basis).
    Antipodal cases tie-break about the corresponding third axis.
    """
    r = state.r
    v = state.v
    if r <= 0.0 or v <= 0.0:
        raise ValueError("degenerate state: zero position or velocity")
    qa = _shortest_arc(state.position / r, _E3)
    vhat_a = dcm_from_quat(qa) @ (state.velocity / v)
    qb = _shortest_arc(vhat_a, _E3)
    return RvState(r=r, qa=qa, v=v, qb=qb)


def twist_about_b1(qb: UnitQuaternion, angle: float) -> UnitQuaternion:
    """Rotate the B frame about its own first axis by ``angle``.

    Used to move between gauges that differ only by the orientation of the
    {b2, b3} pair about the velocity direction.
    """
    c = math.cos(angle)
    s = math.sin(angle)
    r1 = np.array([[1.0, 0.0, 0.0], [0.0, c, s], [0.0, -s, c]])
    return quat_from_dcm(r1 @ dcm_from_quat(qb))


def cartesian_to_rvh(state: CartesianState) -> RvhState:
    """Angular-momentum gauge: third axes of A and B along ``r x v``.

    Raises
    ------
    SingularityError
        For (near-)vertical flight, where the relative angular momentum
        vanishes and the gauge is undefined.
    """
    r = state.r
    v = state.v
    if v <= 0.0:
        raise ValueError("degenerate state: zero velocity")
    h_vec = np.cross(state.position, state.velocity)
    h = float(np.linalg.norm(h_vec))
    if h <= ANGULAR_MOMENTUM_FLOOR:
        raise SingularityError("rvh singular: zero angular momentum")
    a1 = state.position / r
    a3 = h_vec / h
    a2 = np.cross(a3, a1)
    qa = quat_from_dcm(np.vstack([a1, a2, a3]))
    # In-plane angle between position and velocity directions.
    cos_phi = float(np.dot(a1, state.velocity)) / v
    sin_phi = h / (r * v)
    half = 0.5 * math.atan2(sin_phi, cos_phi)
    return RvhState(r=r, qa=qa, v=v, eps_b3=math.sin(half), eta_b=math.cos(half))


def cartesian_to_spherical(state: CartesianState) -> SphericalState:
    """Inverse of :func:`spherical_rows_to_cartesian`.

    In vertical flight the horizontal velocity vanishes and the azimuth is
    set to zero by convention.
    """
    r = state.r
    if r <= 0.0:
        raise ValueError("degenerate state: zero position")
    v = state.v
    if v <= 0.0:
        raise ValueError("degenerate state: zero velocity")
    x, y, z = state.position
    lat = math.asin(max(-1.0, min(1.0, z / r)))
    lon = math.atan2(y, x)
    up = state.position / r
    sin_gamma = float(np.dot(state.velocity, up)) / v
    sin_gamma = max(-1.0, min(1.0, sin_gamma))
    gamma = math.asin(sin_gamma)
    ct, st = math.cos(lat), math.sin(lat)
    cl, sl = math.cos(lon), math.sin(lon)
    east = np.array([-sl, cl, 0.0])
    north = np.array([-st * cl, -st * sl, ct])
    ve = float(np.dot(state.velocity, east))
    vn = float(np.dot(state.velocity, north))
    psi = 0.0 if (ve == 0.0 and vn == 0.0) else math.atan2(ve, vn)
    return SphericalState(r=r, lon=lon, lat=lat, v=v, gamma=gamma, psi=psi)


# --- conversion of state rows to Cartesian coordinates ---------------------


def rv_rows_to_cartesian(y):
    """Positions and velocities (n, 3) of ten-parameter rows ``y`` (n, 10).

    The rows are in :meth:`RvState.to_array` layout; both quaternions are
    renormalized before the radius and the speed are checked.
    """
    u = np.array(y, dtype=float)
    u[:, 1:5] = renormalize_rows(u[:, 1:5])
    u[:, 6:10] = renormalize_rows(u[:, 6:10])
    _require_positive(u[:, 0], "radius")
    _require_positive(u[:, 5], "speed")
    return _through_frames(u, dcm_rows(u[:, 6:10]))


def rvh_rows_to_cartesian(y):
    """Positions and velocities (n, 3) of eight-parameter rows ``y`` (n, 8).

    The rows are in :meth:`RvhState.to_array` layout; the in-plane pair and
    then the position quaternion are renormalized before the radius, the
    speed and the pair's norm are checked.
    """
    u = np.array(y, dtype=float)
    u[:, 6], u[:, 7] = rvh_unit_pair(u)
    u[:, 1:5] = renormalize_rows(u[:, 1:5])
    _require_positive(u[:, 0], "radius")
    _require_positive(u[:, 5], "speed")
    n = np.hypot(u[:, 6], u[:, 7])
    bad = np.abs(n - 1.0) > 1e-9
    if bad.any():
        raise ValueError(
            f"in-plane rotation pair norm {float(n[bad][0])!r} violates unit constraint"
        )
    return _through_frames(u, rvh_c_ba_rows(u[:, 6], u[:, 7]))


def rvh_unit_pair(y):
    """The in-plane pair of each eight-parameter row of ``y`` over its ``math.hypot`` norm."""
    n = np.array([math.hypot(a, b) for a, b in y[:, 6:8].tolist()], dtype=float)
    if (n == 0.0).any():
        raise ValueError("cannot renormalize a zero-norm in-plane rotation pair")
    return y[:, 6] / n, y[:, 7] / n


def rvh_c_ba_rows(eps_b3, eta_b) -> np.ndarray:
    """DCMs (n, 3, 3) of B over A, a rotation about the third axis, from unit in-plane pairs (n,)."""
    c = 1.0 - 2.0 * eps_b3 * eps_b3
    s = 2.0 * eps_b3 * eta_b
    zero, one = np.zeros(len(c)), np.ones(len(c))
    return np.stack((c, s, zero, -s, c, zero, zero, zero, one), axis=1).reshape(-1, 3, 3)


def _through_frames(u, c_ba):
    """Positions and velocities of rows ``u`` (radius, unit A quaternion, speed, ...)
    whose B frames have the DCMs ``c_ba`` (n, 3, 3) over A."""
    c_ae = dcm_rows(u[:, 1:5])
    return _nonzero_positions(u[:, 0:1] * c_ae[:, 0, :], u[:, 5:6] * (c_ba @ c_ae)[:, 0, :])


def spherical_rows_to_cartesian(y):
    """Positions and velocities (n, 3) of spherical rows ``y`` (n, 6).

    The rows are in :meth:`SphericalState.to_array` layout.  The sines and
    cosines are taken row by row with :mod:`math`; NumPy's are not promised
    to round like the C library's.
    """
    y = np.asarray(y, dtype=float)
    _require_positive(y[:, 0], "radius")
    for col, what in ((2, "latitude"), (4, "flight path angle")):
        bad = np.abs(y[:, col]) > math.pi / 2 + 1e-12
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
    bad = values <= 0.0
    if bad.any():
        raise ValueError(f"{what} must be positive, got {float(values[bad][0])!r}")


def _nonzero_positions(p, v):
    if (row_norms(p) <= 0.0).any():
        raise ValueError("position must be nonzero")
    return p, v
