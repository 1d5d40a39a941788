"""Independent models the tests check ``quatflight`` against.

None of this runs in the program.  Each function is a second, plainer
statement of something ``src/quatflight`` computes another way:

* rotation algebra: axis-angle rotations, their direction cosine matrices
  and Euler parameters, the skew matrix, and the Euler parameter rates of
  an angular velocity and back;
* the force model in matrix form (:func:`density`, :func:`aero_forces`,
  :func:`net_force_B`, :func:`apparent_force_B`), the oracle for the scalar
  kernel ``dynamics.make_forces`` and the derivative functions;
* the plane-referenced bank angle and its rate, written with ``math``
  alone so they do not call the code they check;
* state records from flat arrays, and a trajectory CSV reader;
* :func:`array_rhs`, through which the array oracles call a derivative
  that takes and returns lists of floats.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from quatflight.dynamics import VERTICAL_SIN_EPS
from quatflight.environment import AeroModel, Atmosphere, CentralBody, Vehicle
from quatflight.errors import SingularityError
from quatflight.quat import UNIT_NORM_TOL, UnitQuaternion, renormalize
from quatflight.states import CartesianState, RvhState, RvState, SphericalState

def array_rhs(rhs):
    """The list-native derivative ``rhs`` as a derivative of arrays."""
    return lambda t, y: np.asarray(rhs(t, y.tolist()))


# --- rotation algebra ------------------------------------------------------


@dataclass(frozen=True, eq=False)
class AxisAngle:
    """A rotation of ``angle`` radians about the unit vector ``axis``."""

    axis: np.ndarray
    angle: float

    def __post_init__(self):
        axis = np.asarray(self.axis, dtype=float)
        if axis.shape != (3,):
            raise ValueError("axis must be a 3-vector")
        n = float(np.linalg.norm(axis))
        if abs(n - 1.0) > UNIT_NORM_TOL:
            raise ValueError(f"axis norm {n!r} violates unit constraint")
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "angle", float(self.angle))


def skew(p) -> np.ndarray:
    """Skew-symmetric matrix of a 3-vector, so that ``skew(p) @ q = p x q``."""
    p1, p2, p3 = float(p[0]), float(p[1]), float(p[2])
    return np.array(
        [
            [0.0, -p3, p2],
            [p3, 0.0, -p1],
            [-p2, p1, 0.0],
        ]
    )


def dcm_from_axis_angle(aa: AxisAngle) -> np.ndarray:
    """Direction cosine matrix of a frame rotated by ``aa`` from the base frame."""
    q1, q2, q3 = aa.axis
    c = math.cos(aa.angle)
    s = math.sin(aa.angle)
    k = 1.0 - c
    return np.array(
        [
            [k * q1 * q1 + c, k * q1 * q2 + q3 * s, k * q1 * q3 - q2 * s],
            [k * q2 * q1 - q3 * s, k * q2 * q2 + c, k * q2 * q3 + q1 * s],
            [k * q3 * q1 + q2 * s, k * q3 * q2 - q1 * s, k * q3 * q3 + c],
        ]
    )


def quat_from_axis_angle(aa: AxisAngle) -> UnitQuaternion:
    """Euler parameters of a rotation by ``angle`` about ``axis``."""
    half = 0.5 * aa.angle
    s = math.sin(half)
    return UnitQuaternion(
        float(aa.axis[0]) * s,
        float(aa.axis[1]) * s,
        float(aa.axis[2]) * s,
        math.cos(half),
    )


def quat_rates(q: UnitQuaternion, omega) -> np.ndarray:
    """Euler parameter rates for angular velocity ``omega`` (rotated-frame basis).

    The output satisfies ``sum(q_i * qdot_i) = 0``, the differential form of
    the unit-norm constraint.
    """
    e1, e2, e3, eta = q.eps1, q.eps2, q.eps3, q.eta
    w1, w2, w3 = float(omega[0]), float(omega[1]), float(omega[2])
    return np.array(
        [
            0.5 * (eta * w1 - e3 * w2 + e2 * w3),
            0.5 * (e3 * w1 + eta * w2 - e1 * w3),
            0.5 * (-e2 * w1 + e1 * w2 + eta * w3),
            -0.5 * (e1 * w1 + e2 * w2 + e3 * w3),
        ]
    )


def omega_from_rate_arrays(qdot, q) -> np.ndarray:
    """Angular velocity recovered from Euler parameters and their rates.

    Accepts raw 4-vectors so it can be applied to propagated samples whose
    norms carry integration drift.
    """
    e1, e2, e3, eta = float(q[0]), float(q[1]), float(q[2]), float(q[3])
    d1, d2, d3, deta = (float(qdot[0]), float(qdot[1]), float(qdot[2]), float(qdot[3]))
    return np.array(
        [
            2.0 * (eta * d1 - deta * e1 + e3 * d2 - d3 * e2),
            2.0 * (eta * d2 - deta * e2 - e3 * d1 + d3 * e1),
            2.0 * (eta * d3 - deta * e3 + e2 * d1 - d2 * e1),
        ]
    )


# --- force model in matrix form ----------------------------------------------


@dataclass(frozen=True)
class ControlInput:
    """Instantaneous commands: angle of attack, bank, bank-rate, thrust (rad, rad/s, N)."""

    alpha: float = 0.0
    sigma: float = 0.0
    wb1: float = 0.0
    thrust: float = 0.0


def density(h: float, atmosphere: Atmosphere) -> float:
    """Density (kg/m^3) at altitude ``h`` (m); extrapolates below zero altitude."""
    return atmosphere.rho0 * math.exp(-h / atmosphere.scale_height)


def aero_forces(rho: float, v: float, alpha: float, model: AeroModel):
    """Lift (signed, N), drag (N), and dynamic pressure (Pa).

    Lift follows the sign of the angle of attack; drag is the parabolic
    polar cd0 + k * cl^2 and is never negative.
    """
    if v < 0.0:
        raise ValueError("speed must be non-negative")
    q = 0.5 * rho * v * v
    cl = model.cl_alpha * alpha
    lift = q * model.s * cl
    drag = q * model.s * (model.cd0 + model.k * cl * cl)
    return lift, drag, q


def net_force_B(
    r: float,
    c_ba: np.ndarray,
    control: ControlInput,
    vehicle: Vehicle,
    lift: float,
    drag: float,
    body: CentralBody,
    lift_along_b2: bool = False,
) -> np.ndarray:
    """Thrust, aero, and gravity forces in the B basis (N).

    With ``lift_along_b2`` the transverse force sits entirely on the second
    axis and the bank angle drops out (the lift-aligned gauge); otherwise it
    is banked by ``control.sigma`` about the first axis.

    Gravity contributes ``-(m * mu / r^2)`` along the position direction,
    i.e. along the first column of ``c_ba``.
    """
    if r <= 0.0:
        raise ValueError("radius must be positive")
    ad = control.alpha + vehicle.thrust_offset
    thrust = control.thrust
    axial = thrust * math.cos(ad) - drag
    transverse = thrust * math.sin(ad) + lift
    grav = vehicle.mass * body.mu / (r * r)
    if lift_along_b2:
        f2_aero = transverse
        f3_aero = 0.0
    else:
        f2_aero = transverse * math.cos(control.sigma)
        f3_aero = transverse * math.sin(control.sigma)
    return np.array(
        [
            axial - grav * c_ba[0, 0],
            f2_aero - grav * c_ba[1, 0],
            f3_aero - grav * c_ba[2, 0],
        ]
    )


def apparent_force_B(
    f: np.ndarray,
    r: float,
    v: float,
    c_ba: np.ndarray,
    c_ae: np.ndarray,
    body: CentralBody,
    mass: float,
) -> np.ndarray:
    """Net force minus mass times Coriolis and centripetal terms, in the B basis.

    Divided by the mass this is the acceleration relative to the rotating
    observation frame; it reduces to ``f`` when the body does not spin.
    """
    we = body.spin_rate
    if we == 0.0:
        return np.asarray(f, dtype=float).copy()
    c_be = c_ba @ c_ae
    coriolis = (2.0 * mass * we * v) * np.array([0.0, c_be[2, 2], -c_be[1, 2]])
    a13, a23, a33 = c_ae[0, 2], c_ae[1, 2], c_ae[2, 2]
    centripetal = (mass * r * we * we) * (
        c_ba @ np.array([a13 * a13 - 1.0, a13 * a23, a13 * a33])
    )
    return np.asarray(f, dtype=float) - coriolis - centripetal


# --- bank angles -----------------------------------------------------------


def _vertical(c21, c31):
    return c21 * c21 + c31 * c31 < VERTICAL_SIN_EPS * VERTICAL_SIN_EPS


def beta_from_sigma(sigma: float, c_ba: np.ndarray) -> float:
    """Plane-referenced bank angle from the gauge bank angle.

    Raises
    ------
    SingularityError
        In vertical flight, where the reference plane is undefined.
    """
    c21 = c_ba[1, 0]
    c31 = c_ba[2, 0]
    if _vertical(c21, c31):
        raise SingularityError("beta undefined in vertical flight")
    return math.atan2(
        math.sin(sigma) * c21 - math.cos(sigma) * c31,
        math.cos(sigma) * c21 + math.sin(sigma) * c31,
    )


def sigma_from_beta(beta: float, c_ba: np.ndarray) -> float:
    """Inverse of :func:`beta_from_sigma` (same vertical-flight guard)."""
    c21 = c_ba[1, 0]
    c31 = c_ba[2, 0]
    if _vertical(c21, c31):
        raise SingularityError("beta undefined in vertical flight")
    return beta + math.atan2(c31, c21)


def beta_rate(
    sigma_dot: float, wb1: float, wb2: float, wb3: float, c_ba: np.ndarray
) -> float:
    """Rate of the plane-referenced bank angle.

    Raises
    ------
    SingularityError
        In vertical flight.
    """
    c11 = c_ba[0, 0]
    denom = 1.0 - c11 * c11
    if denom < VERTICAL_SIN_EPS:
        raise SingularityError("beta rate undefined in vertical flight")
    return (sigma_dot + wb1) - (c11 / denom) * (wb2 * c_ba[1, 0] + wb3 * c_ba[2, 0])


# --- states from arrays, trajectories from CSV --------------------------------


def rv_state_from_array(y) -> RvState:
    """Build from a propagated sample; quaternions are renormalized."""
    y = np.asarray(y, dtype=float)
    return RvState(float(y[0]), renormalize(y[1:5]), float(y[5]), renormalize(y[6:10]))


def rvh_state_from_array(y) -> RvhState:
    y = np.asarray(y, dtype=float)
    n = math.hypot(float(y[6]), float(y[7]))
    return RvhState(
        float(y[0]),
        renormalize(y[1:5]),
        float(y[5]),
        float(y[6]) / n,
        float(y[7]) / n,
    )


def cartesian_state_from_array(y) -> CartesianState:
    y = np.asarray(y, dtype=float)
    return CartesianState(y[0:3].copy(), y[3:6].copy())


def spherical_state_from_array(y) -> SphericalState:
    y = np.asarray(y, dtype=float)
    return SphericalState(*(float(x) for x in y))


def read_trajectory_csv(path) -> dict:
    """Columns of a trajectory CSV as float arrays (NaN for blanks)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        cols = {h: [] for h in header}
        for row in reader:
            for h, cell in zip(header, row):
                cols[h].append(float(cell) if cell != "" else float("nan"))
    return {h: np.array(vals) for h, vals in cols.items()}
