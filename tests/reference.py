"""Independent models the tests check ``quatflight`` against.

None of this runs in the program.  Each function is a second, plainer
statement of something ``src/quatflight`` computes another way:

* rotation algebra: axis-angle rotations, their direction cosine matrices
  and Euler parameters, the skew matrix, and the Euler parameter rates of
  an angular velocity and back;
* :func:`profile_value` and :func:`profile_rate`, a control profile
  evaluated by bisection per call, the oracle for the segment table of
  ``ControlProfile.lookup``, and :func:`constant_controls`, profiles that
  hold each command at one value;
* the force model in matrix form (:func:`density`, :func:`aero_forces`,
  :func:`net_force_B`, :func:`apparent_force_B`), the oracle for the scalar
  kernel ``dynamics.make_forces`` and the derivative functions;
* the plane-referenced bank angle and its rate, written with ``math``
  alone so they do not call the code they check;
* :func:`unit`, a 4-vector over its norm, builders of the flat state
  rows of the quaternion, spherical and Cartesian forms,
  :func:`initial_row`, any form's row of a Cartesian state derived as a
  scenario derives it, and a trajectory CSV reader;
* :func:`array_rhs`, through which the array oracles call a derivative
  that takes and returns lists of floats;
* :func:`ten_parameter_rhs`, the ten-parameter derivative term by term:
  every entry of C_BA and C_AE from the Euler parameters, the spin axis in
  B by dot products, and the zero gauge rates carried through the
  quaternion rates;
* :func:`illinois_root`, the Illinois iteration on a scalar function, the
  oracle for the radius-crossing refinement of ``propagate``.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from quatflight.controls import ControlProfile, PiecewiseLinear
from quatflight.dynamics import PARAMETERIZATIONS, VERTICAL_SIN_EPS, make_forces
from quatflight.environment import AeroModel, Atmosphere, CentralBody, Vehicle
from quatflight.errors import SingularityError
from quatflight.quat import UNIT_NORM_TOL
from quatflight.states import CartesianState, cartesian_to_rv

IDENTITY = (0.0, 0.0, 0.0, 1.0)  # Euler parameters of no rotation


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


def quat_from_axis_angle(aa: AxisAngle) -> np.ndarray:
    """Euler parameters of a rotation by ``angle`` about ``axis``."""
    half = 0.5 * aa.angle
    s = math.sin(half)
    return np.array([*(aa.axis * s), math.cos(half)])


def unit(q) -> np.ndarray:
    """A 4-sequence over its ``np.linalg.norm``."""
    q = np.asarray(q, dtype=float)
    return q / np.linalg.norm(q)


def quat_rates(q, omega) -> np.ndarray:
    """Euler parameter rates of unit ``q`` for angular velocity ``omega`` (rotated-frame basis).

    The output satisfies ``sum(q_i * qdot_i) = 0``, the differential form of
    the unit-norm constraint.
    """
    e1, e2, e3, eta = map(float, q)
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


# --- control profiles --------------------------------------------------------


def constant_controls(alpha=0.0, bank=0.0, wb1=0.0, thrust=0.0, bank_mode="sigma") -> ControlProfile:
    """Control profiles that hold each command at one value."""
    return ControlProfile(
        alpha=PiecewiseLinear.constant(alpha),
        bank=PiecewiseLinear.constant(bank),
        wb1=PiecewiseLinear.constant(wb1),
        thrust=PiecewiseLinear.constant(thrust),
        bank_mode=bank_mode,
    )


def profile_value(profile, t: float) -> float:
    """The value of a piecewise-linear ``profile`` at ``t``, by bisection per call."""
    times = profile.times
    if t <= times[0]:
        return profile.values[0]
    if t >= times[-1]:
        return profile.values[-1]
    i = bisect_right(times, t) - 1
    t0, t1 = times[i], times[i + 1]
    v0, v1 = profile.values[i], profile.values[i + 1]
    return v0 + (v1 - v0) * (t - t0) / (t1 - t0)


def profile_rate(profile, t: float) -> float:
    """Slope of the active segment; right-continuous at knots, zero outside."""
    times = profile.times
    if t < times[0] or t >= times[-1]:
        return 0.0
    i = bisect_right(times, t) - 1
    if i == len(times) - 1:
        return 0.0
    return (profile.values[i + 1] - profile.values[i]) / (times[i + 1] - times[i])


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


def ten_parameter_rhs(controls, env, lift_along_b2):
    """The rv (``lift_along_b2`` false) or rvl derivative, term by term.

    The kinematics take ``wa2``, ``wa3`` and the curvature terms of ``wb2``,
    ``wb3`` from the Euler parameters again, the rotating-frame terms
    contract all nine entries of C_BA with the third column of C_AE, and
    the quaternion rates carry ``wa1 = 0`` and rv's ``wb1 = 0``.  It
    shares the force kernel ``make_forces`` and the control lookup with
    the program.
    """
    mu, we, m = env.body.mu, env.body.spin_rate, env.vehicle.mass
    forces = make_forces(env)
    beta_mode = controls.bank_mode == "beta"
    if not lift_along_b2:
        lookup = controls.lookup("bank")
    elif beta_mode:
        lookup = controls.lookup("bank", rate=True)
    else:
        lookup = controls.lookup("wb1")

    def rhs(t, y):
        r, ea1, ea2, ea3, eta_a, v, eb1, eb2, eb3, eta_b = y
        if r <= 0.0:
            raise SingularityError("nonpositive radius")
        if v <= 0.0:
            raise SingularityError("kinetic singularity: nonpositive speed")

        b11 = 1.0 - 2.0 * (eb2 * eb2 + eb3 * eb3)
        b12 = 2.0 * (eb1 * eb2 + eb3 * eta_b)
        b13 = 2.0 * (eb1 * eb3 - eb2 * eta_b)
        b21 = 2.0 * (eb1 * eb2 - eb3 * eta_b)
        b22 = 1.0 - 2.0 * (eb3 * eb3 + eb1 * eb1)
        b23 = 2.0 * (eb2 * eb3 + eb1 * eta_b)
        b31 = 2.0 * (eb1 * eb3 + eb2 * eta_b)
        b32 = 2.0 * (eb2 * eb3 - eb1 * eta_b)
        b33 = 1.0 - 2.0 * (eb1 * eb1 + eb2 * eb2)

        a13 = 2.0 * (ea1 * ea3 - ea2 * eta_a)
        a23 = 2.0 * (ea2 * ea3 + ea1 * eta_a)
        a33 = 1.0 - 2.0 * (ea1 * ea1 + ea2 * ea2)

        alpha, thrust, command = lookup(t)
        axial, transverse = forces(r, v, alpha, thrust)

        if lift_along_b2:
            f2_aero = transverse
            f3_aero = 0.0
        elif transverse != 0.0:
            if beta_mode:
                sigma = command + math.atan2(b31, b21)
            else:
                sigma = command
            f2_aero = transverse * math.cos(sigma)
            f3_aero = transverse * math.sin(sigma)
        else:
            f2_aero = 0.0
            f3_aero = 0.0

        grav = m * mu / (r * r)
        f1 = axial - grav * b11
        f2 = f2_aero - grav * b21
        f3 = f3_aero - grav * b31

        if we != 0.0:
            be23 = b21 * a13 + b22 * a23 + b23 * a33
            be33 = b31 * a13 + b32 * a23 + b33 * a33
            cor = 2.0 * m * we * v
            g1 = a13 * a13 - 1.0
            g2 = a13 * a23
            g3 = a13 * a33
            cen = m * r * we * we
            ft1 = f1 - cen * (b11 * g1 + b12 * g2 + b13 * g3)
            ft2 = f2 - cor * be33 - cen * (b21 * g1 + b22 * g2 + b23 * g3)
            ft3 = f3 + cor * be23 - cen * (b31 * g1 + b32 * g2 + b33 * g3)
        else:
            ft1 = f1
            ft2 = f2
            ft3 = f3

        two_v_r = 2.0 * v / r
        wa2 = two_v_r * (eta_b * eb2 - eb1 * eb3)
        wa3 = two_v_r * (eta_b * eb3 + eb1 * eb2)

        minv = 1.0 / (m * v)
        wb2 = -ft3 * minv - two_v_r * (eb1 * eb3 + eb2 * eta_b)
        wb3 = ft2 * minv + two_v_r * (eb1 * eb2 - eb3 * eta_b)

        wa1 = 0.0
        if lift_along_b2:
            if beta_mode:
                denom = 1.0 - b11 * b11
                if denom < VERTICAL_SIN_EPS:
                    raise SingularityError(
                        "bank tracking undefined in vertical flight"
                    )
                wb1 = command + (b11 / denom) * (wb2 * b21 + wb3 * b31)
            else:
                wb1 = command
        else:
            wb1 = 0.0

        return [
            v * b11,
            0.5 * (eta_a * wa1 - ea3 * wa2 + ea2 * wa3),
            0.5 * (ea3 * wa1 + eta_a * wa2 - ea1 * wa3),
            0.5 * (-ea2 * wa1 + ea1 * wa2 + eta_a * wa3),
            -0.5 * (ea1 * wa1 + ea2 * wa2 + ea3 * wa3),
            ft1 / m,
            0.5 * (eta_b * wb1 - eb3 * wb2 + eb2 * wb3),
            0.5 * (eb3 * wb1 + eta_b * wb2 - eb1 * wb3),
            0.5 * (-eb2 * wb1 + eb1 * wb2 + eta_b * wb3),
            -0.5 * (eb1 * wb1 + eb2 * wb2 + eb3 * wb3),
        ]

    return rhs


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


# --- state rows, trajectories from CSV ----------------------------------------


def rv_row(r, qa, v, qb) -> np.ndarray:
    """Ten-parameter row: radius, Euler parameters of A over E, speed, those of B over A."""
    return np.array([r, *qa, v, *qb], dtype=float)


def rvh_row(r, qa, v, eps_b3, eta_b) -> np.ndarray:
    """Eight-parameter row: radius, Euler parameters of A over E, speed, in-plane pair."""
    return np.array([r, *qa, v, eps_b3, eta_b], dtype=float)


def spherical_row(r, lon, lat, v, gamma, psi) -> np.ndarray:
    """Spherical row: radius, longitude, latitude, speed, flight path angle, azimuth."""
    return np.array([r, lon, lat, v, gamma, psi], dtype=float)


def cartesian_row(c: CartesianState) -> np.ndarray:
    """The Cartesian row ``(x, y, z, vx, vy, vz)`` of ``c``."""
    return np.concatenate((c.position, c.velocity))


def initial_row(form, c: CartesianState, controls, t0=0.0) -> np.ndarray:
    """The row of ``form`` at ``c`` as a scenario derives it: rvl and rvh from the rv row."""
    spec = PARAMETERIZATIONS[form]
    if spec.from_rv is None:
        return spec.from_cartesian(c)
    return spec.from_rv(cartesian_to_rv(c), controls, t0)


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


# --- event location --------------------------------------------------------


def illinois_root(g, t_a, t_b, g_a, g_b, value_tol, time_tol, max_iterations):
    """A root of ``g`` in the bracket ``t_a < t_b``, by the Illinois method, and the calls of ``g``.

    ``g_a`` and ``g_b`` are ``g`` at the bracket's ends, of opposite signs.
    Each iterate is the secant root of the bracket, or its midpoint where
    rounding puts the secant root outside, and it replaces the end whose
    value has its sign.  An end that outlives two iterates in a row has its
    value halved.  Stops at a zero, once ``|g| < value_tol`` with the
    bracket shorter than ``time_tol``, or after ``max_iterations``.
    """
    kept = None  # the end the last iterate did not replace
    calls = 0
    for _ in range(max_iterations):
        s = t_b - g_b * (t_b - t_a) / (g_b - g_a)
        if not t_a < s < t_b:
            s = 0.5 * (t_a + t_b)
        g_s = g(s)
        calls += 1
        if g_s == 0.0:
            break
        if (g_s > 0.0) == (g_b > 0.0):
            t_b, g_b = s, g_s
            if kept == "a":
                g_a *= 0.5
            kept = "a"
        else:
            t_a, g_a = s, g_s
            if kept == "b":
                g_b *= 0.5
            kept = "b"
        if abs(g_s) < value_tol and t_b - t_a < time_tol:
            break
    return s, calls

