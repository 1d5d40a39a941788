"""State-derivative functions for every supported flight-state representation.

The ten-parameter quaternion forms share one structure.  Writing the state
as radius r, speed v, and the two frame quaternions (position frame A over
the observation frame E, velocity frame B over A), with bij the entries of
the direction cosine matrix C_BA of the B Euler parameters (eb, eta_b), the
kinematics give

    rdot  = v * b11
    wa2   = -(v/r) * b13
    wa3   =  (v/r) * b12

and the kinetics, with the apparent force (f1~, f2~, f3~) in the B basis,

    vdot  = f1~/m
    wb2   = -f3~/(m v) - wa1*b21 - (v/r)*b31
    wb3   =  f2~/(m v) - wa1*b31 + (v/r)*b21

The apparent force is the aerodynamic and thrust force, banked into B, plus
gravity -(m mu/r^2) (b11, b21, b31) and, on a body spinning at we, the
Coriolis and centrifugal terms.  These take the spin axis in B,

    w = C_BA C_AE e3 = u - 2 eta_b (eb x u) + 2 eb x (eb x u),

where u = (a13, a23, a33) is the third column of C_AE, as

    Coriolis     2 m we v (0, -w3, w2)
    centrifugal  -m we^2 r (a13 w - (b11, b21, b31))

The quaternion rates follow from the angular velocities.  The first
angular-velocity components wa1 and wb1 are free gauge choices:

* rv form:  wa1 = wb1 = 0.
* rvl form: wa1 = 0, wb1 commanded; the second B axis is the positive lift
  direction, so the bank angle never enters the force model.
* rvh form: both third axes ride along the relative angular momentum, which
  forces wa1 = f3~/(2 m v eb3 eta_b) and wa2 = wb1 = wb2 = 0; the state
  shrinks to eight parameters but the constraint blows up in vertical
  flight.

None of the quaternion forms evaluates a trigonometric function outside the
force model's thrust/bank terms, and the rv/rvl forms stay finite in
vertical flight; the spherical baseline divides by cos(flight path angle)
and is guarded instead.

Each derivative evaluation reads every command its form needs from one
call of a lookup that :meth:`ControlProfile.lookup` builds once per
``make_rhs`` call: the angle of attack, the thrust, and a third command,
the bank angle (rv, rvh and the baselines), the ``wb1`` command (rvl in
``sigma`` mode) or the bank rate (rvl in ``beta`` mode).  The lookup is
the one evaluator of the profiles, and the diagnostics read the commands
through it too: values linear between knots and constant beyond them, the
first value itself at the first knot, a right-continuous rate that is zero
outside the knots, at any time a finite distance from every knot.  It
reads a per-segment table fixed when it is built, so the derivatives keep
no state between calls.  All five derivative functions then take the
aerodynamic and thrust forces from one kernel, :func:`make_forces`, also
built once per ``make_rhs`` call; each form only banks the transverse
force into its own basis and adds gravity and the rotating-frame terms.
The kernel and the derivative closures look up ``sin``, ``cos`` and
``atan2`` as globals of this module at call time, never as names bound
when the closure is built, so that
:func:`quatflight.bench.count_trig_calls` can count them by patching the
module.

Each derivative takes its state as a list of Python floats, unpacks it
once, does all of its arithmetic on floats and returns its result as a new
list of floats; the propagator passes lists between stages and builds no
array for a derivative call.  An ndarray argument still unpacks, but into
NumPy scalars, whose arithmetic costs more per operation than the trig
calls the quaternion forms avoid and whose overflow warns where a float
gives inf; the values are the same bit for bit either way.

Derivative functions are pure: they never renormalize the quaternions (that
is the propagator's policy) and may be called concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import atan2, cos, exp, pi, sin, sqrt
from typing import Callable, Optional

import numpy as np

from .controls import ControlProfile
from .environment import Environment
from .errors import SingularityError
from .quat import dcm_entries, dcm_rows, renormalize_rows, row_norms, twist
from .states import (
    CartesianState,
    cartesian_rows_to_cartesian,
    cartesian_to_rv,
    cartesian_to_spherical,
    rv_rows_to_cartesian,
    rv_to_rvh,
    rvh_rows_to_rv,
    spherical_rows_to_cartesian,
)

# Guard thresholds: fail loudly instead of returning garbage near a
# parameterization's singular set.
RVH_SINGULARITY_EPS = 1e-8  # on |eps_b3 * eta_b|
SPHERICAL_GAMMA_EPS = 1e-6  # rad from +-pi/2
VERTICAL_SIN_EPS = 1e-12  # on sin of the angle between position and velocity

_LENGTH_SCALE = 1.0e6
_SPEED_SCALE = 1.0e3


def make_forces(env: Environment) -> Callable:
    """The force kernel ``forces(r, v, alpha, thrust) -> (axial, transverse)`` of every form.

    Evaluates the exponential atmosphere, the lift slope with its parabolic
    drag polar, and the offset thrust at radius ``r`` and speed ``v`` for
    the commanded angle of attack ``alpha`` and thrust.
    ``axial`` (N) acts along the velocity and ``transverse`` (N) along the
    lift direction normal to it; each form banks the transverse force into
    its own basis and adds gravity and the rotating-frame terms.
    """
    re = env.body.radius
    rho0, hscale = env.atmosphere.rho0, env.atmosphere.scale_height
    sref, cla, cd0, kdrag = env.aero.s, env.aero.cl_alpha, env.aero.cd0, env.aero.k
    delta = env.vehicle.thrust_offset

    def forces(r, v, alpha, thrust):
        rho = rho0 * exp((re - r) / hscale) if rho0 != 0.0 else 0.0
        qs = 0.5 * rho * v * v * sref
        cl = cla * alpha
        lift = qs * cl
        drag = qs * (cd0 + kdrag * cl * cl)
        if thrust != 0.0:
            ad = alpha + delta
            return thrust * cos(ad) - drag, thrust * sin(ad) + lift
        return -drag, lift

    return forces


def make_rv_rhs(controls: ControlProfile, env: Environment) -> Callable:
    """Right-hand side of the ten-parameter form with zero gauge rates."""
    return _make_two_quaternion_rhs(controls, env, lift_along_b2=False)


def make_rvl_rhs(controls: ControlProfile, env: Environment) -> Callable:
    """Right-hand side of the lift-aligned ten-parameter form.

    In ``sigma`` bank mode the ``wb1`` profile is the native bank-rate
    command.  In ``beta`` mode the command is derived each evaluation so
    the physical bank angle tracks the bank profile exactly.
    """
    return _make_two_quaternion_rhs(controls, env, lift_along_b2=True)


def _make_two_quaternion_rhs(controls, env, lift_along_b2):
    """The rv or rvl derivative: the module's kinematics and kinetics, term by term.

    Only the entries ``b11, b12, b13, b21, b31`` of C_BA are formed.  The
    spin axis in B, ``w = C_BA·u`` with ``u`` the third column of C_AE, is
    one rotation of ``u`` by the B Euler parameters; the gauge rate
    ``wa1 = 0`` (and rv's ``wb1 = 0``) enters no term.

    In ``beta`` bank mode rv flies ``command + atan2(b31, b21)`` as its
    native bank.  In exactly vertical flight b21 and b31 are zeros and the
    {position, velocity} plane is undefined.  rv then takes
    ``atan2(b31, +0.0) = ±0`` and flies the command as its native bank, as
    at the B Euler parameters (0, 0, 0, 1) and (0, 0, 1, 0).  b21 enters
    ``atan2`` as ``b21 + 0.0``: a b21 of -0.0, as at (sin h, 0, 0, cos h)
    with h < 0, would otherwise add pi.  rvl in ``beta`` mode cannot track
    the bank there and raises "bank tracking undefined in vertical flight".
    """
    mu, we, m = env.body.mu, env.body.spin_rate, env.vehicle.mass
    m_mu, two_m_we, m_we2 = m * mu, 2.0 * m * we, m * we * we
    forces = make_forces(env)
    beta_mode = controls.bank_mode == "beta"
    # the third command: the bank angle (rv), the bank rate (rvl, beta
    # mode) or the wb1 command (rvl, sigma mode)
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
        b31 = 2.0 * (eb1 * eb3 + eb2 * eta_b)

        alpha, thrust, command = lookup(t)
        axial, transverse = forces(r, v, alpha, thrust)

        grav = m_mu / (r * r)
        f1 = axial - grav * b11
        f2 = -grav * b21
        f3 = -grav * b31
        if lift_along_b2:
            f2 += transverse
        elif transverse != 0.0:
            # b21 + 0.0 turns a -0.0 into +0.0 and changes no other value
            sigma = command + atan2(b31, b21 + 0.0) if beta_mode else command
            f2 += transverse * cos(sigma)
            f3 += transverse * sin(sigma)

        if we != 0.0:
            u1 = 2.0 * (ea1 * ea3 - ea2 * eta_a)
            u2 = 2.0 * (ea2 * ea3 + ea1 * eta_a)
            u3 = 1.0 - 2.0 * (ea1 * ea1 + ea2 * ea2)
            c1 = eb2 * u3 - eb3 * u2
            c2 = eb3 * u1 - eb1 * u3
            c3 = eb1 * u2 - eb2 * u1
            w1 = u1 + 2.0 * (eb2 * c3 - eb3 * c2 - eta_b * c1)
            w2 = u2 + 2.0 * (eb3 * c1 - eb1 * c3 - eta_b * c2)
            w3 = u3 + 2.0 * (eb1 * c2 - eb2 * c1 - eta_b * c3)
            cor = two_m_we * v
            cen = m_we2 * r
            f1 -= cen * (u1 * w1 - b11)
            f2 -= cor * w3 + cen * (u1 * w2 - b21)
            f3 += cor * w2 - cen * (u1 * w3 - b31)

        # half of each angular rate: the quaternion rates are half products
        half_v_r = 0.5 * v / r
        ha2 = -half_v_r * b13
        ha3 = half_v_r * b12
        half_minv = 0.5 / (m * v)
        hb2 = -f3 * half_minv - half_v_r * b31
        hb3 = f2 * half_minv + half_v_r * b21

        if lift_along_b2:
            if beta_mode:
                denom = 1.0 - b11 * b11
                if denom < VERTICAL_SIN_EPS:
                    raise SingularityError(
                        "bank tracking undefined in vertical flight"
                    )
                hb1 = 0.5 * command + (b11 / denom) * (hb2 * b21 + hb3 * b31)
            else:
                hb1 = 0.5 * command
            qb1 = eta_b * hb1 - eb3 * hb2 + eb2 * hb3
            qb2 = eb3 * hb1 + eta_b * hb2 - eb1 * hb3
            qb3 = -eb2 * hb1 + eb1 * hb2 + eta_b * hb3
            qb4 = -(eb1 * hb1 + eb2 * hb2 + eb3 * hb3)
        else:
            qb1 = eb2 * hb3 - eb3 * hb2
            qb2 = eta_b * hb2 - eb1 * hb3
            qb3 = eb1 * hb2 + eta_b * hb3
            qb4 = -(eb2 * hb2 + eb3 * hb3)

        return [
            v * b11,
            ea2 * ha3 - ea3 * ha2,
            eta_a * ha2 - ea1 * ha3,
            ea1 * ha2 + eta_a * ha3,
            -(ea2 * ha2 + ea3 * ha3),
            f1 / m,
            qb1,
            qb2,
            qb3,
            qb4,
        ]

    return rhs


def make_rvh_rhs(controls: ControlProfile, env: Environment) -> Callable:
    """Right-hand side of the eight-parameter angular-momentum-gauge form."""
    mu, we, m = env.body.mu, env.body.spin_rate, env.vehicle.mass
    m_mu, two_m_we = m * mu, 2.0 * m * we
    forces = make_forces(env)
    lookup = controls.lookup("bank")
    beta_mode = controls.bank_mode == "beta"

    def rhs(t, y):
        r, ea1, ea2, ea3, eta_a, v, eb3, eta_b = y
        if r <= 0.0:
            raise SingularityError("nonpositive radius")
        if v <= 0.0:
            raise SingularityError("kinetic singularity: nonpositive speed")
        pair = eb3 * eta_b
        if abs(pair) <= RVH_SINGULARITY_EPS:
            raise SingularityError("rvh vertical-flight singularity")

        b11 = 1.0 - 2.0 * eb3 * eb3
        b12 = 2.0 * pair
        b21 = -b12
        b22 = b11

        a13 = 2.0 * (ea1 * ea3 - ea2 * eta_a)
        a23 = 2.0 * (ea2 * ea3 + ea1 * eta_a)
        a33 = 1.0 - 2.0 * (ea1 * ea1 + ea2 * ea2)

        alpha, thrust, bank = lookup(t)
        axial, transverse = forces(r, v, alpha, thrust)

        if transverse != 0.0:
            # The in-plane gauge keeps C_BA(2,1) = -sin(angle) < 0 and
            # C_BA(3,1) = 0, so the physical bank differs from the native
            # one by exactly pi.
            sigma = bank + pi if beta_mode else bank
            f2_aero = transverse * cos(sigma)
            f3_aero = transverse * sin(sigma)
        else:
            f2_aero = 0.0
            f3_aero = 0.0

        grav = m_mu / (r * r)
        f1 = axial - grav * b11
        f2 = f2_aero - grav * b21
        f3 = f3_aero

        if we != 0.0:
            be23 = b21 * a13 + b22 * a23
            be33 = a33
            cor = two_m_we * v
            g1 = a13 * a13 - 1.0
            g2 = a13 * a23
            g3 = a13 * a33
            cen = m * r * we * we
            ft1 = f1 - cen * (b11 * g1 + b12 * g2)
            ft2 = f2 - cor * be33 - cen * (b21 * g1 + b22 * g2)
            ft3 = f3 + cor * be23 - cen * g3
        else:
            ft1 = f1
            ft2 = f2
            ft3 = f3

        wa1 = ft3 / (2.0 * m * v * pair)
        wa3 = (2.0 * v / r) * eta_b * eb3
        wb3 = ft2 / (m * v) - wa3

        return [
            v * b11,
            0.5 * (wa1 * eta_a + wa3 * ea2),
            0.5 * (wa1 * ea3 - wa3 * ea1),
            0.5 * (-wa1 * ea2 + wa3 * eta_a),
            -0.5 * (wa1 * ea1 + wa3 * ea3),
            ft1 / m,
            0.5 * wb3 * eta_b,
            -0.5 * wb3 * eb3,
        ]

    return rhs


def make_cartesian_rhs(controls: ControlProfile, env: Environment) -> Callable:
    """Ground-truth right-hand side assembled directly in observation coordinates.

    The bank command is always the physical bank angle here; with a nonzero
    transverse force the lift direction is built from the {position,
    velocity} plane and is undefined in vertical flight.
    """
    mu, we, m = env.body.mu, env.body.spin_rate, env.vehicle.mass
    two_we, we2 = 2.0 * we, we * we
    forces = make_forces(env)
    lookup = controls.lookup("bank")

    def rhs(t, y):
        px, py, pz, vx, vy, vz = y
        r2 = px * px + py * py + pz * pz
        r = r2**0.5
        v = (vx * vx + vy * vy + vz * vz) ** 0.5
        if r <= 0.0:
            raise SingularityError("nonpositive radius")
        if v <= 0.0:
            raise SingularityError("kinetic singularity: nonpositive speed")

        alpha, thrust, beta = lookup(t)
        axial, transverse = forces(r, v, alpha, thrust)

        along = axial / (m * v)
        ax = along * vx
        ay = along * vy
        az = along * vz

        if transverse != 0.0:
            hx = py * vz - pz * vy
            hy = pz * vx - px * vz
            hz = px * vy - py * vx
            hn = (hx * hx + hy * hy + hz * hz) ** 0.5
            if hn <= VERTICAL_SIN_EPS * r * v:
                raise SingularityError(
                    "lift direction undefined in vertical flight"
                )
            g2x, g2y, g2z = -hx / hn, -hy / hn, -hz / hn
            g3x, g3y, g3z = vx / v, vy / v, vz / v
            g1x = g2y * g3z - g2z * g3y
            g1y = g2z * g3x - g2x * g3z
            g1z = g2x * g3y - g2y * g3x
            cb = cos(beta)
            sb = sin(beta)
            scale = transverse / m
            ax += scale * (cb * g1x + sb * g2x)
            ay += scale * (cb * g1y + sb * g2y)
            az += scale * (cb * g1z + sb * g2z)

        gscale = mu / (r2 * r)
        ax -= gscale * px
        ay -= gscale * py
        az -= gscale * pz

        if we != 0.0:
            ax += two_we * vy + we2 * px
            ay += -two_we * vx + we2 * py

        return [vx, vy, vz, ax, ay, az]

    return rhs


def make_spherical_rhs(controls: ControlProfile, env: Environment) -> Callable:
    """Right-hand side of the spherical baseline.

    Divides by cos(flight path angle) and cos(latitude); both vertical
    flight and pole crossing raise instead of returning garbage.  The bank
    command is the physical bank angle.
    """
    mu, we, m = env.body.mu, env.body.spin_rate, env.vehicle.mass
    forces = make_forces(env)
    lookup = controls.lookup("bank")
    gamma_max = pi / 2 - SPHERICAL_GAMMA_EPS

    def rhs(t, y):
        r, _lon, lat, v, gamma, psi = y
        if r <= 0.0:
            raise SingularityError("nonpositive radius")
        if v <= 0.0:
            raise SingularityError("kinetic singularity: nonpositive speed")
        if abs(gamma) >= gamma_max:
            raise SingularityError("spherical vertical-flight singularity")
        if abs(lat) >= gamma_max:
            raise SingularityError("spherical pole singularity")

        sg = sin(gamma)
        cg = cos(gamma)
        sp = sin(psi)
        cp = cos(psi)
        st = sin(lat)
        ct = cos(lat)

        alpha, thrust, beta = lookup(t)
        axial, transverse = forces(r, v, alpha, thrust)
        cb = cos(beta)
        sb = sin(beta)

        g = mu / (r * r)
        we2r = we * we * r
        mv = m * v
        v_r = v / r

        rdot = v * sg
        londot = v * cg * sp / (r * ct)
        latdot = v * cg * cp / r
        vdot = axial / m - g * sg + we2r * ct * (sg * ct - cg * cp * st)
        gammadot = (
            (transverse * cb) / mv
            + (v_r - g / v) * cg
            + 2.0 * we * sp * ct
            + (we2r / v) * ct * (cg * ct + sg * cp * st)
        )
        psidot = (
            (transverse * sb) / (mv * cg)
            + v_r * cg * sp * st / ct
            - 2.0 * we * ((sg / cg) * cp * ct - st)
            + (we2r / (v * cg)) * sp * st * ct
        )
        return [rdot, londot, latdot, vdot, gammadot, psidot]

    return rhs


def _vertical(c21, c31):
    """Whether B's first axis lies along A's, from C_BA(2,1) and C_BA(3,1).

    Works on floats and, elementwise, on arrays.
    """
    return c21 * c21 + c31 * c31 < VERTICAL_SIN_EPS * VERTICAL_SIN_EPS


def _beta(sigma, c21, c31):
    return atan2(sin(sigma) * c21 - cos(sigma) * c31, cos(sigma) * c21 + sin(sigma) * c31)


# --- parameterization registry -------------------------------------------


def rvl_twist(qb, controls: ControlProfile, t0: float):
    """Lift-gauge B Euler parameters from rv-gauge ones ``qb`` at the initial time ``t0``.

    Twists B about its first axis so the second axis points at the bank
    command at ``t0``.  In ``sigma`` mode the twist equals that command,
    which makes a zero bank-rate command equivalent to the rv form flying a
    constant bank.  In ``beta`` mode the twist also absorbs the rv gauge's
    offset from the {position, velocity} plane, ``atan2(b31, b21 + 0.0)``
    as the rv derivative takes it, so the physical bank starts on profile.
    """
    angle = controls.lookup("bank")(t0)[2]
    if controls.bank_mode == "beta":
        c_ba = dcm_entries(*map(float, qb))
        angle = atan2(c_ba[6], c_ba[3] + 0.0) + angle
    return twist(qb, angle) if angle != 0.0 else qb


def _rvl_from_rv(y, controls, t0):
    out = np.array(y, dtype=float)
    out[6:10] = rvl_twist(out[6:10], controls, t0)
    return out


def _rv_columns(y, bank, bank_mode):
    """Gauge columns of ten-parameter rows ``y`` flying ``bank`` in ``bank_mode``.

    ``bank`` is the bank command of each row, a list of floats.  In
    ``beta`` mode the native bank ``sigma`` is the command plus the gauge's
    offset from the {position, velocity} plane, ``bank + atan2(c31, c21 +
    0.0)``, the rule of the rv derivative, so in vertical flight too it is
    the bank the derivative flew.  ``beta`` is the native bank measured
    from that plane, and 0.0 where the plane is undefined, in vertical
    flight.
    """
    c_ba = dcm_rows(renormalize_rows(y[:, 6:10]))
    c21, c31 = c_ba[:, 1, 0], c_ba[:, 2, 0]
    rows = list(zip(c21.tolist(), c31.tolist(), _vertical(c21, c31).tolist()))
    if bank_mode == "beta":
        bank = [b + atan2(c, a + 0.0) for b, (a, c, _) in zip(bank, rows)]
    beta = [0.0 if vert else _beta(sig, a, c) for sig, (a, c, vert) in zip(bank, rows)]
    return {
        "norm_qa": row_norms(y[:, 1:5]),
        "norm_qb": row_norms(y[:, 6:10]),
        "eps_a1": y[:, 1], "eps_a2": y[:, 2], "eps_a3": y[:, 3], "eta_a": y[:, 4],
        "eps_b1": y[:, 6], "eps_b2": y[:, 7], "eps_b3": y[:, 8], "eta_b": y[:, 9],
        "sigma": np.array(bank, dtype=float),
        "beta": np.array(beta, dtype=float),
    }


def _baseline_columns(y, bank, bank_mode):
    """The one gauge column of a form without quaternions: ``beta``, its bank command."""
    return {"beta": np.array(bank, dtype=float)}


@dataclass(frozen=True, eq=False)
class Parameterization:
    """One state form: everything needed to build, initialise and describe it.

    * ``make_rhs(controls, env)`` builds the derivative ``rhs(t, y)``.
    * ``to_cartesian_rows(y)`` is the form's one conversion in
      :mod:`quatflight.states`: it renormalizes state rows ``y``
      (n, size), raises the ``ValueError`` of the first row out of range,
      and gives positions and velocities ``(p, v)``, each (n, 3).  rvh
      converts, and gives its ``gauge_columns``, as rv does on its rows
      widened by ``states.rvh_rows_to_rv``.
    * ``from_cartesian(c)`` gives the row of a physical state ``c`` in the
      form's own gauge; rv, spherical and cartesian have it.
    * ``gauge_columns(y, bank, bank_mode)`` gives, for state rows ``y``
      (n, size) and the bank command ``bank`` of each row (a list of n
      floats) read in ``bank_mode``, one array per diagnostic column that
      depends on the form, and only the columns the form has: quaternion
      components and norms, the native bank ``sigma`` and the
      plane-referenced bank ``beta`` (0.0 where it is undefined).  A form
      without quaternions has ``beta`` alone, its bank command.
    * ``quat_spans`` are the ``(lo, hi)`` slices of ``y`` holding unit
      quaternions (rvh's ``(eps_b3, eta_b)`` counts as one), which the
      propagator renormalizes and scenario loading checks.
    * ``scales`` are the per-component error scales of the step controller.
    * ``radius_index`` locates the radius in ``y``; -1 when it must be
      derived from a Cartesian position.
    * ``from_rv(y, controls, t0)`` is set instead for rvl and rvh, the rv
      state in other gauges: it turns the rv row ``y`` about the first
      axes of A and B with :func:`quatflight.quat.twist`, to the lift
      direction at the initial time ``t0`` (rvl) or to the angular
      momentum (rvh), and keeps r and v.  A scenario derives such a form's
      initial row from its rv row this way, once, when it is built.
    """

    make_rhs: Callable
    to_cartesian_rows: Callable
    gauge_columns: Callable
    quat_spans: tuple
    scales: np.ndarray
    radius_index: int
    from_cartesian: Optional[Callable] = None
    from_rv: Optional[Callable] = None

    def to_cartesian(self, y) -> CartesianState:
        """One flat state ``y`` converted as a one-row ``to_cartesian_rows``."""
        p, v = self.to_cartesian_rows(np.asarray(y, dtype=float)[None, :])
        return CartesianState(p[0], v[0])

    def radius(self, y) -> float:
        if self.radius_index >= 0:
            return float(y[self.radius_index])
        # in floats, so its bits depend on no BLAS kernel
        px, py, pz = y[0], y[1], y[2]
        return sqrt(px * px + py * py + pz * pz)


_TEN_PARAMETER_SCALES = np.array(
    [_LENGTH_SCALE, 1, 1, 1, 1, _SPEED_SCALE, 1, 1, 1, 1], dtype=float
)

PARAMETERIZATIONS = {
    "rv": Parameterization(
        make_rhs=make_rv_rhs,
        to_cartesian_rows=rv_rows_to_cartesian,
        from_cartesian=cartesian_to_rv,
        gauge_columns=_rv_columns,
        quat_spans=((1, 5), (6, 10)),
        scales=_TEN_PARAMETER_SCALES,
        radius_index=0,
    ),
    "rvl": Parameterization(
        make_rhs=make_rvl_rhs,
        to_cartesian_rows=rv_rows_to_cartesian,
        # the lift gauge's second axis is the lift direction: native bank zero
        gauge_columns=lambda y, bank, bank_mode: _rv_columns(y, [0.0] * len(bank), "sigma"),
        quat_spans=((1, 5), (6, 10)),
        scales=_TEN_PARAMETER_SCALES,
        radius_index=0,
        from_rv=_rvl_from_rv,
    ),
    "rvh": Parameterization(
        make_rhs=make_rvh_rhs,
        to_cartesian_rows=lambda y: rv_rows_to_cartesian(rvh_rows_to_rv(y)),
        gauge_columns=lambda y, bank, bank_mode: _rv_columns(rvh_rows_to_rv(y), bank, bank_mode),
        quat_spans=((1, 5), (6, 8)),
        scales=np.array([_LENGTH_SCALE, 1, 1, 1, 1, _SPEED_SCALE, 1, 1], dtype=float),
        radius_index=0,
        from_rv=lambda y, controls, t0: rv_to_rvh(y),
    ),
    "spherical": Parameterization(
        make_rhs=make_spherical_rhs,
        to_cartesian_rows=spherical_rows_to_cartesian,
        from_cartesian=cartesian_to_spherical,
        gauge_columns=_baseline_columns,
        quat_spans=(),
        scales=np.array([_LENGTH_SCALE, 1, 1, _SPEED_SCALE, 1, 1], dtype=float),
        radius_index=0,
    ),
    "cartesian": Parameterization(
        make_rhs=make_cartesian_rhs,
        to_cartesian_rows=cartesian_rows_to_cartesian,
        from_cartesian=lambda c: np.concatenate((c.position, c.velocity)),
        gauge_columns=_baseline_columns,
        quat_spans=(),
        scales=np.array([_LENGTH_SCALE] * 3 + [_SPEED_SCALE] * 3, dtype=float),
        radius_index=-1,
    ),
}


# --- diagnostics of propagated samples -------------------------------------


def sample_diagnostics(name: str, t, y, controls: ControlProfile, env: Environment) -> dict:
    """Derived quantities of propagated samples, one array per CSV column.

    ``t`` (n,) are the sample times and ``y`` (n, size) the form's state
    rows.  Position, velocity, their magnitudes, the angular-momentum
    magnitude and the specific orbital energy come from one
    ``to_cartesian_rows`` call; the form's ``gauge_columns`` add its
    quaternion and bank-angle columns, only those the form has: a column
    the form does not have is absent, so the quaternion forms give 23
    columns and spherical and cartesian 12.  The commanded angle of attack
    and bank come from one :meth:`ControlProfile.lookup`, called per sample
    time, so they are the commands the derivative flew.  Every value has
    the bits the per-sample arithmetic gives: the energy is Python-float
    arithmetic per row (float ``**`` is the C library's ``pow``).
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    spec = PARAMETERIZATIONS[name]
    p, v = spec.to_cartesian_rows(y)
    r = row_norms(p)
    speed = row_norms(v)
    mu = env.body.mu
    energy = [0.5 * s**2 - mu / q for s, q in zip(speed.tolist(), r.tolist())]
    lookup = controls.lookup("bank")
    commands = [lookup(tk) for tk in t.tolist()]  # (alpha, thrust, bank) per row
    bank = [c[2] for c in commands]
    out = {
        "x": p[:, 0],
        "y": p[:, 1],
        "z": p[:, 2],
        "vx": v[:, 0],
        "vy": v[:, 1],
        "vz": v[:, 2],
        "r": r,
        "v": speed,
        "h_mag": row_norms(np.cross(p, v)),
        "energy": np.array(energy, dtype=float),
        "alpha": np.array([c[0] for c in commands], dtype=float),
    }
    out.update(spec.gauge_columns(y, bank, controls.bank_mode))
    return out
