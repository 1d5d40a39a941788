"""State-derivative functions for every supported flight-state representation.

The ten-parameter quaternion forms share one structure.  Writing the state
as radius r, speed v, and the two frame quaternions (position frame A over
the observation frame E, velocity frame B over A), the kinematics give

    rdot  = v * (1 - 2*(eb2^2 + eb3^2))
    wa2   = (2v/r) * (eta_b*eb2 - eb1*eb3)
    wa3   = (2v/r) * (eta_b*eb3 + eb1*eb2)

and the kinetics, with the apparent force (f1~, f2~, f3~) in the B basis,

    vdot  = f1~/m
    wb2   = -f3~/(m v) - wa1*C_BA(2,1) - (v/r)*C_BA(3,1)
    wb3   =  f2~/(m v) - wa1*C_BA(3,1) + (v/r)*C_BA(2,1)

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
``sigma`` mode) or the bank rate (rvl in ``beta`` mode).  The lookup reads
a per-segment table fixed when it is built, so the derivatives keep no
state between calls, and its values have the bits of the profiles' own
``__call__`` and ``rate``.  All five derivative functions then take the
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
from .quat import dcm_from_quat, dcm_rows, renormalize_rows, row_norms
from .states import (
    CartesianState,
    cartesian_rows_to_cartesian,
    cartesian_to_rv,
    cartesian_to_rvh,
    cartesian_to_spherical,
    rv_rows_to_cartesian,
    rvh_rows_to_rv,
    spherical_rows_to_cartesian,
    twist_about_b1,
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
        qdyn = 0.5 * rho * v * v
        cl = cla * alpha
        lift = qdyn * sref * cl
        drag = qdyn * sref * (cd0 + kdrag * cl * cl)
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
    mu, we, m = env.body.mu, env.body.spin_rate, env.vehicle.mass
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
                sigma = command + atan2(b31, b21)
            else:
                sigma = command
            f2_aero = transverse * cos(sigma)
            f3_aero = transverse * sin(sigma)
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


def make_rvh_rhs(controls: ControlProfile, env: Environment) -> Callable:
    """Right-hand side of the eight-parameter angular-momentum-gauge form."""
    mu, we, m = env.body.mu, env.body.spin_rate, env.vehicle.mass
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

        grav = m * mu / (r * r)
        f1 = axial - grav * b11
        f2 = f2_aero - grav * b21
        f3 = f3_aero

        if we != 0.0:
            be23 = b21 * a13 + b22 * a23
            be33 = a33
            cor = 2.0 * m * we * v
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
        wb3 = ft2 / (m * v) - (2.0 * v / r) * eta_b * eb3

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

        ax = (axial / (m * v)) * vx
        ay = (axial / (m * v)) * vy
        az = (axial / (m * v)) * vz

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
            ax += 2.0 * we * vy + we * we * px
            ay += -2.0 * we * vx + we * we * py

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

        rdot = v * sg
        londot = v * cg * sp / (r * ct)
        latdot = v * cg * cp / r
        vdot = axial / m - g * sg + we2r * ct * (sg * ct - cg * cp * st)
        gammadot = (
            (transverse * cb) / (m * v)
            + (v / r - g / v) * cg
            + 2.0 * we * sp * ct
            + (we2r / v) * ct * (cg * ct + sg * cp * st)
        )
        psidot = (
            (transverse * sb) / (m * v * cg)
            + (v / r) * cg * sp * st / ct
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


def _sigma(beta, c21, c31):
    return beta + atan2(c31, c21)


# --- parameterization registry -------------------------------------------


def rvl_twist(qb, controls: ControlProfile, t0: float):
    """Lift-gauge B Euler parameters from rv-gauge ones ``qb`` at the initial time ``t0``.

    Twists B about its first axis so the second axis points at the bank
    command at ``t0``.  In ``sigma`` mode the twist equals that command,
    which makes a zero bank-rate command equivalent to the rv form flying a
    constant bank.  In ``beta`` mode the twist also absorbs the rv gauge's
    offset from the {position, velocity} plane so the physical bank starts
    on profile.
    """
    twist = controls.bank(t0)
    if controls.bank_mode == "beta":
        c_ba = dcm_from_quat(qb)
        twist = atan2(c_ba[2, 0], c_ba[1, 0]) + twist
    return twist_about_b1(qb, twist) if twist != 0.0 else qb


def _rvl_from_rv(y, controls, t0):
    out = np.array(y, dtype=float)
    out[6:10] = rvl_twist(out[6:10], controls, t0)
    return out


def _bank_columns(sigma, c21, c31):
    """The ``sigma`` and ``beta`` columns from the native bank and C_BA(2,1), C_BA(3,1).

    ``sigma`` is a list of floats and the matrix entries are arrays; beta is
    0.0 in vertical flight, where it is undefined.
    """
    vertical = _vertical(c21, c31).tolist()
    beta = [
        0.0 if vert else _beta(sig, a, b)
        for sig, a, b, vert in zip(sigma, c21.tolist(), c31.tolist(), vertical)
    ]
    return {"sigma": np.array(sigma, dtype=float), "beta": np.array(beta, dtype=float)}


def _two_quaternion_columns(native_bank):
    """Gauge columns of a ten-parameter form.

    ``native_bank(t, controls, c21, c31)`` gives the native bank ``sigma``
    as a list of floats, one per sample time in the list ``t``.
    """

    def columns(t, y, controls):
        c_ba = dcm_rows(renormalize_rows(y[:, 6:10]))
        c21, c31 = c_ba[:, 1, 0], c_ba[:, 2, 0]
        return {
            "norm_qa": row_norms(y[:, 1:5]),
            "norm_qb": row_norms(y[:, 6:10]),
            "eps_a1": y[:, 1], "eps_a2": y[:, 2], "eps_a3": y[:, 3], "eta_a": y[:, 4],
            "eps_b1": y[:, 6], "eps_b2": y[:, 7], "eps_b3": y[:, 8], "eta_b": y[:, 9],
            **_bank_columns(native_bank(t.tolist(), controls, c21, c31), c21, c31),
        }

    return columns


def _rv_bank(t, controls, c21, c31):
    bank = [controls.bank(tk) for tk in t]
    if controls.bank_mode == "sigma":
        return bank
    vertical = _vertical(c21, c31).tolist()
    return [
        0.0 if vert else _sigma(b, a, c)
        for b, a, c, vert in zip(bank, c21.tolist(), c31.tolist(), vertical)
    ]


_rv_columns = _two_quaternion_columns(_rv_bank)


def _rvl_bank(t, controls, c21, c31):
    # the lift gauge's second axis is the lift direction: native bank zero
    return [0.0] * len(t)


_NO_QUATERNIONS = (
    "norm_qa", "norm_qb", "eps_a1", "eps_a2", "eps_a3", "eta_a",
    "eps_b1", "eps_b2", "eps_b3", "eta_b", "sigma",
)


def _baseline_columns(t, y, controls):
    nan = np.full(len(y), np.nan)
    return {
        **dict.fromkeys(_NO_QUATERNIONS, nan),
        "beta": np.array([controls.bank(tk) for tk in t.tolist()], dtype=float),
    }


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
    * ``from_cartesian(c, controls, t0)`` gives the row of a physical
      state, in the form's gauge at the initial time ``t0``.
    * ``gauge_columns(t, y, controls)`` gives, for sample times ``t`` (n,)
      and rows ``y``, one array per diagnostic column that depends on the
      form: quaternion components and norms, the native bank ``sigma`` and
      the plane-referenced bank ``beta`` (0.0 where it is undefined).
      Forms without quaternions give NaN for all of these except ``beta``,
      which is their bank command.
    * ``quat_spans`` are the ``(lo, hi)`` slices of ``y`` holding unit
      quaternions (rvh's ``(eps_b3, eta_b)`` counts as one), which the
      propagator renormalizes and scenario loading checks.
    * ``scales`` are the per-component error scales of the step controller.
    * ``radius_index`` locates the radius in ``y``; -1 when it must be
      derived from a Cartesian position.
    * ``from_rv(y, controls, t0)``, when set, derives the form from an rv
      row while keeping its gauge and its bits.  A scenario derives the
      form's initial row from its rv row this way, once, when it is built,
      so a native rv state is not regauged through Cartesian coordinates.
    """

    make_rhs: Callable
    to_cartesian_rows: Callable
    from_cartesian: Callable
    gauge_columns: Callable
    quat_spans: tuple
    scales: np.ndarray
    radius_index: int
    from_rv: Optional[Callable] = None

    def to_cartesian(self, y) -> CartesianState:
        """One flat state ``y`` converted as a one-row ``to_cartesian_rows``."""
        p, v = self.to_cartesian_rows(np.asarray(y, dtype=float)[None, :])
        return CartesianState(p[0], v[0])

    def radius(self, y) -> float:
        if self.radius_index >= 0:
            return float(y[self.radius_index])
        # np.linalg.norm's arithmetic on a state list, without its overhead
        p = np.array(y[0:3], dtype=float)
        return sqrt(p.dot(p))


_TEN_PARAMETER_SCALES = np.array(
    [_LENGTH_SCALE, 1, 1, 1, 1, _SPEED_SCALE, 1, 1, 1, 1], dtype=float
)

PARAMETERIZATIONS = {
    "rv": Parameterization(
        make_rhs=make_rv_rhs,
        to_cartesian_rows=rv_rows_to_cartesian,
        from_cartesian=lambda c, controls, t0: cartesian_to_rv(c),
        gauge_columns=_rv_columns,
        quat_spans=((1, 5), (6, 10)),
        scales=_TEN_PARAMETER_SCALES,
        radius_index=0,
    ),
    "rvl": Parameterization(
        make_rhs=make_rvl_rhs,
        to_cartesian_rows=rv_rows_to_cartesian,
        from_cartesian=lambda c, controls, t0: _rvl_from_rv(cartesian_to_rv(c), controls, t0),
        gauge_columns=_two_quaternion_columns(_rvl_bank),
        quat_spans=((1, 5), (6, 10)),
        scales=_TEN_PARAMETER_SCALES,
        radius_index=0,
        from_rv=_rvl_from_rv,
    ),
    "rvh": Parameterization(
        make_rhs=make_rvh_rhs,
        to_cartesian_rows=lambda y: rv_rows_to_cartesian(rvh_rows_to_rv(y)),
        from_cartesian=lambda c, controls, t0: cartesian_to_rvh(c),
        gauge_columns=lambda t, y, controls: _rv_columns(t, rvh_rows_to_rv(y), controls),
        quat_spans=((1, 5), (6, 8)),
        scales=np.array([_LENGTH_SCALE, 1, 1, 1, 1, _SPEED_SCALE, 1, 1], dtype=float),
        radius_index=0,
    ),
    "spherical": Parameterization(
        make_rhs=make_spherical_rhs,
        to_cartesian_rows=spherical_rows_to_cartesian,
        from_cartesian=lambda c, controls, t0: cartesian_to_spherical(c),
        gauge_columns=_baseline_columns,
        quat_spans=(),
        scales=np.array([_LENGTH_SCALE, 1, 1, _SPEED_SCALE, 1, 1], dtype=float),
        radius_index=0,
    ),
    "cartesian": Parameterization(
        make_rhs=make_cartesian_rhs,
        to_cartesian_rows=cartesian_rows_to_cartesian,
        from_cartesian=lambda c, controls, t0: np.concatenate((c.position, c.velocity)),
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
    quaternion and bank-angle columns.  Every value has the bits the
    per-sample arithmetic gives: the energy is Python-float arithmetic per
    row (float ``**`` is the C library's ``pow``) and the profiles are
    evaluated per sample time.
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    spec = PARAMETERIZATIONS[name]
    p, v = spec.to_cartesian_rows(y)
    r = row_norms(p)
    speed = row_norms(v)
    mu = env.body.mu
    energy = [0.5 * s**2 - mu / q for s, q in zip(speed.tolist(), r.tolist())]
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
        "alpha": np.array([controls.alpha(tk) for tk in t.tolist()], dtype=float),
    }
    out.update(spec.gauge_columns(t, y, controls))
    return out
