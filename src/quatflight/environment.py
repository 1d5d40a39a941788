"""Central-body, atmosphere, vehicle, and force models.

Forces are expressed in the velocity frame's basis (B), where the first
axis points along the observation-frame-relative velocity.  The net force
collects thrust, drag, lift, and gravity; the apparent force additionally
removes the Coriolis and centripetal contributions of the rotating
observation frame so that ``f_apparent / m`` is the acceleration seen by an
observer rotating with the central body.

The atmosphere is a single-scale-height exponential and the aerodynamic
coefficients are a linear lift slope with a parabolic drag polar; both are
deliberately minimal stand-ins, overridable through the scenario
configuration.

The derivative functions evaluate this model in scalar form through one
force kernel, ``dynamics.make_forces``.  The functions here are the same
model in matrix form (:func:`density`, :func:`aero_forces`,
:func:`net_force_B`, :func:`apparent_force_B`): a reference the tests check
that kernel against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CentralBody:
    """Gravitational parameter (m^3/s^2), equatorial radius (m), and spin rate (rad/s).

    The body rotates at a constant rate about the observation frame's third
    axis.
    """

    mu: float
    radius: float
    spin_rate: float

    def __post_init__(self):
        if self.mu <= 0.0 or self.radius <= 0.0:
            raise ValueError("mu and radius must be positive")
        if self.spin_rate < 0.0:
            raise ValueError("spin_rate must be non-negative")


@dataclass(frozen=True)
class Atmosphere:
    """Exponential density profile rho0 * exp(-h / scale_height)."""

    rho0: float
    scale_height: float

    def __post_init__(self):
        if self.rho0 < 0.0:
            raise ValueError("rho0 must be non-negative")
        if self.scale_height <= 0.0:
            raise ValueError("scale_height must be positive")


@dataclass(frozen=True)
class AeroModel:
    """Reference area (m^2), lift slope (1/rad), zero-lift drag, induced-drag factor."""

    s: float
    cl_alpha: float
    cd0: float
    k: float

    def __post_init__(self):
        if self.s <= 0.0:
            raise ValueError("reference area must be positive")
        if self.cd0 < 0.0 or self.k < 0.0:
            raise ValueError("cd0 and k must be non-negative")


@dataclass(frozen=True)
class Vehicle:
    """Point-mass vehicle: mass (kg) and thrust offset angle (rad).

    The thrust itself is a command, ``ControlProfile.thrust``.
    """

    mass: float
    thrust_offset: float = 0.0

    def __post_init__(self):
        if self.mass <= 0.0:
            raise ValueError("mass must be positive")


@dataclass(frozen=True)
class Environment:
    """Everything the derivative functions need besides the state and controls."""

    body: CentralBody
    atmosphere: Atmosphere
    aero: AeroModel
    vehicle: Vehicle


@dataclass(frozen=True)
class ControlInput:
    """Instantaneous commands: angle of attack, bank, bank-rate, thrust (rad, rad/s, N)."""

    alpha: float = 0.0
    sigma: float = 0.0
    wb1: float = 0.0
    thrust: float = 0.0


EARTH = CentralBody(mu=3.986004418e14, radius=6378137.0, spin_rate=7.2921159e-5)


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
