"""Central-body, atmosphere, aerodynamic and vehicle parameters of the force model.

Forces are expressed in the velocity frame's basis (B), where the first
axis points along the observation-frame-relative velocity.  The net force
collects thrust, drag, lift, and gravity; the apparent force additionally
removes the Coriolis and centripetal contributions of the rotating
observation frame so that ``f_apparent / m`` is the acceleration seen by an
observer rotating with the central body.

The atmosphere is a single-scale-height exponential and the aerodynamic
coefficients are a linear lift slope with a parabolic drag polar; both are
deliberately minimal stand-ins, overridable through the scenario
configuration.  The derivative functions evaluate the forces from these
parameters through one kernel, ``dynamics.make_forces``.

Every field of these records must be finite, as in a scenario file, and
each bound is written so that NaN fails it, as ``not (x > 0.0)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields


def _require_finite(record):
    for f in fields(record):
        value = getattr(record, f.name)
        if not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value!r}")


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
        _require_finite(self)
        if not (self.mu > 0.0 and self.radius > 0.0):
            raise ValueError("mu and radius must be positive")
        if not self.spin_rate >= 0.0:
            raise ValueError("spin_rate must be non-negative")


@dataclass(frozen=True)
class Atmosphere:
    """Exponential density profile rho0 * exp(-h / scale_height)."""

    rho0: float
    scale_height: float

    def __post_init__(self):
        _require_finite(self)
        if not self.rho0 >= 0.0:
            raise ValueError("rho0 must be non-negative")
        if not self.scale_height > 0.0:
            raise ValueError("scale_height must be positive")


@dataclass(frozen=True)
class AeroModel:
    """Reference area (m^2), lift slope (1/rad), zero-lift drag, induced-drag factor."""

    s: float
    cl_alpha: float
    cd0: float
    k: float

    def __post_init__(self):
        _require_finite(self)
        if not self.s > 0.0:
            raise ValueError("reference area must be positive")
        if not (self.cd0 >= 0.0 and self.k >= 0.0):
            raise ValueError("cd0 and k must be non-negative")


@dataclass(frozen=True)
class Vehicle:
    """Point-mass vehicle: mass (kg) and thrust offset angle (rad).

    The thrust itself is a command, ``ControlProfile.thrust``.
    """

    mass: float
    thrust_offset: float = 0.0

    def __post_init__(self):
        _require_finite(self)
        if not self.mass > 0.0:
            raise ValueError("mass must be positive")


@dataclass(frozen=True)
class Environment:
    """Everything the derivative functions need besides the state and controls."""

    body: CentralBody
    atmosphere: Atmosphere
    aero: AeroModel
    vehicle: Vehicle


EARTH = CentralBody(mu=3.986004418e14, radius=6378137.0, spin_rate=7.2921159e-5)
