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

Each number field declares its default and its bound once, with
``errors.number``, and every record checks them all when it is built
(``errors.check_numbers``): a value must be finite and meet its bound.
The scenario reader reads these fields under the same rule.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import check_numbers, number


@dataclass(frozen=True)
class CentralBody:
    """Gravitational parameter (m^3/s^2), equatorial radius (m), and spin rate (rad/s).

    The body rotates at a constant rate about the observation frame's third
    axis.
    """

    mu: float = number(bound=(">", 0.0))
    radius: float = number(bound=(">", 0.0))
    spin_rate: float = number(0.0, (">=", 0.0))

    __post_init__ = check_numbers


@dataclass(frozen=True)
class Atmosphere:
    """Exponential density profile rho0 * exp(-h / scale_height)."""

    rho0: float = number(0.0, (">=", 0.0))
    scale_height: float = number(8500.0, (">", 0.0))

    __post_init__ = check_numbers


@dataclass(frozen=True)
class AeroModel:
    """Reference area (m^2), lift slope (1/rad), zero-lift drag, induced-drag factor."""

    s: float = number(bound=(">", 0.0))
    cl_alpha: float = number(0.0)
    cd0: float = number(0.0, (">=", 0.0))
    k: float = number(0.0, (">=", 0.0))

    __post_init__ = check_numbers


@dataclass(frozen=True)
class Vehicle:
    """Point-mass vehicle: mass (kg) and thrust offset angle (rad).

    The thrust itself is a command, ``ControlProfile.thrust``.
    """

    mass: float = number(bound=(">", 0.0))
    thrust_offset: float = number(0.0)

    __post_init__ = check_numbers


@dataclass(frozen=True)
class Environment:
    """Everything the derivative functions need besides the state and controls."""

    body: CentralBody
    atmosphere: Atmosphere
    aero: AeroModel
    vehicle: Vehicle


EARTH = CentralBody(mu=3.986004418e14, radius=6378137.0, spin_rate=7.2921159e-5)
