"""Quaternion-based 3DOF point-mass flight dynamics over a rotating central body.

Three gauge choices of a two-quaternion state description (``rv``, ``rvl``,
``rvh``) alongside spherical and Cartesian baselines, with force models,
numerical propagation, and a scenario CLI.  The ``rv`` and ``rvl`` forms
stay finite in vertical flight where the spherical azimuth equation and the
angular-momentum gauge break down.
"""

from .controls import ControlProfile, PiecewiseLinear
from .dynamics import PARAMETERIZATIONS, beta_from_sigma, beta_rate, sigma_from_beta
from .environment import (
    EARTH,
    AeroModel,
    Atmosphere,
    CentralBody,
    ControlInput,
    Environment,
    Vehicle,
    aero_forces,
    apparent_force_B,
    density,
    net_force_B,
)
from .errors import ConfigError, PropagationError, QuatflightError, SingularityError
from .propagation import IntegratorConfig, StopEvent, Trajectory, propagate
from .quat import (
    AxisAngle,
    UnitQuaternion,
    dcm_from_axis_angle,
    dcm_from_quat,
    omega_from_quat_rates,
    quat_from_axis_angle,
    quat_from_dcm,
    quat_rates,
    renormalize,
    skew,
)
from .scenario import (
    ScenarioConfig,
    bundled_scenario_path,
    load_scenario,
    run_scenario,
)
from .states import (
    CartesianState,
    RvhState,
    RvState,
    SphericalState,
    cartesian_to_rv,
    cartesian_to_rvh,
    cartesian_to_spherical,
    rv_to_cartesian,
    rvh_to_cartesian,
    spherical_to_cartesian,
)

__version__ = "0.1.0"

__all__ = [
    "AeroModel",
    "Atmosphere",
    "AxisAngle",
    "CartesianState",
    "CentralBody",
    "ConfigError",
    "ControlInput",
    "ControlProfile",
    "EARTH",
    "Environment",
    "IntegratorConfig",
    "PARAMETERIZATIONS",
    "PiecewiseLinear",
    "PropagationError",
    "QuatflightError",
    "RvState",
    "RvhState",
    "ScenarioConfig",
    "SingularityError",
    "SphericalState",
    "StopEvent",
    "Trajectory",
    "UnitQuaternion",
    "Vehicle",
    "aero_forces",
    "apparent_force_B",
    "beta_from_sigma",
    "beta_rate",
    "bundled_scenario_path",
    "cartesian_to_rv",
    "cartesian_to_rvh",
    "cartesian_to_spherical",
    "dcm_from_axis_angle",
    "dcm_from_quat",
    "density",
    "load_scenario",
    "net_force_B",
    "omega_from_quat_rates",
    "propagate",
    "quat_from_axis_angle",
    "quat_from_dcm",
    "quat_rates",
    "renormalize",
    "run_scenario",
    "rv_to_cartesian",
    "rvh_to_cartesian",
    "sigma_from_beta",
    "skew",
    "spherical_to_cartesian",
]
