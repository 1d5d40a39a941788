"""Quaternion-based 3DOF point-mass flight dynamics over a rotating central body.

Three gauge choices of a two-quaternion state description (``rv``, ``rvl``,
``rvh``) alongside spherical and Cartesian baselines, with force models,
numerical propagation, and a scenario CLI.  The ``rv`` and ``rvl`` forms
stay finite in vertical flight where the spherical azimuth equation and the
angular-momentum gauge break down.

The package exports the scenario API (:func:`load_scenario`,
:func:`run_scenario`), the registry of forms (``PARAMETERIZATIONS``), the
configuration types a scenario is built from, :func:`propagate` and the
error types.  Everything else, such as the state classes and the
quaternion algebra, is imported from its submodule.
"""

from .controls import ControlProfile, PiecewiseLinear
from .dynamics import PARAMETERIZATIONS
from .environment import EARTH, AeroModel, Atmosphere, CentralBody, Environment, Vehicle
from .errors import ConfigError, PropagationError, QuatflightError, SingularityError
from .propagation import IntegratorConfig, StopEvent, Trajectory, propagate
from .scenario import ScenarioConfig, bundled_scenario_path, load_scenario, run_scenario
from .states import CartesianState

__version__ = "0.1.0"

__all__ = [
    "AeroModel",
    "Atmosphere",
    "CartesianState",
    "CentralBody",
    "ConfigError",
    "ControlProfile",
    "EARTH",
    "Environment",
    "IntegratorConfig",
    "PARAMETERIZATIONS",
    "PiecewiseLinear",
    "PropagationError",
    "QuatflightError",
    "ScenarioConfig",
    "SingularityError",
    "StopEvent",
    "Trajectory",
    "Vehicle",
    "bundled_scenario_path",
    "load_scenario",
    "propagate",
    "run_scenario",
]
