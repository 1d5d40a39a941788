"""Seeded scenario generator for the benchmark workloads.

Every input the program sees is a YAML file written here from the workload
seed, then read back through ``quatflight.scenario.load_scenario``.  The
same seed always gives byte-identical files.

* Entry cases are a family derived from the bundled ``entry_table3``
  scenario: the seed perturbs the initial latitude, longitude and heading,
  the speed by up to 2 %, and the angle-of-attack and bank knot values.
  ``bank_mode: beta`` is kept, so all five forms fly one physical
  trajectory.
* The long fixed-step case is the bundled ``norm_drift`` scenario with
  the initial position rotated about the spin axis by a seeded angle;
  the orbit is physically the same, only its longitude moves.
"""

from __future__ import annotations

import copy
import math
import random
from pathlib import Path

import yaml

FORMS = ("rv", "rvl", "rvh", "spherical", "cartesian")

# Physical constants and vehicle of the bundled entry_table3 scenario.
_ENTRY_BASE = {
    "body": {"mu": 3.986004418e14, "radius": 6378137.0, "spin_rate": 7.2921159e-5},
    "atmosphere": {"rho0": 1.225, "scale_height": 8500.0},
    "aero": {"S": 30.0, "CL_alpha": 1.5, "CD0": 0.05, "K": 0.9},
    "vehicle": {"mass": 75000.0, "thrust": 0.0, "thrust_offset": 0.0},
    "integrator": {
        "method": "rk45-adaptive",
        "rel_tol": 1.0e-10,
        "abs_tol": 1.0e-12,
        "renormalize": True,
        "max_steps": 2000000,
    },
    "stop": {"t_final": 2000.0, "radius": 6378137.0},
    "parameterizations": list(FORMS),
}
_ENTRY_R = 6415137.0
_ENTRY_V = 7138.0
_ALPHA_TIMES = [0.0, 400.0, 800.0]
_ALPHA_VALUES = [0.25, 0.15, 0.0]
_BANK_TIMES = [0.0, 300.0, 600.0]
_BANK_VALUES = [0.0, 0.9, 0.9]

# The bundled norm_drift scenario: 1e5 fixed 0.1 s RK4 steps of the rv form.
_NORM_DRIFT = {
    "name": "norm_drift",
    "body": {"mu": 3.986004418e14, "radius": 6378137.0, "spin_rate": 7.2921159e-5},
    "atmosphere": {"rho0": 1.225, "scale_height": 8500.0},
    "aero": {"S": 1.0, "CL_alpha": 1.5, "CD0": 0.02, "K": 0.9},
    "vehicle": {"mass": 200000.0},
    "controls": {
        "bank_mode": "sigma",
        "alpha": {"times": [0.0, 5000.0, 10000.0], "values": [0.1, 0.3, 0.1]},
        "bank": {"times": [0.0, 10000.0], "values": [0.0, 3.0]},
    },
    "integrator": {
        "method": "rk4-fixed",
        "step": 0.1,
        "renormalize": False,
        "max_steps": 2000000,
    },
    "stop": {"t_final": 10000.0},
    "parameterizations": ["rv"],
    "csv_stride": 200,
}
_NORM_DRIFT_R = 6678137.0
_NORM_DRIFT_V = 7725.760232077137
_NORM_DRIFT_EPS_B = [0.7071067811865476, 0.7071067811865476, 0.0]


def entry_case(seed: int, index: int, rel_tol: float | None = None) -> dict:
    """Scenario mapping of entry case ``index`` in the family of ``seed``."""
    rng = random.Random(f"entry/{seed}/{index}")
    data = copy.deepcopy(_ENTRY_BASE)
    data["name"] = "entry_case"
    data["initial_state"] = {
        "kind": "spherical",
        "r": _ENTRY_R,
        "lon": rng.uniform(-math.pi, math.pi),
        "lat": rng.uniform(-0.3, 0.3),
        "v": _ENTRY_V * rng.uniform(0.98, 1.02),
        "gamma": 0.0,
        "psi": math.pi / 2 + rng.uniform(-0.3, 0.3),
    }
    alpha = [a * rng.uniform(0.9, 1.1) for a in _ALPHA_VALUES[:-1]]
    alpha.append(rng.uniform(0.0, 0.02))
    bank = [b + rng.uniform(-0.1, 0.1) for b in _BANK_VALUES]
    data["controls"] = {
        "bank_mode": "beta",
        "alpha": {"times": list(_ALPHA_TIMES), "values": alpha},
        "bank": {"times": list(_BANK_TIMES), "values": bank},
        "thrust": 0.0,
    }
    if rel_tol is not None:
        data["integrator"]["rel_tol"] = rel_tol
    return data


def long_rk4_case(seed: int, t_final: float, form: str) -> dict:
    """The norm_drift scenario, rotated about the spin axis by a seeded angle."""
    theta = random.Random(f"rk4/{seed}").uniform(0.0, 2.0 * math.pi)
    data = copy.deepcopy(_NORM_DRIFT)
    data["initial_state"] = {
        "kind": "rv",
        "r": _NORM_DRIFT_R,
        "v": _NORM_DRIFT_V,
        "eps_a": [0.0, 0.0, math.sin(0.5 * theta)],
        "eta_a": math.cos(0.5 * theta),
        "eps_b": list(_NORM_DRIFT_EPS_B),
        "eta_b": 0.0,
    }
    data["stop"]["t_final"] = t_final
    data["parameterizations"] = [form]
    return data


def write_yaml(data: dict, path: Path) -> Path:
    """Write one scenario mapping; floats keep their exact repr."""
    path = Path(path)
    path.write_text(yaml.safe_dump(data, sort_keys=False))
    return path
