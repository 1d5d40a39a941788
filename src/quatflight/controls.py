"""Time-parameterized command profiles driving a scenario.

Profiles are piecewise linear in time, held constant beyond their first and
last knots.  The bank command is interpreted in one of two modes:

* ``"sigma"`` -- the native gauge command.  The ten-parameter forms read it
  as the bank angle about the velocity axis measured from their own second
  basis vector; the lift-aligned form reads its bank-rate command from the
  separate ``wb1`` profile instead.
* ``"beta"`` -- the physical bank angle, measured from the {position,
  velocity} plane.  Every parameterization converts it to its own gauge, so
  one profile drives the same physical trajectory in all of them.  The
  spherical and Cartesian forms always interpret the bank command this way.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from math import isfinite

BANK_MODES = ("sigma", "beta")


class PiecewiseLinear:
    """Piecewise-linear profile with constant extrapolation beyond the knots."""

    def __init__(self, times, values):
        times = [float(t) for t in times]
        values = [float(v) for v in values]
        if len(times) != len(values) or not times:
            raise ValueError("times and values must be equal-length and non-empty")
        if not all(map(isfinite, times + values)):
            raise ValueError("times and values must be finite")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("times must be strictly increasing")
        self.times = times
        self.values = values

    @classmethod
    def constant(cls, value: float) -> "PiecewiseLinear":
        return cls([0.0], [value])

    def __call__(self, t: float) -> float:
        times = self.times
        if t <= times[0]:
            return self.values[0]
        if t >= times[-1]:
            return self.values[-1]
        i = bisect_right(times, t) - 1
        t0, t1 = times[i], times[i + 1]
        v0, v1 = self.values[i], self.values[i + 1]
        return v0 + (v1 - v0) * (t - t0) / (t1 - t0)

    def rate(self, t: float) -> float:
        """Slope of the active segment; right-continuous at knots, zero outside."""
        times = self.times
        if t < times[0] or t >= times[-1]:
            return 0.0
        i = bisect_right(times, t) - 1
        if i == len(times) - 1:
            return 0.0
        return (self.values[i + 1] - self.values[i]) / (times[i + 1] - times[i])

    def __repr__(self):
        return f"PiecewiseLinear(times={self.times}, values={self.values})"


def _zero() -> PiecewiseLinear:
    return PiecewiseLinear.constant(0.0)


@dataclass
class ControlProfile:
    """Commanded angle of attack, bank, bank rate, and thrust versus time."""

    alpha: PiecewiseLinear = field(default_factory=_zero)
    bank: PiecewiseLinear = field(default_factory=_zero)
    wb1: PiecewiseLinear = field(default_factory=_zero)
    thrust: PiecewiseLinear = field(default_factory=_zero)
    bank_mode: str = "sigma"

    def __post_init__(self):
        if self.bank_mode not in BANK_MODES:
            raise ValueError(f"bank_mode must be one of {BANK_MODES}")

    @classmethod
    def constant(
        cls,
        alpha: float = 0.0,
        bank: float = 0.0,
        wb1: float = 0.0,
        thrust: float = 0.0,
        bank_mode: str = "sigma",
    ) -> "ControlProfile":
        return cls(
            alpha=PiecewiseLinear.constant(alpha),
            bank=PiecewiseLinear.constant(bank),
            wb1=PiecewiseLinear.constant(wb1),
            thrust=PiecewiseLinear.constant(thrust),
            bank_mode=bank_mode,
        )

    def knot_times(self):
        """Sorted unique knot times across all profiles, where the derivative may jump."""
        knots = set()
        for p in (self.alpha, self.bank, self.wb1, self.thrust):
            knots.update(p.times)
        return sorted(knots)
