"""Time-parameterized command profiles driving a scenario.

A profile is a list of knots ``(times, values)``.  :meth:`ControlProfile.lookup`
is its one evaluator, and it defines the profile's value and rate:

* the value is linear between knots, and constant before the first knot
  and after the last;
* at the first knot it is the first value, bit for bit (-0.0 included);
  elsewhere on a segment ``[t0, t1)`` it is
  ``v0 + (v1 - v0) * (t - t0) / (t1 - t0)``;
* the rate is the active segment's slope, right-continuous at the knots,
  and zero before the first knot and from the last one on;
* both are defined at every ``t`` whose distance to every knot is a finite
  float.  Scenario loading enforces that over ``[t0, stop.t_final]``.

The bank command is interpreted in one of two modes:

* ``"sigma"`` -- the native gauge command.  The ten-parameter forms read it
  as the bank angle about the velocity axis measured from their own second
  basis vector; the lift-aligned form reads its bank-rate command from the
  separate ``wb1`` profile instead.
* ``"beta"`` -- the physical bank angle, measured from the {position,
  velocity} plane.  Every parameterization converts it to its own gauge, so
  one profile drives the same physical trajectory in all of them.  The
  spherical and Cartesian forms always interpret the bank command this way.
  In exactly vertical flight the plane is undefined.  There rv takes a
  zero offset of the plane from its gauge, whatever the signs of the zero
  C_BA entries it is the angle of, and flies the command as its native
  bank; rvl raises "bank tracking undefined in vertical flight".
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from math import inf, isfinite, nextafter
from typing import Callable

BANK_MODES = ("sigma", "beta")


class PiecewiseLinear:
    """The validated knots of a piecewise-linear profile, which ``ControlProfile.lookup`` evaluates."""

    def __init__(self, times, values):
        times = [float(t) for t in times]
        values = [float(v) for v in values]
        if len(times) != len(values) or not times:
            raise ValueError("times and values must be equal-length and non-empty")
        if not all(map(isfinite, times + values)):
            raise ValueError("times and values must be finite")
        for dt, dv in ((b - a, w - u) for a, b, u, w in zip(times, times[1:], values, values[1:])):
            if not dt > 0.0:
                raise ValueError("times must be strictly increasing")
            # then no interpolation inside the segment overflows
            if not all(map(isfinite, (dt, dv, dv / dt, dv * dt))):
                raise ValueError("segment steps in time and value, slopes and step products must be finite")
        self.times = times
        self.values = values

    @classmethod
    def constant(cls, value: float) -> "PiecewiseLinear":
        return cls([0.0], [value])


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

    def lookup(self, third: str, rate: bool = False) -> Callable:
        """``lookup(t) -> (alpha, thrust, x)``: every command a derivative reads, in one call.

        ``x`` is the profile named ``third`` (``"bank"`` or ``"wb1"``) at
        ``t``, or its rate when ``rate`` is set; every value follows the
        module's rule, at any ``t`` whose distance to every knot is a
        finite float.  The table behind it is built once, from the
        profiles' ``times`` and ``values``, and never changes, so a lookup
        is pure.
        """
        breaks, rows = _segment_table(
            (
                _pieces(self.alpha, False),
                _pieces(self.thrust, False),
                _pieces(getattr(self, third), rate),
            )
        )

        def lookup(t):
            a, da, ta, sa, b, db, tb, sb, c, dc, tc, sc = rows[bisect_right(breaks, t)]
            return a + da * (t - ta) / sa, b + db * (t - tb) / sb, c + dc * (t - tc) / sc

        return lookup

    def knot_times(self):
        """Sorted unique knot times across all profiles, where the derivative may jump."""
        knots = set()
        for p in (self.alpha, self.bank, self.wb1, self.thrust):
            knots.update(p.times)
        return sorted(knots)


def _pieces(profile, rate):
    """One profile as ``[(start, (v0, dv, t0, dt)), ...]``, starts increasing.

    From its start to the next one the profile's value (its slope with
    ``rate``) is ``v0 + dv * (t - t0) / dt``: on a segment ``[t0, t1)``
    that is the module's formula with ``dv = v1 - v0`` and
    ``dt = t1 - t0``.  A constant ``c`` is ``(c, -0.0, start, 1.0)``, whose
    second term is -0.0 for every ``t >= start`` and leaves every float
    ``c`` as it is, -0.0 included; before the first knot it is
    ``(c, 0.0, t0, 1.0)`` with ``t0`` the first knot, -0.0 for ``t < t0``.
    The first knot itself is a piece of its own, ``[t0, nextafter(t0))``,
    where the value is the first value without the formula.  Each term
    ``t - t0`` is finite, and the rule holds, while ``t`` is a finite
    distance from every knot.
    """
    times, values = profile.times, profile.values
    first, last = times[0], times[-1]
    if rate:
        out = [(-inf, (0.0, 0.0, first, 1.0))]
        for t0, t1, v0, v1 in zip(times, times[1:], values, values[1:]):
            out.append((t0, ((v1 - v0) / (t1 - t0), -0.0, t0, 1.0)))
        out.append((last, (0.0, -0.0, last, 1.0)))
        return out
    out = [(-inf, (values[0], 0.0, first, 1.0)), (first, (values[0], -0.0, first, 1.0))]
    for i, (t0, t1, v0, v1) in enumerate(zip(times, times[1:], values, values[1:])):
        out.append((nextafter(t0, inf) if i == 0 else t0, (v0, v1 - v0, t0, t1 - t0)))
    if len(times) > 1:
        out.append((last, (values[-1], -0.0, last, 1.0)))
    return out


def _segment_table(columns):
    """Merge the pieces of several profiles into ``(breaks, rows)``.

    ``rows[bisect_right(breaks, t)]`` concatenates, column by column, the
    piece in force at ``t``: the last one whose start is at or before it.
    """
    breaks = sorted({start for column in columns for start, _ in column[1:]})
    rows = []
    for b in [-inf] + breaks:
        row = ()
        for column in columns:
            row += next(piece for start, piece in reversed(column) if start <= b)
        rows.append(row)
    return breaks, rows
