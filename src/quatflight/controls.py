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
from math import inf, isfinite, nextafter
from typing import Callable

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

    def lookup(self, third: str, rate: bool = False) -> Callable:
        """``lookup(t) -> (alpha, thrust, x)``: every command a derivative reads, in one call.

        ``x`` is the profile named ``third`` (``"bank"`` or ``"wb1"``) at
        ``t``, or its ``rate`` when ``rate`` is set.  Each value has the bits
        of ``PiecewiseLinear.__call__`` or ``.rate`` at any ``t`` whose
        distance to every knot is a finite float.  The table behind it is
        built once, from the profiles' ``times`` and ``values``, and never
        changes, so a lookup is pure.
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
    that is ``PiecewiseLinear.__call__``'s formula with ``dv = v1 - v0`` and
    ``dt = t1 - t0``.  A constant ``c`` is ``(c, -0.0, start, 1.0)``, whose
    second term is -0.0 for every ``t >= start`` and leaves every float
    ``c`` as it is, -0.0 included; before the first knot it is
    ``(c, 0.0, t0, 1.0)`` with ``t0`` the first knot, -0.0 for ``t < t0``.
    The first knot itself is a piece of its own, ``[t0, nextafter(t0))``,
    since ``__call__`` returns the first value there without the formula.
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
