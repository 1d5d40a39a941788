"""Numerical propagation of flight states with events and norm control.

Two integrators are provided: a fixed-step classical Runge-Kutta scheme and
an adaptive Dormand-Prince 5(4) pair.  Both optionally rescale the state's
quaternion blocks to unit norm after every accepted step; the derivative
functions themselves never do this, so the policy lives entirely here.

Steps always land exactly on requested break times (control-profile knots,
comparison grid points, the terminal time), which keeps independently
propagated trajectories comparable sample-for-sample without interpolation.

A radius-crossing event is refined by bisection inside the bracketing step
until the event time is known to 1e-6 s and the radius mismatch is below
1e-3 m.  A crossing is an accepted step that ends on the target radius or
on the other side of it, in either direction.  A state that starts exactly
on the target is not a crossing: the event arms at the first accepted step
that ends off the target, whichever side that is.

When a derivative evaluation raises a singularity guard, the trajectory
accumulated so far is returned intact together with a
``singularity_guard`` stop event.  A fixed step that produces a non-finite
state ends the run the same way, as a ``step_failure`` with message
"non-finite state".  An adaptive step whose error estimate is not a number
(a trial stage overflowed or the derivative returned NaN) is rejected like
one whose estimate is infinite; if the step size then underflows, the run
ends with that same message instead of "step size underflow".

The Dormand-Prince step returns its stage-7 state as the fifth-order
solution: that stage's weights are the solution weights, summed in the
same order, so it is the same array bit for bit.  Accepted states are
stored without copying, which holds because every step builds a fresh
array and nothing writes to a state in place.

Propagation is deterministic: the same configuration and initial state
produce bitwise-identical trajectories.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import inf, isfinite, isnan, sqrt
from typing import Callable, Optional

import numpy as np

from .errors import PropagationError, SingularityError

EVENT_TIME_TOL = 1e-6  # s
EVENT_RADIUS_TOL = 1e-3  # m

# Dormand-Prince 5(4) coefficients.
_DP_C = (0.0, 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0, 1.0)
_DP_A = (
    (),
    (1.0 / 5.0,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0),
    (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0),
)
_DP_B = (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0, 0.0)
_DP_E = (
    71.0 / 57600.0,
    0.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
)


@dataclass(frozen=True)
class IntegratorConfig:
    """Integration method and step/tolerance settings.

    ``abs_tol`` is scaled per state component (lengths, speeds, and O(1)
    angles/quaternion components live on very different scales).
    """

    method: str = "rk45-adaptive"
    step: float = 0.1
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    renormalize_every_step: bool = True
    max_steps: int = 2_000_000

    def __post_init__(self):
        if self.method not in ("rk4-fixed", "rk45-adaptive"):
            raise ValueError(f"unknown integration method {self.method!r}")
        if self.step <= 0.0 or self.rel_tol <= 0.0 or self.abs_tol <= 0.0:
            raise ValueError("step and tolerances must be positive")
        if self.max_steps <= 0:
            raise ValueError("max_steps must be positive")


@dataclass(frozen=True, eq=False)
class StopEvent:
    """Why a propagation ended, and where."""

    kind: str  # terminal_time | radius_crossing | singularity_guard | step_failure
    t_event: float
    y_event: Optional[np.ndarray] = None
    message: str = ""


@dataclass(eq=False)
class Trajectory:
    """Time-ordered propagated samples plus run statistics."""

    t: np.ndarray
    y: np.ndarray
    n_evals: int = 0
    n_steps: int = 0
    n_rejected: int = 0
    wall_time: float = 0.0

    def __len__(self):
        return len(self.t)

    @property
    def final_state(self) -> np.ndarray:
        return self.y[-1]

    def index_of_time(self, t: float) -> int:
        i = int(np.searchsorted(self.t, t))
        for j in (i - 1, i, i + 1):
            if 0 <= j < len(self.t) and abs(self.t[j] - t) <= 1e-9:
                return j
        raise KeyError(f"no sample at t={t!r}")


def renormalize_quaternion_blocks(y: np.ndarray, quat_spans) -> np.ndarray:
    """Rescale each quaternion block of a state array to unit norm.

    Raises
    ------
    ValueError
        If a block has zero norm.
    """
    out = y.copy()
    for lo, hi in quat_spans:
        block = out[lo:hi]
        n = sqrt(block.dot(block))
        if n == 0.0:
            raise ValueError("cannot renormalize a zero-norm quaternion block")
        block /= n
    return out


def _rk4_step(rhs, t, y, h):
    k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * h, y + (0.5 * h) * k1)
    k3 = rhs(t + 0.5 * h, y + (0.5 * h) * k2)
    k4 = rhs(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _dp54_step(rhs, t, y, h):
    """One Dormand-Prince step: returns (y5, error_estimate).

    ``y5`` is the stage-7 state: ``_DP_A[6] == _DP_B[:6]`` and
    ``_DP_B[6] == 0``.
    """
    k = [rhs(t, y)]
    for i in range(1, 7):
        yi = y
        for a, kj in zip(_DP_A[i], k):
            if a != 0.0:
                yi = yi + (h * a) * kj
        k.append(rhs(t + _DP_C[i] * h, yi))
    err = (h * _DP_E[0]) * k[0]
    for e, ki in zip(_DP_E[1:], k[1:]):
        if e != 0.0:
            err = err + (h * e) * ki
    return yi, err


class _BreakSchedule:
    """Iterator over forced landing times within (t0, t_final]."""

    def __init__(self, t0, t_final, t_breaks):
        pts = sorted({float(b) for b in t_breaks if t0 < b < t_final})
        pts.append(t_final)
        self.points = pts
        self.i = 0

    def next_after(self, t):
        while self.i < len(self.points) and self.points[self.i] <= t + 1e-15:
            self.i += 1
        return self.points[self.i] if self.i < len(self.points) else None


def propagate(
    rhs: Callable,
    t0: float,
    y0,
    t_final: float,
    config: IntegratorConfig,
    quat_spans=(),
    radius_fn: Optional[Callable] = None,
    radius_target: Optional[float] = None,
    t_breaks=(),
    scales=None,
):
    """Integrate ``rhs`` from ``(t0, y0)`` until the terminal time or an event.

    Parameters
    ----------
    rhs : callable
        Derivative function ``rhs(t, y) -> ydot``.
    quat_spans : sequence of (lo, hi)
        Index ranges holding unit quaternions, renormalized after accepted
        steps when the config asks for it.
    radius_fn, radius_target : callable, float
        When given, propagation stops where ``radius_fn(y)`` crosses
        ``radius_target`` in either direction (refined by bisection).  A
        start exactly on the target does not count; the event arms once
        the radius leaves it.
    t_breaks : sequence of float
        Times the stepper must land on exactly (control knots, comparison
        grids).
    scales : array, optional
        Per-component scaling of the absolute tolerance (lengths and speeds
        are many orders of magnitude above quaternion components).

    Returns
    -------
    (Trajectory, StopEvent)

    Raises
    ------
    PropagationError
        If the step budget is exhausted.
    """
    if t_final <= t0:
        raise ValueError("t_final must exceed t0")
    y = np.asarray(y0, dtype=float).copy()
    start = time.perf_counter()
    n_evals = 0

    def counted_rhs(t, yy):
        nonlocal n_evals
        n_evals += 1
        return rhs(t, yy)

    ts = [t0]
    ys = [y]
    n_steps = 0
    n_rejected = 0
    schedule = _BreakSchedule(t0, t_final, t_breaks)
    renorm = config.renormalize_every_step and quat_spans
    adaptive = config.method == "rk45-adaptive"
    abs_tol = config.abs_tol
    if scales is not None:
        abs_tol = abs_tol * np.asarray(scales, dtype=float)

    def finish(event):
        traj = Trajectory(
            t=np.array(ts),
            y=np.array(ys),
            n_evals=n_evals,
            n_steps=n_steps,
            n_rejected=n_rejected,
            wall_time=time.perf_counter() - start,
        )
        return traj, event

    t = t0
    g_prev = None
    if radius_fn is not None and radius_target is not None:
        g_prev = radius_fn(y) - radius_target

    if adaptive:
        h = min(1.0, (t_final - t0) / 100.0)
    else:
        h = config.step

    target = schedule.next_after(t)
    while True:
        if target is None:
            return finish(StopEvent(kind="terminal_time", t_event=t, y_event=y.copy()))
        if n_steps + n_rejected >= config.max_steps:
            raise PropagationError("maximum step count exceeded", t=t)

        h_try = min(h, target - t)
        landing = h_try >= target - t - 1e-15
        try:
            if adaptive:
                y_new, err = _dp54_step(counted_rhs, t, y, h_try)
                tol = abs_tol + config.rel_tol * np.maximum(np.abs(y), np.abs(y_new))
                err_norm = float(np.sqrt(np.mean((err / tol) ** 2)))
                finite = not isnan(err_norm)
                if not finite:
                    err_norm = inf
            else:
                y_new = _rk4_step(counted_rhs, t, y, h_try)
                err_norm = 0.0
                # one float sum: NaN or inf in any component carries through
                finite = isfinite(sum(y_new.tolist()))
        except SingularityError as exc:
            return finish(
                StopEvent(
                    kind="singularity_guard",
                    t_event=t,
                    y_event=y.copy(),
                    message=str(exc),
                )
            )

        if adaptive and err_norm > 1.0:
            n_rejected += 1
            factor = max(0.2, 0.9 * err_norm ** (-0.2))
            h = h_try * min(factor, 0.9)
            if h < 1e-14 * max(abs(t), 1.0):
                return finish(
                    StopEvent(
                        kind="step_failure",
                        t_event=t,
                        y_event=y.copy(),
                        message="step size underflow" if finite else "non-finite state",
                    )
                )
            continue

        if not finite:
            return finish(
                StopEvent(
                    kind="step_failure",
                    t_event=t,
                    y_event=y.copy(),
                    message="non-finite state",
                )
            )

        n_steps += 1
        t_new = target if landing else t + h_try
        if renorm:
            y_new = renormalize_quaternion_blocks(y_new, quat_spans)

        if g_prev is not None:
            g_new = radius_fn(y_new) - radius_target
            # g_prev == 0.0 only while the event is not yet armed
            if g_prev != 0.0 and (g_new == 0.0 or (g_prev > 0.0) != (g_new > 0.0)):
                t_ev, y_ev = _refine_radius_crossing(
                    counted_rhs, t, y, t_new, radius_fn, radius_target
                )
                if renorm:
                    y_ev = renormalize_quaternion_blocks(y_ev, quat_spans)
                ts.append(t_ev)
                ys.append(y_ev.copy())
                return finish(
                    StopEvent(
                        kind="radius_crossing",
                        t_event=t_ev,
                        y_event=y_ev.copy(),
                    )
                )
            g_prev = g_new

        t = t_new
        y = y_new
        ts.append(t)
        ys.append(y)

        if landing:
            if target >= t_final:
                return finish(
                    StopEvent(kind="terminal_time", t_event=t, y_event=y.copy())
                )
            target = schedule.next_after(t)

        if adaptive:
            if err_norm > 0.0:
                factor = 0.9 * err_norm ** (-0.2)
            else:
                factor = 5.0
            h = h_try * min(5.0, max(0.2, factor))
        else:
            h = config.step


def _refine_radius_crossing(rhs, t_lo, y_lo, t_hi, radius_fn, target):
    """Bisect for the radius crossing inside one accepted step.

    Probes re-integrate from the left bracket with small fixed steps, so no
    dense interpolation is needed.  Refinement continues until the bracket
    is below 1e-6 s and the radius misses the target by less than 1e-3 m.
    """
    g_lo = radius_fn(y_lo) - target

    def probe(t_from, y_from, t_to):
        span = t_to - t_from
        if span <= 0.0:
            return y_from
        n_sub = max(1, min(64, int(span / max(1e-9, (t_hi - t_lo) / 16.0))))
        h = span / n_sub
        y = y_from
        tt = t_from
        for _ in range(n_sub):
            y = _rk4_step(rhs, tt, y, h)
            tt += h
        return y

    # First tighten the bracket with a fixed scan so bisection probes stay short.
    n_scan = 16
    h_scan = (t_hi - t_lo) / n_scan
    t_a, y_a, g_a = t_lo, y_lo, g_lo
    for i in range(1, n_scan + 1):
        t_b = t_lo + i * h_scan if i < n_scan else t_hi
        y_b = _rk4_step(rhs, t_a, y_a, t_b - t_a)
        g_b = radius_fn(y_b) - target
        if g_b == 0.0 or (g_a > 0.0) != (g_b > 0.0):
            break
        t_a, y_a, g_a = t_b, y_b, g_b
    else:
        t_b, y_b = t_hi, y_a

    for _ in range(200):
        if (t_b - t_a) < EVENT_TIME_TOL:
            y_mid = probe(t_a, y_a, 0.5 * (t_a + t_b))
            if abs(radius_fn(y_mid) - target) < EVENT_RADIUS_TOL:
                return 0.5 * (t_a + t_b), y_mid
            if (t_b - t_a) < 1e-12:
                return 0.5 * (t_a + t_b), y_mid
        t_m = 0.5 * (t_a + t_b)
        y_m = probe(t_a, y_a, t_m)
        g_m = radius_fn(y_m) - target
        if g_m == 0.0:
            return t_m, y_m
        if (g_a > 0.0) != (g_m > 0.0):
            t_b = t_m
        else:
            t_a, y_a, g_a = t_m, y_m, g_m
    t_m = 0.5 * (t_a + t_b)
    return t_m, probe(t_a, y_a, t_m)
