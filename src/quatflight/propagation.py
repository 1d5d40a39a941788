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

The Dormand-Prince step and its error norm work on Python floats: the
state and each stage derivative are unpacked once with ``tolist()``, and
only the arrays handed to the derivative function are built.  Every
component is the float the array expressions give, in the same order
(numpy's summation order included), so trajectories are bit for bit those
of the array form.  The step returns its stage-7 state as the fifth-order
solution: that stage's weights are the solution weights, summed in the
same order.

The derivative is never evaluated twice at the same ``(t, y)`` from one
step to the next, and is reused only where its inputs are bit-identical:

* a rejected step's retry starts from the same point and keeps its first
  stage, so a retry costs six evaluations, not seven;
* after an accepted step, the stage-7 derivative becomes the next step's
  first stage (first same as last) when the new sample is that stage's
  point exactly: the step was not shortened to land on a break, and
  renormalization changed no bit of the state.

Accepted samples are copied into preallocated time and state buffers that
double when full; the trajectory receives trimmed copies, so its rows
share memory with nothing else.

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

    Returns ``y`` itself when every block's norm is exactly 1.0 (dividing
    by it would change no bit), otherwise a rescaled copy.

    Raises
    ------
    ValueError
        If a block has zero norm.
    """
    out = y
    for lo, hi in quat_spans:
        block = y[lo:hi]
        n = sqrt(block.dot(block))
        if n == 0.0:
            raise ValueError("cannot renormalize a zero-norm quaternion block")
        if n != 1.0:
            if out is y:
                out = y.copy()
            out[lo:hi] /= n
    return out


def _rk4_step(rhs, t, y, h):
    k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * h, y + (0.5 * h) * k1)
    k3 = rhs(t + 0.5 * h, y + (0.5 * h) * k2)
    k4 = rhs(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _dp54_step(rhs, t, y, h, k1=None):
    """One Dormand-Prince step on Python floats.

    Returns ``(y5, err, k7)``: the stage-7 state as an array (it is the
    fifth-order solution, since ``_DP_A[6] == _DP_B[:6]`` and
    ``_DP_B[6] == 0``), the error estimate as a list of floats, and the
    derivative at ``(t + h, y5)``.  ``k1`` is the derivative at ``(t, y)``
    when the caller already has it.

    Each stage state is summed weight by weight in table order, skipping
    zero weights, so every component is the float the array expression
    ``((y + (h*a1)*k1) + (h*a2)*k2) + ...`` gives.
    """
    if k1 is None:
        k1 = rhs(t, y)
    a = _DP_A
    y0 = y.tolist()
    d1 = k1.tolist()
    c1 = h * a[1][0]
    d2 = rhs(t + _DP_C[1] * h, np.array([v + c1 * p for v, p in zip(y0, d1)])).tolist()
    c1, c2 = h * a[2][0], h * a[2][1]
    d3 = rhs(
        t + _DP_C[2] * h,
        np.array([v + c1 * p + c2 * q for v, p, q in zip(y0, d1, d2)]),
    ).tolist()
    c1, c2, c3 = h * a[3][0], h * a[3][1], h * a[3][2]
    d4 = rhs(
        t + _DP_C[3] * h,
        np.array([v + c1 * p + c2 * q + c3 * r for v, p, q, r in zip(y0, d1, d2, d3)]),
    ).tolist()
    c1, c2, c3, c4 = h * a[4][0], h * a[4][1], h * a[4][2], h * a[4][3]
    d5 = rhs(
        t + _DP_C[4] * h,
        np.array(
            [
                v + c1 * p + c2 * q + c3 * r + c4 * s
                for v, p, q, r, s in zip(y0, d1, d2, d3, d4)
            ]
        ),
    ).tolist()
    c1, c2, c3, c4, c5 = h * a[5][0], h * a[5][1], h * a[5][2], h * a[5][3], h * a[5][4]
    d6 = rhs(
        t + _DP_C[5] * h,
        np.array(
            [
                v + c1 * p + c2 * q + c3 * r + c4 * s + c5 * u
                for v, p, q, r, s, u in zip(y0, d1, d2, d3, d4, d5)
            ]
        ),
    ).tolist()
    # a[6][1] == 0: the second stage does not enter the solution
    c1, c3, c4, c5, c6 = h * a[6][0], h * a[6][2], h * a[6][3], h * a[6][4], h * a[6][5]
    y5 = np.array(
        [
            v + c1 * p + c3 * r + c4 * s + c5 * u + c6 * w
            for v, p, r, s, u, w in zip(y0, d1, d3, d4, d5, d6)
        ]
    )
    k7 = rhs(t + _DP_C[6] * h, y5)
    # _DP_E[1] == 0
    e = _DP_E
    c1, c3, c4, c5, c6, c7 = h * e[0], h * e[2], h * e[3], h * e[4], h * e[5], h * e[6]
    err = [
        c1 * p + c3 * r + c4 * s + c5 * u + c6 * w + c7 * z
        for p, r, s, u, w, z in zip(d1, d3, d4, d5, d6, k7.tolist())
    ]
    return y5, err, k7


def _error_norm(err, y, y5, abs_tol, rel_tol):
    """RMS of ``err_i / (abs_tol_i + rel_tol * max(|y_i|, |y5_i|))`` on floats.

    Bit for bit ``float(np.sqrt(np.mean((err / tol) ** 2)))``: the same
    products and quotients, a maximum that is NaN when either side is (as
    ``np.maximum``), and numpy's summation order.  Squares are products,
    because ``**`` on floats raises ``OverflowError`` where numpy gives
    inf, and the builtin ``sum`` compensates from Python 3.12 on.
    """
    sq = []
    for e, p, q, atol in zip(err, y, y5, abs_tol):
        p = abs(p)
        q = abs(q)
        m = p if p >= q else (q if q >= p else p + q)
        r = e / (atol + rel_tol * m)
        sq.append(r * r)
    return sqrt(_pairwise_sum(sq) / len(sq))


def _pairwise_sum(x):
    """Sum of a list of floats in the order numpy's ``np.add.reduce`` uses."""
    n = len(x)
    if n < 8:
        s = 0.0
        for v in x:
            s += v
        return s
    if n <= 128:
        r0, r1, r2, r3, r4, r5, r6, r7 = x[:8]
        stop = n - n % 8
        for i in range(8, stop, 8):
            r0 += x[i]
            r1 += x[i + 1]
            r2 += x[i + 2]
            r3 += x[i + 3]
            r4 += x[i + 4]
            r5 += x[i + 5]
            r6 += x[i + 6]
            r7 += x[i + 7]
        s = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for v in x[stop:]:
            s += v
        return s
    half = n // 2
    half -= half % 8
    return _pairwise_sum(x[:half]) + _pairwise_sum(x[half:])


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

    # accepted samples are rows [0, n_rows); both buffers double when full
    t_buf = np.empty(256)
    y_buf = np.empty((256, y.size))
    t_buf[0] = t0
    y_buf[0] = y
    n_rows = 1
    n_steps = 0
    n_rejected = 0
    schedule = _BreakSchedule(t0, t_final, t_breaks)
    renorm = config.renormalize_every_step and quat_spans
    adaptive = config.method == "rk45-adaptive"
    rel_tol = config.rel_tol
    if scales is None:
        abs_tol = [config.abs_tol] * y.size
    else:
        abs_tol = (config.abs_tol * np.asarray(scales, dtype=float)).tolist()

    def finish(event):
        traj = Trajectory(
            t=t_buf[:n_rows].copy(),
            y=y_buf[:n_rows].copy(),
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
    k1 = None  # the derivative at (t, y), once known

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
                if k1 is None:
                    k1 = counted_rhs(t, y)
                y5, err, k7 = _dp54_step(counted_rhs, t, y, h_try, k1)
                err_norm = _error_norm(err, y.tolist(), y5.tolist(), abs_tol, rel_tol)
                finite = not isnan(err_norm)
                if not finite:
                    err_norm = inf
                y_new = y5
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
            # the retry starts from the same (t, y) and keeps k1
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

        event = None
        if g_prev is not None:
            g_new = radius_fn(y_new) - radius_target
            # g_prev == 0.0 only while the event is not yet armed
            if g_prev != 0.0 and (g_new == 0.0 or (g_prev > 0.0) != (g_new > 0.0)):
                t_new, y_new = _refine_radius_crossing(
                    counted_rhs, t, y, t_new, radius_fn, radius_target
                )
                if renorm:
                    y_new = renormalize_quaternion_blocks(y_new, quat_spans)
                event = StopEvent(kind="radius_crossing", t_event=t_new, y_event=y_new.copy())
            g_prev = g_new

        if n_rows == len(t_buf):
            t_buf = np.concatenate((t_buf, np.empty_like(t_buf)))
            y_buf = np.concatenate((y_buf, np.empty_like(y_buf)))
        t_buf[n_rows] = t_new
        y_buf[n_rows] = y_new
        n_rows += 1
        if event is not None:
            return finish(event)

        if adaptive:
            # stage 7 was evaluated at (t + h_try, y5): reuse its derivative
            # when the new sample is that point bit for bit
            k1 = k7 if t_new == t + h_try and y_new is y5 else None
        t = t_new
        y = y_new

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
