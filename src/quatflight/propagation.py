"""Numerical propagation of flight states with events, norm control and dense output.

Two integrators are provided: a fixed-step classical Runge-Kutta scheme and
an adaptive Dormand-Prince 5(4) pair.  Both optionally rescale the state's
quaternion blocks to unit norm after every accepted step; the derivative
functions themselves never do this, so the policy lives entirely here.

Steps land exactly only on the control knots (``t_knots``) and on the
terminal time.  The derivative may jump at a knot:
``PiecewiseLinear.rate`` is right-continuous, so at a knot it already gives
the next segment's slope.  An adaptive step that lands on a knot evaluates
its two ``c = 1`` stages, 6 and 7, at the left limit
``nextafter(knot, -inf)``, so the whole step integrates the segment that
ends there; the next step starts at the knot on the next segment.  This is
one-sided integration up to a discontinuity (Gear & Osterby, ACM TOMS
10(1), 1984).  Evaluated at the knot itself, those stages would put an O(1)
jump into the error estimate of every attempt to land, and the step would
creep up to the knot through a cascade of rejections.  The fixed RK4 step
evaluates its last stage at the knot itself.

Every accepted step has a continuous extension built from the stage
derivatives it already computed, so it costs no derivative evaluation: the
free 4th-order interpolant of Dormand-Prince 5(4) (Shampine, Math. Comp.
46, 1986; the coefficients of scipy's ``RK45.P``), and the standard
3rd-order one of RK4.  A step that lands on a knot interpolates with the
left-limit stages it integrated with.  Two things read the extension:

* output times (``t_eval``, a comparison grid).  They never shorten a step,
  so the accepted samples are the same with or without them.  An output
  time inside an accepted step is sampled from that step's interpolant,
  as it is: each form's conversion renormalizes the quaternion blocks.  An
  output time bit-equal to an accepted sample's time, or to ``t0``, takes
  that sample.  The samples go to ``Trajectory.t_eval`` and ``y_eval``.
* the radius-crossing event.  A crossing is an accepted step that ends on
  the target radius or on the other side of it, in either direction.  A
  state that starts exactly on the target is not a crossing: the event
  arms at the first accepted step that ends off the target, whichever side
  that is.  Inside the bracketing step the crossing is located on the
  interpolant by the Illinois variant of regula falsi (Shampine & Thompson,
  "Event location for ordinary differential equations", 2000), until the
  radius misses the target by less than ``EVENT_RADIUS_TOL`` (1e-3 m) and
  the bracket is shorter than ``EVENT_TIME_TOL`` (1e-6 s).  The event state
  is the interpolant at that time, renormalized; it ends the trajectory,
  and no output time after it is sampled.

Where a derivative evaluation fails decides what the failure means:

* a singularity guard (``SingularityError``) at the accepted state, the
  first stage of a step, ends the run: the trajectory accumulated so far
  is returned intact with a ``singularity_guard`` stop event at that
  state.  The fixed RK4 step ends the run so on a guard in any stage.
* in an adaptive step, a guard or an ``ArithmeticError`` (an overflow,
  say) raised in a trial stage, 2 to 7, is recoverable, as a right-hand
  side failure is in SUNDIALS CVODE (Hindmarsh et al., ACM TOMS 31(3),
  2005): the step is rejected as if its error estimate were infinite and
  retried 0.2 times as long.  A trial stage of a too-long step can leave
  the region where the derivative is defined although the solution never
  does.
* an adaptive step whose error estimate is not a number (a trial stage
  overflowed or the derivative returned NaN) is rejected the same way.

An adaptive step may not shrink below the step floor
``1e-14 * max(|t|, 1)``.  A rejection that would go below it ends the run
at the last accepted sample: as ``singularity_guard`` with the guard's
message when the rejected trial raised one, as ``step_failure`` with the
exception's type and message when it raised an ``ArithmeticError``, as
``step_failure`` "non-finite state" when its error estimate was not a
number, and as ``step_failure`` "step size underflow" otherwise.  A fixed
step that produces a non-finite state ends the run as ``step_failure``
"non-finite state".

The state is a list of Python floats from ``y0`` to the last sample, and
the derivative takes and returns one: both steps, the error norm and the
renormalization pass lists between stages and build no array per stage or
per step.  Every component is the float the array expressions give, in the
same order (numpy's summation order included, and the quaternion norms on
``np.dot``), so trajectories are bit for bit those of the array form.  The
Dormand-Prince step returns its stage-7 state as the fifth-order solution:
that stage's weights are the solution weights, summed in the same order.
Arrays appear where a run's results are kept: the accepted rows in the
state buffer, an interpolant's matrix product, and the trajectory and stop
event handed back.

The derivative is never evaluated twice at the same ``(t, y)`` from one
step to the next, and is reused only where its inputs are bit-identical:

* a rejected step's retry starts from the same point and keeps its first
  stage, so a retry costs six evaluations, not seven;
* after an accepted step, the stage-7 derivative becomes the next step's
  first stage (first same as last) when the new sample is that stage's
  point exactly: renormalization changed no bit of the state, and the
  step's end is stage 7's time (a knot landing's stage 7 sits at the
  knot's left limit, and the next step starts on the knot's other side).

Accepted samples are copied into preallocated time and state buffers that
double when full; the trajectory receives trimmed copies, so its rows
share memory with nothing else.

Propagation is deterministic: the same configuration and initial state
produce bitwise-identical trajectories, with or without output times.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from math import inf, isfinite, isnan, nan, nextafter, sqrt
from typing import Callable, Optional

import numpy as np

from .errors import PropagationError, SingularityError

EVENT_TIME_TOL = 1e-6  # s
EVENT_RADIUS_TOL = 1e-3  # m
_EVENT_MAX_ITERATIONS = 100

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

# Continuous extensions: stage i's weight at theta is sum_j P[i][j] * theta**(j + 1).
# Dormand-Prince: the free 4th-order interpolant (scipy's RK45.P).
_DP_P = np.array(
    [
        [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
        [0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
        [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
        [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
        [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
    ]
)
# RK4: the standard 3rd-order extension, b1 = theta - 3 theta^2/2 + 2 theta^3/3,
# b2 = b3 = theta^2 - 2 theta^3/3, b4 = -theta^2/2 + 2 theta^3/3.
_RK4_P = np.array(
    [
        [1.0, -3.0 / 2.0, 2.0 / 3.0],
        [0.0, 1.0, -2.0 / 3.0],
        [0.0, 1.0, -2.0 / 3.0],
        [0.0, -1.0 / 2.0, 2.0 / 3.0],
    ]
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
    """Time-ordered accepted samples, output-time samples and run statistics.

    ``t`` and ``y`` hold the accepted samples.  ``t_eval`` and ``y_eval``
    hold the samples at the output times the propagation was given, in
    order, up to where it stopped.
    """

    t: np.ndarray
    y: np.ndarray
    n_evals: int = 0
    n_steps: int = 0
    n_rejected: int = 0
    wall_time: float = 0.0
    t_eval: np.ndarray = field(default_factory=lambda: np.empty(0))
    y_eval: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))

    def __len__(self):
        return len(self.t)

    @property
    def final_state(self) -> np.ndarray:
        return self.y[-1]


def renormalize_quaternion_blocks(y: list, quat_spans) -> list:
    """Rescale each quaternion block of a state, a list of floats, to unit norm.

    Returns ``y`` itself when every block's norm is exactly 1.0 (dividing
    by it would change no bit), otherwise a rescaled copy.  Each block's
    squared norm is the ``np.dot`` of the block, as an array, with itself:
    numpy's dot may fuse multiply and add, so no order of float products
    and sums reproduces its bits, even for two components; a float sum of
    squares would move trajectories off those of the array form.

    Raises
    ------
    ValueError
        If a block has zero norm.
    """
    out = y
    for lo, hi in quat_spans:
        block = np.array(y[lo:hi])
        n = sqrt(block.dot(block))
        if n == 0.0:
            raise ValueError("cannot renormalize a zero-norm quaternion block")
        if n != 1.0:
            if out is y:
                out = list(y)
            out[lo:hi] = [v / n for v in y[lo:hi]]
    return out


def _rk4_step(rhs, t, y, h):
    """One classical RK4 step on lists of floats: ``(y_new, (k1, k2, k3, k4))``.

    Every component is the float the array expressions give: each stage
    state is ``y + (0.5*h)*k`` (``y + h*k3`` for the last) and the new
    state ``y + (h/6)*(((k1 + 2*k2) + 2*k3) + k4)``.
    """
    k1 = rhs(t, y)
    c = 0.5 * h
    k2 = rhs(t + c, [v + c * p for v, p in zip(y, k1)])
    k3 = rhs(t + c, [v + c * p for v, p in zip(y, k2)])
    k4 = rhs(t + h, [v + h * p for v, p in zip(y, k3)])
    c = h / 6.0
    y_new = [
        v + c * (((p + 2.0 * q) + 2.0 * r) + s)
        for v, p, q, r, s in zip(y, k1, k2, k3, k4)
    ]
    return y_new, (k1, k2, k3, k4)


def _dp54_step(rhs, t, y, h, k1=None, t_end=None):
    """One Dormand-Prince step on lists of floats.

    Returns ``(y5, err, k7, stages)``, each a list of floats: the stage-7
    state (it is the fifth-order solution, since ``_DP_A[6] == _DP_B[:6]``
    and ``_DP_B[6] == 0``), the error estimate, the derivative at
    ``(t_end, y5)``, and the seven stage derivatives, for the continuous
    extension.  ``k1`` is the derivative at ``(t, y)`` when the caller
    already has it.  ``t_end`` is the time of stages 6 and 7, both at
    ``c = 1``: ``t + h`` unless the caller passes the left limit of a
    control knot the step lands on.

    Each stage state is summed weight by weight in table order, skipping
    zero weights, so every component is the float the array expression
    ``((y + (h*a1)*k1) + (h*a2)*k2) + ...`` gives.
    """
    if k1 is None:
        k1 = rhs(t, y)
    if t_end is None:
        t_end = t + h
    a = _DP_A
    d1 = k1
    c1 = h * a[1][0]
    d2 = rhs(t + _DP_C[1] * h, [v + c1 * p for v, p in zip(y, d1)])
    c1, c2 = h * a[2][0], h * a[2][1]
    d3 = rhs(t + _DP_C[2] * h, [v + c1 * p + c2 * q for v, p, q in zip(y, d1, d2)])
    c1, c2, c3 = h * a[3][0], h * a[3][1], h * a[3][2]
    d4 = rhs(
        t + _DP_C[3] * h,
        [v + c1 * p + c2 * q + c3 * r for v, p, q, r in zip(y, d1, d2, d3)],
    )
    c1, c2, c3, c4 = h * a[4][0], h * a[4][1], h * a[4][2], h * a[4][3]
    d5 = rhs(
        t + _DP_C[4] * h,
        [
            v + c1 * p + c2 * q + c3 * r + c4 * s
            for v, p, q, r, s in zip(y, d1, d2, d3, d4)
        ],
    )
    c1, c2, c3, c4, c5 = h * a[5][0], h * a[5][1], h * a[5][2], h * a[5][3], h * a[5][4]
    d6 = rhs(
        t_end,
        [
            v + c1 * p + c2 * q + c3 * r + c4 * s + c5 * u
            for v, p, q, r, s, u in zip(y, d1, d2, d3, d4, d5)
        ],
    )
    # a[6][1] == 0: the second stage does not enter the solution
    c1, c3, c4, c5, c6 = h * a[6][0], h * a[6][2], h * a[6][3], h * a[6][4], h * a[6][5]
    y5 = [
        v + c1 * p + c3 * r + c4 * s + c5 * u + c6 * w
        for v, p, r, s, u, w in zip(y, d1, d3, d4, d5, d6)
    ]
    d7 = rhs(t_end, y5)
    # _DP_E[1] == 0
    e = _DP_E
    c1, c3, c4, c5, c6, c7 = h * e[0], h * e[2], h * e[3], h * e[4], h * e[5], h * e[6]
    err = [
        c1 * p + c3 * r + c4 * s + c5 * u + c6 * w + c7 * z
        for p, r, s, u, w, z in zip(d1, d3, d4, d5, d6, d7)
    ]
    return y5, err, d7, (d1, d2, d3, d4, d5, d6, d7)


def _dense(t, h, y, stages, p):
    """The state at time ``s`` inside the step of length ``h`` from ``(t, y)``.

    ``y`` and the step's stage derivatives ``stages`` are lists of floats,
    converted to arrays once per interpolant; ``p`` holds the coefficients
    of its continuous extension, one row per stage.  Each evaluation
    returns the state as a list of floats.
    """
    q = h * (p.T @ np.array(stages))
    y = np.array(y)
    exponents = np.arange(1, len(q) + 1)
    return lambda s: (y + ((s - t) / h) ** exponents @ q).tolist()


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
    """Iterator over the forced landing times within (t0, t_final]: the
    control knots and the terminal time.

    ``knots`` holds the landing times that are control knots, the terminal
    time included when it is one.
    """

    def __init__(self, t0, t_final, t_knots=()):
        self.knots = {float(b) for b in t_knots if t0 < b <= t_final}
        self.points = sorted(b for b in self.knots if b < t_final)
        self.points.append(t_final)
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
    t_eval=(),
    scales=None,
    t_knots=(),
):
    """Integrate ``rhs`` from ``(t0, y0)`` until the terminal time or an event.

    Parameters
    ----------
    rhs : callable
        Derivative function ``rhs(t, y) -> ydot``.  ``y`` is a list of
        Python floats, which ``rhs`` must not modify, and ``ydot`` a new
        list of floats of the same length.
    y0 : array_like
        Initial state, a flat sequence of numbers.
    quat_spans : sequence of (lo, hi)
        Index ranges holding unit quaternions, renormalized after accepted
        steps when the config asks for it.
    radius_fn, radius_target : callable, float
        When given, propagation stops where ``radius_fn(y)`` crosses
        ``radius_target`` in either direction.  The crossing is located on
        the bracketing step's interpolant, with no derivative evaluation,
        to within ``EVENT_RADIUS_TOL`` of the target and a bracket shorter
        than ``EVENT_TIME_TOL``.  A start exactly on the target does not
        count; the event arms once the radius leaves it.
    t_eval : sequence of float
        Output times, such as a comparison grid.  Each one within
        ``[t0, t_final]`` and not after a stop gets a sample in
        ``Trajectory.t_eval``/``y_eval``: the accepted sample whose time it
        equals bit for bit, or the interpolant of the accepted step that
        contains it.  Output times never shorten a step.
    scales : array, optional
        Per-component scaling of the absolute tolerance (lengths and speeds
        are many orders of magnitude above quaternion components).
    t_knots : sequence of float
        Times where ``rhs`` may jump (control-profile knots).  They and the
        terminal time are the only times the stepper lands on.  An adaptive
        step that lands on a knot evaluates its two ``c = 1`` stages at the
        left limit ``nextafter(knot, -inf)`` and hands the next step no
        stage-7 derivative, so each step sees one smooth segment of the
        controls.

    Adaptive steps treat a derivative failure by where it happens.  A
    ``SingularityError`` at the accepted state ``(t, y)`` ends the run as
    ``singularity_guard`` at ``t``.  A ``SingularityError`` or
    ``ArithmeticError`` in a trial stage rejects the step like an infinite
    error estimate, and the retry is 0.2 times as long.  A step shorter
    than ``1e-14 * max(|t|, 1)`` ends the run: as ``singularity_guard``
    with the guard's message when the last trial raised one, otherwise as
    ``step_failure`` with the exception's message, "non-finite state" or
    "step size underflow".  A fixed RK4 step ends the run on a
    ``SingularityError`` in any stage.

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
    y = np.asarray(y0, dtype=float).tolist()
    start = time.perf_counter()
    n_evals = 0

    def counted_rhs(t, yy):
        nonlocal n_evals
        n_evals += 1
        return rhs(t, yy)

    # accepted samples are rows [0, n_rows); both buffers double when full
    t_buf = np.empty(256)
    y_buf = np.empty((256, len(y)))
    t_buf[0] = t0
    y_buf[0] = y
    n_rows = 1
    n_steps = 0
    n_rejected = 0
    schedule = _BreakSchedule(t0, t_final, t_knots)
    renorm = config.renormalize_every_step and quat_spans
    adaptive = config.method == "rk45-adaptive"
    dense_coefficients = _DP_P if adaptive else _RK4_P
    rel_tol = config.rel_tol
    if scales is None:
        abs_tol = [config.abs_tol] * len(y)
    else:
        abs_tol = (config.abs_tol * np.asarray(scales, dtype=float)).tolist()

    # output times still to sample, the next one last
    pending = sorted({float(s) for s in t_eval if t0 <= s <= t_final}, reverse=True)
    eval_t, eval_y = [], []

    def sample(t_end, y_end, dense):
        """Sample the pending output times up to ``t_end``, where the state is ``y_end``."""
        while pending and pending[-1] <= t_end:
            s = pending.pop()
            eval_t.append(s)
            eval_y.append(y_end if s == t_end else dense(s))

    def finish(event):
        traj = Trajectory(
            t=t_buf[:n_rows].copy(),
            y=y_buf[:n_rows].copy(),
            n_evals=n_evals,
            n_steps=n_steps,
            n_rejected=n_rejected,
            wall_time=time.perf_counter() - start,
            t_eval=np.array(eval_t),
            y_eval=np.array(eval_y).reshape(len(eval_t), y_buf.shape[1]),
        )
        return traj, event

    def stop(kind, message=""):
        """End the run at the last accepted sample."""
        return finish(StopEvent(kind=kind, t_event=t, y_event=np.array(y), message=message))

    t = t0
    sample(t, y, None)
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
            return stop("terminal_time")
        if n_steps + n_rejected >= config.max_steps:
            raise PropagationError("maximum step count exceeded", t=t)

        h_try = min(h, target - t)
        # a step whose end rounds onto the target lands there too; otherwise
        # the next step would have length zero
        landing = h_try >= target - t - 1e-15 or t + h_try >= target
        if adaptive:
            if k1 is None:
                try:
                    k1 = counted_rhs(t, y)
                except SingularityError as exc:
                    return stop("singularity_guard", str(exc))
            # the time of stages 6 and 7; a knot is reached from the left
            t7 = nextafter(target, -inf) if landing and target in schedule.knots else t + h_try
            failure = None
            try:
                y5, err, k7, stages = _dp54_step(counted_rhs, t, y, h_try, k1, t7)
                err_norm = _error_norm(err, y, y5, abs_tol, rel_tol)
                y_new = y5
            except (SingularityError, ArithmeticError) as exc:
                failure = exc
                err_norm = nan
            finite = not isnan(err_norm)
            if not finite:
                err_norm = inf
        else:
            try:
                y_new, stages = _rk4_step(counted_rhs, t, y, h_try)
            except SingularityError as exc:
                return stop("singularity_guard", str(exc))
            err_norm = 0.0
            # one float sum: NaN or inf in any component carries through
            finite = isfinite(sum(y_new))

        if adaptive and err_norm > 1.0:
            # the retry starts from the same (t, y) and keeps k1
            n_rejected += 1
            factor = max(0.2, 0.9 * err_norm ** (-0.2))
            h = h_try * min(factor, 0.9)
            if h < 1e-14 * max(abs(t), 1.0):
                if isinstance(failure, SingularityError):
                    return stop("singularity_guard", str(failure))
                if failure is not None:
                    return stop("step_failure", f"{type(failure).__name__}: {failure}")
                message = "step size underflow" if finite else "non-finite state"
                return stop("step_failure", message)
            continue

        if not finite:
            return stop("step_failure", "non-finite state")

        n_steps += 1
        t_new = target if landing else t + h_try
        if renorm:
            y_new = renormalize_quaternion_blocks(y_new, quat_spans)

        event = None
        dense = None
        if g_prev is not None:
            g_new = radius_fn(y_new) - radius_target
            # g_prev == 0.0 only while the event is not yet armed
            if g_prev != 0.0 and (g_new == 0.0 or (g_prev > 0.0) != (g_new > 0.0)):
                if g_new != 0.0:
                    dense = _dense(t, h_try, y, stages, dense_coefficients)
                    t_new, y_new = _locate_crossing(
                        dense, t, t_new, g_prev, g_new, radius_fn, radius_target
                    )
                    if renorm:
                        y_new = renormalize_quaternion_blocks(y_new, quat_spans)
                event = StopEvent(kind="radius_crossing", t_event=t_new, y_event=np.array(y_new))
            g_prev = g_new

        if pending and pending[-1] <= t_new:
            sample(t_new, y_new, dense or _dense(t, h_try, y, stages, dense_coefficients))

        if n_rows == len(t_buf):
            t_buf = np.concatenate((t_buf, np.empty_like(t_buf)))
            y_buf = np.concatenate((y_buf, np.empty_like(y_buf)))
        t_buf[n_rows] = t_new
        y_buf[n_rows] = y_new
        n_rows += 1
        if event is not None:
            return finish(event)

        if adaptive:
            # stage 7 was evaluated at (t7, y5): reuse its derivative when
            # the new sample is that point bit for bit, which a knot landing
            # never is
            k1 = k7 if t_new == t7 and y_new is y5 else None
        t = t_new
        y = y_new

        if landing:
            if target >= t_final:
                return stop("terminal_time")
            target = schedule.next_after(t)

        if adaptive:
            if err_norm > 0.0:
                factor = 0.9 * err_norm ** (-0.2)
            else:
                factor = 5.0
            h = h_try * min(5.0, max(0.2, factor))
        else:
            h = config.step


def _locate_crossing(dense, t_a, t_b, g_a, g_b, radius_fn, target):
    """Illinois iteration for the radius crossing inside one accepted step.

    ``dense(s)`` is the step's interpolated state at time ``s``; ``g_a``
    and ``g_b`` are the radius minus ``target`` at the step's ends ``t_a``
    and ``t_b``, of opposite signs.  Each iterate is the secant root of the
    bracket; when the same end is kept twice in a row, its value is halved
    so the other end moves too.  Returns ``(t, state)`` at the first iterate
    that misses the target by less than ``EVENT_RADIUS_TOL`` once the
    bracket is shorter than ``EVENT_TIME_TOL``, or at the last of
    ``_EVENT_MAX_ITERATIONS``.
    """
    replaced = 0  # +1 after an iterate replaced t_b, -1 after one replaced t_a
    for _ in range(_EVENT_MAX_ITERATIONS):
        s = t_b - g_b * (t_b - t_a) / (g_b - g_a)
        if not t_a < s < t_b:  # rounding, at a bracket a few ulps wide
            s = 0.5 * (t_a + t_b)
        y_s = dense(s)
        g_s = radius_fn(y_s) - target
        if g_s == 0.0:
            break
        if (g_s > 0.0) == (g_b > 0.0):
            t_b, g_b = s, g_s
            if replaced > 0:
                g_a *= 0.5
            replaced = 1
        else:
            t_a, g_a = s, g_s
            if replaced < 0:
                g_b *= 0.5
            replaced = -1
        if abs(g_s) < EVENT_RADIUS_TOL and t_b - t_a < EVENT_TIME_TOL:
            break
    return s, y_s
