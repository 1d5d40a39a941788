"""Numerical propagation of flight states with events, norm control and dense output.

Two integrators are provided: a fixed-step classical Runge-Kutta scheme and
the adaptive 5(4) pair of Tsitouras ("Runge-Kutta pairs of order 5(4)
satisfying only the first column simplifying assumption", Comput. Math.
Appl. 62, 2011), seven stages whose last is first same as last.  Both
optionally keep the state's quaternion blocks at unit norm by projection:
every block of a step's new state is divided by its norm, ``math.hypot``
of its components, as in Hairer, Lubich & Wanner, *Geometric Numerical
Integration*, §IV.4.  The derivative functions themselves never do this,
so the policy lives entirely here, and it is applied inside the step:

* the RK4 step projects the state it returns;
* the 5(4) step projects its fifth-order solution ``y5`` before it
  evaluates stage 7 there, and returns the projected state.  So stage 7
  is the derivative at the new sample, and the next step can start from it
  (below).  The error estimate stays valid: stage 7 has no weight in the
  solution (``b7 = 0``) and enters only the estimate, and the projection
  moves ``y5`` by the norm drift, which is at most of the size of the local
  error.  The estimate therefore changes by a higher-order term, about
  ``h * e7 * L * |P(y5) - y5|`` for a Lipschitz constant ``L`` of the
  derivative.

Steps land exactly only on the control knots (``t_knots``) inside ``(t0,
t_final)`` and on the terminal time.  A step that would stop short of the
next one by less than ``1e-6`` of its length, or whose end rounds onto it,
lands there and takes the whole gap, so no sliver step follows.  The
derivative may jump at a knot: the rate in the table of
``ControlProfile.lookup`` is right-continuous, so at a knot it already
gives the next segment's slope, and past the terminal time the derivative
may not be defined.  Every landing is reached
from the left: an adaptive step that lands evaluates its two ``c = 1``
stages, 6 and 7, at ``nextafter(landing, -inf)``, so the whole step
integrates the segment that ends there.  This is one-sided integration up
to a discontinuity (Gear & Osterby, ACM TOMS 10(1), 1984).  Evaluated at
the landing itself, those stages would put an O(1) jump into the error
estimate of every attempt to land, and the step would creep up to it
through a cascade of rejections.  The fixed RK4 step evaluates its last
stage at the end of the step.

Every accepted step has a continuous extension built from the stage
derivatives it already computed, so it costs no derivative evaluation: the
free 4th-order interpolant that Tsitouras gives with the pair, and the
standard 3rd-order one of RK4.  An adaptive step that lands interpolates
with the left-limit stages it integrated with.  Two things read the
extension:

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
  is the interpolant at that time, projected; it ends the trajectory,
  and no output time after it is sampled.

A derivative evaluation may fail by a singularity guard (``SingularityError``)
or an ``ArithmeticError`` (an overflow, say).  :func:`stop_for` names the
stop either ends a run with: ``singularity_guard`` with the guard's message,
or ``step_failure`` with the exception's type and message.  A step fails
the same way when it projects a quaternion block of zero norm
(``ZeroDivisionError``), and as ``step_failure`` "non-finite state" when
its new state is not finite or its error norm is NaN.  Where a failure
happens decides what it means:

* at the accepted state, the first stage of a step, it ends the run at
  that state, and the trajectory accumulated so far is returned intact.
  A failed fixed RK4 step ends the run the same way, and so does a failed
  adaptive step whose first stage is not finite, since every retry would
  keep that stage.  An RK4 step whose new state is finite evaluates the
  next step's first stage there before it keeps any sample, and fails when
  that evaluation fails, so every kept RK4 sample is a state the
  derivative accepts.
* any other failed adaptive step is recoverable, as a right-hand side
  failure is in SUNDIALS CVODE (Hindmarsh et al., ACM TOMS 31(3), 2005):
  the step is rejected as if its error estimate were infinite and retried
  0.2 times as long.  A trial stage of a too-long step can leave the region
  where the derivative is defined although the solution never does.

The adaptive step size follows Lund-stabilized PI control (Gustafsson, ACM
TOMS 17(4), 1991) with the exponents and the β = 0.04 of Hairer's
``dopri5.f`` (Hairer & Wanner, *Solving Ordinary Differential Equations
II*, §IV.2).  The first step is ``min(1, span/100)``.  After an attempt
with error norm ``err``:

* a rejection (``err > 1``, or ``inf`` for a failed trial) retries the step
  ``max(0.2, 0.9 * err**-0.17)`` times as long;
* an acceptance makes the next step ``min(cap, max(0.2, 0.9 * err**-0.17 *
  err_prev**0.04))`` times as long, or 5 times for a zero error norm, and
  then sets ``err_prev = max(err, 1e-4)``; ``err_prev`` starts at 1e-4.
  ``cap`` is 1 when the attempt before this one was rejected, so the step
  does not grow right after a rejection, and 5 otherwise.

The ``err_prev`` factor damps the alternation of accepted and rejected
steps of a plain ``err**-0.2`` rule.

An adaptive step may not shrink below the step floor
``1e-14 * max(|t|, 1)``.  A rejection that would go below it ends the run
at the last accepted sample with the rejected trial's failure, or as
``step_failure`` "step size underflow" when the trial did not fail.  A
step that does not land and whose ``t + h`` rounds to ``t`` would not
advance time: in either integrator it ends the run as "step size
underflow" before it is tried.  A run whose accepted and rejected steps
reach ``IntegratorConfig.max_steps`` ends the same way, as
``step_failure`` "maximum step count exceeded".  Any other exception is a
defect and is not caught.

The state is a list of Python floats from ``y0`` to the last sample, and
the derivative takes and returns one.  The RK4 step and the 5(4) step
are straight-line functions generated on first use in ``propagate`` and
kept per state size and projected quaternion blocks.  Each unpacks its
lists into local names once and writes every component out, so no stage
runs a loop or builds an array.  The new state is written as locals, each
quaternion block of them divided by its ``hypot`` in place, and the 5(4)
step takes its error norm on the same locals, so neither projection nor
norm reads a list again.  Their source is registered with
:mod:`linecache` under names such as ``<quatflight rk54 n=10 spans=((1, 5),
(6, 10))>``, where ``inspect.getsource`` and the tracebacks that the
``traceback`` module formats find it.  Every component is the float the
array expressions give, with the same terms in the same order: zero
weights are skipped, the error norm's maximum is NaN when either side is
(as ``np.maximum``) and its sum of squares follows numpy's pairwise order.
So trajectories are bit for bit those of the array form.  The 5(4) step
returns its projected stage-7 state as the fifth-order solution: that
stage's weights are the solution weights, summed in the same order.  The
located event state is projected by the same generated lines.  Arrays
appear where a run's results are kept: an interpolant's matrix product,
and the trajectory and stop event handed back.

The derivative is never evaluated twice at the same ``(t, y)`` from one
step to the next, and is reused only where its inputs are bit-identical:

* a rejected step's retry starts from the same point and keeps its first
  stage, so a retry costs six evaluations, not seven;
* every RK4 step ends with the derivative at its new state, which is the
  next step's first stage, so a run that ends at its terminal time or on
  an event makes ``4 * n_steps + 1`` evaluations;
* after an accepted adaptive step, the stage-7 derivative becomes the
  next step's first stage (first same as last) when the step ends at stage
  7's time.  Stage 7 is evaluated at the projected new state, so only a
  knot landing evaluates a fresh first stage: its stage 7 sits at the
  knot's left limit, and the next step starts on the knot's other side.

Samples are kept in four flat buffers of doubles (``array.array("d")``):
the accepted times and states, and the output times and their states.  A
row is appended to its buffer as it is made, and each buffer becomes its
trajectory array once, when the run ends, without a copy, so the arrays
share memory with nothing else.

Propagation is deterministic: the same configuration and initial state
produce bitwise-identical trajectories, with or without output times.
"""

from __future__ import annotations

import linecache
import time
from array import array
from dataclasses import dataclass, field
from functools import cache
from math import hypot, inf, isfinite, isnan, nextafter, sqrt
from typing import Callable, Optional

import numpy as np

from .errors import SingularityError, check_numbers, number

EVENT_TIME_TOL = 1e-6  # s
EVENT_RADIUS_TOL = 1e-3  # m
_EVENT_MAX_ITERATIONS = 100

# Tsitouras 5(4) coefficients (Comput. Math. Appl. 62, 2011): stage 7's row
# is the solution weights (b7 = 0), and _RK54_E = b - b_hat of the embedded
# 4th-order solution.
_RK54_C = (0.0, 0.161, 0.327, 0.9, 0.9800255409045097, 1.0, 1.0)
_RK54_A = (
    (),
    (0.161,),
    (-0.008480655492356989, 0.335480655492357),
    (2.897153057105493, -6.359448489975075, 4.3622954328695815),
    (5.325864828439257, -11.748883564062828, 7.4955393428898365, -0.09249506636175525),
    (
        5.86145544294642,
        -12.92096931784711,
        8.159367898576159,
        -0.071584973281401,
        -0.028269050394068383,
    ),
    (
        0.09646076681806523,
        0.01,
        0.4798896504144996,
        1.379008574103742,
        -3.290069515436081,
        2.324710524099774,
    ),
)
_RK54_E = (
    -0.001780011052225777,
    -0.0008164344596567469,
    0.007880878010261995,
    -0.1447110071732629,
    0.5823571654525552,
    -0.45808210592918697,
    0.015151515151515152,
)

# Continuous extensions: stage i's weight at theta is sum_j P[i][j] * theta**(j + 1).
# Tsitouras 5(4): its free 4th-order interpolant.
_RK54_P = np.array(
    [
        [1.0, -2.763706197274826, 2.9132554618219126, -1.0530884977290216],
        [0.0, 0.1317, -0.2234, 0.1017],
        [0.0, 3.930296236894751, -5.941033872131505, 2.490627285651253],
        [0.0, -12.411077166933676, 30.338188630282318, -16.548102889244902],
        [0.0, 37.50931341651104, -88.1789048947664, 47.37952196281928],
        [0.0, -27.896526289197286, 65.09189467479368, -34.87065786149661],
        [0.0, 1.5, -4.0, 2.5],
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


METHODS = ("rk4-fixed", "rk45-adaptive")


@dataclass(frozen=True)
class IntegratorConfig:
    """Integration method and step/tolerance settings.

    ``abs_tol`` is scaled per state component (lengths, speeds, and O(1)
    angles/quaternion components live on very different scales).
    """

    method: str = "rk45-adaptive"
    step: float = number(0.1, (">", 0.0))
    rel_tol: float = number(1e-10, (">", 0.0))
    abs_tol: float = number(1e-12, (">", 0.0))
    renormalize_every_step: bool = True
    max_steps: int = number(2_000_000, (">=", 1.0))

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown integration method {self.method!r}")
        check_numbers(self)


@dataclass(frozen=True, eq=False)
class StopEvent:
    """Why a propagation ended, and where."""

    kind: str  # terminal_time | radius_crossing | singularity_guard | step_failure
    t_event: float
    y_event: Optional[np.ndarray] = None
    message: str = ""


# what a derivative evaluation may raise without being a defect of the program
DERIVATIVE_FAILURES = (SingularityError, ArithmeticError)


def stop_for(exc) -> tuple:
    """The ``(kind, message)`` of the stop a derivative failure ``exc`` ends a run with.

    A ``SingularityError`` is a ``singularity_guard`` with the guard's
    message; an ``ArithmeticError`` is a ``step_failure`` with the
    exception's type and message, such as ``"OverflowError: math range
    error"``.
    """
    if isinstance(exc, SingularityError):
        return "singularity_guard", str(exc)
    return "step_failure", f"{type(exc).__name__}: {exc}"


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


def _names(prefix, n):
    return [f"{prefix}_{i}" for i in range(n)]


def _unpack(prefix, n, source):
    """``prefix_0, prefix_1, ... = source``, a tuple target even for ``n == 1``."""
    return f"    {', '.join(_names(prefix, n))}{',' if n == 1 else ''} = {source}"


def _state_list(terms):
    """A list display with one component per line."""
    return "[\n" + "".join(f"        {term},\n" for term in terms) + "    ]"


def _new_state(terms, spans):
    """Lines that set the locals ``z_i`` to ``terms`` and project them on ``spans``."""
    return [f"    z_{i} = {term}" for i, term in enumerate(terms)] + _projection(spans)


def _projection(spans):
    """Lines that divide each quaternion block ``z_lo .. z_hi-1`` of the locals by its norm.

    The norm is ``math.hypot`` of the block's components, whose bits depend
    on no BLAS kernel.  A block of norm exactly 1.0 keeps its bits; a
    zero-norm block raises ``ZeroDivisionError``.
    """
    lines = []
    for lo, hi in spans:
        block = _names("z", hi)[lo:]
        lines.append(f"    n = hypot({', '.join(block)})")
        lines += [f"    {z} = {z} / n" for z in block]
    return lines


def _project_source(n, spans):
    """``project(y) -> y_new``, ``y`` projected as a step projects its new state."""
    lines = ["def project(y):", _unpack("z", n, "y")] + _projection(spans)
    lines.append(f"    return {_state_list(_names('z', n))}")
    return "\n".join(lines) + "\n"


def _rk4_source(n, spans):
    """``rk4(rhs, t, y, h, k1, t_end, abs_tol, rel_tol) -> (y_new, 0.0, None, stages)``.

    The step contract of :func:`_rk54_source`, with no error estimate: the
    error norm is 0.0, and there is no reusable last stage.  Each stage
    state is ``y_i + c * k_i`` with ``c = 0.5*h`` (``h`` for the last stage,
    evaluated at ``t_end``) and the new state
    ``y_i + (h/6)*(((k1_i + 2*k2_i) + 2*k3_i) + k4_i)``, the float
    operations of the array expressions, then projected.
    """
    y = _names("y", n)
    lines = [
        "def rk4(rhs, t, y, h, k1, t_end, abs_tol, rel_tol):",
        _unpack("y", n, "y"),
        _unpack("k1", n, "k1"),
        "    c = 0.5 * h",
    ]
    for stage, (at, step) in enumerate((("t + c", "c"), ("t + c", "c"), ("t_end", "h")), 2):
        prev = _names(f"k{stage - 1}", n)
        terms = [f"{v} + {step} * {p}" for v, p in zip(y, prev)]
        lines.append(f"    k{stage} = rhs({at}, {_state_list(terms)})")
        lines.append(_unpack(f"k{stage}", n, f"k{stage}"))
    lines.append("    c = h / 6.0")
    terms = [
        f"{v} + c * ((({p} + 2.0 * {q}) + 2.0 * {r}) + {s})"
        for v, p, q, r, s in zip(y, *(_names(f"k{j}", n) for j in range(1, 5)))
    ]
    lines += _new_state(terms, spans)
    lines.append(f"    return {_state_list(_names('z', n))}, 0.0, None, (k1, k2, k3, k4)")
    return "\n".join(lines) + "\n"


def _rk54_source(n, spans):
    """``rk54(rhs, t, y, h, k1, t_end, abs_tol, rel_tol) -> (y5, err_norm, k7, stages)``.

    The step contract both generated steps share: from the state ``y`` at
    ``t``, whose derivative ``k1`` the caller has evaluated, a step of
    length ``h`` whose last stage (here the two ``c = 1`` stages) is
    evaluated at ``t_end``.  The step's solution is projected on the
    quaternion ``spans`` before anything reads it.  The step returns the
    new state, its error norm (0.0 for RK4), the derivative at
    ``(t_end, y_new)`` (``None`` for RK4, whose last stage is not at the new
    state) and every stage derivative, for the step's interpolant.

    The stages follow the tableau ``_RK54_C``/``_RK54_A``: stage ``i``'s state
    adds ``(h*a_ij) * k_j`` to ``y`` weight by weight in table order,
    skipping zero weights.  Stage 7's state is ``y5``, the fifth-order
    solution, whose weights are ``_RK54_A[6]`` and a zero for stage 7,
    projected before stage 7 is evaluated there.  Component ``i`` of the error
    estimate sums ``(h*e_j) * k_j`` the same way over ``_RK54_E``, and the
    error norm is the RMS of ``err_i / (abs_tol_i + rel_tol * max(|y_i|,
    |y5_i|))``, bit for bit ``float(np.sqrt(np.mean((err / tol) ** 2)))``:
    the same products and quotients, a maximum that is NaN when either side
    is (as ``np.maximum``), and numpy's summation order.  Squares are
    products, because ``**`` on floats raises ``OverflowError`` where numpy
    gives inf.
    """
    y = _names("y", n)
    lines = [
        "def rk54(rhs, t, y, h, k1, t_end, abs_tol, rel_tol):",
        _unpack("y", n, "y"),
        _unpack("k1", n, "k1"),
    ]
    for stage in range(2, 8):
        weights = [(j, a) for j, a in enumerate(_RK54_A[stage - 1], 1) if a != 0.0]
        lines.append(f"    # stage {stage}, c = {_RK54_C[stage - 1]!r}")
        for j, a in weights:
            lines.append(f"    a{stage}{j} = h * {a!r}")
        terms = [
            " + ".join([v] + [f"a{stage}{j} * k{j}_{i}" for j, _ in weights])
            for i, v in enumerate(y)
        ]
        c = _RK54_C[stage - 1]
        at = "t_end" if c == 1.0 else f"t + {c!r} * h"
        if stage == 7:
            lines += _new_state(terms, spans)
            lines.append(f"    y5 = {_state_list(_names('z', n))}")
            lines.append(f"    k7 = rhs({at}, y5)")
        else:
            lines.append(f"    k{stage} = rhs({at}, {_state_list(terms)})")
        lines.append(_unpack(f"k{stage}", n, f"k{stage}"))
    weights = [(j, e) for j, e in enumerate(_RK54_E, 1) if e != 0.0]
    lines.append("    # error norm")
    for j, e in weights:
        lines.append(f"    e{j} = h * {e!r}")
    lines.append(_unpack("atol", n, "abs_tol"))
    for i in range(n):
        err = " + ".join(f"e{j} * k{j}_{i}" for j, _ in weights)
        lines += [
            f"    p = abs(y_{i})",
            f"    q = abs(z_{i})",
            f"    r = ({err}) / (atol_{i} + rel_tol * (p if p >= q else (q if q >= p else p + q)))",
            f"    s_{i} = r * r",
        ]
    lines.append(f"    err_norm = sqrt(({_pairwise_source(_names('s', n))}) / {float(n)!r})")
    lines.append("    return y5, err_norm, k7, (k1, k2, k3, k4, k5, k6, k7)")
    return "\n".join(lines) + "\n"


def _pairwise_source(x):
    """The sum of the names ``x`` in the order numpy's ``np.add.reduce`` uses.

    Below 8 terms a running sum from 0.0; up to 128 eight running sums,
    one per residue mod 8, combined as a balanced tree, then the leftover
    terms; beyond that the two halves, split at a multiple of 8, summed
    separately.  ``+`` chains associate to the left.
    """
    n = len(x)
    if n < 8:
        return " + ".join(["0.0"] + x)
    if n <= 128:
        stop = n - n % 8
        r = [_group(" + ".join(x[j:stop:8])) for j in range(8)]
        tree = f"(({r[0]} + {r[1]}) + ({r[2]} + {r[3]})) + (({r[4]} + {r[5]}) + ({r[6]} + {r[7]}))"
        return " + ".join([f"({tree})"] + x[stop:])
    half = n // 2
    half -= half % 8
    return f"{_group(_pairwise_source(x[:half]))} + {_group(_pairwise_source(x[half:]))}"


def _group(expr):
    return f"({expr})" if " " in expr else expr


_SOURCES = {"rk4": _rk4_source, "rk54": _rk54_source, "project": _project_source}


@cache
def _generated(kind, n, spans):
    """The straight-line function ``kind`` for states of ``n`` floats, built on first use.

    ``kind`` is ``"rk4"``, ``"rk54"`` or ``"project"``; ``spans`` is a
    tuple of the ``(lo, hi)`` quaternion blocks it projects, ``()`` for
    none.  One function is kept per kind, state size and spans.  The
    source is registered with :mod:`linecache` under
    ``<quatflight {kind} n={n}>``, or ``<quatflight {kind} n={n}
    spans={spans}>`` when there are spans, so ``inspect.getsource`` and the
    ``traceback`` module show its lines.
    """
    source = _SOURCES[kind](n, spans)
    filename = f"<quatflight {kind} n={n}{f' spans={spans}' if spans else ''}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace = {"hypot": hypot, "sqrt": sqrt}
    exec(compile(source, filename, "exec"), namespace)
    return namespace[kind]


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
        Index ranges holding unit quaternions, projected to unit norm inside
        every step when the config asks for it (see the module docstring).
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
        terminal time are the only times the stepper lands on; a step that
        would stop short of one by less than ``1e-6`` of its length lands
        there.  An adaptive step that lands evaluates its two ``c = 1``
        stages at the left limit ``nextafter(landing, -inf)`` and hands the
        next step no stage-7 derivative, so each step sees one smooth
        segment of the controls; an adaptive run never evaluates ``rhs`` at
        or after ``t_final``.

    A derivative failure ends the run or rejects the step as the module
    docstring states; no ``SingularityError`` or ``ArithmeticError`` that
    ``rhs`` raises escapes.

    Returns
    -------
    (Trajectory, StopEvent)

    Raises
    ------
    ValueError
        If ``t_final`` does not exceed ``t0``.
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

    # the accepted samples, as flat buffers of doubles
    ts, ys = array("d", (t0,)), array("d", y)
    n_steps = 0
    n_rejected = 0
    # the times still to land on, the next one last: the knots inside
    # (t0, t_final), then t_final
    landings = sorted({t_final, *(float(b) for b in t_knots if t0 < b < t_final)}, reverse=True)
    spans = tuple(map(tuple, quat_spans)) if config.renormalize_every_step else ()
    adaptive = config.method == "rk45-adaptive"
    step = _generated("rk54" if adaptive else "rk4", len(y), spans)
    if adaptive:
        dense_coefficients = _RK54_P
        h = min(1.0, (t_final - t0) / 100.0)
    else:
        dense_coefficients = _RK4_P
        h = config.step
    rel_tol = config.rel_tol
    if scales is None:
        abs_tol = [config.abs_tol] * len(y)
    else:
        abs_tol = (config.abs_tol * np.asarray(scales, dtype=float)).tolist()

    # output times still to sample, the next one last
    pending = sorted({float(s) for s in t_eval if t0 <= s <= t_final}, reverse=True)
    eval_t, eval_y = array("d"), array("d")

    def sample(t_end, y_end, dense):
        """Sample the pending output times up to ``t_end``, where the state is ``y_end``."""
        while pending and pending[-1] <= t_end:
            s = pending.pop()
            eval_t.append(s)
            eval_y.fromlist(y_end if s == t_end else dense(s))

    def finish(event):
        n = len(y)
        traj = Trajectory(
            t=np.frombuffer(ts),
            y=np.frombuffer(ys).reshape(len(ts), n),
            n_evals=n_evals,
            n_steps=n_steps,
            n_rejected=n_rejected,
            wall_time=time.perf_counter() - start,
            t_eval=np.frombuffer(eval_t),
            y_eval=np.frombuffer(eval_y).reshape(len(eval_t), n),
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

    k1 = None  # the derivative at (t, y), once known
    err_prev = 1e-4  # the last accepted error norm, at least 1e-4
    rejected = False  # whether the last attempt was rejected
    while True:
        if n_steps + n_rejected >= config.max_steps:
            return stop("step_failure", "maximum step count exceeded")

        target = landings[-1]
        # a step that would stop short of the target by less than a millionth
        # of itself, or whose end rounds onto it, lands there and integrates
        # the whole gap; otherwise a sliver step would follow
        landing = target - t - h < 1e-6 * h or t + h >= target
        if not landing and t + h == t:
            return stop("step_failure", "step size underflow")
        h_try = target - t if landing else h
        if k1 is None:
            try:
                k1 = counted_rhs(t, y)
            except DERIVATIVE_FAILURES as exc:
                return stop(*stop_for(exc))
        # the time of the last stage; an adaptive step reaches every landing
        # from the left
        t_end = nextafter(target, -inf) if adaptive and landing else t + h_try
        t_new = target if landing else t + h_try
        try:
            y_new, err_norm, k_last, stages = step(
                counted_rhs, t, y, h_try, k1, t_end, abs_tol, rel_tol
            )
            # one float sum: NaN or inf in any component carries through
            finite = isfinite(sum(y_new)) and not isnan(err_norm)
            failure = None if finite else ("step_failure", "non-finite state")
            if finite and not adaptive:
                # the next first stage, before any sample of the step is
                # kept: a state the derivative rejects fails the step
                k_last, t_end = counted_rhs(t_new, y_new), t_new
        except DERIVATIVE_FAILURES as exc:
            failure = stop_for(exc)
        if failure:
            if not adaptive:
                return stop(*failure)
            if not isfinite(sum(k1)):
                # every retry would keep this first stage and fail again
                n_rejected += 1
                return stop("step_failure", "non-finite state")
            err_norm = inf

        # the next step's length follows the module docstring's PI rule
        if err_norm > 1.0:
            # only an adaptive step is rejected; the retry starts from the
            # same (t, y) and keeps k1
            n_rejected += 1
            h = h_try * max(0.2, 0.9 * err_norm ** -0.17)
            rejected = True
            if h < 1e-14 * max(abs(t), 1.0):
                return stop(*(failure or ("step_failure", "step size underflow")))
            continue
        if adaptive:
            factor = 0.9 * err_norm ** -0.17 * err_prev ** 0.04 if err_norm > 0.0 else 5.0
            h = h_try * min(1.0 if rejected else 5.0, max(0.2, factor))
            err_prev, rejected = max(err_norm, 1e-4), False

        n_steps += 1

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
                    y_new = _generated("project", len(y), spans)(y_new)
                event = StopEvent(kind="radius_crossing", t_event=t_new, y_event=np.array(y_new))
            g_prev = g_new

        if pending and pending[-1] <= t_new:
            sample(t_new, y_new, dense or _dense(t, h_try, y, stages, dense_coefficients))

        ts.append(t_new)
        ys.fromlist(y_new)
        if event is not None:
            return finish(event)

        # k_last is the derivative at (t_end, y_new), the new sample unless
        # a 5(4) step landed on a knot
        k1 = k_last if t_new == t_end else None
        t = t_new
        y = y_new

        if landing:
            landings.pop()
            if not landings:
                return stop("terminal_time")


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
