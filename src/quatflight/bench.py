"""Derivative-evaluation cost measurement and trigonometric-call counting.

The derivative closures, and the force kernel ``dynamics.make_forces`` they
all call, look up the scalar trig functions through the dynamics module's
globals at call time, so instrumenting one evaluation with counting
wrappers gives the exact per-evaluation call count for each
parameterization -- a mechanical audit that the quaternion forms keep
trigonometry confined to the force model (and eliminate it entirely in the
lift-aligned gauge with thrust off).
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

from . import dynamics
from .scenario import ScenarioConfig, initial_array_for

TRIG_NAMES = ("sin", "cos", "tan", "atan2", "asin", "acos")

MIN_EVALS = 10_000


@dataclass(frozen=True)
class BenchRow:
    """Per-parameterization benchmark result."""

    name: str
    n_evals: int
    mean_ns: float
    median_ns: float
    trig_calls: int


def count_trig_calls(rhs, t, y) -> int:
    """Trig calls made by one derivative evaluation.

    Temporarily replaces the trig names in the dynamics module's namespace
    with counting wrappers; the closures resolve those names at call time.
    """
    counts = {"n": 0}
    saved = {}

    def wrap(fn):
        def counting(*args):
            counts["n"] += 1
            return fn(*args)

        return counting

    for name in TRIG_NAMES:
        if hasattr(dynamics, name):
            saved[name] = getattr(dynamics, name)
            setattr(dynamics, name, wrap(saved[name]))
    try:
        rhs(t, y)
    finally:
        for name, fn in saved.items():
            setattr(dynamics, name, fn)
    return counts["n"]


def benchmark_form(name: str, config: ScenarioConfig, n_evals: int) -> BenchRow:
    """Time ``n_evals`` derivative evaluations of one parameterization.

    Returns a :class:`BenchRow` with the mean and median nanoseconds per
    evaluation (over 20 timing batches) and the exact trig-call count of a
    single evaluation, all at the initial state, passed as the list of
    floats the steppers hand the derivative.  Raises
    :class:`SingularityError` when the form's initial state or its first
    derivative trips a guard.
    """
    if n_evals < MIN_EVALS:
        raise ValueError(f"n_evals must be at least {MIN_EVALS}")
    spec = dynamics.PARAMETERIZATIONS[name]
    y0 = initial_array_for(name, config).tolist()
    rhs = spec.make_rhs(config.controls, config.environment)
    t0 = config.t0
    trig = count_trig_calls(rhs, t0, y0)

    for _ in range(1000):  # warmup
        rhs(t0, y0)
    n_batches = 20
    per_batch = max(1, n_evals // n_batches)
    batch_ns = []
    done = 0
    for _ in range(n_batches):
        tic = time.perf_counter()
        for _ in range(per_batch):
            rhs(t0, y0)
        toc = time.perf_counter()
        batch_ns.append((toc - tic) / per_batch * 1e9)
        done += per_batch
    return BenchRow(
        name=name,
        n_evals=done,
        mean_ns=statistics.fmean(batch_ns),
        median_ns=statistics.median(batch_ns),
        trig_calls=trig,
    )


def format_bench_table(rows) -> str:
    header = f"{'parameterization':<18}{'evals':>10}{'mean ns/eval':>14}{'median ns/eval':>16}{'trig calls/eval':>17}"
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.name:<18}{row.n_evals:>10d}{row.mean_ns:>14.0f}{row.median_ns:>16.0f}{row.trig_calls:>17d}"
        )
    return "\n".join(lines)
