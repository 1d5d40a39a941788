"""Per-layer tracing, wrapped around the program's public boundaries.

Nothing under ``src/`` is edited: while a traced unit runs, the module
attributes through which the layers call each other are replaced by
timing wrappers, and put back afterwards.

* Coarse boundaries get spans (name, start, end, parent), kept in memory
  and written out when the run ends: ``cli.main``, ``load_scenario``,
  ``run_parameterization``, ``initial_array_for``, ``propagate``,
  ``write_trajectory_csv`` and ``build_comparison``.
* Hot boundaries get an aggregated count and time instead, because the
  long fixed-step workload makes 400 000 derivative calls: the derivative
  passed to ``propagate``, its ``radius_fn``, and ``sample_diagnostics``.
* ``PARAMETERIZATIONS[name].make_rhs`` receives control profiles that
  count their lookups, so lookups per derivative call are measured where
  they happen.

A layer's self time is its spans' duration minus the part covered by its
child spans and hot timers.  The self times of all layers add up to the
traced unit time, and none may be negative beyond timer noise, which would
mean a child was charged to a layer it does not run inside.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import statistics
import time
from pathlib import Path

import numpy as np

from quatflight import cli, scenario
from quatflight.bench import count_trig_calls
from quatflight.controls import PiecewiseLinear
from quatflight.dynamics import PARAMETERIZATIONS
from quatflight.errors import SingularityError

from inputs import FORMS

# Layers by the boundary that opens them; hot layers name their parent span.
LAYERS = ("cli", "load", "run", "init", "propagate", "rhs", "radius", "csv", "diag", "compare")
HOT_PARENT = {"rhs": "propagate", "radius": "propagate", "diag": "csv"}
UNACCOUNTED_MAX = 0.02  # of the traced unit time
SELF_TIME_FLOOR = -0.01  # of the traced unit time
RHS_BATCHES = 5

perf_counter = time.perf_counter


class _CountingProfile:
    """A control profile that counts every evaluation of itself."""

    def __init__(self, profile, counter):
        self._profile = profile
        self._counter = counter

    def __call__(self, t):
        self._counter[0] += 1
        return self._profile(t)

    def rate(self, t):
        self._counter[0] += 1
        return self._profile.rate(t)

    def __getattr__(self, name):
        return getattr(self._profile, name)


def _counting_controls(controls, counter):
    swaps = {
        f.name: _CountingProfile(getattr(controls, f.name), counter)
        for f in dataclasses.fields(controls)
        if isinstance(getattr(controls, f.name), PiecewiseLinear)
    }
    return dataclasses.replace(controls, **swaps)


class Tracer:
    """Spans, hot counters and propagation statistics of the traced units."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []
        self.hot = {name: [0, 0.0] for name in HOT_PARENT}  # calls, seconds
        self.lookups = [0]  # control-profile evaluations anywhere
        self.rhs_lookups = 0  # ... of which inside propagation derivative calls
        self.steps = {form: [0, 0] for form in FORMS}  # accepted, rejected
        self.forced_landings = 0
        self.events = [0, 0.0, 0]  # events, seconds, derivative calls
        self.form = None

    def span(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()

        return traced

    def _counter(self, name, fn):
        cell = self.hot[name]

        def timed(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                cell[1] += perf_counter() - start
                cell[0] += 1

        return timed

    def run_span(self, fn):
        """``run_parameterization`` under span ``run``, noting the form for the step counts."""
        traced = self.span("run", fn)

        def run(name, *args, **kwargs):
            self.form = name
            return traced(name, *args, **kwargs)

        return run

    def _propagate(self, fn):
        traced = self.span("propagate", fn)

        def propagate(rhs, t0, y0, t_final, config, **kwargs):
            rhs_cell, rad_cell, lookups = self.hot["rhs"], self.hot["radius"], self.lookups
            form = self.form

            def rhs_traced(t, y):
                n0 = lookups[0]
                start = perf_counter()
                try:
                    return rhs(t, y)
                finally:
                    rhs_cell[1] += perf_counter() - start
                    rhs_cell[0] += 1
                    self.rhs_lookups += lookups[0] - n0

            crossing = {"above": None, "t": None, "calls": 0}
            radius_fn = kwargs.get("radius_fn")
            target = kwargs.get("radius_target")
            if radius_fn is not None and target is not None:

                def radius_traced(y):
                    start = perf_counter()
                    try:
                        r = radius_fn(y)
                    finally:
                        rad_cell[1] += perf_counter() - start
                        rad_cell[0] += 1
                    g = r - target
                    if crossing["above"] is None:
                        crossing["above"] = g > 0.0
                    elif crossing["t"] is None and (g == 0.0 or (g > 0.0) != crossing["above"]):
                        crossing["t"] = perf_counter()
                        crossing["calls"] = rhs_cell[0]
                    return r

                kwargs["radius_fn"] = radius_traced
            traj, stop = traced(rhs_traced, t0, y0, t_final, config, **kwargs)
            if crossing["t"] is not None:
                self.events[0] += 1
                self.events[1] += perf_counter() - crossing["t"]
                self.events[2] += rhs_cell[0] - crossing["calls"]
            if form in self.steps:
                self.steps[form][0] += traj.n_steps
                self.steps[form][1] += traj.n_rejected
            breaks = {float(b) for b in kwargs.get("t_breaks", ())}
            breaks.add(float(t_final))
            self.forced_landings += sum(1 for t in traj.t[1:].tolist() if t in breaks)
            return traj, stop

        return propagate

    def _make_rhs(self, make_rhs):
        lookups = self.lookups

        def make(controls, env):
            return make_rhs(_counting_controls(controls, lookups), env)

        return make

    @contextlib.contextmanager
    def active(self):
        """Install the wrappers for the duration of one traced unit.

        ``run_parameterization`` is left to the workload's recorder, which
        opens the ``run`` span through :meth:`run_span`.
        """
        patches = [
            (cli, "load_scenario", self.span("load", cli.load_scenario)),
            (scenario, "initial_array_for", self.span("init", scenario.initial_array_for)),
            (scenario, "propagate", self._propagate(scenario.propagate)),
            (scenario, "write_trajectory_csv", self.span("csv", scenario.write_trajectory_csv)),
            (scenario, "sample_diagnostics", self._counter("diag", scenario.sample_diagnostics)),
            (scenario, "build_comparison", self.span("compare", scenario.build_comparison)),
        ]
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
        saved_specs = dict(PARAMETERIZATIONS)
        try:
            for module, attr, wrapper in patches:
                setattr(module, attr, wrapper)
            for name, spec in saved_specs.items():
                PARAMETERIZATIONS[name] = dataclasses.replace(spec, make_rhs=self._make_rhs(spec.make_rhs))
            yield
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)
            PARAMETERIZATIONS.update(saved_specs)

    def self_times(self) -> dict:
        """Seconds of self time per layer, summed over all traced units."""
        out = dict.fromkeys(LAYERS, 0.0)
        spans = self.spans
        for name, start, end, parent in spans:
            out[name] += end - start
            if parent >= 0:
                out[spans[parent][0]] -= end - start
        for name, parent in HOT_PARENT.items():
            out[name] += self.hot[name][1]
            out[parent] -= self.hot[name][1]
        return out

    def span_stats(self, name):
        durations = [end - start for n, start, end, _ in self.spans if n == name]
        return len(durations), sum(durations)

    def write(self, path: Path, metrics: dict):
        payload = {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans
            ],
            "hot": {name: {"calls": c, "seconds": s} for name, (c, s) in self.hot.items()},
            "metrics": metrics,
        }
        path.write_text(json.dumps(payload))


def self_time_problems(self_s: dict, traced_total: float) -> list:
    """Why the layer self times do not account for the traced unit time.

    They must add up to it, and no layer's self time may be negative by
    more than ``SELF_TIME_FLOOR`` of it: a negative self time means a child
    span or hot timer was charged to a layer it does not run inside.
    """
    problems = []
    unaccounted = abs(traced_total - sum(self_s.values())) / traced_total
    if unaccounted > UNACCOUNTED_MAX:
        problems.append(f"layer self times miss {unaccounted:.1%} of the traced unit time")
    for layer, seconds in self_s.items():
        if seconds < SELF_TIME_FLOOR * traced_total:
            problems.append(
                f"self time of {layer} is {seconds / traced_total:.1%} of the traced unit time; "
                "a child was timed outside it"
            )
    return problems


def rhs_cost(form, config, traj, calls):
    """ns per derivative call and trig calls per call, at states along ``traj``.

    The derivative is built fresh, without any tracing wrapper, and timed
    over up to 64 samples spread along the recorded trajectory.
    """
    rhs = PARAMETERIZATIONS[form].make_rhs(config.controls, config.environment)
    idx = sorted(set(np.linspace(0, len(traj) - 1, min(64, len(traj))).astype(int).tolist()))
    states = []
    for i in idx:
        t, y = float(traj.t[i]), traj.y[i].copy()
        try:
            rhs(t, y)
        except SingularityError:
            continue
        states.append((t, y))
    if not states:
        raise RuntimeError(f"no state along the {form} trajectory admits a derivative call")
    trig = statistics.median(count_trig_calls(rhs, t, y) for t, y in states[:8])
    passes = max(1, calls // (RHS_BATCHES * len(states)))
    for t, y in states:
        rhs(t, y)
    per_call = []
    for _ in range(RHS_BATCHES):
        start = perf_counter()
        for _ in range(passes):
            for t, y in states:
                rhs(t, y)
        per_call.append((perf_counter() - start) / (passes * len(states)) * 1e9)
    return statistics.median(per_call), trig


def layer_metrics(tracer: Tracer, traced_times, untraced_times, samples, evals_to_accuracy, rhs_calls):
    """The per-layer metric set of one traced run.

    ``samples`` maps each form to ``(config, trajectory)`` for the
    derivative timing; ``evals_to_accuracy`` maps each form to the
    workload's derivative-call count to its accuracy target.
    """
    units = len(traced_times)
    self_s = tracer.self_times()
    m = {}
    for form in FORMS:
        config, traj = samples[form]
        ns, trig = rhs_cost(form, config, traj, calls=rhs_calls)
        m[f"dynamics.rhs_ns.{form}"] = ns
        m[f"dynamics.trig_per_rhs.{form}"] = trig
    rhs_n = tracer.hot["rhs"][0]
    diag_n, diag_s = tracer.hot["diag"]
    accepted = sum(a for a, _ in tracer.steps.values())
    m["dynamics.rhs_calls"] = rhs_n / units
    m["dynamics.diag_us_per_row"] = diag_s / diag_n * 1e6 if diag_n else 0.0
    m["controls.lookups_per_rhs"] = tracer.rhs_lookups / rhs_n if rhs_n else 0.0
    m["propagation.self_us_per_step"] = self_s["propagate"] / accepted * 1e6 if accepted else 0.0
    m["propagation.evals_per_step"] = rhs_n / accepted if accepted else 0.0
    for form in FORMS:
        acc, rej = tracer.steps[form]
        m[f"propagation.reject_ratio.{form}"] = rej / (acc + rej) if acc + rej else 0.0
        m[f"propagation.evals_to_0.1m.{form}"] = evals_to_accuracy[form]
    m["propagation.forced_landings"] = tracer.forced_landings / units
    n_ev, ev_s, ev_calls = tracer.events
    m["propagation.event_s"] = ev_s / n_ev if n_ev else 0.0
    m["propagation.event_evals"] = ev_calls / n_ev if n_ev else 0.0
    m["scenario.csv_us_per_row"] = self_s["csv"] / diag_n * 1e6 if diag_n else 0.0
    n, s = tracer.span_stats("compare")
    m["scenario.compare_s"] = s / n if n else 0.0
    n, s = tracer.span_stats("load")
    m["scenario.load_s"] = s / n if n else 0.0
    n, s = tracer.span_stats("init")
    m["scenario.init_us"] = s / n * 1e6 if n else 0.0
    for layer in LAYERS:
        m[f"self_s.{layer}"] = self_s[layer] / units
    traced_total = sum(traced_times)
    m["trace.unaccounted_share"] = abs(traced_total - sum(self_s.values())) / traced_total
    untraced = statistics.median(untraced_times)
    m["trace.overhead_s"] = statistics.median(traced_times) - untraced
    m["trace.overhead_share"] = m["trace.overhead_s"] / untraced
    return m
