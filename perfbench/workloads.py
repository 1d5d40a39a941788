"""The benchmark's workloads, their correctness checks and end-to-end metrics.

Each workload runs in this process with one thread, closed loop: the next
unit starts when the previous one has returned.  One *iteration* makes one
or more timed *units*:

* ``entry_compare``: one generated entry case run as
  ``quatflight run --compare`` through ``cli.main``; the unit is the call.
* ``rk4_long``: the seeded ``norm_drift`` case through ``cli.main`` (the
  unit), then two passes of a 500 s slice of the same case in each of the
  five forms through ``run_parameterization``, which give the per-form
  times.
* ``work_precision``: one generated entry case, propagated in each form at
  ``rel_tol`` 1e-6 ... 1e-12 through ``run_parameterization``; each of the
  35 propagations is a unit.  The landing points are compared with a
  Cartesian reference at ``rel_tol`` 1e-13, computed outside the timing.

A form-propagation fails when its stop kind or exit code is not the one the
CLI contract gives for the case, when a state is not finite, when a CSV
header is not ``CSV_COLUMNS``, when a workload-specific bound is broken,
or when a repeat of the same input is not bitwise identical.  A failure the
program itself reported (a guard or step failure) counts as failed; a
failure behind a reported success is, in addition, a wrong output.  The
one exception is the known defect of the adaptive stepper on
``work_precision``: a run the program ends itself with a singularity guard
or an arithmetic error, raised inside a trial stage of a too-long step, is
*stopped early*.  It is counted against ``ok_ratio`` and never counts as
accurate, but it is not a failed operation.

Times are measured as (start, end) intervals and turned into seconds when
the run is over; see :class:`SpeedProbe`.
"""

from __future__ import annotations

import bisect
import contextlib
import io
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
import tracing
from inputs import FORMS
from quatflight import cli, scenario
from quatflight.dynamics import PARAMETERIZATIONS
from quatflight.propagation import StopEvent
from quatflight.scenario import CSV_COLUMNS, RunResult, load_scenario

LADDER = tuple(10.0 ** -k for k in range(6, 13))
REF_REL_TOL = 1e-13
ACCURACY_M = 0.1
CROSS_FORM_REL = 1e-6  # of the body radius, criterion 2's bound
NORM_DRIFT_MAX = 1e-9  # criterion 6's bound
RK4_STEP = 0.1
RK4_SLICE_PASSES = 2
RV_QUAT_SPANS = ((1, 5), (6, 10))
SETUP_CODE = (
    "import sys, quatflight\n"
    "from quatflight.scenario import load_scenario\n"
    "load_scenario(sys.argv[1])\n"
)

# Speed calibration kernel: interpreted float arithmetic, math calls, small
# NumPy arrays and float formatting, the same kind of work as the program.
# CAL_REF_S is what it takes at the reference speed.  Host contention slows
# the kernel more than the program: regressing log program time on log
# kernel time over 1 s windows gave slopes of 0.73 to 0.96, and the
# residual was smallest near 0.8, so the speed enters with that exponent.
CAL_STEPS = 160
CAL_REF_S = 0.6e-3
CAL_EXPONENT = 0.8

perf_counter = time.perf_counter


def _calibration_kernel():
    y = np.array([6.4e6, 0.1, 0.2, 0.3, 0.9, 7.1e3, 0.5, 0.5, 0.0, 0.7])
    acc = 0.0
    for i in range(CAL_STEPS):
        s = math.sin(i * 1e-3) * math.cos(float(y[0]) * 1e-7) + math.sqrt(float(y[5]))
        z = y * 1.0000001 + s
        acc += float(np.dot(z[1:5], z[6:10])) + s
        format(acc, ".17g")
    return acc


class SpeedProbe:
    """Samples the machine's speed from a timer signal while a workload runs.

    On a shared host the CPU speed swings by up to 1.6x for seconds to
    minutes at a time and moves every wall time with it.  Every
    ``PERIOD_S`` the signal handler times the calibration kernel; the speed
    relative to the reference is ``CAL_REF_S`` over the median of five
    neighbouring samples, to the power ``CAL_EXPONENT``, and it holds from
    one sample to the next.  An
    interval's reference seconds integrate that speed over its wall time,
    less the samples taken inside it: the time the interval would take at
    the reference speed.
    """

    PERIOD_S = 0.05
    SMOOTH = 5

    def __init__(self):
        self.starts = []
        self.seconds_taken = []
        self._speeds = None

    def _sample(self, signum, frame):
        start = perf_counter()
        _calibration_kernel()
        self.starts.append(start)
        self.seconds_taken.append(perf_counter() - start)

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample(None, None)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self._sample(None, None)

    def _speed(self, i) -> float:
        """Relative speed from sample ``i`` until the next one."""
        if self._speeds is None:
            taken, half = self.seconds_taken, self.SMOOTH // 2
            self._speeds = [
                (CAL_REF_S / statistics.median(taken[max(0, j - half) : j + half + 1])) ** CAL_EXPONENT
                for j in range(len(taken))
            ]
        return self._speeds[min(max(i, 0), len(self._speeds) - 1)]

    def speed(self, start, end) -> float:
        """Mean relative speed over ``[start, end)``."""
        wall = end - start
        return self.seconds((start, end)) / wall if wall > 0.0 else self._speed(0)

    def seconds(self, interval) -> float:
        start, end = interval
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        total = (min(end, self.starts[lo]) if lo < hi else end) - start
        total *= self._speed(lo - 1)
        for i in range(lo, hi):
            seg_end = self.starts[i + 1] if i + 1 < hi else end
            total += (seg_end - self.starts[i] - self.seconds_taken[i]) * self._speed(i)
        return total


class WallClock:
    """Plain wall seconds, for the traced run."""

    @staticmethod
    def seconds(interval) -> float:
        return interval[1] - interval[0]


@dataclass
class Size:
    """How much work one iteration does; the defaults are the benchmark."""

    rk4_t_final: float = 10000.0
    rk4_slice_s: float = 500.0
    ladder: tuple = LADDER
    setup_repeats: int = 9
    rhs_calls: int = 20000


@dataclass
class Tally:
    """Form-propagations attempted, failed, failed behind a reported success, and stopped early."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    stopped: int = 0  # stopped early by the known stepper defect; not failed
    kinds: dict = field(default_factory=dict)  # failure kind -> [count, first example]

    def add(self, label, problems, reported_success) -> bool:
        self.attempted += 1
        if not problems:
            return True
        self.failed += 1
        self.wrong += bool(reported_success)
        self.note(problems[0].split(" (")[0], f"{label}: {'; '.join(problems)}")
        return False

    def add_stopped(self, label, res):
        self.attempted += 1
        self.stopped += 1
        self.note(f"stopped early: {res.event.kind}", f"{label}: {res.event.message}")

    def ok_ratio(self) -> float:
        return 1.0 - (self.failed + self.stopped) / self.attempted

    def note(self, kind, example):
        entry = self.kinds.setdefault(kind, [0, example])
        entry[0] += 1


def run_problems(res, expect_stop) -> list:
    """Checks every form-propagation gets: stop kind and finite states."""
    problems = []
    if res.event.kind != expect_stop:
        problems.append(f"stop {res.event.kind} ({res.event.message})")
    traj = res.trajectory
    if traj is None or len(traj) == 0:
        problems.append("no trajectory")
    elif not (np.isfinite(traj.y).all() and np.isfinite(traj.t).all()):
        problems.append("non-finite state")
    return problems


def run_form(form, config):
    """``run_parameterization``; an exception it lets out becomes a failed result."""
    try:
        return scenario.run_parameterization(form, config)
    except Exception as exc:  # a crash fails this propagation, not the benchmark
        kind = "arithmetic_error" if isinstance(exc, ArithmeticError) else "raised"
        message = f"{type(exc).__name__}: {exc}"
        return RunResult(form, None, StopEvent(kind=kind, t_event=math.nan, message=message))


def stopped_early(res) -> bool:
    """Whether the program ended the run itself before landing, with healthy states.

    This is the known defect of ``propagate`` at loose tolerances (see the
    README): a guard or an overflow inside a trial stage of a too-long
    step ends the run instead of rejecting the step.
    """
    if res.event.kind == "arithmetic_error":
        return True
    traj = res.trajectory
    return (
        res.event.kind == "singularity_guard"
        and traj is not None
        and len(traj) > 0
        and bool(np.isfinite(traj.y).all() and np.isfinite(traj.t).all())
    )


def reported_success(res) -> bool:
    return res.event.kind in ("terminal_time", "radius_crossing")


def csv_header_ok(path) -> bool:
    with open(path, newline="") as fh:
        return fh.readline().rstrip("\r\n").split(",") == CSV_COLUMNS


def fingerprint(res):
    traj = res.trajectory
    if traj is None or len(traj) == 0:
        return (res.event.kind, res.event.message)
    return (res.event.kind, float(traj.t[-1]), traj.y[-1].tobytes(), len(traj))


def to_accuracy(points):
    """Cost to land within ``ACCURACY_M``, from ``(cost, error)`` rungs loose to tight.

    Interpolated log-log between the last rung above the target and the
    first rung at or below it; a failed rung (error ``inf``) is never
    accurate and is not interpolated from.  None when no rung gets there.
    """
    for i, (cost, err) in enumerate(points):
        if err <= ACCURACY_M:
            if i == 0 or err <= 0.0 or not math.isfinite(points[i - 1][1]):
                return cost
            c0, e0 = points[i - 1]
            w = (math.log(e0) - math.log(ACCURACY_M)) / (math.log(e0) - math.log(err))
            return math.exp(math.log(c0) + w * (math.log(cost) - math.log(c0)))
    return None


def tail(samples):
    """(value, label): the highest percentile with at least ten samples beyond it.

    Nearest-rank: with n samples that is rank n - 10, percentile
    100 (n - 10) / n.  Below eleven samples no percentile qualifies and
    the maximum is reported.
    """
    s = sorted(samples)
    n = len(s)
    if n < 11:
        return s[-1], f"max of n={n}"
    return s[n - 11], f"p{100.0 * (n - 10) / n:.1f} of n={n}"


def fresh_setup(src: Path, path: Path):
    """(start, end) of a fresh interpreter importing quatflight and loading ``path``.

    Run it while the :class:`SpeedProbe` samples: its timer keeps firing in
    this process while the child runs, so the interval is scaled by the
    speed measured during it.
    """
    env = dict(os.environ, PYTHONPATH=str(src))
    start = perf_counter()
    subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(path)],
        env=env,
        check=True,
        stdout=subprocess.DEVNULL,
        timeout=60,
    )
    return start, perf_counter()


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Workload:
    """Shared loop, checks bookkeeping and metrics of one workload."""

    name = ""

    def __init__(self, seed: int, workdir: Path, size: Size):
        self.seed = seed
        self.workdir = workdir
        self.size = size
        self.tally = Tally()
        self.prints = {}
        self.repeated = False
        self.form_times = {form: [] for form in FORMS}  # intervals
        self.form_evals = {form: [] for form in FORMS}
        self.measured = set()  # iterations whose times are recorded; repeats are not
        self.tracer = None
        self.clock = WallClock

    # --- hooks -------------------------------------------------------------
    def setup_input(self) -> Path:
        raise NotImplementedError

    def iteration(self, k: int, traced: bool) -> list:
        """Run iteration ``k``; return the (start, end) interval of each timed unit."""
        raise NotImplementedError

    # --- shared helpers ----------------------------------------------------
    def path(self, name) -> Path:
        return self.workdir / name

    def timed(self, fn, traced, root=None):
        """Call ``fn`` as one unit; (result, (start, end), runs).

        ``runs`` holds ``(result, interval)`` for each
        ``run_parameterization`` call inside the unit.  In a traced unit the
        tracer's wrappers are installed, ``fn`` runs under span ``root`` and
        each of those calls under span ``run``.
        """
        tracer = self.tracer if traced else None
        with tracer.active() if tracer else contextlib.nullcontext(), self.record_runs(tracer) as runs:
            if tracer and root:
                fn = tracer.span(root, fn)
            start = perf_counter()
            out = fn()
            return out, (start, perf_counter()), runs

    def first_run(self, k, traced) -> bool:
        """Whether this untraced run of iteration ``k`` is its first one."""
        if traced or k in self.measured:
            return False
        self.measured.add(k)
        return True

    def repeat_problems(self, key, res) -> list:
        fp = fingerprint(res)
        if key not in self.prints:
            self.prints[key] = fp
            return []
        self.repeated = True
        return [] if self.prints[key] == fp else ["repeat not bitwise identical"]

    def run_cli(self, argv, traced):
        """``cli.main`` in-process with stdout captured; (exit code, interval, runs)."""

        def call():
            with contextlib.redirect_stdout(io.StringIO()):
                try:
                    return cli.main(argv)
                except Exception as exc:  # a crash fails the unit's forms, not the benchmark
                    return f"raised {type(exc).__name__}: {exc}"

        return self.timed(call, traced, "cli")

    @staticmethod
    @contextlib.contextmanager
    def record_runs(tracer):
        """Route ``run_parameterization`` through the one wrapper that records it.

        Yields a list of ``(result, interval)``; with a tracer each call
        also runs under its ``run`` span.
        """
        inner = scenario.run_parameterization
        call = tracer.run_span(inner) if tracer else inner
        runs = []

        def recording(*args, **kwargs):
            start = perf_counter()
            res = call(*args, **kwargs)
            runs.append((res, (start, perf_counter())))
            return res

        scenario.run_parameterization = recording
        try:
            yield runs
        finally:
            scenario.run_parameterization = inner

    # --- the measurement ---------------------------------------------------
    def measure(self, seconds: float, trace: bool, src: Path) -> dict:
        self.tracer = tracing.Tracer() if trace else None
        untraced, traced, setup = [], [], []
        probe = SpeedProbe()
        # Set-up runs are spread evenly over the run, so that their median,
        # like the units', is taken over the host's speed during the whole run.
        setups_due = 0 if trace else self.size.setup_repeats
        path = self.setup_input()
        with contextlib.nullcontext() if trace else probe.running():
            start = perf_counter()
            k = 0
            while k == 0 or perf_counter() - start < seconds:
                while len(setup) < setups_due and perf_counter() - start >= len(setup) * seconds / setups_due:
                    setup.append(fresh_setup(src, path))
                untraced += self.iteration(k, False)
                if trace:
                    traced += self.iteration(k, True)
                k += 1
            if not self.repeated:
                self.iteration(0, False)
            while len(setup) < setups_due:
                setup.append(fresh_setup(src, path))
        if not trace:
            self.clock = probe
        return {
            "setup": setup,
            "untraced": untraced,
            "traced": traced,
            "iterations": k,
            "rss": peak_rss_mb(),
        }

    def end_to_end(self, m) -> dict:
        """End-to-end metrics, every time in reference seconds."""
        units = [self.clock.seconds(interval) for interval in m["untraced"]]
        tail_value, tail_label = tail(units)
        metrics = {
            "run_s.p50": statistics.median(units),
            "run_s.tail": tail_value,
            "setup_s": statistics.median(self.clock.seconds(interval) for interval in m["setup"]),
            "peak_rss_mb": m["rss"],
            "ok_ratio": self.tally.ok_ratio(),
        }
        times, _ = self.to_target()
        for form in FORMS:
            metrics[f"tta_s.{form}"] = times[form]
        raw = statistics.median(end - start for start, end in m["untraced"])
        speed = statistics.median(self.clock.speed(*interval) for interval in m["untraced"])
        notes = {
            "run_s.tail": tail_label,
            "run_s.p50": f"n={len(units)}; wall p50 {raw:.4g} s at relative speed {speed:.3f}",
        }
        return metrics, notes

    def to_target(self):
        """Per form: (seconds, derivative calls) to the workload's accuracy target."""
        times = {
            form: statistics.median(self.clock.seconds(iv) for iv in self.form_times[form])
            for form in FORMS
        }
        evals = {form: statistics.median(self.form_evals[form]) for form in FORMS}
        return times, evals

    def evals_to_accuracy(self) -> dict:
        return self.to_target()[1]

    def derivative_samples(self) -> dict:
        """Per form, ``(config, trajectory)`` of case 0 of the seed's entry family.

        Derivative costs are timed at states along these trajectories on
        every workload, so ``dynamics.rhs_ns.<form>`` means the same on each.
        """
        path = inputs.write_yaml(inputs.entry_case(self.seed, 0), self.path("rhs_states.yaml"))
        config = load_scenario(path)
        samples = {}
        for form in FORMS:
            res = scenario.run_parameterization(form, config)
            if not reported_success(res) or len(res.trajectory) < 2:
                raise RuntimeError(f"entry case 0 of seed {self.seed}: {form} stopped with {res.event.kind}")
            samples[form] = (config, res.trajectory)
        return samples


class EntryCompare(Workload):
    """Seeded entry cases, each run as ``quatflight run --compare``."""

    name = "entry_compare"

    def __init__(self, seed, workdir, size):
        super().__init__(seed, workdir, size)
        self.body_radius = inputs.entry_case(seed, 0)["body"]["radius"]

    def setup_input(self):
        return inputs.write_yaml(inputs.entry_case(self.seed, 0), self.path("setup.yaml"))

    def iteration(self, k, traced):
        case = inputs.write_yaml(inputs.entry_case(self.seed, k), self.path("case.yaml"))
        out = self.path("out")
        report_path = out / "entry_case_comparison.json"
        report_path.unlink(missing_ok=True)
        code, unit, runs = self.run_cli(["run", str(case), "--compare", "--out", str(out)], traced)
        shared = [] if code == 0 else [f"exit code {code}"]
        pair_problems = {form: [] for form in FORMS}
        pairs = {}
        if report_path.exists():
            pairs = json.loads(report_path.read_text())["pairs"]
        else:
            shared = shared + ["no comparison report"]
        limit = CROSS_FORM_REL * self.body_radius
        for key, pair in pairs.items():
            worst = max(pair["e_r"])
            if not worst <= limit:
                for form in key.split("|"):
                    pair_problems[form].append(f"cross-form difference {worst:.3g} m with {key}")
        record = self.first_run(k, traced)
        seen = set()
        for res, interval in runs:
            seen.add(res.name)
            problems = shared + run_problems(res, "radius_crossing") + pair_problems[res.name]
            if res.csv_path is None or not csv_header_ok(res.csv_path):
                problems.append("CSV header is not CSV_COLUMNS")
            problems += self.repeat_problems((k, res.name), res)
            ok = self.tally.add(f"case {k} {res.name}", problems, reported_success(res))
            if ok and record:
                self.form_times[res.name].append(interval)
                self.form_evals[res.name].append(res.trajectory.n_evals)
        for form in FORMS:
            if form not in seen:
                self.tally.add(f"case {k} {form}", ["no result"], False)
        return [unit]


class Rk4Long(Workload):
    """The seeded norm_drift case: 1e5 fixed RK4 steps of the rv form."""

    name = "rk4_long"

    def __init__(self, seed, workdir, size):
        super().__init__(seed, workdir, size)
        self.main_yaml = inputs.write_yaml(
            inputs.long_rk4_case(seed, size.rk4_t_final, "rv"), self.path("norm_drift.yaml")
        )
        self.slices = {
            form: load_scenario(
                inputs.write_yaml(
                    inputs.long_rk4_case(seed, size.rk4_slice_s, form), self.path(f"slice_{form}.yaml")
                )
            )
            for form in FORMS
        }
        self.expected_steps = round(size.rk4_t_final / RK4_STEP)

    def setup_input(self):
        return self.main_yaml

    def iteration(self, k, traced):
        code, unit, runs = self.run_cli(["run", str(self.main_yaml), "--out", str(self.path("out"))], traced)
        if len(runs) != 1:
            self.tally.add(f"iteration {k} rv", [f"{len(runs)} results, expected 1"], False)
        for res, _ in runs:
            problems = ([] if code == 0 else [f"exit code {code}"]) + run_problems(res, "terminal_time")
            traj = res.trajectory
            if traj is not None and len(traj):
                if abs(traj.n_steps - self.expected_steps) > 1:
                    problems.append(f"{traj.n_steps} steps, expected {self.expected_steps} +- 1")
                drift = max(
                    float(np.max(np.abs(np.linalg.norm(traj.y[:, lo:hi], axis=1) - 1.0)))
                    for lo, hi in RV_QUAT_SPANS
                )
                if not drift < NORM_DRIFT_MAX:
                    problems.append(f"quaternion norm drift {drift:.3g}")
            if res.csv_path is None or not csv_header_ok(res.csv_path):
                problems.append("CSV header is not CSV_COLUMNS")
            problems += self.repeat_problems(("cli", res.name), res)
            self.tally.add(f"iteration {k} {res.name}", problems, reported_success(res))
        if not traced:
            for form in FORMS * RK4_SLICE_PASSES:
                res, interval, _ = self.timed(lambda: run_form(form, self.slices[form]), False)
                problems = run_problems(res, "terminal_time") + self.repeat_problems(("slice", form), res)
                if self.tally.add(f"iteration {k} slice {form}", problems, reported_success(res)):
                    self.form_times[form].append(interval)
                    self.form_evals[form].append(res.trajectory.n_evals)
        return [unit]


class WorkPrecision(Workload):
    """Seeded entry cases flown by every form over a ladder of tolerances."""

    name = "work_precision"

    def __init__(self, seed, workdir, size):
        super().__init__(seed, workdir, size)
        self.cases = {}
        # form -> rung -> [(interval, landing error m, derivative calls)], one per case
        self.rungs = {form: [[] for _ in size.ladder] for form in FORMS}

    def setup_input(self):
        return inputs.write_yaml(inputs.entry_case(self.seed, 0), self.path("setup.yaml"))

    def case(self, k):
        """Rung configs and the reference landing point of case ``k``."""
        if k not in self.cases:
            rungs = [
                load_scenario(
                    inputs.write_yaml(inputs.entry_case(self.seed, k, rel), self.path(f"rung{i}.yaml"))
                )
                for i, rel in enumerate(self.size.ladder)
            ]
            ref_cfg = load_scenario(
                inputs.write_yaml(inputs.entry_case(self.seed, k, REF_REL_TOL), self.path("ref.yaml"))
            )
            ref = scenario.run_parameterization("cartesian", ref_cfg)
            if ref.event.kind != "radius_crossing":
                raise RuntimeError(f"reference of case {k} stopped with {ref.event.kind}")
            self.cases = {k: (rungs, np.asarray(ref.event.y_event[:3]))}
        return self.cases[k]

    def iteration(self, k, traced):
        rungs, ref_position = self.case(k)
        record = self.first_run(k, traced)
        units = []
        for i, config in enumerate(rungs):
            for form in FORMS:
                res, interval, _ = self.timed(lambda: run_form(form, config), traced)
                units.append(interval)
                label = f"case {k} rel_tol {config.integrator.rel_tol:g} {form}"
                err = math.inf
                repeat = self.repeat_problems((k, i, form), res)
                if stopped_early(res) and not repeat:
                    self.tally.add_stopped(label, res)
                elif self.tally.add(label, run_problems(res, "radius_crossing") + repeat, reported_success(res)):
                    landing = PARAMETERIZATIONS[form].to_cartesian(res.event.y_event).position
                    err = float(np.linalg.norm(landing - ref_position))
                if record:
                    evals = res.trajectory.n_evals if res.trajectory else 0
                    self.rungs[form][i].append((interval, err, evals))
        return units

    def to_target(self):
        """Per case, interpolated on its own ladder; the mean over the cases.

        The mean, not the median: where a rung fails for some cases and not
        for others, each case's value jumps between two levels, and only
        the mean moves smoothly with the share of failing cases.
        """
        times, evals = {}, {}
        for form in FORMS:
            per_case = []
            for ladder in zip(*self.rungs[form]):
                t = to_accuracy([(self.clock.seconds(iv), err) for iv, err, _ in ladder])
                n = to_accuracy([(calls, err) for _, err, calls in ladder])
                if t is None:
                    self.tally.wrong += 1
                    miss = f"no rung lands within {ACCURACY_M} m"
                    self.tally.note(miss, f"{form}: {miss}")
                    t, n = self.clock.seconds(ladder[-1][0]), ladder[-1][2]
                per_case.append((t, n))
            times[form] = statistics.fmean(t for t, _ in per_case)
            evals[form] = statistics.fmean(n for _, n in per_case)
        return times, evals


WORKLOADS = {w.name: w for w in (EntryCompare, Rk4Long, WorkPrecision)}
