#!/usr/bin/env python3
"""Derivative calls each form needs to land within 0.1 m, its reject ratio and its ladder.

Usage::

    python tools/calls_to_accuracy.py SEED N [--checkout DIR]

Runs cases ``0 .. N-1`` of perfbench's entry family for ``SEED``
(``perfbench/inputs.py``, ``entry_case``) as the ``work_precision`` workload
does: every form at each ``rel_tol`` of the ladder 1e-6 ... 1e-12, its
landing point measured against a Cartesian run of the same case at
``rel_tol`` 1e-13.  Per case the calls to reach 0.1 m are interpolated
log-log on that case's ladder with perfbench's own ``to_accuracy``; a case
where no rung gets there counts its tightest rung's calls, as perfbench
counts it.  The printed value is the mean over the cases.  The reject ratio
is rejected over attempted steps, summed over every run of the form.

A second table shows where those counts come from: per rung of the ladder
and per form, the mean calls over the cases and the geometric mean of the
landing errors (inf when a run of the rung failed).

Derivative calls and step counts are deterministic, so two checkouts can be
compared on any host: ``--checkout`` names the source tree whose ``src/``
and ``perfbench/`` are imported (default: the one holding this script).
Nothing is written to the checkout; the scenario files go to a temporary
directory.
"""

from __future__ import annotations

import argparse
import math
import sys
import tempfile
from pathlib import Path

import numpy as np


def measure(seed, n_cases, workdir):
    """The accuracy target, and per form its summary and its ladder.

    The summary is (calls to 0.1 m, reject ratio, cases where no rung got
    there); the ladder maps each rung's ``rel_tol`` to (mean calls,
    geometric-mean landing error in m).
    """
    import inputs
    from workloads import ACCURACY_M, LADDER, REF_REL_TOL, run_form, run_problems, to_accuracy

    from quatflight.dynamics import PARAMETERIZATIONS
    from quatflight.scenario import load_scenario

    def load(k, rel_tol):
        return load_scenario(inputs.write_yaml(inputs.entry_case(seed, k, rel_tol), workdir / "case.yaml"))

    calls = {form: [] for form in inputs.FORMS}
    steps = {form: [0, 0] for form in inputs.FORMS}  # accepted, rejected
    misses = {form: 0 for form in inputs.FORMS}
    rungs = {form: [[] for _ in LADDER] for form in inputs.FORMS}  # (calls, error) per case
    for k in range(n_cases):
        ref = run_form("cartesian", load(k, REF_REL_TOL))
        if run_problems(ref, "radius_crossing"):
            raise RuntimeError(f"reference of case {k} stopped with {ref.event.kind}")
        ref_position = PARAMETERIZATIONS["cartesian"].to_cartesian(ref.event.y_event).position
        ladder = {form: [] for form in inputs.FORMS}
        for rel_tol in LADDER:
            config = load(k, rel_tol)
            for form in inputs.FORMS:
                res = run_form(form, config)
                traj = res.trajectory
                err = math.inf
                if not run_problems(res, "radius_crossing"):
                    landing = PARAMETERIZATIONS[form].to_cartesian(res.event.y_event).position
                    err = float(np.linalg.norm(landing - ref_position))
                ladder[form].append((traj.n_evals if traj else 0, err))
                if traj:
                    steps[form][0] += traj.n_steps
                    steps[form][1] += traj.n_rejected
        for form, points in ladder.items():
            for rung, point in zip(rungs[form], points):
                rung.append(point)
            n = to_accuracy(points)
            if n is None:
                misses[form] += 1
                n = points[-1][0]
            calls[form].append(n)
    summary = {
        form: (sum(calls[form]) / n_cases, steps[form][1] / max(1, sum(steps[form])), misses[form])
        for form in inputs.FORMS
    }
    ladders = {form: dict(zip(LADDER, map(_rung_means, rungs[form]))) for form in inputs.FORMS}
    return ACCURACY_M, summary, ladders


def _rung_means(points):
    """(mean calls, geometric-mean error) of one rung's ``(calls, error)`` points."""
    calls, errors = np.array(points).T
    with np.errstate(divide="ignore"):  # a zero error makes the geometric mean 0
        return float(np.mean(calls)), float(np.exp(np.mean(np.log(errors))))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("seed", type=int)
    parser.add_argument("n", type=int, help="number of entry cases, from case 0")
    parser.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parents[1])
    args = parser.parse_args(argv)
    if args.n < 1:
        parser.error("N must be at least 1")
    checkout = args.checkout.resolve()
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    with tempfile.TemporaryDirectory() as tmp:
        target, result, ladders = measure(args.seed, args.n, Path(tmp))
    print(f"seed {args.seed}, cases 0..{args.n - 1}, {checkout}")
    print(f"{'form':<10} {f'calls to {target:g} m':>16} {'reject ratio':>13} {'missed':>7}")
    for form, (calls, ratio, missed) in result.items():
        print(f"{form:<10} {calls:>16.1f} {ratio:>13.3f} {missed:>7}")
    print()
    print("per rung: mean calls, geometric-mean landing error (m)")
    print(f"{'rel_tol':<8}" + "".join(f"{form:>20}" for form in ladders))
    for rel_tol in ladders[next(iter(ladders))]:
        cells = [ladder[rel_tol] for ladder in ladders.values()]
        print(f"{rel_tol:<8.0e}" + "".join(f"{n:>10.1f}{err:>10.2e}" for n, err in cells))


if __name__ == "__main__":
    main()
