"""Fast tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

Each workload runs once at a tiny size, traced and untraced; the metric
names it prints must be those of BENCHMARK.json; a derivative planted
to return NaN must be counted as failed, not dropped; a planted guard
must count against ok_ratio as stopped early; and a hot timer
charged to the wrong layer must fail the traced run.
"""

import dataclasses
import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import run as bench  # noqa: E402

bench.import_program()

import tracing  # noqa: E402
import workloads  # noqa: E402
from quatflight.dynamics import PARAMETERIZATIONS  # noqa: E402
from quatflight.errors import SingularityError  # noqa: E402

TINY = workloads.Size(
    rk4_t_final=20.0, rk4_slice_s=2.0, ladder=(1e-6, 1e-9), setup_repeats=1, rhs_calls=200
)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_runs_at_tiny_size(workload, trace, capsys):
    result = bench.run(workload, seed=3, seconds=0.0, trace=trace, size=TINY)
    declared = bench.declared_metrics(trace)
    assert result["correct"]
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == list(declared)
    printed = capsys.readouterr().out
    for name, metric in result["metrics"].items():
        assert metric["unit"] == declared[name]
        assert math.isfinite(metric["value"])
        assert f"  {name} " in printed


def test_last_line_is_the_result_object(capsys):
    assert bench.main(["--workload", "entry_compare", "--seed", "5", "--seconds", "0"]) == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == set(bench.declared_metrics(False))


def test_planted_nonfinite_rhs_is_counted(monkeypatch):
    spec = PARAMETERIZATIONS["rvh"]

    def make_poisoned_rhs(controls, env):
        rhs = spec.make_rhs(controls, env)

        def poisoned(t, y):
            out = rhs(t, y)
            return out * math.nan if t > 100.0 else out

        return poisoned

    monkeypatch.setitem(PARAMETERIZATIONS, "rvh", dataclasses.replace(spec, make_rhs=make_poisoned_rhs))
    result = bench.run("work_precision", seed=3, seconds=0.0, trace=False, size=TINY)
    monkeypatch.undo()
    planted = 4  # every rvh propagation fails: two rungs, each run twice
    assert result["failed"] >= planted
    assert not result["correct"]
    assert result["metrics"]["ok_ratio"]["value"] <= 1.0 - planted / result["attempted"]


def test_planted_guard_in_trial_stage_is_stopped_early_not_failed(monkeypatch):
    # The known stepper defect: a guard raised inside a trial stage ends the
    # run.  It counts against ok_ratio, not as a failed operation.
    spec = PARAMETERIZATIONS["rvh"]

    def make_guarded_rhs(controls, env):
        rhs = spec.make_rhs(controls, env)

        def guarded(t, y):
            if t > 100.0:
                raise SingularityError("planted guard")
            return rhs(t, y)

        return guarded

    monkeypatch.setitem(PARAMETERIZATIONS, "rvh", dataclasses.replace(spec, make_rhs=make_guarded_rhs))
    result = bench.run("work_precision", seed=3, seconds=0.0, trace=False, size=TINY)
    monkeypatch.undo()
    planted = 4  # every rvh propagation stops early: two rungs, each run twice
    assert result["failed"] == 0
    assert result["metrics"]["ok_ratio"]["value"] <= 1.0 - planted / result["attempted"]


def test_misattributed_hot_timer_fails_the_traced_run(monkeypatch):
    # sample_diagnostics runs inside write_trajectory_csv; charged to
    # initial_array_for instead, it leaves that layer a negative self time.
    monkeypatch.setitem(tracing.HOT_PARENT, "diag", "init")
    with pytest.raises(RuntimeError, match="self time of init"):
        bench.run("entry_compare", seed=3, seconds=0.0, trace=True, size=TINY)


def test_failed_rung_is_not_interpolated_from():
    assert workloads.to_accuracy([(1.0, math.inf), (2.0, 0.05)]) == 2.0
    assert workloads.to_accuracy([(1.0, 1.0), (10.0, 0.01)]) == pytest.approx(10.0**0.5)
    assert workloads.to_accuracy([(1.0, 1.0), (2.0, 0.5)]) is None
