"""``tools/calls_to_accuracy.py`` on one entry case of the benchmark's family."""

import subprocess
import sys
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "calls_to_accuracy.py"
FORMS = ("rv", "rvl", "rvh", "spherical", "cartesian")


def test_one_case_per_form():
    proc = subprocess.run(
        [sys.executable, str(_TOOL), "4242", "1"], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[1].split()[:4] == ["form", "calls", "to", "0.1"]
    rows = [line.split() for line in lines[2:7]]
    assert [row[0] for row in rows] == list(FORMS)
    for form, calls, ratio, missed in rows:
        # every form gets within 0.1 m on the ladder, in a few hundred calls
        assert 100.0 < float(calls) < 2000.0, form
        assert 0.0 <= float(ratio) < 0.2, form
        assert missed == "0", form

    # the ladder behind it: per rung, each form's calls and landing error
    assert lines[7:9] == ["", "per rung: mean calls, geometric-mean landing error (m)"]
    assert lines[9].split() == ["rel_tol", *FORMS]
    rungs = [line.split() for line in lines[10:]]
    assert [float(rung[0]) for rung in rungs] == [10.0**-k for k in range(6, 13)]
    for k, form in enumerate(FORMS):
        calls = [float(rung[1 + 2 * k]) for rung in rungs]
        errors = [float(rung[2 + 2 * k]) for rung in rungs]
        # a tighter rung costs more calls, and the tightest lands within 0.1 m
        assert calls == sorted(calls) and calls[0] > 0.0, form
        assert 0.0 < errors[-1] < 0.1, form
    # the summary's calls lie on the form's ladder
    for form, summary_calls, _, _ in rows:
        k = FORMS.index(form)
        assert float(rungs[0][1 + 2 * k]) <= float(summary_calls) <= float(rungs[-1][1 + 2 * k])
