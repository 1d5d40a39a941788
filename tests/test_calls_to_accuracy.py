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
    rows = [line.split() for line in lines[2:]]
    assert [row[0] for row in rows] == list(FORMS)
    for form, calls, ratio, missed in rows:
        # every form gets within 0.1 m on the ladder, in a few hundred calls
        assert 100.0 < float(calls) < 2000.0, form
        assert 0.0 <= float(ratio) < 0.2, form
        assert missed == "0", form
