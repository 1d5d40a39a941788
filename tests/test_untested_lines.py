"""``tools/untested_lines.py`` on a toy package with one branch that its test never takes."""

import subprocess
import sys
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "untested_lines.py"

TOY = '''"""A toy module."""


def sign(x):
    if x < 0:
        return -1
    return 1


def hot(n):
    total = 0
    for i in range(n):
        total += i
    return total
'''

TEST = '''from toy.branch import hot, sign


def test_sign():
    assert sign(2.0) == 1
    assert hot(10_000) == 49_995_000
'''


def test_the_branch_never_taken_is_the_one_line_printed(tmp_path):
    (tmp_path / "toy").mkdir()
    (tmp_path / "toy" / "__init__.py").write_text("")
    (tmp_path / "toy" / "branch.py").write_text(TOY)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_toy.py").write_text(TEST)
    before = sorted(tmp_path.rglob("*"))
    proc = subprocess.run(
        [sys.executable, str(_TOOL), "--package", str(tmp_path / "toy"), "--", "-q", "tests"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert "1 passed" in lines[-3]
    assert lines[-2:] == [
        "toy/branch.py:6: return -1",
        "1 executable lines of toy that no test ran",
    ]
    # no pytest cache and no bytecode
    assert sorted(tmp_path.rglob("*")) == before
