"""``tools/code_lines.py`` on a toy module: what a code line is."""

import subprocess
import sys
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

TOY = '''"""A toy module.

Its docstring spans three lines.
"""

# a comment line
import math  # a trailing comment

NOTE = """a string that is not
a docstring"""


def area(r):
    """The area of a circle of radius ``r``."""
    return (
        math.pi

        * r ** 2
    )


class Box:
    """A box."""

    size = 2
'''
# import, NOTE (2 lines), def, return ( ... ) (4 lines, the blank one aside),
# class, size
TOY_CODE_LINES = 10


def test_counts_code_lines_outside_docstrings_comments_and_blanks(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "toy.py").write_text(TOY)
    (tmp_path / "pkg" / "empty.py").write_text("")
    before = sorted(tmp_path.rglob("*"))
    proc = subprocess.run(
        [sys.executable, str(_TOOL), str(tmp_path / "pkg")],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    wc = TOY.count("\n")
    assert wc == 25
    assert proc.stdout.splitlines() == [
        "  lines    code  module",
        "      0       0  empty.py",
        f"{wc:7d} {TOY_CODE_LINES:7d}  toy.py",
        f"{wc:7d} {TOY_CODE_LINES:7d}  total",
    ]
    # it writes nothing
    assert sorted(tmp_path.rglob("*")) == before
