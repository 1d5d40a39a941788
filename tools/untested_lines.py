#!/usr/bin/env python3
"""Print each executable line of a package that no test runs.

Usage::

    python tools/untested_lines.py [--package DIR] [-- PYTEST_ARGS ...]

Runs pytest in this process, with ``PYTEST_ARGS`` (the configured test
paths when none are given), under a ``sys.settrace`` line tracer that
looks only at frames whose code comes from a ``.py`` file of ``DIR``
(``src/quatflight`` by default).  A code object is traced until every one
of its lines has run, and then no more, so a hot loop costs little once
it is covered.  Then each executable line of ``DIR`` that never ran is
printed as ``path:line: source``, followed by one summary line.

A line is executable when the compiler gives it an instruction (the line
table of the module's code objects).  Only the thread that runs pytest is
traced; so a line that only a subprocess runs counts as untested.  The
run adds nothing to the checkout: no bytecode, no pytest cache, no
pytest-benchmark storage, and Hypothesis keeps its data in a temporary
directory.

The exit status is pytest's.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def code_lines(code) -> set:
    """The lines that ``code`` and the code objects nested in it give instructions."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= code_lines(const)
    return lines


class LineTracer:
    """The lines run in the files ``paths``, by file, once ``trace`` is given to ``sys.settrace``."""

    def __init__(self, paths):
        self.watched = {str(p.resolve()) for p in paths}
        self.ran = {path: set() for path in self.watched}
        self.filenames = {}  # co_filename -> its resolved path when watched, else None
        self.remaining = {}  # code object -> its lines not run yet

    def _file(self, filename):
        if filename not in self.filenames:
            resolved = str(Path(filename).resolve())
            self.filenames[filename] = resolved if resolved in self.watched else None
        return self.filenames[filename]

    def trace(self, frame, event, arg):
        code = frame.f_code
        path = self._file(code.co_filename)
        if path is None:
            return None
        ran = self.ran[path]
        remaining = self.remaining.get(code)
        if remaining is None:
            remaining = self.remaining[code] = {
                line for _, _, line in code.co_lines() if line and line not in ran
            }
        if not remaining:
            return None

        def line(frame, event, arg):
            if event == "line":
                ran.add(frame.f_lineno)
                remaining.discard(frame.f_lineno)
                if not remaining:
                    return None
            return line

        return line


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    ours, pytest_args = (argv[: argv.index("--")], argv[argv.index("--") + 1 :]) if "--" in argv else (argv, [])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--package", type=Path, default=ROOT / "src" / "quatflight",
                        help="directory whose .py files are traced (default: src/quatflight)")
    args = parser.parse_args(ours)
    package = args.package.resolve()
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(package.parent))
    paths = sorted(package.glob("*.py"))
    tracer = LineTracer(paths)
    with tempfile.TemporaryDirectory() as storage:
        os.environ["HYPOTHESIS_STORAGE_DIRECTORY"] = storage
        import pytest

        sys.settrace(tracer.trace)
        try:
            status = pytest.main(["-p", "no:cacheprovider", "-p", "no:benchmark", *pytest_args])
        finally:
            sys.settrace(None)
    untested = 0
    for path in paths:
        ran = tracer.ran[str(path)]
        source = path.read_text()
        lines = source.splitlines()
        for line in sorted(code_lines(compile(source, str(path), "exec")) - ran):
            untested += 1
            print(f"{path.relative_to(package.parent)}:{line}: {lines[line - 1].strip()}")
    print(f"{untested} executable lines of {package.name} that no test ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
