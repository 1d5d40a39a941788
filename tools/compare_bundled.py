#!/usr/bin/env python3
"""Check that a change leaves the outputs of every bundled scenario as they were.

Usage::

    python tools/compare_bundled.py PARENT_CHECKOUT CHANGE_CHECKOUT

Each checkout is a source tree of quatflight, such as a ``git archive`` of a
commit.  Every scenario bundled in a checkout's ``src/quatflight/scenarios/``
is run as ``python -m quatflight run SCENARIO --compare`` with that
checkout's ``src/`` on ``PYTHONPATH``, into a temporary directory per
checkout.  Then every difference between the two sides is reported:

* a CSV, or any other output file, that differs in a byte.  For a CSV the
  report says by how much: how many rows differ, and in each column that
  differs, in how many rows and by how much at most;
* a comparison JSON that differs outside its ``wall_time_s`` entries.  The
  report says by how much: for each key path, with list indices dropped,
  how many values differ and by how much at most;
* a file that only one side wrote;
* stdout that differs once each side's output directory reads ``<out>``,
  with every line that differs;
* a different exit code.

The exit status is 0 when there is no difference and 1 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

IGNORED_KEY = "wall_time_s"  # measured run time, different on every run


def run_bundled(checkout: Path, out: Path) -> None:
    """Run each bundled scenario of ``checkout`` into ``out/<scenario>/``.

    Next to a scenario's outputs, ``stdout.txt`` holds its stdout with the
    output directory written as ``<out>``, and ``exit_code.txt`` its exit
    code.
    """
    src = checkout.resolve() / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out.mkdir(parents=True, exist_ok=True)
    for scenario in sorted((src / "quatflight" / "scenarios").glob("*.yaml")):
        outdir = out / scenario.stem
        outdir.mkdir()
        command = [sys.executable, "-m", "quatflight", "run", str(scenario), "--compare"]
        proc = subprocess.run(
            command + ["--out", str(outdir)], capture_output=True, text=True, env=env, cwd=outdir
        )
        (outdir / "stdout.txt").write_text(proc.stdout.replace(str(outdir), "<out>"))
        (outdir / "exit_code.txt").write_text(f"{proc.returncode}\n")


def _canonical(data: bytes) -> str:
    """A JSON document without its ``IGNORED_KEY`` entries, as a comparable string."""

    def strip(value):
        if isinstance(value, dict):
            return {k: strip(v) for k, v in value.items() if k != IGNORED_KEY}
        if isinstance(value, list):
            return [strip(v) for v in value]
        return value

    # dumping compares floats by repr, so NaN equals NaN and -0.0 differs from 0.0
    return json.dumps(strip(json.loads(data)), sort_keys=True)


def _difference(a: str, b: str):
    """``|a - b|`` of two CSV cells, or ``None`` when either is not a number.

    An empty cell, which is how a CSV writes NaN, is not a number.
    """
    try:
        return abs(float(a) - float(b))
    except ValueError:
        return None


def _measured(name: str, found: list, what: str) -> str:
    """The line of ``name`` whose differing ``what`` differ by ``found`` (``None`` or NaN: not numbers)."""
    numbers = [d for d in found if d is not None and d == d]
    parts = [f"{len(found)} {what}"]
    if numbers:
        parts.append(f"largest {max(numbers):.3e}")
    if len(numbers) < len(found):
        parts.append(f"{len(found) - len(numbers)} not numbers")
    return f"{name}: {', '.join(parts)}"


def csv_summary(old: bytes, new: bytes) -> list:
    """Lines saying by how much two CSVs differ, row by row and column by column."""
    old_rows = list(csv.reader(io.StringIO(old.decode())))
    new_rows = list(csv.reader(io.StringIO(new.decode())))
    if old_rows[:1] != new_rows[:1]:
        return ["  header differs"]
    header = old_rows[0] if old_rows else []
    pairs = list(zip(old_rows[1:], new_rows[1:]))
    lines = []
    if len(old_rows) != len(new_rows):
        lines.append(
            f"  {len(old_rows) - 1} rows in parent, {len(new_rows) - 1} in change; "
            f"the first {len(pairs)} compared"
        )
    lines.append(f"  {sum(a != b for a, b in pairs)} of {len(pairs)} rows differ")
    columns = {}  # column -> the differences of its cells that differ
    for a, b in pairs:
        for name, x, y in zip(header, a, b):
            if x != y:
                columns.setdefault(name, []).append(_difference(x, y))
    for name in filter(columns.__contains__, header):
        lines.append("    " + _measured(name, columns[name], "rows"))
    return lines


def json_summary(old: bytes, new: bytes) -> list:
    """Lines saying by how much two JSON documents differ, key path by key path.

    A path joins its keys with dots and drops list indices, so it gathers
    the values of every list under it.  ``IGNORED_KEY`` entries are left
    out.  Values compare as :func:`_canonical` compares them.  A value on
    one side only, such as an entry of a longer list, is not a number.
    """
    paths = {}  # key path -> the differences of its values that differ
    counted = 0

    def walk(a, b, path):
        nonlocal counted
        if isinstance(a, dict) and isinstance(b, dict):
            for key in [*a, *(k for k in b if k not in a)]:
                if key != IGNORED_KEY:
                    walk(a.get(key), b.get(key), f"{path}.{key}" if path else key)
        elif isinstance(a, list) and isinstance(b, list):
            for x, y in itertools.zip_longest(a, b):
                walk(x, y, path)
        else:
            counted += 1
            if json.dumps(a) != json.dumps(b):
                numbers = all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (a, b))
                paths.setdefault(path, []).append(abs(a - b) if numbers else None)

    walk(json.loads(old), json.loads(new), "")
    found = sum(map(len, paths.values()))
    return [f"  {found} of {counted} values differ"] + [
        "    " + _measured(path, diffs, "values") for path, diffs in paths.items()
    ]


def differences(parent: Path, change: Path) -> list:
    """One entry per difference between the output trees ``parent`` and ``change``.

    An entry's first line names the difference; further lines, indented,
    show the stdout lines that differ or measure a CSV's or a JSON's
    difference.
    """

    def files(root):
        return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}

    old_files, new_files = files(parent), files(change)
    found = [f"only in parent: {rel}" for rel in sorted(old_files - new_files)]
    found += [f"only in change: {rel}" for rel in sorted(new_files - old_files)]
    for rel in sorted(old_files & new_files):
        old, new = (parent / rel).read_bytes(), (change / rel).read_bytes()
        if rel.suffix == ".json":
            same = _canonical(old) == _canonical(new)
        else:
            same = old == new
        if same:
            continue
        lines = [f"differs: {rel}"]
        if rel.suffix == ".txt":
            old_lines, new_lines = old.decode().splitlines(), new.decode().splitlines()
            for a, b in itertools.zip_longest(old_lines, new_lines, fillvalue=""):
                if a != b:
                    lines += [f"  parent: {a}", f"  change: {b}"]
        elif rel.suffix == ".csv":
            lines += csv_summary(old, new)
        elif rel.suffix == ".json":
            lines += json_summary(old, new)
        found.append("\n".join(lines))
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="source checkout of the parent")
    parser.add_argument("change", type=Path, help="source checkout of the change")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        sides = (Path(tmp) / "parent", Path(tmp) / "change")
        for checkout, out in zip((args.parent, args.change), sides):
            run_bundled(checkout, out)
        found = differences(*sides)
        n_csv = len(list(sides[1].rglob("*.csv")))
        n_scenarios = len(list(sides[1].iterdir()))
    for line in found:
        print(line)
    print(f"{len(found)} differences; {n_scenarios} scenarios and {n_csv} CSVs in the change")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
