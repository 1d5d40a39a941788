#!/usr/bin/env python3
"""Count the lines and the code lines of each Python module of a directory.

Usage::

    python tools/code_lines.py [DIR]

For each ``.py`` file under ``DIR`` (``src/quatflight`` by default), in
path order, prints its line count as ``wc -l`` gives it (newline
characters) and its code lines, then the totals of both.  A code line is a
line that holds a token other than a comment, a newline or an indent,
outside the module, class and function docstrings: blank lines, comment
lines and docstrings do not count, and a line of an expression or a
non-docstring string that spans several lines counts once per line.  A
docstring is a string literal that is the first statement of a module,
class or function body.  The tool reads the files and writes nothing.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_NOT_CODE = {tokenize.COMMENT, tokenize.NEWLINE, tokenize.NL, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree: ast.Module) -> set:
    """The lines of every module, class and function docstring of ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple:
    """``(wc -l, code lines)`` of the Python ``source``."""
    skip = docstring_lines(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return source.count("\n"), len(code - skip)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", nargs="?", default=str(ROOT / "src" / "quatflight"))
    args = parser.parse_args(argv)
    top = Path(args.dir)
    totals = [0, 0]
    print(f"{'lines':>7} {'code':>7}  module")
    for path in sorted(top.rglob("*.py")):
        lines, code = count(path.read_text())
        totals[0] += lines
        totals[1] += code
        print(f"{lines:7d} {code:7d}  {path.relative_to(top)}")
    print(f"{totals[0]:7d} {totals[1]:7d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
