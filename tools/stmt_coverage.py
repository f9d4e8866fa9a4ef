"""List the statements of ``src/pbalm`` that the tier-1 tests never run.

    python3 tools/stmt_coverage.py [PYTEST_ARG ...]

Run it from the root of a source checkout.  It runs pytest in this process
(by default ``-q tests``, which is tier-1: the project's settings deselect
the slow tests) under a ``sys.settrace`` hook that records the lines
executed in the modules of ``src/pbalm``, then prints, for each module, the
first line of every statement that never ran.  Stdlib only, besides pytest.

A statement counts as run when any line from its first to its last was
executed, since running any part of a statement, a branch of an ``if``
included, runs its start.  Definitions, imports, constant expressions
(docstrings) and ``nonlocal``/``global`` declarations are not listed: the
interpreter executes no line of their own, or only when the module is
imported.  Code run in a subprocess is not seen.  The exit code is
pytest's, so a failing suite is not mistaken for a coverage result.
"""

from __future__ import annotations

import ast
import contextlib
import os
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Statements that no line event stands for.
_SKIP = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import,
         ast.ImportFrom, ast.Nonlocal, ast.Global)


def statement_spans(source: str):
    """(first line, last line) of every statement that executes code."""
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, _SKIP):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue
        yield node.lineno, node.end_lineno


def never_run(source: str, executed: set) -> list:
    """First lines of the statements in ``source`` none of whose lines is
    in ``executed``, ascending."""
    return sorted({first for first, last in statement_spans(source)
                   if executed.isdisjoint(range(first, last + 1))})


@contextlib.contextmanager
def traced(directory: Path):
    """Record the lines executed under ``directory`` while the block runs:
    yields a dict from each file's real path to its set of line numbers.
    The previous trace function is restored on exit."""
    prefix = os.path.realpath(directory) + os.sep
    lines = defaultdict(set)
    wanted = {}  # co_filename -> its set of lines, or None outside prefix

    def local(frame, event, arg):
        if event == "line":
            wanted[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in wanted:
            path = os.path.realpath(name)
            wanted[name] = lines[path] if path.startswith(prefix) else None
        return local if wanted[name] is not None else None

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        yield lines
    finally:
        sys.settrace(previous)


def report(directory: Path, lines: dict) -> list:
    """One ``path: line, line`` entry per module under ``directory`` with
    statements that never ran, and a closing count."""
    out, unrun, total = [], 0, 0
    for path in sorted(Path(directory).rglob("*.py")):
        source = path.read_text()
        missed = never_run(source, lines.get(os.path.realpath(path), set()))
        total += sum(1 for _ in statement_spans(source))
        unrun += len(missed)
        if missed:
            rel = os.path.relpath(path, ROOT)
            out.append(f"{rel}: {', '.join(map(str, missed))}")
    out.append(f"{unrun} of {total} statements never ran")
    return out


def main(argv=None) -> int:
    import pytest

    args = sys.argv[1:] if argv is None else argv
    os.chdir(ROOT)
    package = ROOT / "src" / "pbalm"
    with traced(package) as lines:
        code = pytest.main(args or ["-q", "tests"])
    if not lines:
        print(f"error: no line of {package} ran; pbalm was imported from "
              "elsewhere", file=sys.stderr)
        return 2
    print("\n".join(report(package, lines)))
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
