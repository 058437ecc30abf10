#!/usr/bin/env python3
"""Statements of ``src/mixkd`` that a pytest run never reaches.

    PYTHONPATH=src python3 tools/linecov.py [PYTEST_ARGS ...]

runs pytest in this process (``-q -p no:cacheprovider`` and the given
arguments; tier-1 when there are none) under a line tracer, installed with
``sys.settrace`` for the calling thread and ``threading.settrace`` for
every thread started after it (the forward's worker among them), and
prints each statement of ``src/mixkd`` whose first line never ran, as
``path:line: source``, then one summary line per module.  A statement is
an ``ast`` statement that has bytecode at its first line: docstrings,
``global`` and ``nonlocal`` have none and are not counted.  Code run only
in a child process is not seen.  Only the standard library is used.  The
tracer slows tier-1 by about two thirds (65 s -> 108 s for 741 tests on a
2-CPU host), so this is a report, not a gate.  Exits with pytest's exit
code.
"""

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mixkd"


def _code_lines(code) -> set[int]:
    """Every line that has bytecode in ``code`` or its nested code."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def statements(path: Path) -> dict[int, str]:
    """First line -> source line of every statement of ``path`` that has
    bytecode there."""
    source = path.read_text()
    has_code = _code_lines(compile(source, str(path), "exec"))
    text = source.splitlines()
    return {node.lineno: text[node.lineno - 1].strip()
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.stmt) and node.lineno in has_code}


def main(args: list[str]) -> int:
    prefix = str(PACKAGE) + "/"
    reached: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider"] + args)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = missed = 0
    summary = []
    for path in sorted(PACKAGE.glob("*.py")):
        stmts = statements(path)
        lost = sorted(line for line in stmts
                      if (str(path), line) not in reached)
        rel = path.relative_to(ROOT)
        for line in lost:
            print(f"{rel}:{line}: {stmts[line]}")
        summary.append(f"{rel}: {len(stmts) - len(lost)}/{len(stmts)} "
                       f"statements reached")
        total += len(stmts)
        missed += len(lost)
    print("\n".join(summary))
    print(f"total: {missed} of {total} statements never reached")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
