"""List the statements in src/tcqkd function bodies that no tier-1 test
executes.

Runs the tier-1 suite in this process under a `sys.settrace` line tracer
limited to src/tcqkd, then prints a count and one `path:line: statement`
line per statement in a function body that none of its own lines ran.
Standard library only.  From the repository root, with any pytest
arguments:

    python tools/unexecuted.py
"""

import ast
import sys
import threading
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = str(SRC / "tcqkd")
executed = set()


def trace_lines(frame, event, arg):
    if event == "line":
        executed.add((frame.f_code.co_filename, frame.f_lineno))
    return trace_lines


def trace_calls(frame, event, arg):
    return trace_lines if frame.f_code.co_filename.startswith(PACKAGE) else None


def own_lines(stmt):
    """Lines of stmt that no statement nested in it holds: a compound
    statement's header, a simple statement's every line."""
    first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", [])])
    lines = set(range(first, stmt.end_lineno + 1))
    for child in ast.walk(stmt):
        if child is not stmt and isinstance(child, ast.stmt):
            lines -= set(range(child.lineno, child.end_lineno + 1))
    return lines


def body_statements(tree):
    """Each statement inside a function body, in line order, docstrings
    left out (they compile to no instruction)."""
    found = {}
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for stmt in ast.walk(ast.Module(body=func.body, type_ignores=[])):
                docstring = isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant) \
                    and isinstance(stmt.value.value, str)
                if isinstance(stmt, ast.stmt) and not docstring:
                    found[stmt.lineno, stmt.col_offset] = stmt
    return [found[key] for key in sorted(found)]


def main(args):
    sys.path.insert(0, str(SRC))
    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = []
    for path in sorted(Path(PACKAGE).glob("*.py")):
        text = path.read_text(encoding="utf-8")
        for stmt in body_statements(ast.parse(text)):
            if not any((str(path), line) in executed for line in own_lines(stmt)):
                line = text.splitlines()[stmt.lineno - 1].strip()
                missed.append(f"{path.relative_to(SRC.parent)}:{stmt.lineno}: {line}")
    print("\n".join([f"\nStatements in src/tcqkd function bodies that no test executed: {len(missed)}",
                     *missed]))
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
