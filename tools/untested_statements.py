"""Run the Tier-1 suite under a line tracer and name every statement of
``src/os2e`` that no test runs.

Run from the root of a source checkout; the arguments go to pytest as given:

    PYTHONPATH=src python tools/untested_statements.py -q --continue-on-collection-errors

Stdlib only: ``sys.settrace`` records the lines run in frames whose code lies
in ``src/os2e``, and ``ast`` lists each file's statements.  A statement ran
when any of its lines did.  A ``raise`` need not run, and a docstring is not a
statement here.  Each statement that never ran is printed as ``file:line``,
and a run of them on consecutive lines as ``file:first-last``.

Exit status: pytest's when the suite fails, otherwise 1 when some statement
never ran and 0 when every one did.  The suite runs about twice as slowly as
untraced.
"""

from __future__ import annotations

import ast
import os
import sys

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "os2e")


def trace_lines(package: str):
    """Start tracing this thread (os2e starts no other); returns
    ``{path: lines}``, filled in as frames whose code lies in ``package`` run."""
    root = os.path.realpath(package) + os.sep
    ran: dict[str, set[int]] = {}
    tracers = {}  # co_filename -> its frames' line tracer, or None outside root

    def tracer_for(filename: str):
        path = os.path.realpath(filename)
        if not path.startswith(root):
            return None
        add = ran.setdefault(path, set()).add

        def on_line(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return on_line

        return on_line

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in tracers:
            tracers[filename] = tracer_for(filename)
        return tracers[filename]

    sys.settrace(on_call)
    return ran


def _docstrings(tree: ast.Module) -> set[int]:
    """The ids of the docstring expressions of ``tree``'s module, classes
    and functions."""
    ids = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                ids.add(id(first))
    return ids


def untested(path: str, ran: set[int]) -> list[int]:
    """The first lines of the statements in ``path`` other than a ``raise``
    or a docstring of which no line is in ``ran``."""
    with open(path, "r", encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    docstrings = _docstrings(tree)
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, ast.Raise) or id(node) in docstrings:
            continue
        first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", []))])
        if ran.isdisjoint(range(first, node.end_lineno + 1)):
            lines.append(first)
    return sorted(lines)


def spans(lines: list[int]) -> list[str]:
    """``lines`` as ``"a"`` or ``"a-b"`` for each run of consecutive numbers."""
    out = []
    for line in lines:
        if out and out[-1][1] == line - 1:
            out[-1][1] = line
        else:
            out.append([line, line])
    return [str(a) if a == b else f"{a}-{b}" for a, b in out]


def main(argv: list[str]) -> int:
    ran = trace_lines(PACKAGE)
    import pytest

    code = pytest.main(argv)
    sys.settrace(None)
    if code != 0:
        print(f"untested_statements: the suite failed (pytest exit {int(code)})", file=sys.stderr)
        return int(code)
    missed = []
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            path = os.path.realpath(os.path.join(PACKAGE, name))
            rel = os.path.relpath(path)
            missed += [f"{rel}:{s}" for s in spans(untested(path, ran.get(path, set())))]
    for where in missed:
        print(f"{where}: statement never runs under the suite", file=sys.stderr)
    print(f"untested_statements: {len(missed)} untested span(s) in {os.path.relpath(PACKAGE)}")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
