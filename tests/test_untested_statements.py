"""The CI statement check: which statements count as never run."""

import importlib.util
import os

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "untested_statements.py")
spec = importlib.util.spec_from_file_location("untested_statements", TOOL)
untested_statements = importlib.util.module_from_spec(spec)
spec.loader.exec_module(untested_statements)

SOURCE = '''"""Module docstring."""


def f(x):
    """Docstring."""
    if x < 0:
        raise ValueError(
            "negative"
        )
    y = (
        x + 1
    )
    for i in range(y):
        y += i
    return y
'''


def test_statements_with_no_run_line_named_but_raises_and_docstrings(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(SOURCE)
    # the def ran at import and the call ran lines 6 and 11 only
    assert untested_statements.untested(str(path), {4, 6, 11}) == [13, 14, 15]
    assert untested_statements.untested(str(path), set()) == [4, 6, 10, 13, 14, 15]


def test_consecutive_lines_joined_into_spans():
    assert untested_statements.spans([89, 94, 95, 96, 101]) == ["89", "94-96", "101"]
