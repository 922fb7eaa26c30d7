"""The code-line rule of tests/code_lines.py, on a source small enough to
count by hand."""

from __future__ import annotations

import code_lines

SOURCE = '''"""A module docstring
over two lines."""

import math  # a trailing comment leaves its line counted

# a comment line


def f(x):
    """One-line docstring."""
    return math.hypot(
        x,
        1,
    )
'''


def test_counts_code_lines_only():
    # import, def, and the four lines of the call
    assert code_lines.code_lines(SOURCE) == 6


def test_a_string_that_is_not_a_docstring_counts():
    assert code_lines.code_lines('x = 1\ny = """a\nb"""\n') == 3

