"""The mutation table of tests/mutants.py stays runnable: every anchor occurs
once in its file, and every node id names a test defined in its file.  The
mutants themselves run only under `python tests/mutants.py`."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from mutants import MUTANTS, ROOT


def defined_tests(path: Path) -> set[str]:
    """`func` and `Class::method` for each test function defined in path."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.ClassDef):
            names.update(f"{node.name}::{item.name}" for item in node.body if isinstance(item, ast.FunctionDef))
    return names


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_is_runnable(mutant):
    assert (ROOT / mutant.path).read_text(encoding="utf-8").count(mutant.old) == 1
    assert mutant.new != mutant.old and mutant.tests
    for nodeid in mutant.tests:
        path, _, name = nodeid.partition("::")
        assert name.split("[")[0] in defined_tests(ROOT / path), nodeid
