"""The loss row: every command that prints a loss prints loss = opt - revenue
and normalized_loss = loss / sqrt(n*h), built by one constructor in cli.

The property test reads the JSON cells back into exact numbers, so each
identity is checked exactly, not on the 9-digit decimals.  The structural
test keeps the normalization in that one constructor, the only place in the
package that divides a loss by sqrt(n*h).
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from bivalued_auctions import SurdSum
from bivalued_auctions.cli import main

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bivalued_auctions"


def exact_cell(cell) -> SurdSum:
    """A JSON cell as an exact number: {num, den} is a Fraction, terms a SurdSum."""
    if isinstance(cell, int):
        return SurdSum.of(cell)
    if "terms" in cell:
        return sum(
            (SurdSum.multiple(Fraction(int(t["num"]), int(t["den"])), t["radicand"])
             for t in cell["terms"]),
            SurdSum.of(0),
        )
    return SurdSum.of(Fraction(int(cell["num"]), int(cell["den"])))


def json_rows(*argv: str) -> list[dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*argv, "--format", "json"])
    assert code == 0, argv
    return json.loads(out.getvalue())["rows"]


def loss_commands(n: int, h: int, bids: str) -> list[list[str]]:
    """Every in-domain loss command at (n, h): the four sweeps, the DOP demo,
    the hard-distribution identities, and both forms of expectation."""
    size = ["--n", str(n), "--h", str(h)]
    commands = [["sweep", *size, "--auction", a] for a in ("dop", "derand", "random")]
    commands += [["expectation", *size], ["expectation", *size, "--bids", bids]]
    if n % h == 0:
        commands += [["sweep", *size, "--auction", "threshold-dop"], ["demo-dop", *size],
                     ["dist-d", *size]]
    else:
        commands.append(["demo-dop", "--h", str(h)])  # at its default n = h*h
    return commands


@st.composite
def _point(draw):
    n, h = draw(st.integers(1, 12)), draw(st.integers(2, 6))
    return n, h, "".join(draw(st.lists(st.sampled_from("HL"), min_size=n, max_size=n)))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_point())
def test_every_loss_row_is_opt_minus_revenue_over_sqrt_nh(point):
    for argv in loss_commands(*point):
        for row in json_rows(*argv):
            opt, revenue = exact_cell(row["opt"]), exact_cell(row["revenue"])
            loss, normalized = exact_cell(row["loss"]), exact_cell(row["normalized_loss"])
            assert loss == opt - revenue, (argv, row["n_h"])
            assert normalized * normalized * (row["n"] * row["h"]) == loss * loss, argv
            assert normalized.sign() == loss.sign(), argv


def _normalize_calls(tree: ast.AST) -> list[ast.Call]:
    return [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and (
            getattr(node.func, "attr", None) == "_normalize"
            or getattr(node.func, "id", None) == "_normalize"
        )
    ]


def test_only_the_loss_row_computes_the_loss_fields():
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    tree = trees["cli.py"]
    (loss_row,) = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "_loss_row"
    ]
    inside = {id(node) for node in ast.walk(loss_row)}

    def outside(nodes):
        return [node.lineno for node in nodes if id(node) not in inside]

    # the package's one normalization by sqrt(n*h) is the one in _loss_row
    normalize_calls = [
        (name, node) for name, module in trees.items() for node in _normalize_calls(module)
    ]
    assert len(normalize_calls) == 1, [(name, node.lineno) for name, node in normalize_calls]
    assert outside(node for _, node in normalize_calls) == []
    everywhere = list(ast.walk(tree))
    # no other dict literal or call sets the two fields by name
    field_keys = [
        node for node in everywhere
        if isinstance(node, ast.Constant) and node.value in ("loss", "normalized_loss")
    ]
    field_keywords = [
        node for node in everywhere
        if isinstance(node, ast.keyword) and node.arg in ("loss", "normalized_loss")
    ]
    assert len(field_keys) == 2
    assert outside(field_keys) == []
    assert outside(field_keywords) == []
