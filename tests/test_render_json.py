"""reports.render_json against the route it replaced: a tree of JSON-ready
cells passed through json.dumps(doc, indent=2).

render_json writes each row straight to indented text; the oracle below
builds the dict tree and lets the standard library lay it out.  The two must
agree byte for byte on every row, and refuse the same cells.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bivalued_auctions import cli
from bivalued_auctions.exact import SurdSum
from bivalued_auctions.reports import CSV_COLUMNS, decimal_string, render, render_json


def _oracle_cell(value):
    if value is None or isinstance(value, (str, float)):
        return value
    if isinstance(value, int):
        return value if abs(value) < 1 << 53 else str(value)
    if isinstance(value, Fraction):
        return {
            "num": str(value.numerator),
            "den": str(value.denominator),
            "decimal": decimal_string(value),
        }
    if isinstance(value, SurdSum):
        return {
            "terms": [
                {"radicand": r, "num": str(num), "den": str(den)}
                for r, num, den in value.int_terms
            ],
            "decimal": decimal_string(value),
        }
    if isinstance(value, dict):
        return {key: _oracle_cell(item) for key, item in value.items()}
    raise TypeError(f"cannot render {type(value).__name__} in JSON")


def oracle_render_json(rows: list[dict]) -> str:
    doc_rows = []
    for row in rows:
        out = {column: _oracle_cell(row.get(column)) for column in CSV_COLUMNS}
        for key, value in row.items():
            if key not in CSV_COLUMNS:
                out[key] = _oracle_cell(value)
        doc_rows.append(out)
    doc = {"columns": list(CSV_COLUMNS), "rows": doc_rows}
    return json.dumps(doc, indent=2) + "\n"


BIG = 1 << 53
EDGE_INTS = [0, 1, -1, BIG - 1, -(BIG - 1), BIG, -BIG, BIG + 1, -(BIG + 1), 1 << 64, -(1 << 200)]
EDGE_FLOATS = [0.0, -0.0, 1.5, 1e300, 5e-324, math.nan, math.inf, -math.inf]
EDGE_STRINGS = [
    "", 'a "quoted" word', "back\\slash", "\x00\t\n\x1f\x7f", "é ü ñ 中 😀", "\u2028 \ud800",
]
# 43# = 2*3*5*...*43 is square-free and above 2**53, so the radicand stays a
# JSON number that some readers cannot hold exactly, as json.dumps wrote it
PRIMORIAL_43 = math.prod([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43])
EDGE_SURDS = [
    SurdSum(),
    SurdSum.of(Fraction(-7, 3)),
    SurdSum.multiple(Fraction(3, 4), 12),
    SurdSum.of(Fraction(1, 6)) - SurdSum.multiple(Fraction(5, 2), 2) + SurdSum.root(15),
    SurdSum.root(PRIMORIAL_43) * (1 << 60),
]
EDGE_CELLS = [
    None, True, False, *EDGE_INTS, *EDGE_FLOATS, *EDGE_STRINGS,
    Fraction(0), Fraction(-1, 3), Fraction(1 << 70, 3), *EDGE_SURDS,
    {}, {"2": Fraction(1, 2), "3": {}}, {1: "one", -BIG: {"x": {"y": SurdSum.root(2)}}},
    {True: 1, False: 0, None: "null", 1.5: 2.5, math.inf: -math.inf, 1 << 64: BIG},
    {text: text for text in EDGE_STRINGS},
]


@pytest.mark.parametrize("cell", EDGE_CELLS, ids=repr)
def test_edge_cell_matches_the_oracle(cell):
    rows = [{"command": "x", "n": cell}, {"n_h": 2, "gap_exact_num": cell, "extra": cell}]
    assert render_json(rows) == oracle_render_json(rows)


def test_every_edge_in_one_row_matches_the_oracle():
    row = {f"cell {i}": cell for i, cell in enumerate(EDGE_CELLS)}
    assert render_json([row, {}]) == oracle_render_json([row, {}])


def test_no_rows():
    assert render_json([]) == oracle_render_json([])


@pytest.mark.parametrize(
    "argv",
    [
        ["expectation", "--n", "40", "--h", "3"],
        ["sweep", "--n", "8", "--h", "3", "--auction", "random"],
        ["sweep", "--n", "8", "--h", "2", "--auction", "derand"],
        ["dist-d", "--n", "12", "--h", "3"],
        ["mc", "--n", "10", "--h", "3", "--auction", "dop", "--samples", "50", "--seed", "1"],
    ],
)
def test_command_rows_match_the_oracle(argv):
    args = cli._parser().parse_args(argv + ["--format", "json"])
    rows = args.rows(args)
    assert render(rows, "json") == oracle_render_json(rows)


surds = st.lists(
    st.tuples(st.fractions(max_denominator=10**6), st.integers(0, 60)), max_size=4
).map(lambda parts: sum((SurdSum.multiple(c, r) for c, r in parts), SurdSum()))
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from(EDGE_INTS),
    st.floats(),
    st.sampled_from(EDGE_FLOATS),
    st.text(),
    st.sampled_from(EDGE_STRINGS),
    st.fractions(),
    surds,
    st.sampled_from(EDGE_SURDS),
)
keys = st.one_of(st.text(max_size=8), st.integers(), st.sampled_from(EDGE_STRINGS))
cells = st.recursive(scalars, lambda inner: st.dictionaries(keys, inner, max_size=4), max_leaves=12)
rows = st.lists(
    st.dictionaries(st.one_of(st.sampled_from(CSV_COLUMNS), keys), cells, max_size=18),
    max_size=4,
)


@given(rows)
def test_matches_the_oracle(generated):
    assert render_json(generated) == oracle_render_json(generated)


@pytest.mark.parametrize(
    "cell, name",
    [
        ([1], "list"),
        ((1,), "tuple"),
        (np.int64(3), "int64"),
        (np.float32(0.5), "float32"),
        ({"k": {1, 2}}, "set"),
    ],
)
def test_unsupported_cell_raises(cell, name):
    for render_rows in (render_json, oracle_render_json):
        with pytest.raises(TypeError, match=f"^cannot render {name} in JSON$"):
            render_rows([{"n": cell}])
        with pytest.raises(TypeError, match=f"^cannot render {name} in JSON$"):
            render_rows([{"extra": {"nested": cell}}])


def test_unsupported_key_raises():
    for render_rows in (render_json, oracle_render_json):
        with pytest.raises(TypeError):
            render_rows([{"extra": {(1, 2): 3}}])
