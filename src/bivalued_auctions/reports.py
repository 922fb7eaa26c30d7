"""Deterministic CSV and JSON rendering for experiment output.

Every command emits rows over one fixed column set; what a column means per
command is documented in the README.  Exact rationals never pass through
floating point: CSV shows fixed 9-digit decimals plus the gap as an exact
numerator/denominator pair, JSON carries {"num", "den", "decimal"} objects
(numerator and denominator as strings, since the binomial coefficients
overflow doubles long before n = 200), and surd sums {"terms", "decimal"}.

JSON is written in one pass: each row goes straight to text in exactly the
layout of json.dumps(doc, indent=2), with json's own ASCII escaping for
strings and keys, and the rows are joined once.  No dict tree is built and
the standard library's pure-Python indenting encoder never runs.
tests/test_render_json.py keeps that old route (a tree of JSON-ready cells
through json.dumps) as the oracle, and checks the bytes agree on generated
rows.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from typing import Optional, Union

from .exact import SurdSum

CSV_COLUMNS = (
    "command",
    "n",
    "h",
    "auction",
    "n_h",
    "opt",
    "revenue",
    "loss",
    "normalized_loss",
    "seed",
    "samples",
    "mean",
    "stderr",
    "gap_exact_num",
    "gap_exact_den",
)

DECIMAL_DIGITS = 9

_string = json.encoder.encode_basestring_ascii  # json.dumps's escaping, ensure_ascii on
_COLUMN_KEYS = tuple((_string(column), column) for column in CSV_COLUMNS)

Cell = Union[None, int, float, str, Fraction, SurdSum, dict]


def decimal_string(value: Union[int, Fraction, SurdSum]) -> str:
    return SurdSum.of(value).to_decimal(DECIMAL_DIGITS)


def _csv_cell(value: Cell) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans have no CSV cell form")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (Fraction, SurdSum)):
        return decimal_string(value)
    raise TypeError(f"cannot render {type(value).__name__} in CSV")


def _key(key: object) -> str:
    """A dict key as json.dumps writes it: a str escaped; an int, float, bool
    or None written as its JSON scalar, then escaped."""
    if not (key is None or isinstance(key, (str, int, float))):
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
    return _string(key if isinstance(key, str) else json.dumps(key))


def _layout(items: list[str], pad: str, brackets: str = "{}", head: str = "", tail: str = "") -> str:
    """head, then items in brackets, one to a line indented by pad and two
    spaces, with the closing bracket indented by pad, then tail: json.dumps's
    indent=2 layout for an array or object whose opening bracket ends a line
    indented by pad.  head and tail go onto the first and last item, which it
    overwrites, so that the whole text is joined once."""
    if not items:
        return f"{head}{brackets}{tail}"
    items[0] = f"{head}{brackets[0]}\n{pad}  {items[0]}"
    items[-1] += f"\n{pad}{brackets[1]}{tail}"
    return f",\n{pad}  ".join(items)


def _json(value: Cell, pad: str) -> str:
    """A cell's JSON text in json.dumps's indent=2 layout, for a cell that
    follows its key on a line indented by pad."""
    if value is None:
        return "null"
    if isinstance(value, str):
        return _string(value)
    if isinstance(value, (bool, float)):
        return json.dumps(value)
    if isinstance(value, int):
        # Big integers (gap numerators) as strings so JSON readers keep them exact.
        return str(value) if abs(value) < 1 << 53 else f'"{value}"'
    p = pad + "  "
    if isinstance(value, Fraction):
        return (f'{{\n{p}"num": "{value.numerator}",\n{p}"den": "{value.denominator}",\n'
                f'{p}"decimal": "{decimal_string(value)}"\n{pad}}}')
    if isinstance(value, SurdSum):
        # exact sum of rational multiples of square roots, plus a decimal
        q = p + "    "
        terms = [f'{{\n{q}"radicand": {r},\n{q}"num": "{num}",\n{q}"den": "{den}"\n{p}  }}'
                 for r, num, den in value.int_terms]
        return (f'{{\n{p}"terms": {_layout(terms, p, "[]")},\n'
                f'{p}"decimal": "{decimal_string(value)}"\n{pad}}}')
    if isinstance(value, dict):
        return _layout([f"{_key(key)}: {_json(item, p)}" for key, item in value.items()], pad)
    raise TypeError(f"cannot render {type(value).__name__} in JSON")


def render_csv(rows: list[dict]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(_csv_cell(row.get(column)) for column in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def render_json(rows: list[dict]) -> str:
    """json.dumps({"columns": [...], "rows": [...]}, indent=2) + "\\n", written in one pass."""
    text = []
    for row in rows:
        cells = [(key, row.get(column)) for key, column in _COLUMN_KEYS]
        cells += [(_key(key), value) for key, value in row.items() if key not in CSV_COLUMNS]
        text.append(_layout([f"{key}: {_json(value, '      ')}" for key, value in cells], "    "))
    columns = _layout([key for key, _ in _COLUMN_KEYS], "  ", "[]")
    return _layout(text, "  ", "[]", f'{{\n  "columns": {columns},\n  "rows": ', "\n}\n")


def render(rows: list[dict], output_format: str) -> str:
    if output_format == "csv":
        return render_csv(rows)
    if output_format == "json":
        return render_json(rows)
    raise ValueError(f"unknown output format {output_format!r}")


def write_report(text: str, output_path: Optional[str]) -> None:
    if output_path is None:
        sys.stdout.write(text)
    else:
        with open(output_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
