"""Deterministic CSV and JSON rendering for experiment output.

Every command emits rows over one fixed column set; what a column means per
command is documented in the README.  Exact rationals never pass through
floating point: CSV shows fixed 9-digit decimals plus the gap as an exact
numerator/denominator pair, JSON carries {"num", "den", "decimal"} objects
(numerator and denominator as strings, since the binomial coefficients
overflow doubles long before n = 200).
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


def _json_cell(value: Cell) -> object:
    if value is None or isinstance(value, (str, float)):
        return value
    if isinstance(value, int):
        # Big integers (gap numerators) as strings so JSON readers keep them exact.
        return value if abs(value) < 1 << 53 else str(value)
    if isinstance(value, Fraction):
        return {
            "num": str(value.numerator),
            "den": str(value.denominator),
            "decimal": decimal_string(value),
        }
    if isinstance(value, SurdSum):
        # exact sum of rational multiples of square roots, plus a decimal
        return {
            "terms": [
                {"radicand": r, "num": str(num), "den": str(den)}
                for r, num, den in value.int_terms
            ],
            "decimal": decimal_string(value),
        }
    if isinstance(value, dict):
        return {key: _json_cell(item) for key, item in value.items()}
    raise TypeError(f"cannot render {type(value).__name__} in JSON")


def render_csv(rows: list[dict]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(_csv_cell(row.get(column)) for column in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def render_json(rows: list[dict]) -> str:
    doc_rows = []
    for row in rows:
        out = {column: _json_cell(row.get(column)) for column in CSV_COLUMNS}
        for key, value in row.items():
            if key not in CSV_COLUMNS:
                out[key] = _json_cell(value)
        doc_rows.append(out)
    doc = {"columns": list(CSV_COLUMNS), "rows": doc_rows}
    return json.dumps(doc, indent=2) + "\n"


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
