"""README's "Normalized worst losses along `n`" tables against the CLI.

Each cell is a `normalized_loss` decimal as `--format json` prints it, and
each worst-k cell the row's `n_h`: `sweep --auction derand|random` for the
auction columns, `dist-d` for the floor where h | n.  Every random and floor
cell is checked here, and every derand cell with n <= 500; CI checks the
derand cells at n = 1000 and at (2000, 10), and those at (2000, 50) and
(2000, 100) (10 s or more each) are left out.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from bivalued_auctions.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
HEADING = "#### Normalized worst losses along `n`"
DERAND_N_LIMIT = 500


def readme_tables() -> list[dict[str, str]]:
    """The rows of every table under HEADING, up to the next heading, as
    {column: cell}; a `worst k` column is named after the auction before it."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index(HEADING) + 1
    end = next(i for i in range(start, len(lines)) if lines[i].startswith("#"))
    rows, header = [], None
    for line in lines[start:end]:
        if not line.startswith("|"):
            header = None
            continue
        cells = [cell.strip().strip("`") for cell in line.strip("|").split("|")]
        if header is None:
            header = []
            for cell in cells:
                header.append(f"{header[-1]} k" if cell == "worst k" else cell)
        elif not set(cells[0]) <= {"-"}:
            rows.append(dict(zip(header, cells)))
    return rows


def readme_cells() -> dict[tuple[str, ...], list[tuple[str, str | None]]]:
    """argv -> the (normalized_loss, n_h) cells that README prints from it;
    n_h is None for the floor, which names no worst k."""
    cells: dict[tuple[str, ...], list[tuple[str, str | None]]] = {}
    for row in readme_tables():
        n, h = row["n"], row["h"]
        size = ("--n", n, "--h", h)
        for auction in ("derand", "random"):
            if auction in row and (auction == "random" or int(n) <= DERAND_N_LIMIT):
                argv = ("sweep", *size, "--auction", auction, "--limit", n)
                cells.setdefault(argv, []).append((row[auction], row[f"{auction} k"]))
        if int(n) % int(h) == 0:
            cells.setdefault(("dist-d", *size), []).append((row["floor"], None))
    return cells


CELLS = readme_cells()


def test_the_tables_are_parsed_whole():
    # 18 rows along n and 6 at n <= h: 24 random cells, 12 derand cells at
    # n <= 500 and 20 floors; (50, 50) and (100, 100) sit in both tables
    rows = readme_tables()
    assert len(rows) == 24
    assert all(row["floor"] == "(h ∤ n)" for row in rows if int(row["n"]) % int(row["h"]))
    assert sum(len(cells) for cells in CELLS.values()) == 24 + 12 + 20
    commands = [argv[0] if argv[0] == "dist-d" else argv[6] for argv in CELLS]
    assert (commands.count("random"), commands.count("derand"), commands.count("dist-d")) == (
        22, 12, 18
    )


@pytest.mark.parametrize("argv", CELLS, ids=" ".join)
def test_readme_cells_are_what_the_cli_prints(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([*argv, "--format", "json"]) == 0
    (row,) = json.loads(out.getvalue())["rows"]
    for normalized, n_h in CELLS[argv]:
        assert row["normalized_loss"]["decimal"] == normalized
        if n_h is not None:
            assert str(row["n_h"]) == n_h
