"""Byte pin for every exact command: each case in cli_golden.json is an argv
with the exit code and stdout it must give, byte for byte.

`mc` is left out on purpose: its bytes follow numpy's Generator stream, which
is not pinned here; the determinism tests in test_cli.py cover it.  A case
whose argv holds "CONFIG" writes its "config" array to a file and passes that
path in its place.

When an output change is intended, re-record the file at the commit whose
output is wanted: run each case's argv through `bivalued_auctions.cli.main`
with stdout captured, store the new `code` and `stdout`, and review the diff
of cli_golden.json line by line.  Never re-record to make a failure go away.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bivalued_auctions
from bivalued_auctions.cli import main

CASES = json.loads((Path(__file__).parent / "cli_golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_output_is_byte_identical(capsys, tmp_path, case):
    config = tmp_path / "config.json"
    if "config" in case:
        config.write_text(json.dumps(case["config"]), encoding="utf-8")
    argv = [str(config) if arg == "CONFIG" else arg for arg in case["argv"]]
    code = main(argv)
    assert (code, capsys.readouterr().out) == (case["code"], case["stdout"])


def test_every_exact_command_is_pinned_in_both_formats():
    pinned = {(c["argv"][0], c["argv"][-1]) for c in CASES if c["code"] == 0}
    commands = ("sweep", "demo-dop", "dist-d", "block-check", "expectation", "batch")
    assert pinned == {(cmd, fmt) for cmd in commands for fmt in ("csv", "json")}


@pytest.mark.parametrize("index", [0, -1], ids=["exit-0", "exit-1"])
def test_module_entry_point_prints_the_golden_bytes(index):
    # `python -m bivalued_auctions.cli` exits with main's code
    case = CASES[index]
    src = Path(bivalued_auctions.__file__).resolve().parent.parent
    run = subprocess.run(
        [sys.executable, "-m", "bivalued_auctions.cli", *case["argv"]],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, timeout=60,
    )
    assert (run.returncode, run.stdout) == (case["code"], case["stdout"].encode())
