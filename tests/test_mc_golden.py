"""Byte pin for `mc`: each case in mc_golden.json is an argv with the exit
code and stdout it must give, byte for byte.

The bytes follow numpy's Generator stream, which the package reads through
Philox streams keyed by (seed, chunk), so they pin both how the draws are
consumed and how each auction settles them.  The points cover every
auction: one cut 16384-row chunk at n = 1000, h = 10, at one and two
threads; h = 3000, where about 9 bid draws per chunk are rejected, so the
chunk is drawn whole and the randomized auction's coins start wherever the
rejections left the stream; and seven chunks of threshold-DOP at n = 100.

Re-record the file only for an intended change to the stream or the
estimates, as test_cli_golden.py says for cli_golden.json: run each argv
through `bivalued_auctions.cli.main` with stdout captured, and review the
diff line by line.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from bivalued_auctions.cli import main

CASES = json.loads((Path(__file__).parent / "mc_golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_mc_output_is_byte_identical(capsys, case):
    code = main(case["argv"])
    assert (code, capsys.readouterr().out) == (case["code"], case["stdout"])


def test_every_auction_is_pinned_at_one_and_two_threads():
    pinned = {(c["argv"][c["argv"].index("--auction") + 1], c["argv"][-1]) for c in CASES}
    auctions = ("dop", "threshold-dop", "derand", "random")
    assert pinned == {(auction, threads) for auction in auctions for threads in ("1", "2")}
