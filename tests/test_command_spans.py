"""The spans perfbench/tracing.py records for each CLI command.

The tracer wraps package names from outside, where their callers look them
up, so moving a call to another module does not fail: the span it fed
silently reads zero.  This test pins the exact set of span names each
command records today, so such a move fails here instead.
"""

from __future__ import annotations

import json
import os

import pytest

from bivalued_auctions import analysis, auctions, cli, enumeration, exact
from test_tracing_contract import load_tracing

# build_parser runs once per cold parser, and every command below starts cold
EVERY_COMMAND = {"cli.main", "cli.build_parser", "reports.render"}
N_H = ["--n", "4", "--h", "2"]
MC = ["mc", *N_H, "--samples", "10", "--seed", "1", "--threads", "1", "--auction"]
MC_SPANS = {
    "analysis.check_distribution_identities", "analysis.monte_carlo_under_d",
    "rng.stream_generator",
}

# Every sweep records only the CLI's spans and exact.to_decimal: the CLI calls
# certify.worst_case_sweep, and no wrapper covers certify's names.
SWEEP = {"exact.to_decimal"}

CASES = [
    *((["sweep", *N_H, "--auction", a], SWEEP) for a in auctions.AUCTION_NAMES),
    (["demo-dop", "--h", "2"], {"core.settle", "exact.to_decimal"}),
    (["dist-d", *N_H], {"analysis.check_distribution_identities", "exact.to_decimal"}),
    ([*MC, "dop"], MC_SPANS),
    ([*MC, "threshold-dop"], MC_SPANS),
    ([*MC, "derand"], MC_SPANS | {"enumeration.high_index_sum"}),
    ([*MC, "random"], MC_SPANS | {"exact.bernoulli_threshold"}),
    (["block-check", *N_H], {"analysis.block_structure_sweep", "enumeration.offers_for_bidder"}),
    (["expectation", *N_H], {"auctions.expected_revenue_by_count", "exact.to_decimal"}),
    (["expectation", *N_H, "--bids", "LHLH"],
     {"auctions.expected_revenue_by_count", "exact.to_decimal"}),
    # CONFIG holds a random sweep and a dist-d entry
    (["batch", "CONFIG"], SWEEP | {"analysis.check_distribution_identities"}),
]


@pytest.mark.parametrize(
    "argv, spans", [pytest.param(*case, id=" ".join(case[0])) for case in CASES]
)
def test_each_command_records_its_spans(tmp_path, argv, spans):
    config = tmp_path / "config.json"
    config.write_text(json.dumps([
        {"command": "sweep", "n": 4, "h": 2, "auction": "random"},
        {"command": "dist-d", "n": 4, "h": 2},
    ]))
    argv = [str(config) if arg == "CONFIG" else arg for arg in argv]
    # cold memos, so each command records the same spans whatever ran before:
    # exact.bernoulli_threshold, for one, runs only on a miss
    for module in (analysis, auctions, cli, enumeration, exact):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    tracing = load_tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        assert cli.main([*argv, "--output", os.devnull]) == 0
    finally:
        tracer.uninstall()
    assert {span[1] for span in tracer.spans} == EVERY_COMMAND | spans
