"""Command-line contract: output shapes, determinism, exit codes, batch."""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np
import pytest

from bivalued_auctions import analysis, certify, cli, reports
from bivalued_auctions.cli import main
from bivalued_auctions.reports import CSV_COLUMNS

HEADER = ",".join(CSV_COLUMNS)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSweepCommand:
    def test_csv_shape(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--n", "8", "--h", "2", "--auction", "derand")
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[0] == HEADER
        assert lines[1] == "sweep,8,2,derand,5,10,6,4,1.000000000,,,,,,"

    def test_json_carries_witness_and_map(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--n", "6", "--h", "2", "--auction", "derand", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["columns"] == list(CSV_COLUMNS)
        row = doc["rows"][0]
        assert row["witness"] == "LHHHLH"  # least worst-loss vector, lows-first order
        assert row["loss"] == 4
        assert set(row["per_nh_worst"]) == {str(k) for k in range(7)}

    def test_random_auction_loss_is_exact_object(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--n", "5", "--h", "3", "--auction", "random", "--format", "json"
        )
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert set(row["loss"]) == {"terms", "decimal"}

    def test_limit_flag(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--n", "6", "--h", "2", "--auction", "derand", "--limit", "5"
        )
        assert code == 1
        assert "exceeds enumeration limit" in err


class TestOtherCommands:
    def test_demo_dop(self, capsys):
        code, out, _ = run_cli(capsys, "demo-dop", "--h", "10", "--format", "json")
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["ratio"] == {"num": "10", "den": "1", "decimal": "10.000000000"}
        assert row["n"] == 100 and row["revenue"] == 10

    def test_dist_d_identities(self, capsys):
        code, out, _ = run_cli(capsys, "dist-d", "--n", "100", "--h", "10", "--format", "json")
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["exact_e_dop"]["num"] == "100"
        assert row["exact_e_dop"]["den"] == "1"
        gap = Fraction(int(row["gap_exact_num"]), int(row["gap_exact_den"]))
        assert gap == analysis.lower_bound_gap(100, 10)
        assert row["loss"]["decimal"].startswith("11.8678")

    def test_expectation_table(self, capsys):
        code, out, _ = run_cli(capsys, "expectation", "--n", "4", "--h", "2")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 6  # header + k = 0..4
        assert lines[1].startswith("expectation,4,2,random,0,4,4.000000000,0.000000000")

    def test_expectation_single_vector(self, capsys):
        code, out, _ = run_cli(
            capsys, "expectation", "--n", "4", "--h", "2", "--bids", "HHHH", "--format", "json"
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        assert len(rows) == 1
        assert rows[0]["n_h"] == 4
        assert rows[0]["bids"] == "HHHH"

    def test_expectation_rejects_bad_bids(self, capsys):
        code, _, err = run_cli(capsys, "expectation", "--n", "4", "--h", "2", "--bids", "HHXH")
        assert code == 1 and "error" in err

    def test_block_check(self, capsys):
        code, out, _ = run_cli(capsys, "block-check", "--n", "8", "--h", "2")
        assert code == 0
        assert out.splitlines()[1] == "block-check,8,2,derand,,,,,,,256,,,,"

    def test_mc_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "mc", "--n", "12", "--h", "2", "--auction", "derand",
            "--samples", "2000", "--seed", "3", "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [r["auction"] for r in rows] == ["derand", "opt"]
        assert rows[0]["samples"] == 2000 and rows[0]["seed"] == 3
        assert rows[0]["exact_e_dop"]["num"] == "12"

    def test_mc_one_sample_has_zero_stderr(self, capsys):
        # one draw has no spread to estimate: each row prints stderr 0.0
        code, out, err = run_cli(
            capsys, "mc", "--n", "4", "--h", "2", "--auction", "dop", "--samples", "1", "--seed", "1"
        )
        assert (code, err) == (0, "")
        rows = [dict(zip(CSV_COLUMNS, line.split(","))) for line in out.splitlines()[1:]]
        assert [(r["auction"], r["samples"], r["stderr"]) for r in rows] == [
            ("dop", "1", "0.0"), ("opt", "1", "0.0")
        ]


class TestRender:
    def test_unknown_format_is_rejected(self):
        with pytest.raises(ValueError, match="unknown output format 'xml'"):
            reports.render([{"command": "sweep", "n": 4}], "xml")

    def test_boolean_cell_is_rejected(self):
        with pytest.raises(TypeError, match="booleans have no CSV cell form"):
            reports.render([{"n": True}], "csv")


class TestDeterminism:
    def test_mc_byte_identical(self, capsys):
        args = ("mc", "--n", "40", "--h", "2", "--auction", "random",
                "--samples", "20000", "--seed", "7")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second
        assert first.splitlines()[1].split(",")[11] != ""

    def test_sweep_byte_identical_across_thread_counts(self, capsys):
        base = ("sweep", "--n", "12", "--h", "3", "--auction", "derand")
        _, first, _ = run_cli(capsys, *base, "--threads", "1")
        _, second, _ = run_cli(capsys, *base, "--threads", "4")
        assert first == second


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["sweep", "--n", "4", "--h", "2", "--auction", "nope"])
        assert info.value.code == 1
        with pytest.raises(SystemExit) as info:
            main(["unknown-command"])
        assert info.value.code == 1
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 1

    def test_invalid_values_are_one(self, capsys):
        assert main(["dist-d", "--n", "10", "--h", "3"]) == 1
        with pytest.raises(SystemExit) as info:
            main(["mc", "--n", "4", "--h", "2", "--auction", "derand",
                  "--samples", "0", "--seed", "1"])
        assert info.value.code == 1

    @pytest.mark.parametrize("argv", [
        ("sweep", "--n", "4", "--h", str(1 << 62), "--auction", "dop"),
        ("sweep", "--n", "4", "--h", str(1 << 62), "--auction", "derand"),
        ("mc", "--n", "4", "--h", str(1 << 62), "--auction", "derand",
         "--samples", "10", "--seed", "1"),
    ])
    def test_outside_int64_domain_is_one(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "int64" in err

    def test_normalize_limit_is_inclusive(self, capsys):
        # h*n = 2**64 exactly: 2**63 needs no trial division past 2
        argv = ("--n", "2", "--h", str(1 << 63))
        for command in (("expectation", *argv), ("sweep", *argv, "--auction", "random")):
            code, out, err = run_cli(capsys, *command)
            assert code == 0 and err == "", command
        above = certify.NORMALIZE_HN_LIMIT + 1
        argv = ("--n", "1", "--h", str(above))
        for command in (("expectation", *argv), ("sweep", *argv, "--auction", "random")):
            assert run_cli(capsys, *command) == (
                1, "", f"error: h*n = {above} exceeds {certify.NORMALIZE_HN_LIMIT}, "
                "the limit for normalizing a loss by sqrt(h*n)\n"
            ), command

    def test_enumeration_cap_is_one(self, capsys):
        code, out, err = run_cli(capsys, "block-check", "--n", "64", "--h", "2", "--limit", "64")
        assert code == 1 and out == ""
        assert err.startswith("error:") and "enumeration cap" in err

    @pytest.mark.parametrize("h, last, first", [(2, 14268, 14270), (10, 4290, 4300)])
    def test_unprintable_exact_fields_are_one(self, capsys, h, last, first):
        code, out, err = run_cli(capsys, "dist-d", "--n", str(last), "--h", str(h))
        assert code == 0 and err == "" and len(out.splitlines()) == 2
        for argv in (
            ("dist-d", "--n", str(first), "--h", str(h)),
            ("dist-d", "--n", str(10**7 // h * h), "--h", str(h)),
            ("mc", "--n", str(first), "--h", str(h), "--auction", "dop",
             "--samples", "1", "--seed", "1"),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == 1 and out == ""
            assert err.startswith("error:") and "10**4300" in err

    def test_monte_carlo_n_limit_is_one(self, capsys):
        n = certify.MC_N_LIMIT + 1
        code, out, err = run_cli(
            capsys, "mc", "--n", str(n), "--h", "2", "--auction", "dop",
            "--samples", "1", "--seed", "1",
        )
        assert code == 1 and out == ""
        assert err == f"error: n={n} exceeds the Monte Carlo limit {certify.MC_N_LIMIT}\n"

    def test_monte_carlo_samples_limit_is_one(self, capsys):
        certify.check_monte_carlo(4, 2, "dop", certify.MC_SAMPLES_LIMIT, 1, threads=1)
        for samples in (certify.MC_SAMPLES_LIMIT + 1, 10**18):
            code, out, err = run_cli(
                capsys, "mc", "--n", "4", "--h", "2", "--auction", "dop",
                "--samples", str(samples), "--seed", "1", "--threads", "1",
            )
            assert code == 1 and out == ""
            assert err == (
                f"error: samples={samples} exceeds the Monte Carlo limit "
                f"{certify.MC_SAMPLES_LIMIT}\n"
            )

    def test_expectation_table_limit_is_one(self, capsys, monkeypatch):
        n = cli.EXPECTATION_N_LIMIT + 1

        def never(ns):
            raise AssertionError("expectation rows built")

        with monkeypatch.context() as m:
            m.setattr(cli, "_expectation_rows", never)
            cli._parser.cache_clear()  # the shared parser binds the real builder
            code, out, err = run_cli(capsys, "expectation", "--n", str(n), "--h", "2")
        cli._parser.cache_clear()
        assert code == 1 and out == ""
        assert err == (
            f"error: n={n} exceeds the expectation table limit {cli.EXPECTATION_N_LIMIT}; "
            "pass --bids for one vector\n"
        )
        # the limit bounds the table only: one vector of n bids is one row
        code, out, err = run_cli(
            capsys, "expectation", "--n", str(n), "--h", "2", "--bids", "H" * n
        )
        assert code == 0 and err == "" and len(out.splitlines()) == 2

    def test_perturbed_identity_is_two(self, capsys, monkeypatch):
        monkeypatch.setattr(analysis, "exact_e_dop_under_d", lambda n, h: Fraction(1))
        code, out, err = run_cli(capsys, "dist-d", "--n", "4", "--h", "2")
        assert code == 2
        assert "identity violated" in err
        assert out == ""

    def test_block_failure_is_two(self, capsys, monkeypatch):
        from bivalued_auctions.analysis import BlockViolation
        from bivalued_auctions import AuctionParams, BidVector

        def broken(params, limit):
            b = BidVector(params, 1)
            return 1, (b, BlockViolation("high", 0, (1,), 1, 0, False))

        monkeypatch.setattr(analysis, "block_structure_sweep", broken)
        code, out, err = run_cli(capsys, "block-check", "--n", "4", "--h", "2")
        assert code == 2
        assert "derand-block-structure" in err

    def test_block_kernel_disagreement_is_two(self, capsys, monkeypatch):
        # the vector check flags mask 5, which block_structure_check passes
        monkeypatch.setattr(
            analysis, "_block_failures", lambda high, *_: (1 << np.arange(len(high))) @ high == 5
        )
        code, out, err = run_cli(capsys, "block-check", "--n", "6", "--h", "2")
        assert code == 2 and out == ""
        assert err == (
            "identity violated: derand-block-kernel-agrees-with-scalar-check (HLHLLL)\n"
        )


class TestOutputFile:
    def test_writes_file(self, capsys, tmp_path):
        target = tmp_path / "report.csv"
        code, out, _ = run_cli(
            capsys, "demo-dop", "--h", "2", "--output", str(target)
        )
        assert code == 0
        assert out == ""
        assert target.read_text().splitlines()[0] == HEADER

    def test_unwritable_path_is_one(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "demo-dop", "--h", "2", "--output", str(tmp_path / "no" / "dir.csv")
        )
        assert code == 1 and "error" in err

    def test_unopenable_path_is_one(self, capsys):
        # open() raises ValueError, not OSError, on a path with a null byte
        code, out, err = run_cli(capsys, "demo-dop", "--h", "2", "--output", "a\x00b")
        assert (code, out, err) == (1, "", "error: embedded null byte\n")


ROW_BUILDERS = ("_sweep_rows", "_demo_dop_rows", "_dist_d_rows", "_mc_rows",
                "_block_check_rows", "_expectation_rows")


@pytest.fixture
def no_handlers(monkeypatch):
    """Every command's row builder but batch's raises if it is called.

    The shared parser binds the builders it was built with, so it is
    dropped before the patch takes effect and again before the real
    builders come back."""
    def never(ns):
        raise AssertionError(f"{ns.command} handler ran")

    for name in ROW_BUILDERS:
        monkeypatch.setattr(cli, name, never)
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


def test_every_subcommand_declares_its_domain_and_rows():
    commands = next(a for a in cli.build_parser()._actions if a.dest == "command").choices
    assert set(commands) == {"sweep", "demo-dop", "dist-d", "mc", "block-check",
                             "expectation", "batch"}
    for name, sp in commands.items():
        assert callable(sp.get_default("domain")), name
    rows = {name: sp.get_default("rows") for name, sp in commands.items()}
    assert {builder.__name__ for builder in rows.values()} == {*ROW_BUILDERS, "_batch_rows"}
    for name, builder in rows.items():
        assert builder is getattr(cli, builder.__name__), name


class TestBatch:
    def write(self, tmp_path, payload):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_aggregates_rows(self, capsys, tmp_path):
        path = self.write(
            tmp_path,
            [
                {"command": "sweep", "n": 6, "h": 2, "auction": "derand"},
                {"command": "dist-d", "n": 8, "h": 2},
                {"command": "demo-dop", "h": 2},
            ],
        )
        code, out, _ = run_cli(capsys, "batch", path)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[1].startswith("sweep,6,2,derand")
        assert lines[2].startswith("dist-d,8,2")
        assert lines[3].startswith("demo-dop,4,2")

    def test_empty_list(self, capsys, tmp_path):
        path = self.write(tmp_path, [])
        code, out, _ = run_cli(capsys, "batch", path)
        assert code == 0
        assert out == HEADER + "\n"

    def test_malformed_entry_fails_whole_batch(self, capsys, tmp_path):
        path = self.write(
            tmp_path,
            [
                {"command": "sweep", "n": 6, "h": 2, "auction": "derand"},
                {"command": "sweep", "h": 2, "auction": "derand"},
            ],
        )
        code, out, err = run_cli(capsys, "batch", path)
        assert code == 1
        assert out == ""  # fail fast, no partial output
        assert "entry 1" in err and "'n'" in err

    def test_unknown_field_named(self, capsys, tmp_path):
        path = self.write(tmp_path, [{"command": "dist-d", "n": 4, "h": 2, "sample": 5}])
        code, _, err = run_cli(capsys, "batch", path)
        assert code == 1
        assert "entry 0" in err and "sample" in err

    def test_unknown_command_named(self, capsys, tmp_path):
        path = self.write(tmp_path, [{"command": "swep", "n": 4, "h": 2}])
        code, _, err = run_cli(capsys, "batch", path)
        assert code == 1 and "entry 0" in err

    def test_parse_failure_names_line(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('[{"command": "dist-d", "n": 4, "h": 2},]')
        code, _, err = run_cli(capsys, "batch", str(path))
        assert code == 1
        assert "parse failure at line" in err

    @pytest.mark.parametrize(
        "text,message",
        [
            ('{"command": "dist-d", "n": 4, "h": 2}', "top level must be a JSON array"),
            ("[" * 100000 + "]" * 100000, "parse failure: nested too deeply"),
        ],
        ids=["object", "deep"],
    )
    def test_config_shape_errors(self, capsys, tmp_path, text, message):
        path = tmp_path / "config.json"
        path.write_text(text)
        assert run_cli(capsys, "batch", str(path)) == (1, "", f"error: {path}: {message}\n")

    def test_missing_file_is_one(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "batch", str(tmp_path / "absent.json"))
        assert code == 1

    def test_divisibility_checked_upfront(self, capsys, tmp_path):
        path = self.write(tmp_path, [{"command": "dist-d", "n": 7, "h": 2}])
        code, _, err = run_cli(capsys, "batch", path)
        assert code == 1 and "divisible" in err

    def test_grid_losses_one_row_each(self, capsys, tmp_path):
        entries = [
            {"command": "sweep", "n": n, "h": h, "auction": "derand"}
            for n in (4, 5, 6)
            for h in (2, 3)
        ]
        path = self.write(tmp_path, entries)
        code, out, _ = run_cli(capsys, "batch", path)
        assert code == 0
        assert len(out.splitlines()) == 1 + len(entries)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_batch_equals_single_commands(self, capsys, tmp_path, fmt):
        jobs = [
            *(({"command": "sweep", "n": 6, "h": 3, "auction": a},
               ["sweep", "--n", "6", "--h", "3", "--auction", a])
              for a in ("dop", "threshold-dop", "derand", "random")),
            ({"command": "sweep", "n": 7, "h": 2, "auction": "derand", "limit": 7},
             ["sweep", "--n", "7", "--h", "2", "--auction", "derand", "--limit", "7"]),
            ({"command": "demo-dop", "h": 3}, ["demo-dop", "--h", "3"]),
            ({"command": "demo-dop", "h": 2, "n": 8, "format": "json", "output": "x.csv"},
             ["demo-dop", "--h", "2", "--n", "8"]),
            ({"command": "dist-d", "n": 12, "h": 3}, ["dist-d", "--n", "12", "--h", "3"]),
            ({"command": "mc", "n": 12, "h": 3, "auction": "random", "samples": 500, "seed": 5},
             ["mc", "--n", "12", "--h", "3", "--auction", "random", "--samples", "500",
              "--seed", "5"]),
            ({"command": "block-check", "n": 6, "h": 2, "limit": 6},
             ["block-check", "--n", "6", "--h", "2", "--limit", "6"]),
            ({"command": "expectation", "n": 4, "h": 2}, ["expectation", "--n", "4", "--h", "2"]),
            ({"command": "expectation", "n": 4, "h": 2, "bids": "HLHL"},
             ["expectation", "--n", "4", "--h", "2", "--bids", "HLHL"]),
        ]
        path = self.write(tmp_path, [entry for entry, _ in jobs])
        code, batch, err = run_cli(capsys, "batch", path, "--format", fmt)
        assert code == 0 and err == ""
        singles = []
        for _, argv in jobs:
            code, out, err = run_cli(capsys, *argv, "--format", fmt)
            assert code == 0 and err == ""
            singles.append(out)
        if fmt == "csv":
            assert batch == HEADER + "\n" + "".join(out.split("\n", 1)[1] for out in singles)
        else:
            rows = [row for out in singles for row in json.loads(out)["rows"]]
            assert json.loads(batch) == {"columns": list(CSV_COLUMNS), "rows": rows}

    DIST_D = {"command": "dist-d", "n": 4, "h": 2}
    MC = {"command": "mc", "n": 4, "h": 2, "auction": "dop", "samples": 10, "seed": 1}

    @pytest.mark.parametrize("entries, message", [
        ([5], "entry 0: must be an object"),
        ([DIST_D, {"command": ["dist-d"]}],
         "entry 1: field 'command' must be one of "
         "sweep, demo-dop, dist-d, mc, block-check, expectation"),
        ([{"command": "batch"}], "entry 0: field 'command' must be one of "
         "sweep, demo-dop, dist-d, mc, block-check, expectation"),
        ([{**MC, "threads": 2}], "entry 0: unknown field 'threads' for command 'mc'"),
        ([{"command": "dist-d", "n": 0, "color": 1}],
         "entry 0: unknown field 'color' for command 'dist-d'"),
        ([{"command": "dist-d", "n": 0}], "entry 0: missing field 'h'"),
        ([{**DIST_D, "n": True}], "entry 0: field 'n' must be an integer"),
        ([{**DIST_D, "n": "4"}], "entry 0: field 'n' must be an integer"),
        ([{**DIST_D, "h": 1}], "entry 0: field 'h' must be >= 2"),
        ([{**MC, "samples": 0}], "entry 0: field 'samples' must be >= 1"),
        ([{**MC, "seed": -1}], "entry 0: field 'seed' must fit in 64 bits"),
        ([{**MC, "seed": 1 << 64}], "entry 0: field 'seed' must fit in 64 bits"),
        ([{**MC, "auction": ["dop"]}],
         "entry 0: field 'auction' must be one of dop, threshold-dop, derand, random"),
        ([{**DIST_D, "bids": "HH"}], "entry 0: unknown field 'bids' for command 'dist-d'"),
        ([{"command": "expectation", "n": 2, "h": 2, "bids": 5}],
         "entry 0: field 'bids' must be a string"),
        ([DIST_D, {"command": "demo-dop", "h": 3, "n": 4}],
         "entry 1: n=4 must be divisible by h=3"),
    ])
    def test_malformed_entry_message(self, capsys, tmp_path, entries, message):
        code, out, err = run_cli(capsys, "batch", self.write(tmp_path, entries))
        assert (code, out, err) == (1, "", f"error: {message}\n")

    # One entry per domain guard: the out-of-domain entry, and the message its
    # single command prints.
    @pytest.mark.parametrize("bad, message", [
        ({"command": "block-check", "n": 64, "h": 2, "limit": 64},
         "n=64 exceeds the enumeration cap 30"),
        ({"command": "sweep", "n": 6, "h": 2, "auction": "derand", "limit": 5},
         "n=6 exceeds enumeration limit 5"),
        ({"command": "sweep", "n": 4, "h": 1 << 62, "auction": "dop"},
         "h*n = 18446744073709551616 is outside the int64 kernel domain h*n <= 16777216"),
        ({**MC, "n": 16385}, "n=16385 exceeds the Monte Carlo limit 16384"),
        ({"command": "dist-d", "n": 4300, "h": 10},
         "n=4300, h=10: the exact fields need h**n*h*n < 10**4300, "
         "the 4300-digit limit for printing an integer"),
        ({**MC, "n": 4300, "h": 10},
         "n=4300, h=10: the exact fields need h**n*h*n < 10**4300, "
         "the 4300-digit limit for printing an integer"),
        ({"command": "demo-dop", "h": 2, "n": 65538}, "n=65538 exceeds the demo limit 65536"),
        ({"command": "dist-d", "n": 7, "h": 2}, "n=7 must be divisible by h=2"),
        ({"command": "demo-dop", "h": 3, "n": 4}, "n=4 must be divisible by h=3"),
        ({"command": "sweep", "n": 7, "h": 2, "auction": "threshold-dop"},
         "n=7 must be divisible by h=2"),
        ({**MC, "n": 7, "auction": "threshold-dop"}, "n=7 must be divisible by h=2"),
        ({"command": "expectation", "n": 4, "h": 2, "bids": "HHXH"},
         "bid character 'X' not in {'L', 'H'}"),
        ({"command": "expectation", "n": 4, "h": 2, "bids": "HHH"},
         "expected 4 characters, got 3"),
        ({**MC, "samples": 10**18},
         "samples=1000000000000000000 exceeds the Monte Carlo limit 1073741824"),
        ({"command": "expectation", "n": 10**9, "h": 2},
         "n=1000000000 exceeds the expectation table limit 65536; pass --bids for one vector"),
        # before exact.square_free would trial-divide h*n for about half a minute
        ({"command": "expectation", "n": 2, "h": 10**25 + 13},
         "h*n = 20000000000000000000000026 exceeds 18446744073709551616, "
         "the limit for normalizing a loss by sqrt(h*n)"),
        ({"command": "sweep", "n": 2, "h": 10**25 + 13, "auction": "random"},
         "h*n = 20000000000000000000000026 exceeds 18446744073709551616, "
         "the limit for normalizing a loss by sqrt(h*n)"),
    ], ids=["enumeration-cap", "limit", "int64", "mc-n", "printable-dist-d", "printable-mc",
            "demo-limit", "divisible-dist-d", "divisible-demo-dop", "divisible-sweep",
            "divisible-mc", "bids-character", "bids-length", "samples", "expectation-table",
            "normalize-expectation", "normalize-sweep"])
    def test_domain_checked_before_any_entry_runs(
        self, capsys, tmp_path, no_handlers, bad, message
    ):
        single = [bad["command"]]
        for key, value in bad.items():
            if key != "command":
                single += [f"--{key}", str(value)]
        assert run_cli(capsys, *single) == (1, "", f"error: {message}\n")
        path = self.write(tmp_path, [{"command": "block-check", "n": 15, "h": 3}, bad])
        code, out, err = run_cli(capsys, "batch", path)
        assert (code, out, err) == (1, "", f"error: entry 1: {message}\n")

    def test_in_domain_entries_reach_their_handler(self, capsys, tmp_path, request):
        # the shared parser is built before the patch, with the real builders
        assert main(["demo-dop", "--h", "3"]) == 0
        request.getfixturevalue("no_handlers")
        with pytest.raises(AssertionError, match="demo-dop handler ran"):
            main(["demo-dop", "--h", "3"])
        path = self.write(tmp_path, [{"command": "block-check", "n": 15, "h": 3}])
        with pytest.raises(AssertionError, match="block-check handler ran"):
            main(["batch", path])
