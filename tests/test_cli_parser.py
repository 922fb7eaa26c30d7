"""One parser per process: `cli.main` builds its parser on the first call, and
every later call, `batch` included, reuses it.

The shared parser must carry nothing from one call to the next, and must not
fix the help width when it is built.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import pytest

from bivalued_auctions import cli

CASES = json.loads((Path(__file__).parent / "cli_golden.json").read_text(encoding="utf-8"))

# one usage error, one help page and one domain rejection, with the exit code
# and stderr each must give whatever ran before it
USAGE = (["sweep", "--n", "3"], 1,
         "bivalued-auctions sweep: error: the following arguments are required: --h, --auction\n")
HELP = (["sweep", "--help"], 0, "")
REJECTED = (["dist-d", "--n", "5", "--h", "2"], 1, "error: n=5 must be divisible by h=2\n")


def run(capsys, argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process call, usage exits too."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def subparser(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    return next(a for a in parser._actions if a.dest == "command").choices[name]


def write_config(tmp_path, entries) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(entries), encoding="utf-8")
    return str(path)


def test_golden_cases_both_ways_between_errors_and_help(capsys, tmp_path):
    sweep_help = subparser(cli.build_parser(), "sweep").format_help()
    extras = [USAGE, HELP, REJECTED]
    for i, case in enumerate(CASES + CASES[::-1]):
        argv = case["argv"]
        if "config" in case:
            argv = [write_config(tmp_path, case["config"]) if a == "CONFIG" else a
                    for a in argv]
        code, out, _ = run(capsys, argv)
        assert (code, out) == (case["code"], case["stdout"]), argv
        argv, code, err_end = extras[i % len(extras)]
        got_code, out, err = run(capsys, argv)
        assert got_code == code and err.endswith(err_end), argv
        assert out == (sweep_help if argv == HELP[0] else ""), argv


def test_later_calls_construct_no_parser(capsys, tmp_path, monkeypatch):
    cli.main(["expectation", "--n", "2", "--h", "2"])
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    config = write_config(tmp_path, [{"command": "demo-dop", "h": 2},
                                     {"command": "expectation", "n": 4, "h": 2}])
    for argv in (
        ["sweep", "--n", "6", "--h", "3", "--auction", "dop"],
        ["demo-dop", "--h", "2"],
        ["dist-d", "--n", "4", "--h", "2"],
        ["mc", "--n", "4", "--h", "2", "--auction", "dop", "--samples", "8",
         "--seed", "1", "--threads", "1"],
        ["block-check", "--n", "4", "--h", "2"],
        ["expectation", "--n", "4", "--h", "2"],
        ["batch", config],
    ):
        assert cli.main(argv) == 0, argv
    capsys.readouterr()
    assert built == []
    # the count sees every construction: a fresh parser is one per command, plus the root
    cli.build_parser()
    assert len(built) == 8


def test_help_follows_the_terminal_width_when_printed(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")
    cli._parser.cache_clear()  # the shared parser is built at a third width
    cli.main(["demo-dop", "--h", "2"])
    capsys.readouterr()
    printed = []
    for columns in ("60", "120"):
        monkeypatch.setenv("COLUMNS", columns)
        code, out, _ = run(capsys, ["sweep", "--help"])
        assert code == 0
        assert out == subparser(cli.build_parser(), "sweep").format_help(), columns
        printed.append(out)
    assert printed[0] != printed[1]
