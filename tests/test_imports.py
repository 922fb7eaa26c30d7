"""What importing the package and running each command loads.

The exact commands (`expectation`, `demo-dop` and the dop, threshold-dop and
random sweeps) run on ints and exact numbers, so a process that runs only
them never imports numpy.  The derandomized sweep loads numpy, but not
analysis: certify owns the whole sweep and imports nothing from analysis.
Each case runs in a fresh interpreter, since this test process has numpy
loaded already.  The package's names resolve lazily, from the module each
one lives in.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bivalued_auctions

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import contextlib, io, sys
{setup}
print(*(name for name in {modules!r} if name in sys.modules))
"""

RUN_CLI = """
from bivalued_auctions import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main({argv!r})
assert code == 0, code
"""


def run_fresh(code: str) -> str:
    """The last line that `code` prints in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def modules_loaded(setup: str, *modules: str) -> set[str]:
    """Which of `modules` a fresh interpreter has loaded after running `setup`."""
    return set(run_fresh(PROBE.format(setup=setup, modules=modules)).split())


def numpy_loaded(setup: str) -> bool:
    """Whether a fresh interpreter has numpy loaded after running `setup`."""
    return modules_loaded(setup, "numpy") == {"numpy"}


def cli_loads_numpy(*argv: str) -> bool:
    return numpy_loaded(RUN_CLI.format(argv=list(argv)))


EXACT_COMMANDS = [
    ("expectation", "--n", "10", "--h", "2"),
    ("expectation", "--n", "10", "--h", "2", "--bids", "HLHLLLLLLL", "--format", "json"),
    ("demo-dop", "--h", "3"),
    ("sweep", "--n", "12", "--h", "3", "--auction", "dop"),
    ("sweep", "--n", "12", "--h", "3", "--auction", "threshold-dop"),
    ("sweep", "--n", "12", "--h", "3", "--auction", "random", "--format", "json"),
]


@pytest.mark.parametrize(
    "setup", ["import bivalued_auctions", "import bivalued_auctions.cli"]
)
def test_import_loads_no_numpy(setup):
    assert not numpy_loaded(setup)


@pytest.mark.parametrize("argv", EXACT_COMMANDS, ids=" ".join)
def test_exact_command_loads_no_numpy(argv):
    assert not cli_loads_numpy(*argv)


def test_batch_of_exact_commands_loads_no_numpy(tmp_path):
    entries = [
        {"command": "expectation", "n": 10, "h": 2},
        {"command": "expectation", "n": 10, "h": 2, "bids": "HLHLLLLLLL"},
        {"command": "demo-dop", "h": 3},
    ] + [{"command": "sweep", "n": 12, "h": 3, "auction": auction}
         for auction in ("dop", "threshold-dop", "random")]
    config = tmp_path / "exact.json"
    config.write_text(json.dumps(entries))
    assert not cli_loads_numpy("batch", str(config))


def test_derand_sweep_loads_numpy():
    # the other side of the line: the (k, S) scan is array work, but it runs
    # in certify, so analysis stays unloaded
    setup = RUN_CLI.format(argv=["sweep", "--n", "12", "--h", "3", "--auction", "derand"])
    assert modules_loaded(setup, "numpy", "bivalued_auctions.analysis") == {"numpy"}


# ---------------------------------------------------------------------------
# The lazy package surface
# ---------------------------------------------------------------------------


def home_object(name: str):
    home = importlib.import_module(f"bivalued_auctions.{bivalued_auctions._HOME[name]}")
    value = getattr(home, name)
    if callable(value):  # defined there, not re-exported from elsewhere
        assert value.__module__ == home.__name__, name
    return value


@pytest.mark.parametrize("name", bivalued_auctions.__all__)
def test_every_public_name_resolves_to_its_home_object(name):
    assert getattr(bivalued_auctions, name) is home_object(name)
    assert getattr(bivalued_auctions, name) is home_object(name)  # once bound, too


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from bivalued_auctions import *", namespace)
    names = set(namespace) - {"__builtins__"}
    assert names == set(bivalued_auctions.__all__)
    for name in names:
        assert namespace[name] is home_object(name)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        bivalued_auctions.no_such_name
    with pytest.raises(ImportError):
        exec("from bivalued_auctions import no_such_name", {})
    assert not hasattr(bivalued_auctions, "no_such_name")


def test_dir_lists_every_public_name():
    assert set(bivalued_auctions.__all__) <= set(dir(bivalued_auctions))
    # in a fresh interpreter, before any name is bound by use, and loading no numpy
    listed = run_fresh(
        "import sys, bivalued_auctions as b; print(*dir(b), 'numpy' in sys.modules)"
    ).split()
    assert set(bivalued_auctions.__all__) <= set(listed[:-1])
    assert listed[-1] == "False"


# ---------------------------------------------------------------------------
# The edge between certify and analysis
# ---------------------------------------------------------------------------

CERTIFY = SRC / "bivalued_auctions" / "certify.py"


def test_certify_imports_nothing_from_analysis():
    tree = ast.parse(CERTIFY.read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    imported = [
        name for node in imports
        for name in (getattr(node, "module", None) or "", *(alias.name for alias in node.names))
    ]
    # the walk reaches the scan's imports inside its function, too
    assert {"auctions", "enumeration", "numpy"} <= set(imported)
    assert not any("analysis" in name.split(".") for name in imported)
    assert "analysis" not in {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_analysis_binds_only_the_certify_names_it_uses():
    from bivalued_auctions import analysis, certify

    tree = ast.parse(CERTIFY.read_text(encoding="utf-8"))
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined |= {target.id for target in node.targets}
    assert {"worst_case_sweep", "_derand_worst_by_class", "MC_N_LIMIT", "Loss"} <= defined
    bound = defined & set(vars(analysis))
    assert bound == {
        "DEFAULT_ENUMERATION_LIMIT", "IdentityCheckError", "Loss", "LossProfile",
        "_check_sweep_args", "_require_enumerable", "check_block_sweep",
        "check_identities", "check_monte_carlo",
        # read as analysis.X by perfbench
        "worst_case_sweep", "additive_loss",
    }
    for name in bound:
        assert getattr(analysis, name) is getattr(certify, name), name
