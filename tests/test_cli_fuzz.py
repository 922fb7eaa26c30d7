"""Fuzz of the command line: every input ends in exit 0, 1 or 2.

Sizes are bounded so that each example runs in well under a second; h is
not, and reaches 2**62.  Values may be malformed, out of range or not
divisible, and batch files may be any text, any JSON or a list of entries
with wrong fields.  An exception escaping `main` is a traceback a user
would see, so it fails the test as it stands.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bivalued_auctions.cli import main

FUZZ = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

AUCTIONS = ("dop", "threshold-dop", "derand", "random")
H_VALUES = st.one_of(
    st.integers(2, 12),
    st.integers(2, 12),
    st.integers(2, 1 << 62),
    st.sampled_from([1 << 24, 1 << 31, (1 << 62) - 1, 1 << 62]),
)


def _mostly(valid, invalid):
    """valid nine times in ten, else invalid."""
    return st.integers(0, 9).flatmap(lambda r: invalid if r == 9 else valid)


def _int_arg(values):
    # malformed or out-of-range text for an integer flag; never a large valid size
    bad = st.sampled_from(["0", "-1", "1", "abc", "", "2.5", "1e3", "0x10", "-99999999999999999999"])
    return _mostly(values.map(str), bad)


def _maybe(name, values):
    """Either nothing or [--name value]."""
    return st.one_of(st.just([]), values.map(lambda v: [f"--{name}", v]))


@st.composite
def _command(draw, name, required, optional=()):
    argv = [name]
    for key, values in required:
        argv += [f"--{key}", draw(values)]
    for key, values in optional:
        argv += draw(_maybe(key, values))
    argv += draw(_maybe("format", _mostly(st.sampled_from(["csv", "json"]), st.just("xml"))))
    return argv


def N(upper):
    return _int_arg(st.integers(1, upper))


H = _int_arg(H_VALUES)
AUCTION = _mostly(st.sampled_from(AUCTIONS), st.just("vickrey"))
THREADS = _int_arg(st.integers(1, 3))


@st.composite
def _divisible(draw):
    """A command that needs h | n, with n a multiple of h."""
    name = draw(st.sampled_from(["dist-d", "demo-dop", "sweep", "mc"]))
    h = draw(st.integers(2, 12))
    n = h * draw(st.integers(1, 20 // h + 1))
    argv = [name, "--n", str(n), "--h", str(h)]
    if name in ("sweep", "mc"):
        argv += ["--auction", "threshold-dop", "--limit" if name == "sweep" else "--samples", "999"]
    if name == "mc":
        argv += ["--seed", str(draw(st.integers(0, (1 << 64) - 1)))]
    return argv


SINGLE_COMMANDS = st.one_of(
    _divisible(),
    _command("sweep", [("n", N(24)), ("h", H), ("auction", AUCTION)],
             [("threads", THREADS), ("limit", N(24))]),
    _command("demo-dop", [("h", H)], [("n", N(300))]),
    _command("dist-d", [("n", N(300)), ("h", H)]),
    _command("mc", [("n", N(60)), ("h", H), ("auction", AUCTION), ("samples", N(3000)),
                    ("seed", _int_arg(st.integers(-5, (1 << 64) + 5)))],
             [("threads", THREADS)]),
    _command("block-check", [("n", N(10)), ("h", H)], [("limit", N(12))]),
    _command("expectation", [("n", N(40)), ("h", H)],
             [("bids", _mostly(st.text(alphabet="HL", max_size=42),
                               st.text(alphabet="HLhlx ßǈ0", max_size=42)))]),
)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(1 << 70), 1 << 70) | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
ENTRY_REQUIRED = {
    "sweep": ("n", "h", "auction"),
    "demo-dop": ("h",),
    "dist-d": ("n", "h"),
    "mc": ("n", "h", "auction", "samples", "seed"),
    "block-check": ("n", "h"),
    "expectation": ("n", "h"),
}
ENTRY_FIELDS = {
    "n": _mostly(st.integers(1, 12), st.sampled_from([0, -2, 2.0, "4", True])),
    "h": _mostly(st.integers(2, 6), st.sampled_from([1, 1 << 62, 1 << 64, None])),
    "auction": AUCTION,
    "samples": _mostly(st.integers(1, 500), st.just(0)),
    "seed": _mostly(st.integers(0, 1 << 20), st.sampled_from([-1, 1 << 64])),
    "limit": _mostly(st.integers(1, 14), st.just(-1)),
    "bids": _mostly(st.text(alphabet="HL", max_size=14), st.one_of(st.integers(), st.text())),
    "format": st.sampled_from(["csv", "json"]),
}


@st.composite
def _entry(draw):
    command = draw(_mostly(st.sampled_from(sorted(ENTRY_REQUIRED)), st.sampled_from(["batch", 7])))
    entry = {"command": command}
    for key in ENTRY_REQUIRED.get(command, ()):
        if draw(_mostly(st.just(True), st.just(False))):
            entry[key] = draw(ENTRY_FIELDS[key])
    for key in draw(st.sets(st.sampled_from(sorted(ENTRY_FIELDS) + ["color"]), max_size=2)):
        entry[key] = draw(ENTRY_FIELDS.get(key, JSON_VALUES))
    return entry


BATCH_TEXT = st.one_of(
    st.lists(_entry(), max_size=4).map(json.dumps),
    st.lists(_entry(), max_size=4).map(json.dumps),
    st.lists(st.one_of(_entry(), JSON_VALUES), max_size=4).map(json.dumps),
    JSON_VALUES.map(json.dumps),
    st.text(max_size=40),
    st.sampled_from(["", "[", "[{}", "[" * 5000 + "]" * 5000]),
)


def _run(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: usage errors and --help
            code = exc.code
    return code, err.getvalue()


def _assert_clean(argv: list[str]) -> None:
    code, err = _run(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)


@FUZZ
@given(SINGLE_COMMANDS)
def test_single_commands_exit_cleanly(argv):
    _assert_clean(argv)


@FUZZ
@given(BATCH_TEXT, st.sampled_from(["csv", "json"]), _maybe("limit", N(12)))
def test_batch_files_exit_cleanly(text, fmt, limit):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "batch.json")
        with open(path, "w", encoding="utf-8", errors="surrogatepass") as fh:
            fh.write(text)
        _assert_clean(["batch", path, "--format", fmt, "--threads", "1"] + limit)


def test_batch_path_errors_exit_one():
    with tempfile.TemporaryDirectory() as tmp:
        for path in (tmp, os.path.join(tmp, "absent.json")):
            code, err = _run(["batch", path])
            assert code == 1 and err.startswith("error:"), (path, err)
        path = os.path.join(tmp, "latin1.json")
        with open(path, "wb") as fh:
            fh.write(b'[{"command": "demo-dop", "h": 2, "bids": "\xff"}]')
        code, err = _run(["batch", path])
        assert code == 1 and err.startswith("error:"), err
