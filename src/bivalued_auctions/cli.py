"""Experiment runner.

Every analysis operation is exposed as a subcommand emitting CSV or JSON over
one fixed column set (see reports.CSV_COLUMNS).  Identical invocations give
byte-identical output; Monte Carlo randomness is fully determined by --seed.
Each subcommand is declared once, in build_parser: its subparser carries the
command's domain check and row builder as the defaults `domain` and `rows`.
The four commands that print a loss (sweep, demo-dop, dist-d, expectation)
build their rows with one constructor, _loss_row, the only place that
derives loss = opt - revenue.  Its call of certify._normalize is the
package's only normalization loss / sqrt(n*h): the sweep returns its worst
loss, and the row divides it once.  So the bound h*n <= 2**64 of that
normalization is checked here too, by _sweep_domain and _expectation_domain,
not by the library sweep.

`main` may be called many times in one process.  The parser is built on the
first call, not at import, and every later call and every `batch` reuse it.
In-process callers, `batch` and the tests gain; a one-shot run builds the
parser once either way.  `main` maps every failure, from the domain check to
the write, to one exit code.

Four commands load numpy: `sweep --auction derand`, `dist-d`, `mc` and
`block-check`.  The last three import analysis when their row builders run;
the derand sweep's certify.worst_case_sweep imports numpy and enumeration,
not analysis.  So a process that runs only `expectation`, `demo-dop` and
the dop, threshold-dop and random sweeps never imports numpy; every domain
check, batch's included, is numpy-free.

Exit codes: 0 success, 1 usage or configuration error, 2 violated exact
invariant (the regression alarm, wired to the identity checks).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional

from . import certify, reports
from .auctions import AUCTION_NAMES, expected_revenue_by_count
from .certify import DEFAULT_ENUMERATION_LIMIT, IdentityCheckError
from .core import AuctionParams, BidVector, count_high, offline_optimal


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors by default; the contract here is 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _h_value(text: str) -> int:
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError("must be >= 2")
    return value


def _seed_value(text: str) -> int:
    value = int(text)
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError("must fit in 64 bits")
    return value


def build_parser() -> _Parser:
    parser = _Parser(
        prog="bivalued-auctions",
        description="Worst-case and distributional experiments for two-price auctions.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def over_n_h(name: str, **about) -> argparse.ArgumentParser:
        """A subcommand whose first flags are the required --n and --h."""
        sp = sub.add_parser(name, **about)
        sp.add_argument("--n", type=_positive_int, required=True)
        sp.add_argument("--h", type=_h_value, required=True)
        return sp

    about = (
        "worst additive loss over all bid vectors, maximized per high count k "
        "(and per high-index sum S for derand) without enumerating vectors"
    )
    sp = over_n_h("sweep", help=about, description=about)
    sp.add_argument("--auction", choices=AUCTION_NAMES, required=True)
    sp.add_argument("--threads", type=_positive_int,
                    help="accepted for compatibility; the sweep runs on one thread")
    sp.add_argument("--limit", type=_positive_int, default=DEFAULT_ENUMERATION_LIMIT,
                    help="largest n accepted")
    sp.set_defaults(domain=_sweep_domain, rows=_sweep_rows)

    sp = sub.add_parser("demo-dop", help="exhibit the deterministic-offer failure ratio h")
    sp.add_argument("--h", type=_h_value, required=True)
    sp.add_argument("--n", type=_positive_int, default=None, help="defaults to h*h")
    sp.set_defaults(domain=lambda ns: certify.check_demo(ns.h, ns.n), rows=_demo_dop_rows)

    sp = over_n_h("dist-d", help="exact expectation identities under the hard distribution")
    sp.set_defaults(domain=lambda ns: certify.check_identities(ns.n, ns.h), rows=_dist_d_rows)

    sp = over_n_h("mc", help="Monte Carlo revenue estimates under the hard distribution")
    sp.add_argument("--auction", choices=AUCTION_NAMES, required=True)
    sp.add_argument("--samples", type=_positive_int, required=True)
    sp.add_argument("--seed", type=_seed_value, required=True)
    sp.add_argument("--threads", type=_positive_int, help="defaults to every core")
    sp.set_defaults(rows=_mc_rows, domain=lambda ns: certify.check_monte_carlo(
        ns.n, ns.h, ns.auction, ns.samples, ns.seed, threads=ns.threads))

    sp = over_n_h("block-check", help="verify derandomized offer block structure on every vector")
    sp.add_argument("--limit", type=_positive_int, default=DEFAULT_ENUMERATION_LIMIT)
    sp.set_defaults(
        domain=lambda ns: certify.check_block_sweep(AuctionParams(ns.n, ns.h), ns.limit),
        rows=_block_check_rows,
    )

    sp = over_n_h("expectation", help="exact expected revenue of the randomized auction")
    sp.add_argument("--bids", default=None,
                    help="H/L string for one vector; omit for the full per-count table")
    sp.set_defaults(domain=_expectation_domain, rows=_expectation_rows)

    sp = sub.add_parser("batch", help="run a JSON array of experiment configs, one aggregated report")
    sp.add_argument("config", help="path to a JSON array of config objects")
    sp.add_argument("--threads", type=_positive_int, help="defaults to every core")
    sp.add_argument("--limit", type=_positive_int, default=DEFAULT_ENUMERATION_LIMIT,
                    help="default enumeration cap for entries that do not set one")
    # _batch_rows checks each entry's domain before any entry runs
    sp.set_defaults(domain=lambda ns: None, rows=_batch_rows)

    for sp in sub.choices.values():
        sp.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
        sp.add_argument("--output", default=None, help="write to this file instead of stdout")
    return parser


# ---------------------------------------------------------------------------
# Row builders: each returns plain dict rows; reports reads absent columns as
# empty and renders keys outside CSV_COLUMNS as JSON-only fields, in order
# ---------------------------------------------------------------------------


def _loss_row(command: str, n: int, h: int, auction: str, n_h: int, opt, revenue, **extra) -> dict:
    """The row of every command that prints a loss: loss = opt - revenue and
    its normalization loss / sqrt(n*h), then the command's own fields."""
    loss = opt - revenue
    return {
        "command": command, "n": n, "h": h, "auction": auction, "n_h": n_h,
        "opt": opt, "revenue": revenue, "loss": loss,
        "normalized_loss": certify._normalize(loss, n, h), **extra,
    }


def _sweep_rows(ns: argparse.Namespace) -> list[dict]:
    params = AuctionParams(ns.n, ns.h)
    profile = certify.worst_case_sweep(params, ns.auction, limit=ns.limit, threads=ns.threads)
    witness = profile.witness
    opt = offline_optimal(witness)
    return [_loss_row(
        "sweep", ns.n, ns.h, ns.auction, count_high(witness), opt, opt - profile.global_worst,
        witness=witness.to_string(),
        per_nh_worst={str(k): v for k, v in sorted(profile.per_nh_worst.items())},
    )]


def _demo_dop_rows(ns: argparse.Namespace) -> list[dict]:
    b, ratio = certify._dop_demo(ns.h, ns.n)
    # ratio = opt / revenue, opt = n, revenue an integer
    return [_loss_row("demo-dop", b.n, ns.h, "dop", count_high(b), b.n, b.n // ratio, ratio=ratio)]


def _dist_d_rows(ns: argparse.Namespace) -> list[dict]:
    from . import analysis

    e_opt, e_dop, gap = analysis.check_distribution_identities(ns.n, ns.h)
    # the check certified e_opt - e_dop == gap, the row's loss
    return [_loss_row(
        "dist-d", ns.n, ns.h, "threshold-dop", ns.n // ns.h, e_opt, e_dop,
        gap_exact_num=gap.numerator, gap_exact_den=gap.denominator,
        exact_e_opt=e_opt, exact_e_dop=e_dop,
    )]


def _mc_rows(ns: argparse.Namespace) -> list[dict]:
    from . import analysis

    report = analysis.monte_carlo_under_d(
        ns.n, ns.h, ns.auction, ns.samples, ns.seed, threads=ns.threads
    )
    rows = []
    for auction, mean, stderr, exact_key, exact in (
        (ns.auction, report.mc_mean_auction, report.mc_stderr_auction,
         "exact_e_dop", report.exact_e_dop),
        ("opt", report.mc_mean_opt, report.mc_stderr_opt, "exact_e_opt", report.exact_e_opt),
    ):
        row = {
            "command": "mc", "n": ns.n, "h": ns.h, "auction": auction,
            "samples": ns.samples, "seed": ns.seed, "mean": mean, "stderr": stderr,
        }
        if report.gap is not None:
            row["gap_exact_num"] = report.gap.numerator
            row["gap_exact_den"] = report.gap.denominator
            row[exact_key] = exact
        rows.append(row)
    return rows


def _block_check_rows(ns: argparse.Namespace) -> list[dict]:
    from . import analysis

    params = AuctionParams(ns.n, ns.h)
    checked, failure = analysis.block_structure_sweep(params, limit=ns.limit)
    if failure is not None:
        b, violation = failure
        raise IdentityCheckError(
            "derand-block-structure",
            f"vector {b.to_string()}, {violation.bidder_class} block {violation.block_index}: "
            f"{violation.offered_high} h-offers, expected {violation.expected}",
        )
    return [{"command": "block-check", "n": ns.n, "h": ns.h, "auction": "derand",
             "samples": checked}]


def _expectation_rows(ns: argparse.Namespace) -> list[dict]:
    if ns.bids is None:
        return [_expectation_row(ns.n, ns.h, k) for k in range(ns.n + 1)]
    vector = BidVector.from_string(AuctionParams(ns.n, ns.h), ns.bids)
    return [_expectation_row(ns.n, ns.h, count_high(vector), bids=ns.bids)]


def _expectation_row(n: int, h: int, k: int, **extra) -> dict:
    """The randomized auction's exact expected loss on vectors with k high bids."""
    opt, revenue = max(n, h * k), expected_revenue_by_count(n, h, k)
    return _loss_row("expectation", n, h, "random", k, opt, revenue, **extra)


# ---------------------------------------------------------------------------
# Batch mode
# ---------------------------------------------------------------------------


def _validate_entry(
    index: int, entry: object, subparsers: dict[str, argparse.ArgumentParser],
    args: argparse.Namespace,
) -> argparse.Namespace:
    """Check one entry against its subcommand's flags and domain: each field is
    a flag, and each value passes that flag's converter or choices."""
    if not isinstance(entry, dict):
        raise ValueError(f"entry {index}: must be an object")
    command = entry.get("command")
    if command not in tuple(subparsers):  # not a dict lookup: a list command is unhashable
        raise ValueError(
            f"entry {index}: field 'command' must be one of {', '.join(subparsers)}"
        )
    sp = subparsers[command]
    # argparse has no public way to read a parser's arguments back, so an
    # entry's fields are its subparser's _actions, less help and threads;
    # the batch sets threads for every entry
    actions = [a for a in sp._actions if a.dest not in ("help", "threads")]
    for key in entry:
        if key != "command" and key not in {a.dest for a in actions}:
            raise ValueError(f"entry {index}: unknown field {key!r} for command {command!r}")
    for action in actions:
        if action.required and action.dest not in entry:
            raise ValueError(f"entry {index}: missing field {action.dest!r}")

    ns = argparse.Namespace(**{a.dest: a.default for a in actions})
    ns.command, ns.threads, ns.limit = command, args.threads, args.limit
    ns.rows = sp.get_default("rows")
    for action in actions:
        key = action.dest
        # per-entry output settings are meaningless in an aggregated report;
        # tolerated so one config file can also drive single runs
        if key not in entry or key in ("format", "output"):
            continue
        value = entry[key]
        if action.choices is not None:
            if value not in action.choices:
                raise ValueError(
                    f"entry {index}: field {key!r} must be one of {', '.join(action.choices)}"
                )
        elif action.type is not None:
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"entry {index}: field {key!r} must be an integer")
            try:
                value = action.type(str(value))
            except argparse.ArgumentTypeError as exc:
                raise ValueError(f"entry {index}: field {key!r} {exc}") from None
        elif not isinstance(value, str):
            raise ValueError(f"entry {index}: field {key!r} must be a string")
        setattr(ns, key, value)
    try:
        sp.get_default("domain")(ns)
    except ValueError as exc:
        raise ValueError(f"entry {index}: {exc}") from None
    return ns


def _batch_rows(args: argparse.Namespace) -> list[dict]:
    with open(args.config, encoding="utf-8") as fh:
        try:
            entries = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{args.config}: parse failure at line {exc.lineno}: {exc.msg}")
        except RecursionError:
            raise ValueError(f"{args.config}: parse failure: nested too deeply") from None
    if not isinstance(entries, list):
        raise ValueError(f"{args.config}: top level must be a JSON array")
    commands = next(a for a in _parser()._actions if a.dest == "command").choices
    subparsers = {name: sp for name, sp in commands.items() if name != "batch"}
    # Validate everything, domains included, before running anything: one
    # bad entry must fail the whole batch at once, with no partial output.
    jobs = [_validate_entry(i, entry, subparsers, args) for i, entry in enumerate(entries)]
    return [row for ns in jobs for row in ns.rows(ns)]


def _sweep_domain(ns: argparse.Namespace) -> None:
    certify.check_sweep(AuctionParams(ns.n, ns.h), ns.auction, ns.limit)
    certify._require_normalizable(ns.n, ns.h)


# The per-count table costs about 0.02 ms and 1.1 KB per row: its 2**16 + 1
# rows at this cap took 1.4 s at h = 10, with an 89 MB process peak.
EXPECTATION_N_LIMIT = 1 << 16


def _expectation_domain(ns: argparse.Namespace) -> None:
    certify._require_normalizable(ns.n, ns.h)
    if ns.bids is not None:
        BidVector.from_string(AuctionParams(ns.n, ns.h), ns.bids)
    elif ns.n > EXPECTATION_N_LIMIT:
        raise ValueError(f"n={ns.n} exceeds the expectation table limit "
                         f"{EXPECTATION_N_LIMIT}; pass --bids for one vector")


@functools.cache
def _parser() -> _Parser:
    """The parser every call in this process shares, built on the first.

    Parsing leaves no state on it: each parse_args builds a new Namespace,
    and --help makes a new formatter, which reads the terminal width then."""
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        args.domain(args)
        reports.write_report(reports.render(args.rows(args), args.format), args.output)
    except IdentityCheckError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
