"""Job lists and result checks for the benchmark workloads.

A job is one call into the package, timed on its own.  The workload seed
fixes the job order, every Monte Carlo seed and the bid strings; the sizes
are fixed, so runs with different seeds do the same amount of work.  Checks
run after every job of a pass has finished, outside the timed spans, so they
neither add to the timings nor warm a cache a later job would find cold.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from bivalued_auctions import analysis, cli
from bivalued_auctions.auctions import AUCTION_NAMES
from bivalued_auctions.core import AuctionParams

# Worst additive loss of the derandomized auction per (n, h), copied from the
# acceptance tests so that the benchmark's reference does not move with them.
PINNED_DERAND_LOSSES = {
    (4, 2): 3, (5, 2): 3, (6, 2): 4, (7, 2): 4, (8, 2): 4, (9, 2): 5,
    (10, 2): 5, (11, 2): 5, (12, 2): 6, (13, 2): 6, (14, 2): 6, (15, 2): 6,
    (16, 2): 6, (17, 2): 7, (18, 2): 6, (19, 2): 6, (20, 2): 7,
    (4, 3): 6, (5, 3): 5, (6, 3): 6, (7, 3): 8, (8, 3): 8, (9, 3): 6,
    (10, 3): 7, (11, 3): 8, (12, 3): 8, (13, 3): 8, (14, 3): 8, (15, 3): 8,
    (16, 3): 9, (17, 3): 10, (18, 3): 9, (19, 3): 8, (20, 3): 9,
    (4, 4): 6, (5, 4): 9, (6, 4): 8, (7, 4): 8, (8, 4): 9, (9, 4): 11,
    (10, 4): 10, (11, 4): 10, (12, 4): 11, (13, 4): 13, (14, 4): 12,
    (15, 4): 11, (16, 4): 13, (17, 4): 15, (18, 4): 14, (19, 4): 13,
    (20, 4): 15,
    (4, 8): 14, (5, 8): 14, (6, 8): 14, (7, 8): 21, (8, 8): 21, (9, 8): 21,
    (10, 8): 21, (11, 8): 20, (12, 8): 21, (13, 8): 21, (14, 8): 28,
    (15, 8): 28, (16, 8): 28, (17, 8): 27, (18, 8): 26, (19, 8): 26,
    (20, 8): 28,
}

# max of loss^2 / (n h) over the grid, attained at n=7, h=8
PINNED_C_SQUARED = Fraction(63, 8)

# A Monte Carlo mean further than this many standard errors from its exact
# expectation fails the job (about 2e-9 per check for a correct program).
MC_STDERR_MARGIN = 6

# Thread count of the timed sweeps and Monte Carlo runs: the machine the
# benchmark was sized on has two cores.
THREADS = 2

# Every REPEAT_EVERY-th exact-report call (in run order) is run again after
# the pass, and must print the same bytes.
REPEAT_EVERY = 8

Check = Callable[[object], Optional[str]]


@dataclass
class Job:
    """One timed call.  `check` returns None for a right result, else why not."""

    name: str
    work: int
    run: Callable[[], object]
    check: Check
    largest: bool = False


def grid_points(tiny: bool) -> list[tuple[int, int]]:
    """(n, h) of the pinned derand grid, or a corner of it for smoke runs."""
    hs, ns = ((2, 3), range(4, 9)) if tiny else ((2, 3, 4, 8), range(4, 21))
    return [(n, h) for h in hs for n in ns]


def build_jobs(
    workload: str, seed: int, pass_index: int, *, tiny: bool = False, pinned=None
) -> list[Job]:
    """The jobs of one pass, in run order."""
    rng = random.Random(f"{workload}/{seed}/{pass_index}")
    if workload == "certify-grid":
        jobs = _certify_grid(tiny, PINNED_DERAND_LOSSES if pinned is None else pinned)
    elif workload == "sample-hard":
        jobs = _sample_hard(tiny, rng, pass_index)
    elif workload == "exact-report":
        jobs = _exact_report(tiny, rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(jobs)
    if workload == "exact-report":
        for job in jobs[::REPEAT_EVERY]:
            job.check = _with_repeat(job)
    return jobs


# ---------------------------------------------------------------------------
# certify-grid: exhaustive sweeps and truthfulness checks
# ---------------------------------------------------------------------------


def _certify_grid(tiny: bool, pinned: dict) -> list[Job]:
    largest = (8, 3) if tiny else (20, 8)
    jobs = []
    for n, h in grid_points(tiny):
        for auction in AUCTION_NAMES:
            if auction == "threshold-dop" and n % h:
                continue
            jobs.append(
                Job(
                    f"sweep {auction} n={n} h={h}",
                    1 << n,
                    _sweep_call(n, h, auction),
                    _sweep_check(n, h, auction, pinned),
                    largest=auction == "derand" and (n, h) == largest,
                )
            )
    for n in (6,) if tiny else (16, 17, 18):
        for auction in ("dop", "derand", "random"):
            jobs.append(
                Job(
                    f"truthfulness {auction} n={n} h=3",
                    1 << n,
                    _truthfulness_call(n, 3, auction),
                    _no_violations,
                )
            )
    return jobs


def _sweep_call(n: int, h: int, auction: str):
    params = AuctionParams(n, h)
    return lambda: analysis.worst_case_sweep(params, auction, threads=THREADS)


def _sweep_check(n: int, h: int, auction: str, pinned: dict) -> Check:
    def check(profile) -> Optional[str]:
        loss = profile.global_worst
        if analysis.additive_loss(profile.witness, auction) != loss:
            return f"witness {profile.witness.to_string()} does not attain loss {loss}"
        if max(profile.per_nh_worst.values()) != loss:
            return "global worst differs from the per-count maximum"
        if auction == "derand":
            if pinned.get((n, h)) != loss:
                return f"loss {loss}, pinned {pinned.get((n, h))}"
            if Fraction(loss * loss, n * h) > PINNED_C_SQUARED:
                return f"loss {loss} exceeds C sqrt(n h) with C^2 = {PINNED_C_SQUARED}"
        return None

    return check


def _truthfulness_call(n: int, h: int, auction: str):
    params = AuctionParams(n, h)
    return lambda: analysis.bid_independence_violations(params, auction, limit=n)


def _no_violations(violations) -> Optional[str]:
    return f"{len(violations)} bidders can move their own offer" if violations else None


# ---------------------------------------------------------------------------
# sample-hard: Monte Carlo under the hard distribution
# ---------------------------------------------------------------------------


def _sample_hard(tiny: bool, rng: random.Random, pass_index: int) -> list[Job]:
    small = (20, 4, 3000) if tiny else (100, 10, 100_000)
    large = (40, 10, 600) if tiny else (1000, 10, 1 << 14)
    # one n=100 job per pass is rerun at 1 thread; passes take turns
    rerun = AUCTION_NAMES[pass_index % len(AUCTION_NAMES)]
    jobs = []
    for (n, h, samples), auctions in (
        (small, AUCTION_NAMES),
        (large, ("dop", "derand", "random")),
    ):
        for auction in auctions:
            mc_seed = rng.getrandbits(64)
            jobs.append(
                Job(
                    f"mc {auction} n={n} h={h} samples={samples}",
                    samples * n,
                    _mc_call(n, h, auction, samples, mc_seed, THREADS),
                    _mc_check(n, h, auction, samples, mc_seed, (n, auction) == (small[0], rerun)),
                    largest=auction == "random" and n == large[0],
                )
            )
    return jobs


def _mc_call(n: int, h: int, auction: str, samples: int, mc_seed: int, threads: int):
    return lambda: analysis.monte_carlo_under_d(n, h, auction, samples, mc_seed, threads=threads)


def mc_digest(report) -> tuple:
    return (
        report.mc_mean_auction,
        report.mc_stderr_auction,
        report.mc_mean_opt,
        report.mc_stderr_opt,
    )


def _mc_check(n: int, h: int, auction: str, samples: int, mc_seed: int, recheck: bool) -> Check:
    def check(report) -> Optional[str]:
        if report.exact_e_dop != n or report.exact_e_opt - n != report.gap:
            return "exact identities missing or wrong"
        if abs(report.mc_mean_auction - n) > MC_STDERR_MARGIN * report.mc_stderr_auction:
            return f"auction mean {report.mc_mean_auction} too far from {n}"
        expected_opt = n + float(report.gap)
        if abs(report.mc_mean_opt - expected_opt) > MC_STDERR_MARGIN * report.mc_stderr_opt:
            return f"benchmark mean {report.mc_mean_opt} too far from {expected_opt}"
        if recheck and mc_digest(_mc_call(n, h, auction, samples, mc_seed, 1)()) != mc_digest(report):
            return "1-thread and 2-thread runs differ"
        return None

    return check


# ---------------------------------------------------------------------------
# exact-report: in-process CLI calls
# ---------------------------------------------------------------------------


def run_cli(argv: list[str]) -> tuple[int, str]:
    """cli.main with stdout and stderr captured: (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def _exact_report(tiny: bool, rng: random.Random) -> list[Job]:
    if tiny:
        dist_csv, dist_json = [(20, 2), (30, 3)], [(40, 4)]
        tables, bid_ns, bid_hs = [(10, 3), (20, 3)], (10, 20), (2,)
        demo_hs, sweeps, blocks = (2, 3), [(8, 2), (9, 3)], [(6, 2), (7, 3)]
        largest = ("dist-d", 30)
    else:
        dist_csv = [(60, 2), (120, 3), (200, 4), (300, 5), (400, 8), (500, 10),
                    (600, 6), (800, 8), (1000, 10)]
        dist_json = [(100, 4), (240, 6), (360, 9)]
        tables = [(n, h) for n in (50, 100, 200, 300, 500) for h in (3, 7)]
        bid_ns, bid_hs = (20, 50, 100, 150, 200, 250), (2, 5, 9)
        demo_hs = range(2, 12)
        sweeps = [(n, h) for n in range(8, 21, 2) for h in (2, 5)]
        blocks = [(8, 2), (9, 3), (10, 4), (11, 3), (12, 3), (12, 5)]
        largest = ("dist-d", 1000)

    calls = []
    for n, h in dist_csv:
        calls.append(["dist-d", "--n", str(n), "--h", str(h)])
    for n, h in dist_json:
        calls.append(["dist-d", "--n", str(n), "--h", str(h), "--format", "json"])
    for n, h in tables:
        for fmt in ("csv", "json"):
            calls.append(["expectation", "--n", str(n), "--h", str(h), "--format", fmt])
    for n in bid_ns:
        for h in bid_hs:
            # the cost depends on the high count only, so the seed moves the
            # high bids but not how many there are
            for high in (n // 5, 3 * n // 5):
                bids = ["H"] * high + ["L"] * (n - high)
                rng.shuffle(bids)
                calls.append(["expectation", "--n", str(n), "--h", str(h), "--bids", "".join(bids)])
    for h in demo_hs:
        calls.append(["demo-dop", "--h", str(h)] + (["--format", "json"] if h % 2 else []))
    for i, (n, h) in enumerate(sweeps):
        calls.append(["sweep", "--n", str(n), "--h", str(h), "--auction", "random"]
                     + (["--format", "json"] if i % 2 else []))
    for n, h in blocks:
        calls.append(["block-check", "--n", str(n), "--h", str(h)])

    jobs = []
    for argv in calls:
        name = " ".join(a if len(a) <= 24 else a[:8] + "..." for a in argv)
        is_largest = argv[0] == largest[0] and int(argv[2]) == largest[1]
        jobs.append(Job(name, 1, _cli_call(argv), _cli_check(argv), largest=is_largest))
    return jobs


def _cli_call(argv: list[str]):
    return lambda: run_cli(argv)


def _cli_check(argv: list[str]) -> Check:
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "csv"

    def check(result) -> Optional[str]:
        code, text = result
        if code != 0:
            return f"exit code {code}"
        if fmt == "json":
            try:
                rows = json.loads(text)["rows"]
            except (ValueError, KeyError) as exc:
                return f"output is not the JSON report: {exc}"
        else:
            rows = list(csv.DictReader(io.StringIO(text)))
        if not rows:
            return "no rows"
        if argv[0] == "dist-d":
            n = int(argv[2])
            if fmt == "json":
                e_dop = rows[0]["exact_e_dop"]
                ok = (e_dop["num"], e_dop["den"]) == (str(n), "1")
            else:
                ok = rows[0]["revenue"] == f"{n}.000000000"
            if not ok:
                return f"expected auction revenue is not n={n}"
        return None

    return check


def _with_repeat(job: Job) -> Check:
    first_check = job.check

    def check(result) -> Optional[str]:
        problem = first_check(result)
        if problem is None and job.run() != result:
            return "repeated call printed different bytes"
        return problem

    return check
