"""The hard-distribution fast paths against the straightforward ones.

`exact_e_opt_under_d` and `exact_e_dop_under_d` sum integer numerators over
the one denominator h**n; the oracle here sums one Fraction per count.
E[threshold-DOP] = n reads the count kernel `auctions.count_revenues`, so
a wrong kernel breaks `dist-d`; the same identity is held here, in Python
ints and in surds, for DOP with h not dividing n and for the randomized
auction.
The derandomized auction's revenue is a function of k and of the high
bidders' index sum S, so its identity sums `derand_revenues` over every
(k, S), weighted by the number of k-subsets with sum S (a subset-sum DP), in
Python ints to n = 30 and modulo two primes to n = 100.
`_sample_revenues` draws in fixed-size row blocks, as int32, and settles
each block as it is drawn; the oracle draws the whole chunk at once as int64
and gathers each bidder's threshold.  Both must agree exactly, down to the
generator's state after the draws, with the randomized auction's coins read
from the chunk's own generator or, as a cut chunk's range reads them, from a
second one positioned after the bids.  At h = 3000 the chunk's bid draws
are rejected about 9 times, and the coins must still start where the bids
end.  tracemalloc holds one call's peak well below its (rows, n) bid
matrix.
`monte_carlo_under_d` cuts its chunks into row ranges when it has fewer
chunks than workers, each read from a generator positioned by `_stream_at`;
its whole report must equal the sums of one `_sample_revenues` call per
chunk on the calling thread, at 1, 2 and 3 workers.  A rejected bid draw
moves every later range's start, so a cut chunk with one is redrawn whole: at
h = 100 (about 0.37 rejections per chunk) a chunk is still cut and a pinned
seed redraws it, and at h = 3000 (about 9) no chunk is cut.
"""

from __future__ import annotations

import tracemalloc
from fractions import Fraction
from math import comb
from typing import Optional

import numpy as np
import pytest

from bivalued_auctions import (
    AUCTION_NAMES, IdentityCheckError, analysis, certify, cli, enumeration,
)
from bivalued_auctions.auctions import _offer_threshold_by_count, expected_revenue_by_count
from bivalued_auctions.core import AuctionParams, BidVector, revenue_by_offer_counts, settle
from bivalued_auctions.rng import stream_generator


def _weights(n: int, h: int) -> list[Fraction]:
    p = Fraction(1, h)
    q = 1 - p
    return [comb(n, k) * p**k * q ** (n - k) for k in range(n + 1)]


def fraction_expectations(n: int, h: int) -> tuple[Fraction, Fraction]:
    """(E[opt], E[threshold-DOP]) under the hard distribution, one Fraction
    term per high count."""
    t = n // h
    w = _weights(n, h)
    below = sum((n * w[k] for k in range(t)), Fraction(0))
    above = sum((h * k * w[k] for k in range(t + 1, n + 1)), Fraction(0))
    return below + above + n * w[t], below + above + t * w[t]


def whole_chunk_revenues(rng, n: int, h: int, auction: str, rows: int):
    """_sample_revenues as one (rows, n) draw with per-bidder gathers."""
    high = rng.integers(0, h, size=(rows, n)) == 0
    k = high.sum(axis=1, dtype=np.int64)
    opt = np.maximum(n, h * k)
    if auction == "derand":
        revenue = enumeration.derand_revenues(k, enumeration.high_index_sum(high.T), n, h)
    elif auction == "random":
        thresholds = np.zeros(n + 1, dtype=np.uint64)
        always = np.zeros(n + 1, dtype=bool)
        for m in range(n + 1):
            t64 = _offer_threshold_by_count(n, h, m)
            if t64 >= 1 << 64:
                always[m] = True
            else:
                thresholds[m] = t64
        coins = rng.integers(0, 1 << 64, size=(rows, n), dtype=np.uint64, endpoint=False)
        nh_i = k[:, None] - high
        offered_h = (coins < thresholds[nh_i]) | always[nh_i]
        pay = np.where(offered_h, np.where(high, h, 0), 1)
        revenue = pay.sum(axis=1, dtype=np.int64)
    else:
        revenue = enumeration.count_revenues(k, n, h, enumeration.count_threshold(auction, n, h))
    return revenue, opt


@pytest.mark.parametrize(
    "n,h", [(2, 2), (60, 2), (12, 3), (100, 4), (75, 5), (240, 6), (999, 9), (1000, 10)]
)
def test_identities_match_fraction_sums(n, h):
    want_opt, want_dop = fraction_expectations(n, h)
    assert analysis.exact_e_opt_under_d(n, h) == want_opt
    assert analysis.exact_e_dop_under_d(n, h) == want_dop == n


def _late_count_revenues(k, n, h, t):
    """count_revenues with low bidders offered h only when k > t."""
    return revenue_by_offer_counts(n, h, (n - k) * (k > t), k * (k > t))


def test_identity_certifies_the_count_kernel(monkeypatch, capsys):
    # analysis binds the kernel from its home, auctions
    monkeypatch.setattr(analysis, "count_revenues", _late_count_revenues)
    with pytest.raises(IdentityCheckError) as info:
        analysis.check_distribution_identities(12, 3)
    assert info.value.invariant == "expected-auction-revenue-equals-n"
    assert cli.main(["dist-d", "--n", "12", "--h", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("identity violated: expected-auction-revenue-equals-n")


def test_identity_check_certifies_the_gap(monkeypatch):
    # a floor one too large breaks E[OPT] - E[auction] = gap
    gap = analysis.lower_bound_gap(12, 3)
    monkeypatch.setattr(analysis, "lower_bound_gap", lambda n, h: gap + 1)
    with pytest.raises(IdentityCheckError) as info:
        analysis.check_distribution_identities(12, 3)
    assert info.value.invariant == "gap-decomposition"
    # with E[OPT] = n as well, the decomposition holds at gap 0, which is no floor
    monkeypatch.setattr(analysis, "lower_bound_gap", lambda n, h: Fraction(0))
    monkeypatch.setattr(analysis, "exact_e_opt_under_d", lambda n, h: Fraction(n))
    with pytest.raises(IdentityCheckError) as info:
        analysis.check_distribution_identities(12, 3)
    assert info.value.invariant == "gap-positive"


def test_demo_dop_prints_the_scalar_run(monkeypatch, capsys):
    # offering h to bidder 1, a low bidder on the demo vector, and 1 to every
    # other bidder earns n - 1, where DOP earns n/h
    monkeypatch.setattr(
        certify, "run_auction", lambda b, auction: settle(b, [b.h] + [1] * (b.n - 1))
    )
    assert cli.main(["demo-dop", "--h", "3"]) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert row[4:8] == ["3", "9", "8", "1"]  # n_h, opt, revenue, loss


def test_identity_check_builds_the_weights_once():
    analysis._count_weights.cache_clear()
    analysis.check_distribution_identities(20, 4)
    info = analysis._count_weights.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_demo_dop_reads_n_and_n_h_from_the_demo_vector(monkeypatch, capsys):
    # a demo vector with 3 of 6 bids high, where DOP's ratio is 2
    vector = BidVector(AuctionParams(6, 3), 0b111000)
    monkeypatch.setattr(certify, "_dop_demo", lambda h, n: (vector, Fraction(2)))
    assert cli.main(["demo-dop", "--h", "3"]) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert row[1:2] + row[4:8] == ["6", "3", "6", "3", "3"]  # n, n_h, opt, revenue, loss


def _weighted_total(n: int, h: int, revenues):
    """Sum over high counts k of C(n, k) (h-1)**(n-k) rev(k): n * h**n for
    every bid-independent auction with offers in {1, h}."""
    return sum(comb(n, k) * (h - 1) ** (n - k) * rev for k, rev in enumerate(revenues))


@pytest.mark.parametrize("h", range(2, 7))
def test_dop_count_kernel_earns_n_under_the_hard_distribution(h):
    for n in range(1, 41):  # h need not divide n
        t = enumeration.count_threshold("dop", n, h)
        revenues = enumeration.count_revenues(np.arange(n + 1), n, h, t).tolist()
        assert _weighted_total(n, h, revenues) == n * h**n, (n, h)


@pytest.mark.parametrize("h", [2, 3, 5, 10])
def test_randomized_auction_earns_n_under_the_hard_distribution(h):
    for n in range(1, 25):
        revenues = [expected_revenue_by_count(n, h, k) for k in range(n + 1)]
        total = _weighted_total(n, h, revenues)
        assert total.is_rational and total.as_fraction() == n * h**n, (n, h)


def subset_sum_counts(n: int, modulus: Optional[int] = None) -> np.ndarray:
    """N[k, S], the number of k-subsets of {1..n} whose elements sum to S,
    for S = 0..n(n+1)/2: Python ints, or int64 residues mod `modulus`."""
    counts = np.zeros((n + 1, n * (n + 1) // 2 + 1), dtype=np.int64 if modulus else object)
    counts[0, 0] = 1
    for i in range(1, n + 1):
        # subsets of {1..i} have at most i elements and sum to at most top;
        # the right side is read before the write, so i joins each subset once
        top = i * (i + 1) // 2 + 1
        grown = counts[1 : i + 1, i:top] + counts[:i, : top - i]
        counts[1 : i + 1, i:top] = grown % modulus if modulus else grown
    return counts


def derand_weighted_total(n: int, h: int, modulus: Optional[int] = None) -> int:
    """Sum over (k, S) of (h-1)**(n-k) N(k, S) derand_revenues(k, S, n, h),
    exactly or mod `modulus`: n * h**n if the derandomized auction earns n
    under the hard distribution."""
    counts = subset_sum_counts(n, modulus)
    sums = np.arange(counts.shape[1])
    total = 0
    for k, row in enumerate(counts):
        # N(k, S) = 0 wherever S is no k-subset's sum
        revenues = enumeration.derand_revenues(k, sums, n, h)
        inner = row * revenues % modulus if modulus else row * revenues.astype(object)
        total += int(inner.sum()) * pow(h - 1, n - k, modulus)
    return total % modulus if modulus else total


PRIMES = (2**31 - 1, 2**31 - 19)


@pytest.mark.parametrize("h", [2, 3, 5, 10])
@pytest.mark.parametrize("n", [5, 12, 30])
def test_derandomized_auction_earns_n_under_the_hard_distribution(n, h):
    assert derand_weighted_total(n, h) == n * h**n


@pytest.mark.parametrize("n,h", [(50, 3), (97, 10), (100, 3), (100, 7)])
def test_derandomized_auction_earns_n_modulo_two_primes(n, h):
    # a wrong rule gives a zero residue mod both primes with odds near 2**-62
    for p in PRIMES:
        assert derand_weighted_total(n, h, p) == n * pow(h, n, p) % p, p


def _block_rows(n: int) -> int:
    return max(1, analysis._MC_BLOCK_DRAWS // n)


def _assert_same_draws(n, h, auction, rows, seed=7, *, ranged=False):
    """_sample_revenues on rows of stream 3 equals the oracle's whole-chunk
    draw.  `ranged` passes the coins as a cut chunk's range does: from a
    second generator positioned at word ceil(rows * n / 2), after the bids."""
    fast_rng, slow_rng = stream_generator(seed, 3), stream_generator(seed, 3)
    coins = analysis._stream_at(seed, 3, -(-rows * n // 2)) if ranged else None
    revenue, opt = analysis._sample_revenues(fast_rng, n, h, auction, rows, coins=coins)
    want_revenue, want_opt = whole_chunk_revenues(slow_rng, n, h, auction, rows)
    assert np.array_equal(revenue, want_revenue)
    assert np.array_equal(opt, want_opt)
    # the stream was consumed exactly as far
    last = coins if ranged else fast_rng
    assert last.integers(0, 1 << 64, dtype=np.uint64) == slow_rng.integers(
        0, 1 << 64, dtype=np.uint64
    )


@pytest.mark.parametrize(
    "auction,n,h",
    [
        (auction, n, h)
        for n, h in [(5, 9), (45, 9), (333, 3), (1001, 7)]
        for auction in AUCTION_NAMES
        if auction != "threshold-dop" or n % h == 0
    ],
)
def test_row_blocks_draw_what_one_chunk_draws(auction, n, h):
    block = _block_rows(n)
    rows = {1, block - 1, block, block + 1}
    if n * analysis._MC_CHUNK * 8 <= 64 << 20:  # keep the oracle's whole chunk small
        rows.add(analysis._MC_CHUNK)
    for count in sorted(rows):
        _assert_same_draws(n, h, auction, count)
        if auction == "random":  # the only auction that draws coins
            _assert_same_draws(n, h, auction, count, ranged=True)


def _bid_half_words(seed: int, stream: int, n: int, h: int, rows: int) -> int:
    """32-bit halves that the bid draws of `rows` vectors take from the
    stream, rejections included; drawn in row blocks, as the same stream."""
    rng = stream_generator(seed, stream)
    step = max(1, analysis._MC_BLOCK_DRAWS // n)
    for lo in range(0, rows, step):
        rng.integers(0, h, size=(min(step, rows - lo), n), dtype=np.int32)
    return analysis._half_words_drawn(rng)


def test_sequential_coins_start_where_rejected_bids_end():
    # (2**32 mod 3000) / 2**32 * 2**14 * 1000 is about 8.8 expected
    # rejections per chunk: the bids end past half-word rows * n, and the
    # coins, drawn from rng after them, start where they end
    n, h, rows, seed = 1000, 3000, analysis._MC_CHUNK, 12
    halves = _bid_half_words(seed, 0, n, h, rows)
    assert halves > rows * n
    rng = stream_generator(seed, 0)
    revenue, opt = analysis._sample_revenues(rng, n, h, "random", rows)
    placed = analysis._stream_at(seed, 0, -(-halves // 2))
    want = analysis._sample_revenues(stream_generator(seed, 0), n, h, "random", rows, coins=placed)
    assert np.array_equal(revenue, want[0]) and np.array_equal(opt, want[1])
    # and rng's coins ended where the placed generator's did
    assert rng.integers(0, 1 << 64, dtype=np.uint64) == placed.integers(0, 1 << 64, dtype=np.uint64)
    # coins read where the bids would end without rejections settle differently
    unplaced = analysis._stream_at(seed, 0, rows * n // 2)
    misread = analysis._sample_revenues(stream_generator(seed, 0), n, h, "random", rows, coins=unplaced)
    assert not np.array_equal(revenue, misread[0])


@pytest.mark.parametrize(
    "auction,ranged",
    [(auction, False) for auction in AUCTION_NAMES] + [("random", True)],
)
def test_sampling_holds_no_bid_matrix(monkeypatch, auction, ranged):
    # tracemalloc sees numpy's buffers; a (rows, n) bool bid matrix alone
    # would take rows * n bytes
    n, h, rows, seed = 2000, 10, 512, 7
    monkeypatch.setattr(analysis, "_MC_BLOCK_DRAWS", 1 << 12)
    step = max(1, analysis._MC_BLOCK_DRAWS // n)  # rows a block
    blocks = -(-rows // step)
    analysis._coin_thresholds(n, h)  # the cached tables are no part of the peak
    enumeration.derand_classes(n, h)
    rng = stream_generator(seed, 0)  # which imports numpy.random, outside the trace
    coins = analysis._stream_at(seed, 0, rows * n // 2) if ranged else None
    tracemalloc.start()
    try:
        analysis._sample_revenues(rng, n, h, auction, rows, coins=coins)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the int64 outputs and high counts, four blocks of uint64 coins, and
    # the sequential randomized form's packed bits with an array header a block
    bound = 3 * 8 * rows + 4 * 8 * step * n
    if auction == "random" and not ranged:
        bound += rows * (-(-n // 8)) + blocks * 512
    assert bound < rows * n // 2
    assert peak < bound, (peak, bound)


def test_random_draws_reach_offer_probability_one():
    # at n=5, h=9 a bidder who sees 2 high bids is offered h surely; the
    # differential test's draws at 2**14 rows include such bidders
    n, h = 5, 9
    assert _offer_threshold_by_count(n, h, 1) < 1 << 64 <= _offer_threshold_by_count(n, h, 2)
    high = stream_generator(7, 3).integers(0, h, size=(analysis._MC_CHUNK, n)) == 0
    k = high.sum(axis=1)
    assert ((k >= 2) & (k < n)).any()



@pytest.mark.parametrize("word", [0, 1, 2, 3, 4, 5, 1_000_003])
def test_stream_at_continues_the_raw_stream(word):
    fresh = stream_generator(7, 3)
    for lo in range(0, word, 1 << 18):  # at most 2 MB of raw words at once
        fresh.bit_generator.random_raw(min(1 << 18, word - lo))
    placed = analysis._stream_at(7, 3, word)
    assert analysis._half_words_drawn(placed) == 2 * word
    assert placed.bit_generator.random_raw(9).tolist() == fresh.bit_generator.random_raw(9).tolist()
    # an odd number of 32-bit draws leaves the upper half of a word buffered
    placed.integers(0, 2, size=7, dtype=np.int32)
    assert analysis._half_words_drawn(placed) == 2 * (word + 9) + 7


def sequential_report(n, h, auction, samples, seed):
    """monte_carlo_under_d with one _sample_revenues call per chunk, in
    order, on the calling thread."""
    total = total_sq = opt_total = opt_sq = 0
    for stream, lo in enumerate(range(0, samples, analysis._MC_CHUNK)):
        rows = min(analysis._MC_CHUNK, samples - lo)
        revenue, opt = analysis._sample_revenues(stream_generator(seed, stream), n, h, auction, rows)
        total += int(revenue.sum())
        total_sq += int(np.dot(revenue, revenue))
        opt_total += int(opt.sum())
        opt_sq += int(np.dot(opt, opt))
    exact = analysis.check_distribution_identities(n, h) if n % h == 0 else (None,) * 3
    return analysis.DistributionDReport(
        *analysis._mean_stderr(total, total_sq, samples),
        *analysis._mean_stderr(opt_total, opt_sq, samples),
        *exact,
    )


def _counted_rows(monkeypatch) -> list[int]:
    """Rows of every _sample_revenues call from here on."""
    rows_drawn = []
    sample = analysis._sample_revenues

    def counted(rng, n, h, auction, rows, **keywords):
        rows_drawn.append(rows)
        return sample(rng, n, h, auction, rows, **keywords)

    monkeypatch.setattr(analysis, "_sample_revenues", counted)
    return rows_drawn


def _rows_by_threads(monkeypatch, n, h, auction, samples, seed=12) -> dict[int, list[int]]:
    """Assert the report at 1, 2 and 3 workers (on 4 cores) equals the
    sequential one; return the rows of each _sample_revenues call, by
    worker count."""
    want = sequential_report(n, h, auction, samples, seed)
    monkeypatch.setattr(analysis.os, "cpu_count", lambda: 4)
    rows_drawn = _counted_rows(monkeypatch)
    by_threads = {}
    for threads in (1, 2, 3):
        rows_drawn.clear()
        got = analysis.monte_carlo_under_d(n, h, auction, samples, seed, threads=threads)
        assert got == want, threads
        by_threads[threads] = sorted(rows_drawn)
    return by_threads


CUT_POINTS = [
    (1000, 10, 1 << 14),
    (5, 2, 1001),  # rows * n is odd
    (999, 7, 3000),
    (7, 3, (1 << 14) + 1001),  # a full chunk and a tail chunk, cut at 3 workers
]


@pytest.mark.parametrize(
    "n,h,samples,auction",
    [
        (n, h, samples, auction)
        for n, h, samples in CUT_POINTS
        for auction in AUCTION_NAMES
        if auction != "threshold-dop" or n % h == 0
    ],
)
def test_row_ranges_report_what_whole_chunks_report(monkeypatch, n, h, samples, auction):
    sizes = [min(analysis._MC_CHUNK, samples - lo) for lo in range(0, samples, analysis._MC_CHUNK)]
    for threads, rows in _rows_by_threads(monkeypatch, n, h, auction, samples).items():
        if len(sizes) >= threads:  # no chunk is cut
            assert rows == sorted(sizes), threads
        else:  # every chunk is cut, and every row drawn once: none redrawn
            assert sum(rows) == samples and len(rows) > len(sizes), threads


@pytest.mark.parametrize("auction", ["dop", "derand", "random"])
def test_likely_rejections_leave_the_chunk_whole(monkeypatch, auction):
    # (2**32 mod 3000) / 2**32 * 2**14 * 1000 is about 8.8 expected
    # rejections per chunk, so a cut chunk would almost surely be redrawn
    by_threads = _rows_by_threads(monkeypatch, 1000, 3000, auction, 1 << 14)
    for threads in (2, 3):
        assert by_threads[threads] == [1 << 14], threads


@pytest.mark.parametrize("auction", ["dop", "derand", "random"])
def test_rejected_draws_redraw_the_chunk(monkeypatch, auction):
    # (2**32 mod 100) / 2**32 * 2**14 * 1000 is about 0.37 expected
    # rejections per chunk, so the chunk is still cut; on seed 7 one bid
    # draw of stream 0 is rejected
    by_threads = _rows_by_threads(monkeypatch, 1000, 100, auction, 1 << 14, seed=7)
    for threads in (2, 3):
        # the ranges, then the whole chunk
        assert by_threads[threads][-1] == 1 << 14 and sum(by_threads[threads]) == 2 << 14
