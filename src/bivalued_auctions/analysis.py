"""Certification machinery that needs numpy.

Everything here walks arrays: the enumerated sweep that is the tests'
reference for every worst case, the block-structure verifier of the
derandomized offers, the bid-independence sweep, the exact expectation
identities under the hard i.i.d. bid distribution (high with probability
1/h), which sum the count kernel, and Monte Carlo estimates with per-chunk
seed streams.

The numpy-free half lives in certify: the limits and domain checks, the
identity error, the per-vector loss and the whole worst-case sweep, the
derandomized (k, S) scan included.  Imports go one way: this module reads
certify, and certify never imports this one.

All identity work is exact (Fraction / SurdSum); floating point only ever
appears in Monte Carlo summaries, which carry standard errors.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, exp, sqrt
from typing import Optional

import numpy as np

from . import enumeration
from .auctions import (  # AUCTION_NAMES stays readable as analysis.AUCTION_NAMES
    AUCTION_NAMES,
    count_revenues,
    count_threshold,
    derand_modulus,
    derand_run,
    expected_revenue_by_count,
    _offer_threshold_by_count,
)
from .certify import (
    DEFAULT_ENUMERATION_LIMIT,
    IdentityCheckError,
    Loss,
    LossProfile,
    _check_sweep_args,
    _require_enumerable,
    additive_loss,  # perfbench reads it as analysis.additive_loss
    check_block_sweep,
    check_identities,
    check_monte_carlo,
    worst_case_sweep,  # perfbench reads and traces it as analysis.worst_case_sweep
)
from .core import LOW_VALUE, AuctionParams, BidVector, count_high
from .core import revenue_by_offer_counts
from .exact import SurdSum
from .rng import stream_generator

_MC_CHUNK = 1 << 14
# Draws per Monte Carlo block, which a job settles and drops before the next:
# one block's int32 draws take at most 1 MB and its uint64 coins 2 MB.  Blocks
# of 2**19 draws ran no faster and raised sample-hard's peak RSS by 8 MB.
_MC_BLOCK_DRAWS = 1 << 18
_NEG_INF = np.int64(-(1 << 60))
# Masks per range of everything that walks all 2**n vectors.
_MASK_RANGE = 1 << 16


def _mask_ranges(n: int) -> list[tuple[int, int]]:
    total = 1 << n
    return [(lo, min(lo + _MASK_RANGE, total)) for lo in range(0, total, _MASK_RANGE)]


@lru_cache(maxsize=8)
def _low_rows(size: int) -> np.ndarray:
    """The bid matrix of masks 0 .. size-1 over log2(size) bidders, read-only.
    Keyed by size, so a patched _MASK_RANGE gets its own block."""
    block = enumeration.high_matrix(enumeration.mask_array(0, size), size.bit_length() - 1)
    block.flags.writeable = False
    return block


def _range_matrix(lo: int, hi: int, n: int) -> np.ndarray:
    """high_matrix(mask_array(lo, hi), n) for a range of _mask_ranges(n): its
    size is a power of two that divides lo, so its low rows are the shared
    block _low_rows(size) and each higher bidder's row is one constant bit
    of lo."""
    low = _low_rows(hi - lo)
    high = np.empty((n, hi - lo), dtype=bool)
    high[: len(low)] = low
    high[len(low) :] = (lo >> np.arange(len(low), n) & 1)[:, None]
    return high


def _workers(threads: Optional[int]) -> int:
    """Pool width for `threads`: min(threads or cores, cores)."""
    cores = os.cpu_count() or 1
    return min(threads or cores, cores)


def _map_chunks(fn, jobs: list, threads: Optional[int]) -> list:
    """fn over jobs in order, on min(_workers(threads), len(jobs)) threads: a
    pool only when that is more than one."""
    workers = min(_workers(threads), len(jobs))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, jobs))
    return [fn(job) for job in jobs]


# ---------------------------------------------------------------------------
# Enumerated sweep: the differential oracle of worst_case_sweep
# ---------------------------------------------------------------------------


def _sweep_chunk(losses_of, n: int, lo: int, hi: int):
    """One mask range's worst loss per high count k, its worst loss, and the
    lex key and mask of its lex-least worst vector.  The high counts are one
    int8 column sum, which the per-count maximum and losses_of share."""
    high = _range_matrix(lo, hi, n)
    k = high.sum(axis=0, dtype=np.int8)
    losses = losses_of(high, k)
    per_k = np.full(n + 1, _NEG_INF, dtype=np.int64)
    np.maximum.at(per_k, k, losses)
    worst = int(losses.max())
    at_worst = lo + np.flatnonzero(losses == worst)
    keys = enumeration.lex_keys(at_worst, n)
    j = int(np.argmin(keys))
    return per_k, worst, int(keys[j]), int(at_worst[j])


def enumerated_sweep(params: AuctionParams, auction: str) -> LossProfile:
    """worst_case_sweep by enumerating all 2**n bid vectors.

    Deterministic auctions take each vector's revenue from the kernels;
    the randomized auction's exact per-count losses are replaced by their
    ranks, so the same int64 reduction finds its maximum and lex-least
    witness.  Mask ranges are reduced in a fixed order, so the result does
    not depend on _MASK_RANGE.  Kept as the tests' reference for n <= 20.
    """
    n, h = params.n, params.h
    _check_sweep_args(params, auction)
    _require_enumerable(n)
    if auction == "random":
        exact = [
            SurdSum.of(max(n, h * k)) - expected_revenue_by_count(n, h, k) for k in range(n + 1)
        ]
        levels = sorted(set(exact))
        rank = np.array([levels.index(loss) for loss in exact], dtype=np.int64)

        def losses_of(high, k):
            return rank[k]

        def value(level) -> Loss:
            return levels[level]
    else:
        kernel = enumeration.REVENUE_KERNELS[auction]

        def losses_of(high, k):
            return np.maximum(n, h * k.astype(np.int64)) - kernel(high, h)

        value = int

    per_k_all = np.full(n + 1, _NEG_INF, dtype=np.int64)
    worst = best_key = best_mask = None
    for lo, hi in _mask_ranges(n):
        per_k, chunk_worst, chunk_key, chunk_mask = _sweep_chunk(losses_of, n, lo, hi)
        per_k_all = np.maximum(per_k_all, per_k)
        if worst is None or chunk_worst > worst or (chunk_worst == worst and chunk_key < best_key):
            worst, best_key, best_mask = chunk_worst, chunk_key, chunk_mask
    per_nh = {k: value(int(per_k_all[k])) for k in range(n + 1)}
    return LossProfile(per_nh, value(worst), BidVector(params, best_mask))


# ---------------------------------------------------------------------------
# Block structure of the derandomized offers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockViolation:
    bidder_class: str  # "low" or "high"
    block_index: int
    positions: tuple[int, ...]
    offered_high: int
    expected: int
    partial: bool


def block_structure_check(
    b: BidVector, offers: Optional[tuple[int, ...]] = None
) -> Optional[BlockViolation]:
    """The first block of the derandomized offers on b that breaks their
    combinatorial structure, or None when every block holds.

    Walking same-class bidders in index order steps the modular hash by +-1,
    so every full window of b_val consecutive same-class bidders must contain
    exactly clamp(a, 0, b_val) offers of h; a trailing partial window can
    only contain fewer.  `offers` overrides the computed schedule so the
    checker's sensitivity is itself testable.
    """
    if offers is None:
        offers = derand_run(b).offers
    n, h = b.n, b.h
    nh = count_high(b)
    lows = tuple(i for i in range(1, n + 1) if not b.is_high(i))
    highs = tuple(i for i in range(1, n + 1) if b.is_high(i))
    classes = [("low", lows, nh), ("high", highs, nh - 1)]
    for bidder_class, positions, nh_i in classes:
        if not positions:
            continue
        a = h * nh_i - n
        b_val = derand_modulus(h, nh_i)
        a_plus = min(max(a, 0), b_val)
        for block_index, start in enumerate(range(0, len(positions), b_val)):
            block = positions[start : start + b_val]
            got = sum(1 for p in block if offers[p - 1] == h)
            partial = len(block) < b_val
            bad = got > a_plus if partial else got != a_plus
            if bad:
                return BlockViolation(bidder_class, block_index, block, got, a_plus, partial)
    return None


def _block_failures(high: np.ndarray, offered_h: np.ndarray, h: int) -> np.ndarray:
    """Whether the offers `offered_h` (the kernel matrix, shaped like the
    bid matrix high) break the block claim on each column of high, by
    block_structure_check's rule.

    One walk down the bidders, every column at once.  Class 0 holds the low
    bidders (n_h(i) = k), class 1 the high bidders (n_h(i) = k - 1), and
    each keeps per column the bidders `seen` in its open block, its `offers`
    of h so far and the a+ `owed` for its closed blocks.  When `seen`
    reaches B the block closes: `offers` must equal `owed`.  After the last
    bidder, a trailing partial block may not exceed a+.
    """
    n = len(high)
    k = high.sum(axis=0, dtype=np.int8)
    moduli, a_plus = enumeration.derand_classes(n, h)
    nh = np.stack([k, np.maximum(k - 1, 0)])
    # a class holds at most n <= 31 bidders: a B above n closes no block and
    # an a+ above n bounds no count, so both clamp to n + 1 and fit in int8
    b_val, a = (np.minimum(table[nh], n + 1).astype(np.int8) for table in (moduli, a_plus))
    seen, offers, owed = np.zeros((3, 2, high.shape[1]), dtype=np.int8)
    bad = np.zeros(seen.shape, dtype=bool)
    for is_high, offered in zip(high, offered_h):
        member = np.stack([~is_high, is_high])
        seen += member
        offers += member & offered
        closed = seen == b_val
        owed += closed * a
        bad |= closed & (offers != owed)
        seen *= ~closed
    bad |= offers > owed + a
    return bad.any(axis=0)


def block_structure_sweep(
    params: AuctionParams, *, limit: int = DEFAULT_ENUMERATION_LIMIT
) -> tuple[int, Optional[tuple[BidVector, BlockViolation]]]:
    """Check the block claim on every vector, with the offers taken from the
    vector kernel; (count checked, first failure).

    Each mask range's bid matrix is built once and checked by one walk down
    its bidders (`_block_failures`), with the offers from
    `enumeration.offers_for_bidder` on the same matrix.
    On the first failing mask, `block_structure_check` runs on that one
    vector, with the kernel's offers, to build the violation; it is also the
    tests' oracle.
    """
    n, h = params.n, params.h
    check_block_sweep(params, limit)
    for lo, hi in _mask_ranges(n):
        high = _range_matrix(lo, hi, n)
        offered_h = enumeration.offers_for_bidder(high, h, "derand")
        failing = np.flatnonzero(_block_failures(high, offered_h, h))
        if failing.size:
            col = failing[0]
            b = BidVector(params, lo + int(col))
            offers = tuple(np.where(offered_h[:, col], h, LOW_VALUE).tolist())
            violation = block_structure_check(b, offers=offers)
            if violation is None:
                raise IdentityCheckError("derand-block-kernel-agrees-with-scalar-check", b.to_string())
            return b.mask + 1, (b, violation)
    return 1 << n, None


# ---------------------------------------------------------------------------
# Bid-independence sweep
# ---------------------------------------------------------------------------


def bid_independence_violations(
    params: AuctionParams, auction: str, *, limit: int = 14
) -> list[tuple[int, BidVector]]:
    """Bidders whose own bid can change what they are offered, with a witness.

    Empty for a truthful auction.  Each bidder's row of
    `enumeration.offers_for_bidder` is compared across every single-bid
    flip: realized offers for the deterministic auctions, and for the
    randomized auction n_h(i), the statistic its offer distribution is a
    function of.  The witness is the smallest mask whose flip changes
    bidder i's offer.

    The mask ranges stream, each range's bid matrix built from the shared
    low-bit block (_range_matrix).  A bidder whose bit is below the range
    size is compared inside each range: field[:-bit] against field[bit:]
    pairs every column with the one whose bit i-1 is set, and the block's
    row i-1 keeps the pairs whose lower mask has that bit clear.  A bidder
    whose bit is above it keeps its row from a range with the bit clear
    until the partner range lo | bit arrives.  So at most about 2**n bytes
    wait at once (offer bools, or the randomized auction's int8 counts),
    beside one range's (n, rows) bid matrix and kernel output.
    """
    n, h = params.n, params.h
    _check_sweep_args(params, auction)
    _require_enumerable(n, limit)
    first: dict[int, int] = {}
    waiting: dict[tuple[int, int], np.ndarray] = {}
    for lo, hi in _mask_ranges(n):
        # the bid matrix is a temporary, so the next range's can reuse its memory
        rows = enumeration.offers_for_bidder(_range_matrix(lo, hi, n), h, auction)
        low = _low_rows(hi - lo)
        for i, field in enumerate(rows, start=1):
            if i in first:
                continue
            bit = 1 << (i - 1)
            if bit < hi - lo:
                # column j pairs mask lo + j with lo + j + bit, and
                # `differs > bit set` keeps the pairs whose lower mask has
                # bit i-1 clear
                hits = (field[:-bit] != field[bit:]) > low[i - 1, :-bit]
                base = lo
            elif lo & bit == 0:
                waiting[i, lo] = field.copy()  # a copy frees the range's matrix
                continue
            else:
                base = lo - bit
                hits = waiting.pop((i, base)) != field
            # ranges and pairs arrive in increasing order of base, and a
            # hit's mask has bit i-1 clear, so the first hit is the smallest
            # mask whose flip changes the offer
            j = int(np.argmax(hits))
            if hits[j]:
                first[i] = base + j
    return [(i, BidVector(params, first[i])) for i in sorted(first)]


# ---------------------------------------------------------------------------
# Exact identities under the hard distribution
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def _count_weights(n: int, h: int) -> tuple[int, ...]:
    """w[k] = C(n, k) * (h-1)**(n-k), so that P[K = k] = w[k] / h**n under the
    hard distribution.  The last list is kept, so the two expectations of
    one identity check sum over one list."""
    w = [1] * (n + 1)
    for k in range(n - 1, -1, -1):
        # C(n, k) = C(n, k+1) * (k+1) / (n-k), exactly
        w[k] = w[k + 1] * ((k + 1) * (h - 1)) // (n - k)  # one big-int product
    return tuple(w)


def _expectation_over_counts(n: int, h: int, values: list[int]) -> Fraction:
    """E[values[K]] under the hard distribution, for per-count integer values:
    one integer sum over h**n."""
    return Fraction(sum(wk * v for wk, v in zip(_count_weights(n, h), values)), h**n)


def exact_e_opt_under_d(n: int, h: int) -> Fraction:
    """E[max(n, h*K)] for K ~ Binomial(n, 1/h), exactly (needs h | n)."""
    check_identities(n, h)
    return _expectation_over_counts(n, h, np.maximum(n, h * np.arange(n + 1)).tolist())


def exact_e_dop_under_d(n: int, h: int) -> Fraction:
    """Expected revenue of threshold-DOP under the hard distribution, summed
    from the count kernel's per-count revenues (int64 is exact: each is at
    most h*n); the bid-independence argument forces the total to equal n.
    """
    check_identities(n, h)
    t = count_threshold("threshold-dop", n, h)
    revenues = count_revenues(np.arange(n + 1), n, h, t)
    return _expectation_over_counts(n, h, revenues.tolist())


def lower_bound_gap(n: int, h: int) -> Fraction:
    """(n - n/h) * P[K = n/h]: the exact expected-loss floor at (n, h)."""
    check_identities(n, h)
    t = n // h
    p = Fraction(1, h)
    return (n - t) * comb(n, t) * p**t * (1 - p) ** (n - t)


def check_distribution_identities(n: int, h: int) -> tuple[Fraction, Fraction, Fraction]:
    """Evaluate and cross-check the three exact quantities; raise on any break.
    Each of the three checks the domain (certify.check_identities) first."""
    e_opt = exact_e_opt_under_d(n, h)
    e_dop = exact_e_dop_under_d(n, h)
    gap = lower_bound_gap(n, h)
    if e_dop != n:
        raise IdentityCheckError("expected-auction-revenue-equals-n", f"got {e_dop}")
    if e_opt - e_dop != gap:
        raise IdentityCheckError("gap-decomposition", f"{e_opt} - {e_dop} != {gap}")
    if not gap > 0:
        raise IdentityCheckError("gap-positive", f"got {gap}")
    return e_opt, e_dop, gap


# ---------------------------------------------------------------------------
# Monte Carlo under the hard distribution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DistributionDReport:
    """The sampled mean revenue of the auction and of the benchmark, each with
    its standard error, and the exact identities (E[opt], E[threshold-DOP],
    gap) when h | n, else None."""

    mc_mean_auction: float
    mc_stderr_auction: float
    mc_mean_opt: float
    mc_stderr_opt: float
    exact_e_opt: Optional[Fraction]
    exact_e_dop: Optional[Fraction]
    gap: Optional[Fraction]


def _sample_revenues(
    rng: np.random.Generator, n: int, h: int, auction: str, rows: int,
    *, coins: Optional[np.random.Generator] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw `rows` bid vectors (high w.p. 1/h), settle the named auction, and
    return the int64 revenue and opt of each row.

    The bids are drawn in blocks of at most _MC_BLOCK_DRAWS, and each block
    is settled as it is drawn and then dropped: the count auctions keep its
    high counts k, and derand settles it from k and the index sums.  So a
    call holds one block and three int64 values a row (k, revenue, opt),
    never a (rows, n) matrix.  Bids are drawn as int32, which takes numpy's
    same 32-bit Lemire path as an int64 draw and so reads the same stream.
    The randomized auction's coins stand after every bid, as in one
    (rows, n) draw of each.  When `coins` is given (a range of a cut
    chunk), it is positioned there and each block's coins are drawn right
    after its bids.  Otherwise they come from rng after the last bid,
    wherever rejected bid draws left it, so until then each block waits as
    packed bits, n/8 bytes a row.
    """
    step = max(1, _MC_BLOCK_DRAWS // n)
    blocks = [(lo, min(lo + step, rows)) for lo in range(0, rows, step)]
    k = np.empty(rows, dtype=np.int64)
    revenue = np.empty(rows, dtype=np.int64)
    waiting = []  # each block's packed bits, until rng reaches its coins
    for lo, hi in blocks:
        high = rng.integers(0, h, size=(hi - lo, n), dtype=np.int32) == 0
        block_k = high.sum(axis=1, dtype=np.int64, out=k[lo:hi])
        if auction == "derand":
            sums = enumeration.high_index_sum(high.T)
            revenue[lo:hi] = enumeration.derand_revenues(block_k, sums, n, h)
        elif auction == "random" and coins is not None:
            revenue[lo:hi] = _random_revenues(coins, high, block_k, h)
        elif auction == "random":
            waiting.append(np.packbits(high, axis=1))
    for (lo, hi), packed in zip(blocks, waiting):
        high = np.unpackbits(packed, axis=1, count=n).view(bool)
        revenue[lo:hi] = _random_revenues(rng, high, k[lo:hi], h)
    if auction in ("dop", "threshold-dop"):
        revenue = count_revenues(k, n, h, count_threshold(auction, n, h))
    return revenue, np.maximum(n, h * k)


@lru_cache(maxsize=16)
def _coin_thresholds(n: int, h: int) -> tuple[np.ndarray, np.ndarray]:
    """Per n_h(i): the 64-bit coin threshold of an offer of h, and whether
    that offer is sure (its threshold is 2**64)."""
    thresholds = np.zeros(n + 1, dtype=np.uint64)
    always = np.zeros(n + 1, dtype=bool)
    for m in range(n + 1):
        t64 = _offer_threshold_by_count(n, h, m)
        if t64 >= 1 << 64:
            always[m] = True
        else:
            thresholds[m] = t64
    thresholds.flags.writeable = always.flags.writeable = False
    return thresholds, always


def _random_revenues(rng, high, k, h: int) -> np.ndarray:
    """Settle the randomized auction on one block: the rows of the (rows, n)
    bid matrix high, with high counts k, and one uint64 coin per bid drawn
    from rng.  Bidder i is offered h iff its coin falls below the 64-bit
    threshold of n_h(i), which is k for a low bidder and k - 1 for a high
    one, or that probability is 1."""
    n = high.shape[1]
    thresholds, always = _coin_thresholds(n, h)
    coins = rng.integers(0, 1 << 64, size=high.shape, dtype=np.uint64, endpoint=False)
    high_m = np.maximum(k - 1, 0)  # a row without high bidders never reads it
    low_offered = ((coins < thresholds[k, None]) & ~high).sum(axis=1)
    high_offered = ((coins < thresholds[high_m, None]) & high).sum(axis=1)
    low_offered = np.where(always[k], n - k, low_offered)
    high_offered = np.where(always[high_m], k, high_offered)
    return revenue_by_offer_counts(n, h, low_offered, high_offered)


def _stream_at(seed: int, stream: int, word: int) -> np.random.Generator:
    """stream_generator(seed, stream) as it stands after `word` 64-bit draws.

    Philox is counter-based: numpy makes four words per counter step, so
    advancing the counter skips word // 4 steps and the rest are drawn."""
    rng = stream_generator(seed, stream)
    rng.bit_generator.advance(word // 4)
    rng.bit_generator.random_raw(word % 4)
    return rng


def _half_words_drawn(rng: np.random.Generator) -> int:
    """32-bit halves a Philox generator has used: each full word counts two,
    less the buffered upper half of a word whose lower half was drawn."""
    state = rng.bit_generator.state
    words = 4 * int(state["state"]["counter"][0]) + state["buffer_pos"] - 4
    return 2 * words - state["has_uint32"]


def _sums(revenue: np.ndarray, opt: np.ndarray) -> tuple[int, int, int, int]:
    return (
        int(revenue.sum(dtype=np.int64)),
        int((revenue * revenue).sum(dtype=np.int64)),
        int(opt.sum(dtype=np.int64)),
        int((opt * opt).sum(dtype=np.int64)),
    )


def _mean_stderr(total: int, total_sq: int, count: int) -> tuple[float, float]:
    mean = total / count
    if count < 2:
        return mean, 0.0
    var = (Fraction(total_sq) - Fraction(total * total, count)) / (count - 1)
    return mean, sqrt(max(float(var), 0.0) / count)


def monte_carlo_under_d(
    n: int,
    h: int,
    auction: str,
    samples: int,
    seed: int,
    *,
    threads: Optional[int] = None,
) -> DistributionDReport:
    """Sample the hard distribution and estimate mean revenues.

    Chunked into fixed-size blocks with one keyed Philox stream each, so the
    estimates are reproducible and independent of worker count.  With fewer
    chunks than workers (_workers), each chunk is cut into
    parts = ceil(workers / chunks) row ranges of an even size, and every
    range runs on the pool from generators positioned where the chunk's
    sequential draw would read it (_stream_at): its bids at half-word lo*n,
    and the randomized auction's coins at word ceil(rows*n/2) + lo*n.  That
    holds unless a bid draw was rejected (probability (2**32 mod h) / 2**32
    each), so every range's end position is compared with the next one's
    start and with the coin start; a chunk with any mismatch is redrawn
    whole on the calling thread.  A chunk is cut only while the odds of no
    rejection, exp(-rows*n*(2**32 mod h)/2**32), exceed 1/parts, the point
    past which the expected redraw outweighs the cut's saving.  Every
    bid-independent auction with offers in {1, h} earns exactly 1 per
    bidder in expectation here, so the auction mean must sit near n.
    Each job, chunk or range, is one _sample_revenues call, which settles
    its draws block by block and returns only per-row revenue and opt.
    """
    check_monte_carlo(n, h, auction, samples, seed, threads=threads)

    sizes = [min(_MC_CHUNK, samples - lo) for lo in range(0, samples, _MC_CHUNK)]
    parts = -(-_workers(threads) // len(sizes))  # 1 unless chunks < workers
    rejected = ((1 << 32) % h) / (1 << 32)  # the odds that one bid draw is rejected
    jobs = []
    for stream, rows in enumerate(sizes):
        # a cut saves (1 - 1/parts) of a chunk's time and a rejection costs a
        # whole redraw, so cut only while exp(-expected rejections) > 1/parts
        step = -(-rows // parts) if exp(-rows * n * rejected) > 1 / parts else rows
        step += step % 2  # an even step starts every range's bids on a whole word
        jobs += [(stream, lo, min(lo + step, rows)) for lo in range(0, rows, step)]

    def whole_chunk(stream: int) -> tuple[int, int, int, int]:
        rng = stream_generator(seed, stream)
        return _sums(*_sample_revenues(rng, n, h, auction, sizes[stream]))

    def one_range(job: tuple[int, int, int]) -> tuple[tuple[int, int, int, int], bool]:
        stream, lo, hi = job
        rows = sizes[stream]
        if hi - lo == rows:
            return whole_chunk(stream), True
        bids = _stream_at(seed, stream, lo * n // 2)
        coin_start = (rows * n + 1) // 2
        coins = _stream_at(seed, stream, coin_start + lo * n) if auction == "random" else None
        revenue, opt = _sample_revenues(bids, n, h, auction, hi - lo, coins=coins)
        placed = _half_words_drawn(bids) == hi * n and (
            coins is None or _half_words_drawn(coins) == 2 * (coin_start + hi * n)
        )
        return _sums(revenue, opt), placed

    results = _map_chunks(one_range, jobs, threads)
    redraw = {job[0] for job, (_, placed) in zip(jobs, results) if not placed}
    sums = [part for job, (part, _) in zip(jobs, results) if job[0] not in redraw]
    sums += [whole_chunk(stream) for stream in sorted(redraw)]
    total, total_sq, opt_total, opt_sq = (sum(column) for column in zip(*sums))

    mean_auction, stderr_auction = _mean_stderr(total, total_sq, samples)
    mean_opt, stderr_opt = _mean_stderr(opt_total, opt_sq, samples)

    if n % h == 0:
        e_opt, e_dop, gap = check_distribution_identities(n, h)
    else:
        e_opt = e_dop = gap = None

    return DistributionDReport(
        mc_mean_auction=mean_auction,
        mc_stderr_auction=stderr_auction,
        mc_mean_opt=mean_opt,
        mc_stderr_opt=stderr_opt,
        exact_e_opt=e_opt,
        exact_e_dop=e_dop,
        gap=gap,
    )
