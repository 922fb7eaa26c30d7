"""Certification machinery.

Worst-case additive loss, exact over all bid vectors but taken class by
class (per high count k, and per high-index sum S for derand) rather than
vector by vector; exact expectation identities under the hard i.i.d. bid
distribution (high with probability 1/h); Monte Carlo estimates with
per-chunk seed streams; and the block-structure verifier for the
derandomized offer rule.

All identity work is exact (Fraction / SurdSum); floating point only ever
appears in Monte Carlo summaries, which carry standard errors.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, exp, lcm, sqrt
from typing import Optional, Union

import numpy as np

from . import enumeration
from .auctions import (  # AUCTION_NAMES stays readable as analysis.AUCTION_NAMES
    AUCTION_NAMES,
    derand_modulus,
    derand_run,
    expected_revenue_by_count,
    _offer_threshold_by_count,
    require_auction,
    require_divisible,
    run_auction,
)
from .core import LOW_VALUE, AuctionParams, BidVector, count_high, offline_optimal
from .core import revenue_by_offer_counts
from .exact import SurdSum
from .rng import stream_generator

Loss = Union[int, SurdSum]

DEFAULT_ENUMERATION_LIMIT = 20
# Hard cap on n for anything that walks all 2**n vectors, whatever its
# limit: 2**30 vectors is hours of work, and the int64 masks and lex keys
# stay exact far beyond it.
ENUMERATION_CAP = 30
# The DOP demo runs the scalar rule on one vector of n bidders, at a cost
# quadratic in n: about half a second at this cap.
DEMO_N_LIMIT = 1 << 16
_MC_CHUNK = 1 << 14
# Each Monte Carlo chunk holds a (_MC_CHUNK, n) bool bid matrix, or a row
# range of one a share of it: at most 256 MiB at this cap, per worker, with
# at most one worker per core.
MC_N_LIMIT = 1 << 14
# Monte Carlo lists every chunk, and with threads submits each to a pool, before
# any draw: 2**30 samples are 2**16 chunks, which peaked at 134 MB on 2 threads.
MC_SAMPLES_LIMIT = 1 << 30
# Draws per Monte Carlo block: one block's uint64 coin matrix is at most 4 MB.
_MC_BLOCK_DRAWS = 1 << 19
_NEG_INF = np.int64(-(1 << 60))
# (k, S) pairs per block of the derandomized sweep, which bounds its arrays
# whatever the S range of a class.  Blocks of 2**13 int64 pairs stay in a
# core's cache: at 2**16 the large-n sweeps ran about twice as long.
_SUM_BLOCK = 1 << 13
# Masks per range of everything that walks all 2**n vectors.
_MASK_RANGE = 1 << 16

# The int64 arithmetic of the vector kernels and of the chunk reductions is
# exact while h * n <= 2**24.  Every benchmark value, revenue and loss is at
# most h*n; the derandomized offer table compares hashes below n**2 with
# h*m - n < h*n; and the largest sum, a Monte Carlo chunk's squared revenues,
# is at most _MC_CHUNK * (h*n)**2 <= 2**62.
KERNEL_HN_LIMIT = 1 << 24


class IdentityCheckError(Exception):
    """An exact identity that the library certifies failed to hold."""

    def __init__(self, invariant: str, detail: str = ""):
        self.invariant = invariant
        super().__init__(f"identity violated: {invariant}" + (f" ({detail})" if detail else ""))


# ---------------------------------------------------------------------------
# Per-vector loss
# ---------------------------------------------------------------------------


def additive_loss(b: BidVector, auction: str) -> Loss:
    """Fixed-price benchmark minus the auction's (expected) revenue on b.

    Signed: a negative value means the auction beat the benchmark on this
    vector.  Deterministic auctions give an int, "random" its exact expected
    loss as a SurdSum.
    """
    require_auction(auction)
    if auction == "random":
        return SurdSum.of(offline_optimal(b)) - expected_revenue_by_count(
            b.n, b.h, count_high(b)
        )
    return offline_optimal(b) - run_auction(b, auction).revenue


# ---------------------------------------------------------------------------
# Exhaustive worst-case sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LossProfile:
    """Worst additive loss of one auction over every bid vector at (n, h)."""

    params: AuctionParams
    auction: str
    per_nh_worst: dict[int, Loss]
    global_worst: Loss
    witness: BidVector
    normalized: SurdSum  # global_worst / sqrt(n * h)


def _normalize(loss: Loss, n: int, h: int) -> SurdSum:
    return SurdSum.of(loss) * SurdSum.multiple(Fraction(1, n * h), n * h)


def _require_kernel_domain(n: int, h: int) -> None:
    if h * n > KERNEL_HN_LIMIT:
        raise ValueError(
            f"h*n = {h * n} is outside the int64 kernel domain h*n <= {KERNEL_HN_LIMIT}"
        )


def _require_enumerable(n: int, limit: int = ENUMERATION_CAP) -> None:
    if n > ENUMERATION_CAP:
        raise ValueError(f"n={n} exceeds the enumeration cap {ENUMERATION_CAP}")
    if n > limit:
        raise ValueError(f"n={n} exceeds enumeration limit {limit}")


def _mask_ranges(n: int) -> list[tuple[int, int]]:
    total = 1 << n
    return [(lo, min(lo + _MASK_RANGE, total)) for lo in range(0, total, _MASK_RANGE)]


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


def _check_sweep_args(params: AuctionParams, auction: str) -> None:
    require_auction(auction)
    if auction == "threshold-dop":
        require_divisible(params.n, params.h)
    if auction != "random":
        _require_kernel_domain(params.n, params.h)


def check_sweep(params: AuctionParams, auction: str, limit: int) -> None:
    """Raise ValueError unless worst_case_sweep accepts these arguments."""
    _check_sweep_args(params, auction)
    if params.n > limit:
        raise ValueError(f"n={params.n} exceeds enumeration limit {limit}")


def _lex_least(params: AuctionParams, k: int, index_sum: int) -> BidVector:
    """The lexicographically least vector with k high bids at indices that
    sum to index_sum: each bidder in turn bids low unless the remaining high
    bids could no longer fit after it."""
    n = params.n
    mask = 0
    for i in range(1, n + 1):
        # k high bids among bidders i+1..n sum to at least k*(i+1) + k*(k-1)/2
        if k and (k > n - i or index_sum < k * (i + 1) + k * (k - 1) // 2):
            mask |= 1 << (i - 1)
            k -= 1
            index_sum -= i
    return BidVector(params, mask)


def _sum_blocks(n: int, h: int):
    """The (k, S) pairs that the derandomized sweep scans, in blocks of at
    most _SUM_BLOCK pairs, each a list of (k, first S, count) pieces.

    Class k's revenue is periodic in S with period lcm(B(k), B(k-1)), so the
    top period of its S range holds its maximum and the largest S attaining
    it.  A block holds a run of whole top periods; a class whose top period
    exceeds _SUM_BLOCK is cut into slices of its own, in increasing S.
    """
    moduli = enumeration.derand_classes(n, h)[0].tolist()
    block, size = [], 0
    for k in range(n + 1):
        top = k * (2 * n - k + 1) // 2
        first = max(k * (k + 1) // 2, top + 1 - lcm(moduli[k], moduli[max(k - 1, 0)]))
        count = top + 1 - first
        if block and size + count > _SUM_BLOCK:
            yield block
            block, size = [], 0
        if count > _SUM_BLOCK:
            for start in range(first, top + 1, _SUM_BLOCK):
                yield [(k, start, min(_SUM_BLOCK, top + 1 - start))]
        else:
            block.append((k, first, count))
            size += count
    if block:
        yield block


def worst_case_sweep(
    params: AuctionParams,
    auction: str,
    *,
    limit: int = DEFAULT_ENUMERATION_LIMIT,
    threads: Optional[int] = None,
) -> LossProfile:
    """Profile the additive loss over every bid vector at (n, h), by class.

    No vector is enumerated.  DOP, threshold-DOP and the randomized auction
    lose the same on every vector with k high bids.  The derandomized
    auction's revenue depends on k and on S, the sum of the high bidders'
    indices, and every S in [k(k+1)/2, k(2n-k+1)/2] occurs, so its worst
    case is a maximum over at most n**3/6 (k, S) pairs.  Only the top
    period of each class's S range is scanned (_sum_blocks), the classes
    laid end to end in shared blocks of at most _SUM_BLOCK pairs, one
    derand_revenues call and one segmented reduction per block.  Each class k
    keeps its worst loss and the largest S that attains it, the top sum when
    the loss depends on k alone.  The witness is the lexicographically least
    worst vector: the greedy lex-least vector of an index sum falls strictly
    in lex order as the sum grows, so each worst class offers the one at its
    largest worst sum, and the least of those wins.

    `limit` caps n; `threads` is accepted for callers that pass it and has
    no effect, since the sweep does no chunked work.
    """
    n, h = params.n, params.h
    check_sweep(params, auction, limit)

    per_nh: dict[int, Loss] = {}
    worst_sum: dict[int, int] = {}
    if auction == "derand":
        for block in _sum_blocks(n, h):
            classes, firsts, counts = (np.array(column) for column in zip(*block))
            starts = np.cumsum(counts) - counts
            pairs = int(counts.sum())
            index = np.arange(pairs)
            # a block of one class passes k as a scalar: numpy divides by one
            # modulus several times faster than by an array of them
            k = classes[0] if len(block) == 1 else np.repeat(classes, counts)
            sums = index + np.repeat(firsts - starts, counts)
            losses = np.maximum(n, h * k) - enumeration.derand_revenues(k, sums, n, h)
            # keys order a class's pairs by loss, then by S (exactly, as
            # |loss| <= h*n), so its largest key is its worst loss at its
            # largest worst S
            worst, last = np.divmod(np.maximum.reduceat(losses * pairs + index, starts), pairs)
            for k, loss, index_sum in zip(classes.tolist(), worst.tolist(), sums[last].tolist()):
                if k not in per_nh or loss >= per_nh[k]:  # ties move to the larger S
                    per_nh[k], worst_sum[k] = loss, index_sum
    else:
        for k in range(n + 1):
            if auction == "random":
                revenue = expected_revenue_by_count(n, h, k)
            else:
                t = enumeration.count_threshold(auction, n, h)
                revenue = int(enumeration.count_revenues(k, n, h, t))
            per_nh[k], worst_sum[k] = max(n, h * k) - revenue, k * (2 * n - k + 1) // 2
    global_worst = max(per_nh.values())
    witness = min(
        (_lex_least(params, k, worst_sum[k]) for k in per_nh if per_nh[k] == global_worst),
        key=lambda b: b.bids,
    )
    return LossProfile(
        params, auction, per_nh, global_worst, witness, _normalize(global_worst, n, h)
    )


# ---------------------------------------------------------------------------
# Enumerated sweep: the differential oracle of worst_case_sweep
# ---------------------------------------------------------------------------


def _sweep_chunk(losses_of, n: int, lo: int, hi: int):
    high = enumeration.high_matrix(enumeration.mask_array(lo, hi), n)
    losses = losses_of(high)
    per_k = np.full(n + 1, _NEG_INF, dtype=np.int64)
    np.maximum.at(per_k, high.sum(axis=0, dtype=np.int8), losses)
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

        def losses_of(high):
            return rank[high.sum(axis=0, dtype=np.int8)]

        def value(level) -> Loss:
            return levels[level]
    else:
        kernel = enumeration.REVENUE_KERNELS[auction]

        def losses_of(high):
            return np.maximum(n, h * high.sum(axis=0)) - kernel(high, h)

        value = int

    per_k_all = np.full(n + 1, _NEG_INF, dtype=np.int64)
    worst = best_key = best_mask = None
    for lo, hi in _mask_ranges(n):
        per_k, chunk_worst, chunk_key, chunk_mask = _sweep_chunk(losses_of, n, lo, hi)
        per_k_all = np.maximum(per_k_all, per_k)
        if worst is None or chunk_worst > worst or (chunk_worst == worst and chunk_key < best_key):
            worst, best_key, best_mask = chunk_worst, chunk_key, chunk_mask
    per_nh = {k: value(int(per_k_all[k])) for k in range(n + 1)}
    global_worst = value(worst)
    return LossProfile(
        params,
        auction,
        per_nh,
        global_worst,
        BidVector(params, best_mask),
        _normalize(global_worst, n, h),
    )


# ---------------------------------------------------------------------------
# The DOP failure mode
# ---------------------------------------------------------------------------


def check_demo(h: int, n: Optional[int] = None) -> int:
    """Raise ValueError unless dop_unboundedness_demo accepts (h, n); return
    the demo's n, which defaults to h**2."""
    n = h * h if n is None else n
    if n > DEMO_N_LIMIT:
        raise ValueError(f"n={n} exceeds the demo limit {DEMO_N_LIMIT}")
    require_divisible(n, h)
    return n


def _dop_demo(h: int, n: Optional[int] = None) -> tuple[BidVector, Fraction]:
    """The demo's vector, with exactly n/h high bids, and DOP's benchmark-to-
    revenue ratio on it."""
    n = check_demo(h, n)
    n_high = n // h
    b = BidVector(AuctionParams(n, h), ((1 << n_high) - 1) << (n - n_high))
    return b, Fraction(offline_optimal(b), run_auction(b, "dop").revenue)


def dop_unboundedness_demo(h: int, n: Optional[int] = None) -> Fraction:
    """Benchmark-to-revenue ratio of DOP on a vector with exactly n/h high bids.

    Returns n / n_high = h: on this input DOP offers every high bidder 1 and
    every low bidder h, so only the high bidders pay, 1 each.
    """
    return _dop_demo(h, n)[1]


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


@dataclass(frozen=True)
class BlockCheckResult:
    ok: bool
    violation: Optional[BlockViolation]


def block_structure_check(b: BidVector, offers: Optional[tuple[int, ...]] = None) -> BlockCheckResult:
    """Verify the combinatorial structure of the derandomized offers on b.

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
                return BlockCheckResult(
                    False,
                    BlockViolation(bidder_class, block_index, block, got, a_plus, partial),
                )
    return BlockCheckResult(True, None)


def check_block_sweep(params: AuctionParams, limit: int) -> None:
    """Raise ValueError unless block_structure_sweep accepts these arguments."""
    _require_enumerable(params.n, limit)
    _require_kernel_domain(params.n, params.h)


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
        high = enumeration.high_matrix(enumeration.mask_array(lo, hi), n)
        offered_h = enumeration.offers_for_bidder(high, h, "derand")
        failing = np.flatnonzero(_block_failures(high, offered_h, h))
        if failing.size:
            col = failing[0]
            b = BidVector(params, lo + int(col))
            offers = tuple(np.where(offered_h[:, col], h, LOW_VALUE).tolist())
            result = block_structure_check(b, offers=offers)
            if result.ok:
                raise IdentityCheckError("derand-block-kernel-agrees-with-scalar-check", b.to_string())
            return b.mask + 1, (b, result.violation)
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

    The mask ranges stream: a bidder whose bit is below the range size is
    compared inside each range, and one whose bit is above it keeps its row
    from a range with the bit clear until the partner range lo | bit arrives.
    So at most about 2**n bytes wait at once (offer bools, or the randomized
    auction's int8 counts), beside one range's (n, rows) bid matrix and
    kernel output, where the whole sweep held n * 2**n before.
    """
    n, h = params.n, params.h
    _check_sweep_args(params, auction)
    _require_enumerable(n, limit)
    first: dict[int, int] = {}
    waiting: dict[tuple[int, int], np.ndarray] = {}
    for lo, hi in _mask_ranges(n):
        # the bid matrix is a temporary, so the next range's can reuse its memory
        rows = enumeration.offers_for_bidder(
            enumeration.high_matrix(enumeration.mask_array(lo, hi), n), h, auction
        )
        for i, field in enumerate(rows, start=1):
            if i in first:
                continue
            bit = 1 << (i - 1)
            if bit < hi - lo:
                # mask lo + a * 2**i + b * 2**(i-1) + c sits at [a, b, c]
                pairs = field.reshape(-1, 2, bit)
                bids_low, bids_high, base = pairs[:, 0], pairs[:, 1], lo
            elif lo & bit == 0:
                waiting[i, lo] = field.copy()  # a copy frees the range's matrix
                continue
            else:
                base = lo - bit
                bids_low, bids_high = waiting.pop((i, base)), field
            # ranges and pairs arrive in increasing order of base, and a
            # hit's mask has bit i-1 clear, so the first hit is the smallest
            # mask whose flip changes the offer
            hits = np.flatnonzero(bids_low != bids_high)
            if len(hits):
                a, c = divmod(int(hits[0]), bit)
                first[i] = base + ((a << i) | c)
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
    require_divisible(n, h)
    return _expectation_over_counts(n, h, np.maximum(n, h * np.arange(n + 1)).tolist())


def exact_e_dop_under_d(n: int, h: int) -> Fraction:
    """Expected revenue of threshold-DOP under the hard distribution, summed
    from the count kernel's per-count revenues (int64 is exact: each is at
    most h*n); the bid-independence argument forces the total to equal n.
    """
    t = enumeration.count_threshold("threshold-dop", n, h)
    revenues = enumeration.count_revenues(np.arange(n + 1), n, h, t)
    return _expectation_over_counts(n, h, revenues.tolist())


def lower_bound_gap(n: int, h: int) -> Fraction:
    """(n - n/h) * P[K = n/h]: the exact expected-loss floor at (n, h)."""
    require_divisible(n, h)
    t = n // h
    p = Fraction(1, h)
    return (n - t) * comb(n, t) * p**t * (1 - p) ** (n - t)


def check_distribution_identities(n: int, h: int) -> tuple[Fraction, Fraction, Fraction]:
    """Evaluate and cross-check the three exact quantities; raise on any break."""
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
    """Sampling estimates, with the exact identities attached when h | n."""

    n: int
    h: int
    auction: str
    samples: int
    seed: int
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
    """Draw `rows` bid vectors (high w.p. 1/h) and settle the named auction.

    The draws are made in blocks of at most _MC_BLOCK_DRAWS, first every
    bid, then the randomized auction's coins, so the stream is consumed as
    by one (rows, n) draw of each and no block's coin matrix exceeds 4 MB.
    Bids are drawn as int32, which takes numpy's same 32-bit Lemire path as
    an int64 draw and so reads the same stream.  The coins come from `coins`
    when it is given (a range of a cut chunk), else from rng after the bids.
    """
    step = max(1, _MC_BLOCK_DRAWS // n)
    blocks = [(lo, min(lo + step, rows)) for lo in range(0, rows, step)]
    high = np.empty((rows, n), dtype=bool)
    for lo, hi in blocks:
        np.equal(rng.integers(0, h, size=(hi - lo, n), dtype=np.int32), 0, out=high[lo:hi])
    k = high.sum(axis=1, dtype=np.int64)
    opt = np.maximum(n, h * k)
    if auction == "derand":
        revenue = enumeration.derand_revenues(k, enumeration.high_index_sum(high.T), n, h)
    elif auction == "random":
        revenue = _random_revenues(rng if coins is None else coins, high, k, h, blocks)
    else:
        revenue = enumeration.count_revenues(k, n, h, enumeration.count_threshold(auction, n, h))
    return revenue, opt


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


def _random_revenues(rng, high, k, h: int, blocks) -> np.ndarray:
    """Settle the randomized auction on the rows of high, one coin block at
    a time: bidder i is offered h iff its coin falls below the 64-bit
    threshold of n_h(i), which is k for a low bidder and k - 1 for a high
    one, or that probability is 1."""
    n = high.shape[1]
    thresholds, always = _coin_thresholds(n, h)
    revenue = np.empty(len(k), dtype=np.int64)
    for lo, hi in blocks:
        coins = rng.integers(0, 1 << 64, size=(hi - lo, n), dtype=np.uint64, endpoint=False)
        bits, low_m = high[lo:hi], k[lo:hi]
        high_m = np.maximum(low_m - 1, 0)  # a row without high bidders never reads it
        low_offered = ((coins < thresholds[low_m, None]) & ~bits).sum(axis=1)
        high_offered = ((coins < thresholds[high_m, None]) & bits).sum(axis=1)
        low_offered = np.where(always[low_m], n - low_m, low_offered)
        high_offered = np.where(always[high_m], low_m, high_offered)
        revenue[lo:hi] = revenue_by_offer_counts(n, h, low_offered, high_offered)
    return revenue


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


def check_monte_carlo(n: int, h: int, auction: str, samples: int) -> None:
    """Raise ValueError unless monte_carlo_under_d accepts these arguments."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    _check_sweep_args(AuctionParams(n, h), auction)
    _require_kernel_domain(n, h)  # the random auction's sums are int64 too
    if n > MC_N_LIMIT:
        raise ValueError(f"n={n} exceeds the Monte Carlo limit {MC_N_LIMIT}")
    if samples > MC_SAMPLES_LIMIT:
        raise ValueError(f"samples={samples} exceeds the Monte Carlo limit {MC_SAMPLES_LIMIT}")


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
    """
    check_monte_carlo(n, h, auction, samples)

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
        n=n,
        h=h,
        auction=auction,
        samples=samples,
        seed=seed,
        mc_mean_auction=mean_auction,
        mc_stderr_auction=stderr_auction,
        mc_mean_opt=mean_opt,
        mc_stderr_opt=stderr_opt,
        exact_e_opt=e_opt,
        exact_e_dop=e_dop,
        gap=gap,
    )
