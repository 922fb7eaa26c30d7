"""The certifier's numpy-free half.

The domain limits and checks of every command, the identity error, the
per-vector loss, the class-by-class worst case and the DOP demo.  DOP,
threshold-DOP and the randomized auction lose the same on every vector with
k high bids, so their worst case reads one int or SurdSum per class and no
array.  Only the derandomized sweep scans (k, S) pairs with numpy; that scan
lives in analysis, which worst_case_sweep imports for that auction alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .auctions import (
    count_revenues,
    count_threshold,
    expected_revenue_by_count,
    require_auction,
    require_divisible,
    run_auction,
)
from .core import AuctionParams, BidVector, count_high, offline_optimal
from .exact import SurdSum

Loss = Union[int, SurdSum]

DEFAULT_ENUMERATION_LIMIT = 20
# Hard cap on n for anything that walks all 2**n vectors, whatever its
# limit: 2**30 vectors is hours of work, and the int64 masks and lex keys
# stay exact far beyond it.
ENUMERATION_CAP = 30
# The DOP demo runs the scalar rule on one vector of n bidders, at a cost
# quadratic in n: about half a second at this cap.
DEMO_N_LIMIT = 1 << 16
# Monte Carlo settles each block of at most analysis._MC_BLOCK_DRAWS draws as
# it is drawn, so a worker's memory does not grow with n: at this cap,
# `mc --n 16384 --h 10 --auction dop --samples 32768 --threads 2` peaks at
# about 40 MB on 2 cores, where holding each job's (rows, n) bid matrix
# peaked at 496-552 MB.  The randomized auction's whole chunks add n/8 bytes
# a row until their coins are drawn.
MC_N_LIMIT = 1 << 14
# Monte Carlo lists every chunk, and with threads submits each to a pool, before
# any draw: 2**30 samples are 2**16 chunks, which peaked at 134 MB on 2 threads.
MC_SAMPLES_LIMIT = 1 << 30

# The int64 arithmetic of the vector kernels and of the chunk reductions is
# exact while h * n <= 2**24.  Every benchmark value, revenue and loss is at
# most h*n; the derandomized offer table compares hashes below n**2 with
# h*m - n < h*n; and the largest sum, a Monte Carlo chunk's squared revenues,
# is at most analysis._MC_CHUNK * (h*n)**2 <= 2**62.
KERNEL_HN_LIMIT = 1 << 24


class IdentityCheckError(Exception):
    """An exact identity that the library certifies failed to hold."""

    def __init__(self, invariant: str, detail: str = ""):
        self.invariant = invariant
        super().__init__(f"identity violated: {invariant}" + (f" ({detail})" if detail else ""))


# ---------------------------------------------------------------------------
# Domain checks
# ---------------------------------------------------------------------------


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


def check_demo(h: int, n: Optional[int] = None) -> int:
    """Raise ValueError unless dop_unboundedness_demo accepts (h, n); return
    the demo's n, which defaults to h**2."""
    n = h * h if n is None else n
    if n > DEMO_N_LIMIT:
        raise ValueError(f"n={n} exceeds the demo limit {DEMO_N_LIMIT}")
    require_divisible(n, h)
    return n


def check_block_sweep(params: AuctionParams, limit: int) -> None:
    """Raise ValueError unless block_structure_sweep accepts these arguments."""
    _require_enumerable(params.n, limit)
    _require_kernel_domain(params.n, params.h)


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


# ---------------------------------------------------------------------------
# Per-vector loss and the worst case
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
    case is a maximum over at most n**3/6 (k, S) pairs, which
    analysis._derand_worst_by_class scans.  Each class k keeps its worst
    loss and the largest S that attains it, the top sum when the loss
    depends on k alone.  The witness is the lexicographically least worst
    vector: the greedy lex-least vector of an index sum falls strictly in
    lex order as the sum grows, so each worst class offers the one at its
    largest worst sum, and the least of those wins.

    `limit` caps n; `threads` is accepted for callers that pass it and has
    no effect, since the sweep does no chunked work.
    """
    n, h = params.n, params.h
    check_sweep(params, auction, limit)

    if auction == "derand":
        from . import analysis  # the (k, S) scan is the sweep's only numpy

        per_nh, worst_sum = analysis._derand_worst_by_class(n, h)
    else:
        per_nh, worst_sum = {}, {}
        for k in range(n + 1):
            if auction == "random":
                revenue = expected_revenue_by_count(n, h, k)
            else:
                revenue = int(count_revenues(k, n, h, count_threshold(auction, n, h)))
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
# The DOP failure mode
# ---------------------------------------------------------------------------


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
