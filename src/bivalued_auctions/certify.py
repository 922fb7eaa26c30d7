"""The certifier's numpy-free half, which owns the whole worst-case sweep.

The domain limits and checks of every command (cli keeps one of its own: the
`expectation` table limit), the identity error, the per-vector loss, the
class-by-class worst case and the DOP demo.  Each check_* checks only the
work of its own entry point; the identities and Monte Carlo, which attach
them when h | n, share the printable bound of the exact fields.  The
normalization loss / sqrt(n*h) lives here, beside its limit, but only cli's
loss row calls it, and only cli's `sweep` and `expectation` domains check
the limit: a LossProfile holds the worst loss itself.  DOP, threshold-DOP
and the randomized auction lose the same on every vector with k high bids,
so their worst case reads one int or SurdSum per class and no array.  Only
the derandomized sweep scans (k, S) pairs with numpy: its scan,
_derand_worst_by_class, imports numpy and enumeration when it runs, so
importing this module loads neither.  Nothing here imports analysis, which
imports from here the names it uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
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
# quadratic in n: 0.85-1.15 s at this cap on a 2-core Xeon.
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
# The `sweep` and `expectation` commands print loss / sqrt(n*h) exactly, and
# exact.square_free trial-divides n*h up to its cube root: a prime n*h just
# below this limit takes 0.2-0.6 s, and n*h = 2 * 10**25 about half a minute.
# cli._sweep_domain and cli._expectation_domain check it; the library sweep
# does not divide, and takes any h for the randomized auction.
NORMALIZE_HN_LIMIT = 1 << 64
# Every integer of the exact identities under the hard distribution, the
# fields that dist-d and mc print, is below h**n * h * n, and Python prints
# no int of more than 4300 digits (the default of sys.set_int_max_str_digits).
# The library entry points check it too, before any work: unchecked,
# check_distribution_identities(20000, 10) peaked at 152 MB, and
# monte_carlo_under_d(16384, 1024, "dop", 1, 0) at 235 MB.
_PRINTABLE = 10**4300


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


def _require_normalizable(n: int, h: int) -> None:
    if h * n > NORMALIZE_HN_LIMIT:
        raise ValueError(
            f"h*n = {h * n} exceeds {NORMALIZE_HN_LIMIT}, the limit for normalizing "
            "a loss by sqrt(h*n)"
        )


def _normalize(loss: Loss, n: int, h: int) -> SurdSum:
    """loss / sqrt(n*h), exactly: the normalized_loss that cli._loss_row prints."""
    return SurdSum.of(loss) * SurdSum.multiple(Fraction(1, n * h), n * h)


def _require_printable(n: int, h: int) -> None:
    """Reject, before any arithmetic, an (n, h) with h | n whose exact fields
    could not be printed."""
    # h**n >= 2**(n * (h.bit_length() - 1)), so a huge n never builds h**n
    if n % h == 0 and (
        n * (h.bit_length() - 1) >= _PRINTABLE.bit_length() or h**n * h * n >= _PRINTABLE
    ):
        raise ValueError(f"n={n}, h={h}: the exact fields need h**n*h*n < 10**4300, "
                         "the 4300-digit limit for printing an integer")


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


def check_identities(n: int, h: int) -> None:
    """Raise ValueError unless the identities accept (n, h): each of
    exact_e_opt_under_d, exact_e_dop_under_d and lower_bound_gap calls it first."""
    _require_printable(n, h)
    require_divisible(n, h)


def check_monte_carlo(
    n: int, h: int, auction: str, samples: int, seed: int, *, threads: Optional[int] = None
) -> None:
    """Raise ValueError unless monte_carlo_under_d accepts these arguments:
    the seed keys 64-bit hashes, and threads=None means every core."""
    _require_printable(n, h)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if not 0 <= seed < 1 << 64:
        raise ValueError("seed must fit in 64 bits")
    if threads is not None and threads < 1:
        raise ValueError("threads must be >= 1")
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
    """Worst additive loss of one auction over every bid vector at (n, h):
    the worst per high-bid count k, the worst overall, and the lex-least
    vector attaining it, whose params are the (n, h) swept.  Not normalized;
    `sweep` prints global_worst / sqrt(n*h) as normalized_loss."""

    per_nh_worst: dict[int, Loss]
    global_worst: Loss
    witness: BidVector


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
    _derand_worst_by_class scans.  Each class k keeps its worst
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
        per_nh, worst_sum = _derand_worst_by_class(n, h)
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
    return LossProfile(per_nh, global_worst, witness)


# (k, S) pairs per block of the derandomized sweep, which bounds its arrays
# whatever the S range of a class.  Blocks of 2**13 int64 pairs stay in a
# core's cache: at 2**16 the large-n sweeps ran about twice as long.
_SUM_BLOCK = 1 << 13


def _sum_blocks(n: int, moduli: list[int]):
    """The (k, S) pairs that the derandomized sweep scans, in blocks of at
    most _SUM_BLOCK pairs, each a list of (k, first S, count) pieces;
    moduli[k] is the class modulus B(k).

    Class k's revenue is periodic in S with period lcm(B(k), B(k-1)), so the
    top period of its S range holds its maximum and the largest S attaining
    it.  A block holds a run of whole top periods; a class whose top period
    exceeds _SUM_BLOCK is cut into slices of its own, in increasing S.
    """
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


def _derand_worst_by_class(n: int, h: int) -> tuple[dict[int, int], dict[int, int]]:
    """Per class k of the derandomized auction at (n, h): its worst loss, and
    the largest high-index sum S that attains it.

    Only the top period of each class's S range is scanned (_sum_blocks),
    the classes laid end to end in shared blocks of at most _SUM_BLOCK
    pairs, one derand_revenues call and one segmented reduction per block.
    """
    import numpy as np

    from . import enumeration

    per_nh: dict[int, int] = {}
    worst_sum: dict[int, int] = {}
    for block in _sum_blocks(n, enumeration.derand_classes(n, h)[0].tolist()):
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
    return per_nh, worst_sum


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
