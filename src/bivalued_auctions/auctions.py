"""The bid-independent auctions: DOP, its threshold variant, the randomized
two-price auction, and the deterministic modular derandomization.

Every offer rule here is a function of the other bids only: it reads a
MaskedBidVector, which holds no own bid.  The single statistic that drives
all of them is n_high(i), the number of high bids among bidders other than i.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .core import (
    LOW_VALUE,
    BidVector,
    MaskedBidVector,
    OfferSchedule,
    count_high_excluding,
    revenue_by_offer_counts,
    settle,
)
from .exact import MEMO_SIZE, SurdSum, bernoulli_threshold, ceil_scaled_sqrt
from .rng import draw_u64

AUCTION_NAMES = ("dop", "threshold-dop", "derand", "random")
DETERMINISTIC_AUCTIONS = ("dop", "threshold-dop", "derand")


def require_divisible(n: int, h: int) -> None:
    if n % h != 0:
        raise ValueError(f"n={n} must be divisible by h={h}")


def require_auction(auction: str) -> None:
    if auction not in AUCTION_NAMES:
        raise ValueError(f"unknown auction {auction!r}; expected one of {AUCTION_NAMES}")


# ---------------------------------------------------------------------------
# DOP and its threshold variant
# ---------------------------------------------------------------------------


def dop_offer(m: MaskedBidVector) -> int:
    """Offer the revenue-maximizing fixed price for the other n-1 bids.

    Price h earns h * n_high(i) from the others, price 1 earns n - 1; ties go
    to h.
    """
    params = m.params
    nh_i = count_high_excluding(m)
    return params.h if params.h * nh_i >= params.n - 1 else LOW_VALUE


def threshold_dop_offer(m: MaskedBidVector) -> int:
    """Offer h iff at least n/h of the other bids are high (h must divide n)."""
    params = m.params
    require_divisible(params.n, params.h)
    return params.h if count_high_excluding(m) >= params.n // params.h else LOW_VALUE


def count_threshold(auction: str, n: int, h: int) -> int:
    """The least n_h(i) at which DOP or threshold-DOP offers h."""
    if auction == "dop":
        return -(-(n - 1) // h)  # h * n_h(i) >= n - 1
    if auction == "threshold-dop":
        require_divisible(n, h)
        return n // h
    raise ValueError(f"{auction!r} is not a count-threshold auction")


def count_revenues(k, n: int, h: int, t: int):
    """Revenue of the count-threshold rule on vectors with k high bids (an
    int or an int array): a low bidder sees k high bids and a high bidder
    k - 1, and each is offered h iff it sees at least t."""
    return revenue_by_offer_counts(n, h, (n - k) * (k >= t), k * (k > t))


# ---------------------------------------------------------------------------
# Randomized auction
# ---------------------------------------------------------------------------


@lru_cache(maxsize=MEMO_SIZE)
def offer_probability_by_count(n: int, h: int, nh_i: int) -> SurdSum:
    """Probability of offering h to a bidder who sees nh_i high bids.

    The raw value is (h * nh_i - n) / (h * sqrt(nh_i)), clamped into [0, 1].
    The sign check precedes any division, so nh_i = 0 is safe.
    """
    a = h * nh_i - n
    if a <= 0:
        return SurdSum.of(0)
    if a * a >= h * h * nh_i:
        return SurdSum.of(1)
    # a / (h * sqrt(nh_i)) == (a / (h * nh_i)) * sqrt(nh_i)
    return SurdSum.multiple(Fraction(a, h * nh_i), nh_i)


def random_offer_probability(m: MaskedBidVector) -> SurdSum:
    params = m.params
    return offer_probability_by_count(params.n, params.h, count_high_excluding(m))


@lru_cache(maxsize=MEMO_SIZE)
def expected_revenue_by_count(n: int, h: int, n_high: int) -> SurdSum:
    """Exact expected revenue of the randomized auction on any vector with
    n_high high bids.

    By linearity it is the pay-by-counts revenue of the expected counts
    offered h: each low bidder with probability p(n_high), each high bidder
    with probability p(n_high - 1).
    """
    low = (n - n_high) * offer_probability_by_count(n, h, n_high)
    high = n_high * offer_probability_by_count(n, h, max(n_high - 1, 0))
    return revenue_by_offer_counts(n, h, low, high)


@lru_cache(maxsize=MEMO_SIZE)
def _offer_threshold_by_count(n: int, h: int, nh_i: int) -> int:
    return bernoulli_threshold(offer_probability_by_count(n, h, nh_i))


def random_auction_run(b: BidVector, seed: int) -> OfferSchedule:
    """One sampled run: bidder i is offered h with probability p(i).

    The coin for bidder i is the keyed draw (seed, i) compared against an
    exact 64-bit threshold, so runs are reproducible and the per-bidder coins
    are independent of evaluation order.
    """
    n, h = b.n, b.h
    offers = []
    for i in range(1, n + 1):
        threshold = _offer_threshold_by_count(n, h, count_high_excluding(b.mask_bidder(i)))
        offers.append(h if draw_u64(seed, i) < threshold else LOW_VALUE)
    return settle(b, offers)


# ---------------------------------------------------------------------------
# Derandomized auction
# ---------------------------------------------------------------------------


@lru_cache(maxsize=MEMO_SIZE)
def derand_modulus(h: int, nh_i: int) -> int:
    """ceil(h * sqrt(nh_i)), clamped to at least 1 so the modulus is valid."""
    return max(1, ceil_scaled_sqrt(h, nh_i))


@dataclass(frozen=True)
class DerandState:
    """Intermediate quantities of the modular offer rule for one bidder.

    a_val = h * n_high(i) - n; b_val = ceil(h * sqrt(n_high(i))) >= 1;
    x_val sums the indices of the other high bidders; y_val counts high
    bidders before i; z_val = (i + x_val + (b_val - 1) * y_val) mod b_val.
    """

    a_val: int
    b_val: int
    x_val: int
    y_val: int
    z_val: int

    def __post_init__(self) -> None:
        if self.b_val < 1:
            raise ValueError("modulus must be >= 1")
        if not 0 <= self.z_val < self.b_val:
            raise ValueError("z_val must be reduced into [0, b_val)")

    @property
    def offers_high(self) -> bool:
        return self.z_val < self.a_val


def derand_state(m: MaskedBidVector) -> DerandState:
    """Compute the offer-rule state for bidder m.masked_index from the view."""
    n, h, i = m.params.n, m.params.h, m.masked_index
    nh_i = count_high_excluding(m)
    highs = bin(m.others)[:1:-1]  # highs[j - 1] == "1" iff bidder j bids high
    x = sum(j for j, bit in enumerate(highs, start=1) if bit == "1")
    y = highs[: i - 1].count("1")
    b_val = derand_modulus(h, nh_i)
    z = (i + x + (b_val - 1) * y) % b_val
    return DerandState(a_val=h * nh_i - n, b_val=b_val, x_val=x, y_val=y, z_val=z)


def derand_offer(m: MaskedBidVector) -> int:
    """Deterministic offer: h iff z_val < a_val."""
    return m.params.h if derand_state(m).offers_high else LOW_VALUE


def derand_run(b: BidVector) -> OfferSchedule:
    """Settle b under the derandomized rule, one bidder at a time."""
    return run_auction(b, "derand")


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

_OFFER_RULES = {
    "dop": dop_offer,
    "threshold-dop": threshold_dop_offer,
    "derand": derand_offer,
}


def offer_rule(auction: str):
    """The per-bidder offer function of a named deterministic auction."""
    try:
        return _OFFER_RULES[auction]
    except KeyError:
        raise ValueError(
            f"unknown deterministic auction {auction!r}; expected one of {DETERMINISTIC_AUCTIONS}"
        ) from None


def run_auction(b: BidVector, auction: str) -> OfferSchedule:
    """Run a named deterministic auction on b."""
    rule = offer_rule(auction)
    return settle(b, [rule(b.mask_bidder(i)) for i in range(1, b.n + 1)])
