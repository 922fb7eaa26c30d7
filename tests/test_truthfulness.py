"""Bid-independence: no bidder can move their own offer by lying.

The acceptance suite runs the full n <= 14 sweep; here smaller exhaustive
checks cover every auction plus the scalar probability route the vectorized
sweep does not exercise.
"""

from __future__ import annotations

from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from bivalued_auctions import (
    AUCTION_NAMES,
    AuctionParams,
    BidVector,
    analysis,
    bid_independence_violations,
    enumeration,
    offer_rule,
    random_offer_probability,
)


@pytest.mark.parametrize("auction", AUCTION_NAMES)
@pytest.mark.parametrize("n,h", [(6, 2), (6, 3), (8, 2), (9, 3), (8, 4)])
def test_no_violations_small(auction, n, h):
    assert bid_independence_violations(AuctionParams(n, h), auction) == []


def test_limit_enforced():
    with pytest.raises(ValueError):
        bid_independence_violations(AuctionParams(15, 2), "dop")


def test_unknown_auction():
    with pytest.raises(ValueError):
        bid_independence_violations(AuctionParams(4, 2), "second-price")


def test_domain_rejects_before_any_enumeration(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(analysis, "_mask_ranges", forbidden)
    monkeypatch.setattr(enumeration, "mask_array", forbidden)
    with pytest.raises(ValueError, match="^n=7 must be divisible by h=2$"):
        bid_independence_violations(AuctionParams(7, 2), "threshold-dop", limit=7)


@pytest.mark.parametrize("n,h", [(8, 2), (9, 3)])
def test_probability_route_flip_invariant(n, h):
    # the vectorized sweep reasons through the count statistic; this walks the
    # actual masked-view call for every vector and bidder, against the
    # oracle's probability for bidder i with its own bid flipped
    p = AuctionParams(n, h)
    for mask in range(1 << n):
        b = BidVector(p, mask)
        for i in range(1, n + 1):
            got = Decimal(random_offer_probability(b.mask_bidder(i)).to_decimal(40))
            flipped = list(b.flip(i).bids)
            want = oracles.random_offer_probability_decimal(
                n, h, oracles.others_high(flipped, h, i)
            )
            assert abs(got - want) < Decimal(10) ** -35, (mask, i)


@pytest.mark.parametrize("auction", ["dop", "threshold-dop", "derand"])
@pytest.mark.parametrize("n,h", [(8, 2), (9, 2)])  # at (9, 2) DOP meets its tie h*n_h = n - 1
def test_offer_rule_flip_invariant_scalar(auction, n, h):
    p = AuctionParams(n, h)
    rule = offer_rule(auction)
    if auction == "threshold-dop" and n % h:
        # threshold-DOP is defined only where h divides n, so its rule refuses the view
        with pytest.raises(ValueError, match=f"^n={n} must be divisible by h={h}$"):
            rule(BidVector(p, 0).mask_bidder(1))
        return
    oracle = {
        "dop": oracles.dop_offers,
        "threshold-dop": oracles.threshold_dop_offers,
        "derand": oracles.derand_offers,
    }[auction]
    for mask in range(1 << n):
        b = BidVector(p, mask)
        for i in range(1, n + 1):
            # the rule on the view without bidder i's bid, against the oracle's
            # offer to bidder i on the full bids with that bid flipped
            assert rule(b.mask_bidder(i)) == oracle(list(b.flip(i).bids), h)[i - 1], (mask, i)


def _smallest_witnesses(n: int, differs) -> list[tuple[int, int]]:
    """(bidder, smallest mask whose flip of that bidder's bid differs), by brute force."""
    found = []
    for i in range(1, n + 1):
        masks = [m for m in range(1 << n) if differs(m, m ^ (1 << (i - 1)), i)]
        if masks:
            found.append((i, min(masks)))
    return found


def _neighbour_offers(high, h, auction):
    """Bidder i is offered h iff it and its right neighbour (cyclically) bid high."""
    return high & np.roll(high, -1, axis=0)


_seen_high_counts = enumeration.seen_high_counts


def _pair_count(high):
    """n_h(i) plus the adjacent high pairs: a "count" that moves with bidder
    i's bid beyond its own bit whenever a neighbour bids high."""
    return _seen_high_counts(high) + (high[:-1] & high[1:]).sum(axis=0, dtype=np.int8)


@pytest.mark.parametrize("n", [3, 6, 9])
def test_own_bid_dependence_is_reported_for_deterministic_offers(monkeypatch, n):
    def rule(mask, i):
        return (mask >> (i - 1)) & (mask >> (i % n)) & 1

    monkeypatch.setattr(enumeration, "offers_for_bidder", _neighbour_offers)
    want = _smallest_witnesses(n, lambda m, f, i: rule(m, i) != rule(f, i))
    assert want == [(i, 1 << i) for i in range(1, n)] + [(n, 1)]
    got = bid_independence_violations(AuctionParams(n, 2), "derand")
    assert [(i, b.mask) for i, b in got] == want


@pytest.mark.parametrize("n", [3, 6, 9])
def test_own_bid_dependence_is_reported_for_the_count_statistic(monkeypatch, n):
    def statistic(mask, i):
        return int(_pair_count(enumeration.high_matrix(np.array([mask]), n))[i - 1, 0])

    monkeypatch.setattr(enumeration, "seen_high_counts", _pair_count)
    want = _smallest_witnesses(n, lambda m, f, i: statistic(m, i) != statistic(f, i))
    assert want == [(1, 2)] + [(i, 1 << (i - 2)) for i in range(2, n + 1)]
    got = bid_independence_violations(AuctionParams(n, 2), "random")
    assert [(i, b.mask) for i, b in got] == want


@pytest.mark.parametrize("n", [4, 7, 10])
def test_witnesses_do_not_depend_on_mask_ranges(monkeypatch, n):
    # 2**3-mask ranges split every n > 3 into several ranges
    p = AuctionParams(n, 2)
    with monkeypatch.context() as m:
        m.setattr(enumeration, "offers_for_bidder", _neighbour_offers)
        offers = bid_independence_violations(p, "derand")
        m.setattr(analysis, "_MASK_RANGE", 1 << 3)
        assert bid_independence_violations(p, "derand") == offers != []
    with monkeypatch.context() as m:
        m.setattr(enumeration, "seen_high_counts", _pair_count)
        counts = bid_independence_violations(p, "random")
        m.setattr(analysis, "_MASK_RANGE", 1 << 3)
        assert bid_independence_violations(p, "random") == counts != []


def _strided_violations(params: AuctionParams, auction: str) -> list[tuple[int, BidVector]]:
    """bid_independence_violations as it compared before the shared low-bit
    block: each range's matrix from high_matrix(mask_array(lo, hi), n), and
    each in-range bidder's flips as the halves of a strided
    reshape(-1, 2, bit) view.  The differential oracle of the shifted compare."""
    n, h = params.n, params.h
    first: dict[int, int] = {}
    waiting: dict[tuple[int, int], np.ndarray] = {}
    for lo, hi in analysis._mask_ranges(n):
        high = enumeration.high_matrix(enumeration.mask_array(lo, hi), n)
        for i, field in enumerate(enumeration.offers_for_bidder(high, h, auction), start=1):
            if i in first:
                continue
            bit = 1 << (i - 1)
            if bit < hi - lo:
                # mask lo + a * 2**i + b * 2**(i-1) + c sits at [a, b, c]
                pairs = field.reshape(-1, 2, bit)
                bids_low, bids_high, base = pairs[:, 0], pairs[:, 1], lo
            elif lo & bit == 0:
                waiting[i, lo] = field.copy()
                continue
            else:
                base = lo - bit
                bids_low, bids_high = waiting.pop((i, base)), field
            hits = np.flatnonzero(bids_low != bids_high)
            if len(hits):
                a, c = divmod(int(hits[0]), bit)
                first[i] = base + ((a << i) | c)
    return [(i, BidVector(params, first[i])) for i in sorted(first)]


@st.composite
def _broken_kernels(draw):
    """(n, h, auction, mask range, flips): each flip (i, reads, pattern) turns
    bidder i's offer over (or adds 1 to its count, for "random") on the masks
    whose bits j in reads equal pattern's.  Bid-independence breaks for each
    flipped bidder that reads its own bit, and only for those."""
    mask_range = draw(st.sampled_from([1 << 3, 1 << 16]))
    # sampled_from draws n evenly, so bidders above a 2**16 range come up often
    n = draw(st.sampled_from(range(3, 13 if mask_range == 1 << 3 else 19)))
    h = draw(st.integers(2, 4))
    auction = draw(st.sampled_from(AUCTION_NAMES).filter(lambda a: a != "threshold-dop" or n % h == 0))
    bidder = st.integers(1, n)
    flips = draw(st.lists(
        st.tuples(bidder, st.sets(bidder, max_size=4), st.integers(0, (1 << n) - 1)),
        min_size=1, max_size=3, unique_by=lambda flip: flip[0],
    ))
    return n, h, auction, mask_range, flips


@settings(max_examples=60, deadline=None)
@given(_broken_kernels())
@example((18, 3, "dop", 1 << 16, [(17, {17, 2}, 0), (18, {18}, 1 << 17), (5, {5, 18}, 0)]))
@example((18, 3, "random", 1 << 16, [(16, {16, 17}, 1 << 16), (18, {1, 18}, 1)]))
@example((18, 2, "derand", 1 << 16, [(1, {1, 16}, 1 << 15), (18, {18, 17, 3}, 3 << 16)]))
@example((10, 2, "threshold-dop", 1 << 3, [(2, {2}, 0), (9, {9, 1}, 1), (4, {3, 10}, 0)]))
def test_shifted_compare_matches_the_strided_one(case):
    n, h, auction, mask_range, flips = case
    offers_for_bidder = enumeration.offers_for_bidder

    def broken(high, h, auction):
        offers = offers_for_bidder(high, h, auction)
        for i, reads, pattern in flips:
            on = np.ones(high.shape[1], dtype=bool)
            for j in reads:
                on &= high[j - 1] == bool(pattern >> (j - 1) & 1)
            if auction == "random":
                offers[i - 1] += on
            else:
                offers[i - 1] ^= on
        return offers

    p = AuctionParams(n, h)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(analysis, "_MASK_RANGE", mask_range)
        m.setattr(enumeration, "offers_for_bidder", broken)
        got = bid_independence_violations(p, auction, limit=n)
        assert got == _strided_violations(p, auction)
    assert [i for i, _ in got] == sorted(i for i, reads, _ in flips if i in reads)
