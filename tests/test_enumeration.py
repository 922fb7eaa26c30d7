"""Vectorized offer kernels against the scalar per-bidder rules."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bivalued_auctions import LOW_VALUE, AuctionParams, BidVector, offer_rule, run_auction
from bivalued_auctions.analysis import KERNEL_HN_LIMIT, _sample_revenues
from bivalued_auctions.enumeration import (
    REVENUE_KERNELS,
    count_revenues,
    count_threshold,
    derand_offers,
    derand_revenues,
    high_index_sum,
    high_matrix,
    lex_keys,
    mask_array,
    offers_for_bidder,
    popcount,
)
from bivalued_auctions.rng import stream_generator

DETERMINISTIC = ["dop", "threshold-dop", "derand"]


def test_mask_array_range():
    arr = mask_array(3, 9)
    assert arr.dtype == np.int64
    assert list(arr) == [3, 4, 5, 6, 7, 8]


def test_popcount_matches_python():
    masks = mask_array(0, 1 << 10)
    want = np.array([int(m).bit_count() for m in masks])
    assert np.array_equal(popcount(masks), want)


def test_high_matrix_is_bidder_major():
    n = 5
    masks = mask_array(0, 1 << n)
    high = high_matrix(masks, n)
    assert high.shape == (n, 1 << n) and high.dtype == bool
    for mask in range(1 << n):
        assert list(high[:, mask]) == [bool(mask >> (i - 1) & 1) for i in range(1, n + 1)]


def test_high_index_sum_matches_python():
    n = 9
    masks = mask_array(0, 1 << n)
    want = np.array(
        [sum(i for i in range(1, n + 1) if m >> (i - 1) & 1) for m in map(int, masks)]
    )
    assert np.array_equal(high_index_sum(high_matrix(masks, n)), want)


def test_lex_keys_sort_like_bid_tuples():
    n, h = 6, 2
    p = AuctionParams(n, h)
    masks = mask_array(0, 1 << n)
    keys = lex_keys(masks, n)
    by_key = [BidVector(p, int(m)).bids for m in masks[np.argsort(keys)]]
    assert by_key == sorted(by_key)


@pytest.mark.parametrize("auction", DETERMINISTIC)
@pytest.mark.parametrize("n,h", [(6, 2), (6, 3), (8, 2), (8, 4), (9, 3), (10, 2)])
def test_kernels_match_scalar_run(auction, n, h):
    if auction == "threshold-dop" and n % h:
        pytest.skip("needs h | n")
    p = AuctionParams(n, h)
    masks = mask_array(0, 1 << n)
    revenues = REVENUE_KERNELS[auction](masks, n, h)
    for mask in range(1 << n):
        assert revenues[mask] == run_auction(BidVector(p, mask), auction).revenue


@pytest.mark.parametrize("auction", DETERMINISTIC)
def test_offers_for_bidder_match_scalar(auction):
    n, h = 8, 2
    p = AuctionParams(n, h)
    offered_h = offers_for_bidder(mask_array(0, 1 << n), n, h, auction)
    assert offered_h.shape == (n, 1 << n)
    for mask in range(1 << n):
        want = run_auction(BidVector(p, mask), auction).offers
        assert tuple(np.where(offered_h[:, mask], h, LOW_VALUE)) == want


def test_count_threshold_rejects_other_auctions():
    with pytest.raises(ValueError):
        count_threshold("derand", 6, 2)
    with pytest.raises(ValueError):
        count_threshold("threshold-dop", 7, 2)


@st.composite
def kernel_cases(draw):
    """(auction, n, h, masks) anywhere in the kernels' accepted domain."""
    auction = draw(st.sampled_from(DETERMINISTIC))
    n = draw(st.integers(2 if auction == "threshold-dop" else 1, 12))
    if auction == "threshold-dop":
        h = draw(st.sampled_from([d for d in range(2, n + 1) if n % d == 0]))
    else:
        h = draw(st.one_of(st.integers(2, 40), st.integers(2, KERNEL_HN_LIMIT // n)))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=16))
    return auction, n, h, masks


@given(kernel_cases())
@settings(max_examples=400, deadline=None)
def test_kernels_match_scalar_rules(case):
    auction, n, h, masks = case
    p = AuctionParams(n, h)
    arr = np.array(masks, dtype=np.int64)
    offered_h = offers_for_bidder(arr, n, h, auction)
    revenues = REVENUE_KERNELS[auction](arr, n, h)
    # the Monte Carlo shape: one (rows, n) draw, k as its row sums
    draw = np.array([[bool(m >> (i - 1) & 1) for i in range(1, n + 1)] for m in masks])
    if auction == "derand":
        sampled = derand_revenues(draw.sum(axis=1), high_index_sum(draw.T), n, h)
    else:
        sampled = count_revenues(draw.sum(axis=1), n, h, count_threshold(auction, n, h))
    rule = offer_rule(auction)
    for col, mask in enumerate(masks):
        b = BidVector(p, mask)
        want = tuple(rule(b.mask_bidder(i)) for i in range(1, n + 1))
        assert tuple(np.where(offered_h[:, col], h, LOW_VALUE)) == want
        assert revenues[col] == sampled[col] == run_auction(b, auction).revenue


@pytest.mark.parametrize("auction", DETERMINISTIC)
def test_sampled_revenues_match_scalar_run(auction):
    n, h, rows = 12, 3, 300
    revenue, opt = _sample_revenues(stream_generator(5, 0), n, h, auction, rows)
    high = stream_generator(5, 0).integers(0, h, size=(rows, n)) == 0
    p = AuctionParams(n, h)
    for row, bids in enumerate(high):
        b = BidVector.from_bids(p, [h if bid else LOW_VALUE for bid in bids])
        assert revenue[row] == run_auction(b, auction).revenue
        assert opt[row] == max(n, h * int(bids.sum()))


@st.composite
def bid_matrices(draw):
    """(n, h, bids): a (rows, n) boolean bid matrix, h anywhere in the int64
    domain up to its largest accepted value."""
    n = draw(st.integers(1, 64))
    top = KERNEL_HN_LIMIT // n
    h = draw(st.one_of(st.integers(2, 40), st.integers(2, top), st.just(top)))
    rows = draw(st.integers(1, 6))
    bits = draw(st.lists(st.booleans(), min_size=rows * n, max_size=rows * n))
    return n, h, np.array(bits, dtype=bool).reshape(rows, n)


@given(bid_matrices())
@settings(max_examples=200, deadline=None)
def test_derand_closed_form_matches_walk_and_scalar(case):
    n, h, bids = case
    high = np.ascontiguousarray(bids.T)
    closed = derand_revenues(bids.sum(axis=1), high_index_sum(high), n, h)
    walked = np.zeros(len(bids), dtype=np.int64)
    for bit, offered_h in zip(high, derand_offers(high, h)):
        walked += np.where(offered_h, h * bit, LOW_VALUE)
    p = AuctionParams(n, h)
    for row, vector in enumerate(bids):
        b = BidVector.from_bids(p, [h if bid else LOW_VALUE for bid in vector])
        assert closed[row] == walked[row] == run_auction(b, "derand").revenue
