"""Vectorized offer kernels against the scalar per-bidder rules."""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bivalued_auctions import (
    LOW_VALUE,
    AuctionParams,
    BidVector,
    count_high_excluding,
    derand_modulus,
    offer_rule,
    run_auction,
)
from bivalued_auctions.analysis import _sample_revenues
from bivalued_auctions.certify import KERNEL_HN_LIMIT
from bivalued_auctions.enumeration import (
    DERAND_OFFERS_N_LIMIT,
    REVENUE_KERNELS,
    count_revenues,
    count_threshold,
    derand_classes,
    derand_offers,
    derand_revenues,
    high_index_sum,
    high_matrix,
    lex_keys,
    mask_array,
    offers_for_bidder,
    seen_high_counts,
)
from bivalued_auctions.rng import stream_generator

import oracles

DETERMINISTIC = ["dop", "threshold-dop", "derand"]


def test_mask_array_range():
    arr = mask_array(3, 9)
    assert arr.dtype == np.int64
    assert list(arr) == [3, 4, 5, 6, 7, 8]


def test_high_matrix_is_bidder_major():
    n = 5
    masks = mask_array(0, 1 << n)
    high = high_matrix(masks, n)
    assert high.shape == (n, 1 << n) and high.dtype == bool
    for mask in range(1 << n):
        assert list(high[:, mask]) == [bool(mask >> (i - 1) & 1) for i in range(1, n + 1)]


def _python_index_sums(high) -> list[int]:
    return [sum(i for i, bit in enumerate(column, start=1) if bit) for column in high.T.tolist()]


def test_high_index_sum_matches_python():
    n = 9
    high = high_matrix(mask_array(0, 1 << n), n)
    assert high_index_sum(high).tolist() == _python_index_sums(high)
    # Monte Carlo's sample-major (rows, n) draw, read in place as draw.T, and
    # a non-contiguous slice of that matrix's columns
    rng = np.random.default_rng(3)
    for n in (1, 31, 64):
        draw = rng.random((50, n)) < 0.3
        for high in (draw.T, draw.T[:, ::3]):
            assert high_index_sum(high).tolist() == _python_index_sums(high), n


def test_seen_high_counts_hold_127_bidders_in_int8():
    high = np.ones((127, 2), dtype=bool)
    high[5, 1] = False
    seen = seen_high_counts(high)
    assert seen.dtype == np.int8
    want = [[sum(column) - bit for bit in column] for column in high.T.tolist()]
    assert seen.T.tolist() == want
    with pytest.raises(ValueError, match="int8 count limit 127"):
        seen_high_counts(np.ones((128, 1), dtype=bool))


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
    revenues = REVENUE_KERNELS[auction](high_matrix(masks, n), h)
    for mask in range(1 << n):
        assert revenues[mask] == run_auction(BidVector(p, mask), auction).revenue


@pytest.mark.parametrize("auction", DETERMINISTIC)
def test_offers_for_bidder_match_scalar(auction):
    n, h = 8, 2
    p = AuctionParams(n, h)
    offered_h = offers_for_bidder(high_matrix(mask_array(0, 1 << n), n), h, auction)
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
    high = high_matrix(np.array(masks, dtype=np.int64), n)
    offered_h = offers_for_bidder(high, h, auction)
    revenues = REVENUE_KERNELS[auction](high, h)
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


@functools.cache
def _ceil_mult_sqrt(mult: int, m: int) -> int:
    """oracles.ceil_mult_sqrt's count up, started just below the float
    estimate (off by far less than 2 while mult * sqrt(m) < 2**40), so that
    h up to KERNEL_HN_LIMIT // n costs a few steps."""
    t = max(0, int(mult * math.sqrt(m)) - 2)
    while t * t < mult * mult * m:
        t += 1
    return t


def test_warm_ceil_matches_the_oracle_count():
    for mult in range(0, 60):
        for m in range(0, 70):
            assert _ceil_mult_sqrt(mult, m) == oracles.ceil_mult_sqrt(mult, m)


def _oracle_derand_offers(high: np.ndarray, h: int, monkeypatch) -> np.ndarray:
    """tests/oracles.derand_offers on every column of the bidder-major high."""
    monkeypatch.setattr(oracles, "ceil_mult_sqrt", _ceil_mult_sqrt)
    columns = [
        oracles.derand_offers([h if bid else LOW_VALUE for bid in column], h)
        for column in high.T.tolist()
    ]
    return np.array(columns, dtype=np.int64).T == h


@pytest.mark.parametrize("h", [2, 3, 5, 8, None])
def test_derand_table_gather_matches_oracle_on_every_mask(monkeypatch, h):
    # None stands for the largest h of the kernel domain, KERNEL_HN_LIMIT // n
    for n in range(1, 13):
        top = h or KERNEL_HN_LIMIT // n
        high = high_matrix(mask_array(0, 1 << n), n)
        want = _oracle_derand_offers(high, top, monkeypatch)
        assert np.array_equal(offers_for_bidder(high, top, "derand"), want), (n, top)


@pytest.mark.parametrize("n", [30, 64])
@pytest.mark.parametrize("h", [2, 3, 5, 8, None])
def test_derand_table_gather_on_all_low_and_all_high(monkeypatch, n, h):
    # all-low bidders read row m = 0 at v <= n; all-high ones read row
    # m = n - 1 up to v = n(n+1)/2, the largest hash any vector reaches
    h = h or KERNEL_HN_LIMIT // n
    high = np.zeros((n, 2), dtype=bool)
    high[:, 1] = True
    want = _oracle_derand_offers(high, h, monkeypatch)
    assert np.array_equal(derand_offers(high, h), want)


def test_derand_table_is_bounded():
    assert len(derand_offers(np.ones((DERAND_OFFERS_N_LIMIT, 1), dtype=bool), 2)) == (
        DERAND_OFFERS_N_LIMIT
    )
    with pytest.raises(ValueError, match="derand offer table limit"):
        derand_offers(np.ones((DERAND_OFFERS_N_LIMIT + 1, 1), dtype=bool), 2)


@pytest.mark.parametrize("n", [*range(1, 13), 30, 64])
@pytest.mark.parametrize("h", [2, 3, 5, 8, None])
def test_derand_classes_match_the_scalar_modulus_and_clamp(n, h):
    # None stands for the largest h of the kernel domain, KERNEL_HN_LIMIT // n
    h = h or KERNEL_HN_LIMIT // n
    moduli, a_plus = derand_classes(n, h)
    assert moduli.dtype == a_plus.dtype == np.int64
    for m in range(n + 1):
        b_val = derand_modulus(h, m)
        assert (moduli[m], a_plus[m]) == (b_val, min(max(h * m - n, 0), b_val)), m
    for table in (moduli, a_plus):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 7


def _assert_random_rows_are_seen_counts(n: int, masks) -> None:
    p = AuctionParams(n, 2)
    seen = offers_for_bidder(high_matrix(np.array(masks, dtype=np.int64), n), 2, "random")
    assert seen.shape == (n, len(masks)) and seen.dtype == np.int8
    for column, mask in zip(seen.T.tolist(), masks):
        b = BidVector(p, mask)
        assert column == [count_high_excluding(b.mask_bidder(i)) for i in range(1, n + 1)]


@pytest.mark.parametrize("n", range(1, 11))
def test_random_rows_are_seen_high_counts_on_every_mask(n):
    _assert_random_rows_are_seen_counts(n, range(1 << n))


@st.composite
def wide_masks(draw):
    """(n, masks) for n up to the enumeration cap of 30 bidders."""
    n = draw(st.integers(1, 30))
    return n, draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=16))


@given(wide_masks())
@settings(max_examples=200, deadline=None)
def test_random_rows_are_seen_high_counts(case):
    _assert_random_rows_are_seen_counts(*case)


def test_high_matrix_rejects_masks_wider_than_int32():
    assert high_matrix(np.array([(1 << 31) - 1]), 31).all()
    with pytest.raises(ValueError, match="int32 mask limit"):
        high_matrix(np.array([1 << 31]), 32)
