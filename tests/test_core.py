"""Bid vectors, masking, the fixed-price benchmark, and settlement."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from bivalued_auctions import (
    AuctionParams,
    BidVector,
    MaskedBidVector,
    count_high,
    count_high_excluding,
    offline_optimal,
    settle,
)


def test_params_validation():
    AuctionParams(1, 2)
    with pytest.raises(ValueError):
        AuctionParams(0, 2)
    with pytest.raises(ValueError):
        AuctionParams(4, 1)


class TestBidVector:
    def test_from_string_round_trip(self):
        p = AuctionParams(4, 2)
        b = BidVector.from_string(p, "HLHL")
        assert b.to_string() == "HLHL"
        assert b.bids == (2, 1, 2, 1)
        assert b.is_high(1) and not b.is_high(2)
        assert b.bid(1) == 2 and b.bid(2) == 1

    def test_from_bids(self):
        p = AuctionParams(3, 5)
        b = BidVector.from_bids(p, [5, 1, 5])
        assert b.to_string() == "HLH"
        with pytest.raises(ValueError):
            BidVector.from_bids(p, [5, 2, 5])
        with pytest.raises(ValueError):
            BidVector.from_bids(p, [5, 1])

    def test_one_based_indexing(self):
        b = BidVector.from_string(AuctionParams(3, 2), "HLL")
        with pytest.raises(IndexError):
            b.is_high(0)
        with pytest.raises(IndexError):
            b.bid(4)

    def test_flip(self):
        b = BidVector.from_string(AuctionParams(4, 2), "HLHL")
        assert b.flip(2).to_string() == "HHHL"
        assert b.flip(1).to_string() == "LLHL"
        assert b.flip(1).flip(1) == b

    def test_mask_outside_n_bits_is_rejected(self):
        p = AuctionParams(5, 3)
        BidVector(p, (1 << 5) - 1)
        for mask in (1 << 5, -1):
            with pytest.raises(ValueError, match="out of range for n=5"):
                BidVector(p, mask)

    def test_mask_rejects_out_of_range(self):
        b = BidVector(AuctionParams(5, 3), 0b10101)
        for i in (0, 6):
            with pytest.raises(IndexError, match=f"bidder index {i} out of range 1..5"):
                b.mask_bidder(i)
            with pytest.raises(IndexError):
                MaskedBidVector(b.params, i, b.mask)

    def test_masked_view_hides_own_bid(self):
        b = BidVector.from_string(AuctionParams(4, 2), "HLHL")
        m = b.mask_bidder(1)
        assert m.is_high(3)
        assert not m.is_high(2)
        with pytest.raises(ValueError):
            m.is_high(1)
        for j in (0, 5):
            with pytest.raises(IndexError):
                m.is_high(j)

    def test_masked_view_holds_no_own_bid(self):
        # the own bid cannot reach a rule: a view is the same object whatever
        # the masked bidder bids, and however its mask was given
        for n in range(1, 9):
            p = AuctionParams(n, 3)
            for mask in range(1 << n):
                b = BidVector(p, mask)
                for i in range(1, n + 1):
                    m = b.mask_bidder(i)
                    assert m == b.flip(i).mask_bidder(i)
                    assert m.others == mask & ~(1 << (i - 1))
                    assert MaskedBidVector(p, i, mask | 1 << (i - 1)) == m


def test_count_high_examples():
    p = AuctionParams(5, 3)
    assert count_high(BidVector.from_string(p, "LLLLL")) == 0
    assert count_high(BidVector.from_string(p, "HHHHH")) == 5
    p4 = AuctionParams(4, 3)
    assert count_high(BidVector.from_string(p4, "HLHL")) == 2


def test_count_high_excluding_examples():
    p = AuctionParams(4, 2)
    b = BidVector.from_string(p, "HLHL")
    assert count_high_excluding(b.mask_bidder(1)) == 1
    assert count_high_excluding(b.mask_bidder(2)) == 2
    all_low = BidVector.from_string(p, "LLLL")
    assert all(count_high_excluding(all_low.mask_bidder(i)) == 0 for i in range(1, 5))


def test_offline_optimal_examples():
    p = AuctionParams(4, 2)
    assert offline_optimal(BidVector.from_string(p, "HLLL")) == 4
    p100 = AuctionParams(100, 10)
    ten_high = BidVector(p100, (1 << 10) - 1)
    assert offline_optimal(ten_high) == 100  # boundary tie n = h * n_h


def test_offline_optimal_scales_past_the_mask_width():
    # 10^8 bidders, 10^6 high: the benchmark stays at n
    p = AuctionParams(10**8, 10)
    b = BidVector(p, (1 << 10**6) - 1)
    assert offline_optimal(b) == 10**8


class TestSettle:
    def test_all_low_offered_one(self):
        p = AuctionParams(6, 3)
        b = BidVector(p, 0)
        s = settle(b, [1] * 6)
        assert s.revenue == 6
        assert s.payments == (1,) * 6

    def test_all_low_offered_h(self):
        p = AuctionParams(6, 3)
        b = BidVector(p, 0)
        assert settle(b, [3] * 6).revenue == 0

    def test_mixed(self):
        p = AuctionParams(2, 5)
        b = BidVector.from_string(p, "HL")
        s = settle(b, [5, 1])
        assert s.payments == (5, 1)
        assert s.revenue == 6

    def test_rejects_bad_offers(self):
        p = AuctionParams(2, 5)
        b = BidVector(p, 0)
        with pytest.raises(ValueError):
            settle(b, [1])
        with pytest.raises(ValueError):
            settle(b, [1, 3])


@given(st.integers(1, 10), st.integers(2, 6), st.data())
def test_benchmark_dominates_both_prices(n, h, data):
    mask = data.draw(st.integers(0, (1 << n) - 1))
    b = BidVector(AuctionParams(n, h), mask)
    opt = offline_optimal(b)
    assert opt >= n
    assert opt >= h * count_high(b)
    assert opt in (n, h * count_high(b))


@given(st.integers(1, 9), st.integers(2, 5), st.data())
def test_masked_count_identity(n, h, data):
    mask = data.draw(st.integers(0, (1 << n) - 1))
    b = BidVector(AuctionParams(n, h), mask)
    for i in range(1, n + 1):
        expected = count_high(b) - (1 if b.is_high(i) else 0)
        assert count_high_excluding(b.mask_bidder(i)) == expected


@given(st.integers(1, 8), st.data())
def test_settle_monotone_in_bids(n, data):
    h = data.draw(st.integers(2, 5))
    p = AuctionParams(n, h)
    mask = data.draw(st.integers(0, (1 << n) - 1))
    b = BidVector(p, mask)
    offers = [data.draw(st.sampled_from([1, h])) for _ in range(n)]
    base = settle(b, offers).revenue
    for i in range(1, n + 1):
        if not b.is_high(i):
            assert settle(b.flip(i), offers).revenue >= base
