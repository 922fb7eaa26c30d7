"""The modular derandomization: state arithmetic, hand traces, oracle
agreement, and the consecutive-block offer structure."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from bivalued_auctions import (
    AuctionParams,
    BidVector,
    block_structure_check,
    count_high,
    derand_modulus,
    derand_offer,
    derand_run,
    derand_state,
    offline_optimal,
)


def vector(n, h, text):
    return BidVector.from_string(AuctionParams(n, h), text)


class TestModulus:
    def test_values(self):
        assert derand_modulus(2, 3) == 4  # ceil(2 sqrt 3) = ceil(3.46)
        assert derand_modulus(2, 4) == 4
        assert derand_modulus(3, 2) == 5  # ceil(4.24)
        assert derand_modulus(2, 2) == 3  # ceil(2.83)

    def test_zero_highs_clamped_to_one(self):
        assert derand_modulus(2, 0) == 1
        assert derand_modulus(9, 0) == 1

    @given(st.integers(2, 20), st.integers(0, 400))
    def test_matches_counting_oracle(self, h, m):
        assert derand_modulus(h, m) == max(1, oracles.ceil_mult_sqrt(h, m))


class TestState:
    def test_all_high_hand_trace(self):
        b = vector(4, 2, "HHHH")
        s = derand_state(b.mask_bidder(1))
        assert (s.a_val, s.b_val, s.x_val, s.y_val, s.z_val) == (2, 4, 9, 0, 2)
        assert not s.offers_high  # z = 2 >= a = 2

    def test_all_low(self):
        b = vector(4, 2, "LLLL")
        for i in range(1, 5):
            s = derand_state(b.mask_bidder(i))
            assert s.a_val == -4
            assert s.x_val == 0 and s.y_val == 0
            assert not s.offers_high

    def test_zero_a_boundary(self):
        b = vector(4, 2, "HLHL")
        s = derand_state(b.mask_bidder(2))
        assert s.a_val == 0
        assert not s.offers_high  # z >= 0 > a - 1

    def test_z_in_range(self):
        for n, h in ((7, 2), (9, 3), (6, 5)):
            p = AuctionParams(n, h)
            for mask in range(1 << n):
                b = BidVector(p, mask)
                for i in range(1, n + 1):
                    s = derand_state(b.mask_bidder(i))
                    assert 0 <= s.z_val < s.b_val

    def test_state_ignores_own_bid(self):
        # the state from the view without bidder i's bid, against the oracle's
        # state for bidder i on the full bids with that bid flipped
        p = AuctionParams(8, 3)
        for mask in range(1 << 8):
            b = BidVector(p, mask)
            for i in range(1, 9):
                s = derand_state(b.mask_bidder(i))
                got = (s.a_val, s.b_val, s.x_val, s.y_val, s.z_val)
                assert got == oracles.derand_state(list(b.flip(i).bids), 3, i), (mask, i)


class TestRun:
    def test_all_high_hand_trace(self):
        s = derand_run(vector(4, 2, "HHHH"))
        assert s.offers == (1, 2, 2, 1)
        assert s.revenue == 6  # OPT is 8: loss 2 on this vector

    def test_low_pressure_vectors_collect_opt(self):
        # h * n_h <= n forces every a(i) <= 0: everyone offered 1
        s = derand_run(vector(4, 2, "HLHL"))
        assert s.offers == (1, 1, 1, 1)
        assert s.revenue == 4

    def test_all_low(self):
        assert derand_run(vector(6, 4, "LLLLLL")).revenue == 6

    @pytest.mark.parametrize("h", [2, 3, 5])
    @pytest.mark.parametrize("n", [1, 2, 5, 8, 10])
    def test_matches_naive_oracle_exhaustively(self, n, h):
        p = AuctionParams(n, h)
        for mask in range(1 << n):
            b = BidVector(p, mask)
            want = oracles.derand_offers([b.bid(i) for i in range(1, n + 1)], h)
            assert list(derand_run(b).offers) == want

    def test_run_agrees_with_per_bidder_offers(self):
        p = AuctionParams(9, 3)
        for mask in range(1 << 9):
            b = BidVector(p, mask)
            offers = derand_run(b).offers
            for i in range(1, 10):
                assert offers[i - 1] == derand_offer(b.mask_bidder(i))

    @given(st.integers(1, 12), st.integers(2, 9), st.data())
    @settings(max_examples=200, deadline=None)
    def test_revenue_dominance_at_extremes(self, n, h, data):
        mask = data.draw(st.integers(0, (1 << n) - 1))
        b = BidVector(AuctionParams(n, h), mask)
        if h * count_high(b) <= n:
            assert derand_run(b).revenue == n == offline_optimal(b)


class TestBlockStructure:
    def test_all_low_vacuous(self):
        assert block_structure_check(vector(5, 2, "LLLLL")) is None

    def test_all_high_blocks(self):
        # one full block of 4 high bidders, exactly a+ = 2 get h
        assert block_structure_check(vector(4, 2, "HHHH")) is None

    def test_detects_corrupted_offer(self):
        b = vector(4, 2, "HHHH")
        good = list(derand_run(b).offers)
        bad = tuple(1 if o == 2 else 2 for o in good[:1]) + tuple(good[1:])
        v = block_structure_check(b, offers=bad)
        assert v is not None
        assert v.bidder_class == "high"
        assert v.block_index == 0
        assert v.offered_high != v.expected

    def test_partial_block_only_bounded_above(self):
        # 5 high bidders at h=2: b_val = ceil(2 sqrt 4) = 4, trailing block of 1
        b = vector(5, 2, "HHHHH")
        assert block_structure_check(b) is None

    @pytest.mark.parametrize("n,h", [(10, 2), (10, 3), (9, 4), (12, 2)])
    def test_exhaustive_small(self, n, h):
        p = AuctionParams(n, h)
        for mask in range(1 << n):
            assert block_structure_check(BidVector(p, mask)) is None
