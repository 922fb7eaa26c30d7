"""Offer rules: the two deterministic-optimal-price variants, the randomized
auction (probabilities, exact expectation, sampled runs), dispatch."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from bivalued_auctions import (
    AUCTION_NAMES,
    AuctionParams,
    BidVector,
    SurdSum,
    count_high,
    dop_offer,
    expected_revenue_by_count,
    offer_probability_by_count,
    offline_optimal,
    random_auction_run,
    random_offer_probability,
    run_auction,
    threshold_dop_offer,
)


def vector(n, h, text):
    return BidVector.from_string(AuctionParams(n, h), text)


class TestDopOffer:
    def test_ten_percent_high_starves_everyone(self):
        p = AuctionParams(100, 10)
        b = BidVector(p, (1 << 10) - 1)
        # high bidder sees 9 highs: 90 < 99, offered 1; low sees 10: 100 >= 99, offered h
        assert dop_offer(b.mask_bidder(1)) == 1
        assert dop_offer(b.mask_bidder(11)) == 10
        assert run_auction(b, "dop").revenue == 10

    def test_two_bidders_tie_goes_high(self):
        b = vector(2, 2, "HH")
        assert dop_offer(b.mask_bidder(1)) == 2  # 2*1 >= 1

    def test_exact_tie_offers_h(self):
        b = vector(5, 2, "HHLLL")
        # low bidder sees 2 highs: 2*2 == n-1 == 4
        assert dop_offer(b.mask_bidder(3)) == 2


class TestThresholdDopOffer:
    def test_boundary_inclusive(self):
        p = AuctionParams(100, 10)
        b = BidVector(p, (1 << 11) - 1)  # 11 highs: a high bidder sees 10
        assert threshold_dop_offer(b.mask_bidder(1)) == 10

    def test_below_threshold(self):
        p = AuctionParams(100, 10)
        b = BidVector(p, (1 << 10) - 1)  # a high bidder sees 9
        assert threshold_dop_offer(b.mask_bidder(1)) == 1

    def test_no_highs(self):
        p = AuctionParams(100, 10)
        b = BidVector(p, 0)
        assert threshold_dop_offer(b.mask_bidder(50)) == 1

    def test_requires_divisibility(self):
        b = vector(5, 2, "HHHHH")
        with pytest.raises(ValueError):
            threshold_dop_offer(b.mask_bidder(1))

    @pytest.mark.parametrize("h", [2, 3, 4])
    def test_coincides_with_dop_when_h_divides_n(self, h):
        # h | n makes ceil((n-1)/h) == n/h, so the two rules are identical
        n = 3 * h
        p = AuctionParams(n, h)
        for mask in range(1 << n):
            b = BidVector(p, mask)
            for i in range(1, n + 1):
                m = b.mask_bidder(i)
                assert dop_offer(m) == threshold_dop_offer(m)


class TestOfferProbability:
    def test_clamp_at_zero(self):
        assert offer_probability_by_count(100, 10, 5) == 0

    def test_interior_value(self):
        p = offer_probability_by_count(100, 10, 11)
        assert p == SurdSum.multiple(Fraction(1, 11), 11)  # 1/sqrt(11)
        assert p.to_decimal(4) == "0.3015"

    def test_clamp_at_one(self):
        assert offer_probability_by_count(10, 10, 9) == 1  # 80 >= 10*sqrt(9)

    def test_zero_highs_safe(self):
        assert offer_probability_by_count(7, 3, 0) == 0

    @given(st.integers(1, 40), st.integers(2, 10), st.data())
    def test_in_unit_interval_and_matches_decimal_oracle(self, n, h, data):
        m = data.draw(st.integers(0, n))
        p = offer_probability_by_count(n, h, m)
        assert p.sign() >= 0
        assert p <= 1
        if h * m <= n:
            assert p == 0
        want = oracles.random_offer_probability_decimal(n, h, m)
        assert abs(Fraction(p.to_decimal(25)) - Fraction(str(want))) < Fraction(1, 10**20)

    def test_masked_view_route(self):
        p = AuctionParams(100, 10)
        b = BidVector(p, (1 << 11) - 1)
        low = random_offer_probability(b.mask_bidder(50))
        assert low == offer_probability_by_count(100, 10, 11)
        high = random_offer_probability(b.mask_bidder(1))
        assert high == offer_probability_by_count(100, 10, 10)


class TestExactExpectation:
    def test_all_low_is_n(self):
        b = vector(6, 3, "LLLLLL")
        assert expected_revenue_by_count(b.n, b.h, count_high(b)) == 6

    def test_boundary_count_equals_opt(self):
        p = AuctionParams(100, 10)
        b = BidVector(p, (1 << 10) - 1)
        assert expected_revenue_by_count(b.n, b.h, count_high(b)) == 100
        assert offline_optimal(b) == 100

    def test_small_counts_handled_directly(self):
        # n_high in {0, 1} never divides by sqrt(n_high - 1)
        assert expected_revenue_by_count(5, 2, 0) == 5
        assert expected_revenue_by_count(5, 2, 1) == 5
        assert expected_revenue_by_count(1, 4, 1) == 1  # lone high bidder, p_H = 0

    @pytest.mark.parametrize("n,h", [(12, 2), (12, 3), (9, 4), (7, 5)])
    def test_matches_decimal_oracle(self, n, h):
        for k in range(n + 1):
            exact = expected_revenue_by_count(n, h, k)
            want = oracles.random_expected_revenue_decimal(n, h, k)
            assert abs(Fraction(exact.to_decimal(30)) - Fraction(str(want))) < Fraction(
                1, 10**25
            )

    def test_monte_carlo_agreement_at_eleven_high(self):
        n, h, k = 100, 10, 11
        exact = float(expected_revenue_by_count(n, h, k))
        p_low = float(offer_probability_by_count(n, h, k))
        p_high = float(offer_probability_by_count(n, h, k - 1))
        rng = np.random.default_rng(20260822)
        samples = 10**6
        low_payers = rng.binomial(n - k, 1.0 - p_low, size=samples)
        high_winners = rng.binomial(k, p_high, size=samples)
        revenue = low_payers + h * high_winners + (k - high_winners)
        mean = revenue.mean()
        se = revenue.std(ddof=1) / samples**0.5
        assert abs(mean - exact) < 3 * se


class TestRandomAuctionRun:
    def test_all_low_deterministic(self):
        b = vector(5, 4, "LLLLL")
        s = random_auction_run(b, seed=123)
        assert s.offers == (1,) * 5
        assert s.revenue == 5

    def test_all_high_clamped_to_one(self):
        b = vector(4, 8, "HHHH")  # 24 - 4 = 20 >= 8*sqrt(3)
        s = random_auction_run(b, seed=9)
        assert s.offers == (8,) * 4
        assert s.revenue == 32

    def test_reproducible_for_fixed_seed(self):
        b = vector(4, 4, "HLHL")
        assert random_auction_run(b, seed=7) == random_auction_run(b, seed=7)

    def test_empirical_frequency_tracks_probability(self):
        # n=12, h=3, five highs: a low bidder is offered h w.p. 1/sqrt(5)
        b = vector(12, 3, "HHHHHLLLLLLL")
        p = float(offer_probability_by_count(12, 3, 5))
        seeds = range(4000)
        hits = sum(1 for s in seeds if random_auction_run(b, s).offers[5] == 3)
        freq = hits / 4000
        se = (p * (1 - p) / 4000) ** 0.5
        assert abs(freq - p) < 3 * se

    @given(st.integers(1, 8), st.integers(2, 6), st.data())
    @settings(max_examples=40, deadline=None)
    def test_revenue_is_accepted_offers_and_at_most_the_bids(self, n, h, data):
        mask = data.draw(st.integers(0, (1 << n) - 1))
        seed = data.draw(st.integers(0, 2**32))
        b = BidVector(AuctionParams(n, h), mask)
        s = random_auction_run(b, seed)
        for i in range(1, n + 1):
            assert s.offers[i - 1] in (1, h)
        assert s.revenue == sum(o for i, o in enumerate(s.offers, 1) if o <= b.bid(i))
        # every payment is at most its bid; the benchmark max(n, h*k) is no bound
        k = count_high(b)
        assert 0 <= s.revenue <= h * k + (n - k)

    def test_a_sampled_run_can_beat_the_benchmark(self):
        # offering h to both highs and 1 to the low bidder earns h*k + 1
        b = vector(3, 5, "LHH")
        s = random_auction_run(b, seed=166)
        assert s.offers == (1, 5, 5)
        assert s.revenue == 11 > offline_optimal(b) == 10


def test_run_auction_dispatch():
    b = vector(4, 2, "HLHL")
    for name in AUCTION_NAMES:
        if name == "random":
            continue
        assert run_auction(b, name).revenue >= 0
    with pytest.raises(ValueError):
        run_auction(b, "vickrey")
