"""Sweeps, exact identities under the hard distribution, Monte Carlo."""

from __future__ import annotations

import os
from fractions import Fraction

import numpy as np
import pytest

import oracles
from bivalued_auctions import (
    AuctionParams,
    BidVector,
    IdentityCheckError,
    SurdSum,
    additive_loss,
    bid_independence_violations,
    block_structure_sweep,
    check_distribution_identities,
    count_high,
    dop_unboundedness_demo,
    exact_e_dop_under_d,
    exact_e_opt_under_d,
    expected_revenue_by_count,
    lower_bound_gap,
    monte_carlo_under_d,
    offline_optimal,
    worst_case_sweep,
)
from bivalued_auctions import analysis, certify
from bivalued_auctions.enumeration import derand_revenues
from test_hard_distribution import sequential_report


class TestAdditiveLoss:
    def test_all_low_derand(self):
        b = BidVector(AuctionParams(5, 2), 0)
        assert additive_loss(b, "derand") == 0

    def test_dop_catastrophe(self):
        p = AuctionParams(100, 10)
        b = BidVector(p, (1 << 10) - 1)
        assert additive_loss(b, "dop") == 90

    def test_derand_hand_trace(self):
        b = BidVector.from_string(AuctionParams(4, 2), "HHHH")
        assert additive_loss(b, "derand") == 2

    def test_random_is_exact(self):
        b = BidVector.from_string(AuctionParams(4, 2), "HHHH")
        loss = additive_loss(b, "random")
        assert isinstance(loss, SurdSum)
        # 8 - (4 * (2 * p_H + 1 - p_H)) with p_H = 1/sqrt(3), p_L irrelevant at n_h = n
        assert loss == SurdSum.of(4) - SurdSum.multiple(Fraction(4, 3), 3)

    def test_unknown_auction(self):
        b = BidVector(AuctionParams(4, 2), 0)
        with pytest.raises(ValueError):
            additive_loss(b, "first-price")


class TestWorstCaseSweep:
    def test_dop_matches_naive_brute_force(self):
        p = AuctionParams(4, 2)
        profile = worst_case_sweep(p, "dop")
        worst = -(10**9)
        for mask in range(16):
            b = BidVector(p, mask)
            bids = [b.bid(i) for i in range(1, 5)]
            loss = oracles.opt_revenue(bids, 2) - oracles.settle(
                bids, oracles.dop_offers(bids, 2)
            )
            worst = max(worst, loss)
        assert profile.global_worst == worst == 2

    def test_random_sweep_takes_any_h(self):
        # h*n above certify.NORMALIZE_HN_LIMIT: the sweep divides by nothing
        n, h = 2, 10**25 + 13
        profile = worst_case_sweep(AuctionParams(n, h), "random")
        assert profile.per_nh_worst == {
            k: max(n, h * k) - expected_revenue_by_count(n, h, k) for k in range(n + 1)
        }
        assert profile.witness.to_string() == "LH"

    def test_witness_reproduces_global_worst(self):
        for auction in ("dop", "threshold-dop", "derand", "random"):
            profile = worst_case_sweep(AuctionParams(8, 2), auction)
            assert additive_loss(profile.witness, auction) == profile.global_worst

    def test_global_worst_is_max_of_map(self):
        profile = worst_case_sweep(AuctionParams(9, 3), "derand")
        assert profile.global_worst == max(profile.per_nh_worst.values())
        assert set(profile.per_nh_worst) == set(range(10))

    def test_witness_is_lexicographically_least(self):
        # least bid tuple, so low bids sort before high ones position by position
        p = AuctionParams(6, 2)
        profile = worst_case_sweep(p, "derand")
        candidates = [
            BidVector(p, mask).bids
            for mask in range(1 << 6)
            if additive_loss(BidVector(p, mask), "derand") == profile.global_worst
        ]
        assert profile.witness.bids == min(candidates)

    def test_chunking_and_threads_change_nothing(self, monkeypatch):
        p = AuctionParams(10, 3)
        base = worst_case_sweep(p, "derand")
        monkeypatch.setattr(analysis, "_MASK_RANGE", 1 << 4)
        chunk4 = analysis.enumerated_sweep(p, "derand")
        monkeypatch.setattr(analysis, "_MASK_RANGE", 1 << 5)
        chunk5 = analysis.enumerated_sweep(p, "derand")
        threaded = worst_case_sweep(p, "derand", threads=3)
        assert chunk4 == chunk5 == threaded == base

    @pytest.mark.parametrize("h", range(2, 10))
    @pytest.mark.parametrize("auction", ["dop", "threshold-dop", "derand", "random"])
    def test_matches_enumerated_oracle(self, auction, h):
        for n in range(1, 13):
            if auction == "threshold-dop" and n % h:
                continue
            p = AuctionParams(n, h)
            assert worst_case_sweep(p, auction) == analysis.enumerated_sweep(p, auction), n

    @pytest.mark.parametrize("auction", ["dop", "threshold-dop", "random"])
    def test_tied_worst_classes_take_the_smaller_count(self, monkeypatch, auction):
        # no count-determined auction ties on the real grid, so revenues are
        # patched to lose the same at k = 2 and k = 6 and nothing elsewhere
        def tied_count_revenues(k, n, h, t):
            k = np.asarray(k)
            return np.maximum(n, h * k) - 5 * np.isin(k, (2, 6))

        def tied_expected_revenue(n, h, k):
            return SurdSum.of(max(n, h * k)) - (SurdSum.root(2) if k in (2, 6) else 0)

        # the sweep reads both names in certify, the enumerated oracle through
        # the count kernel and in analysis
        for owner in (certify, analysis.enumeration):
            monkeypatch.setattr(owner, "count_revenues", tied_count_revenues)
        for owner in (certify, analysis):
            monkeypatch.setattr(owner, "expected_revenue_by_count", tied_expected_revenue)
        p = AuctionParams(9, 3)
        profile = worst_case_sweep(p, auction)
        assert profile == analysis.enumerated_sweep(p, auction)
        worst = [k for k, loss in profile.per_nh_worst.items() if loss == profile.global_worst]
        assert worst == [2, 6]
        assert profile.witness.to_string() == "LLLLLLLHH"

    @pytest.mark.parametrize("h", range(2, 10))
    def test_sum_blocks_change_nothing(self, monkeypatch, h):
        monkeypatch.setattr(certify, "_SUM_BLOCK", 3)
        for n in range(1, 13):
            p = AuctionParams(n, h)
            assert worst_case_sweep(p, "derand") == analysis.enumerated_sweep(p, "derand"), n

    # Each n adds a slicing shape: one class, two, a block of every class,
    # and longer and longer runs of sliced classes.  At block 64 the small
    # classes at either end share blocks and the middle ones are cut; block
    # 3 cuts nearly every class into slices, which n <= 21 already shows.
    @pytest.mark.parametrize(
        "block, sizes",
        [(None, (1, 2, 3, 8, 21, 41, 60)), (64, (1, 2, 3, 8, 21, 41, 60)), (3, (1, 2, 3, 8, 21))],
    )
    @pytest.mark.parametrize("h", [2, 3, 5, 7, 10, 20, 100])
    def test_derand_matches_a_scan_of_every_sum(self, monkeypatch, block, sizes, h):
        if block:
            monkeypatch.setattr(certify, "_SUM_BLOCK", block)
        for n in sizes:
            per_k, witness = oracles.derand_full_range_sweep(
                n, h, lambda k, sums: derand_revenues(k, np.array(sums), n, h)
            )
            profile = worst_case_sweep(AuctionParams(n, h), "derand", limit=n)
            assert profile.per_nh_worst == per_k, n
            assert list(profile.witness.bids) == witness, n

    def test_derand_beyond_the_enumeration_cap(self):
        profile = worst_case_sweep(AuctionParams(200, 5), "derand", limit=200)
        assert profile.global_worst == 64
        assert additive_loss(profile.witness, "derand") == 64

    def test_random_sweep_is_exact_per_count(self):
        p = AuctionParams(7, 3)
        profile = worst_case_sweep(p, "random")
        for k, loss in profile.per_nh_worst.items():
            b = BidVector(p, (1 << k) - 1)
            assert additive_loss(b, "random") == loss
        assert count_high(profile.witness) in profile.per_nh_worst

    def test_enumeration_limit(self):
        with pytest.raises(ValueError):
            worst_case_sweep(AuctionParams(21, 2), "derand")
        worst_case_sweep(AuctionParams(5, 2), "derand", limit=5)
        with pytest.raises(ValueError):
            worst_case_sweep(AuctionParams(6, 2), "derand", limit=5)

    @pytest.mark.parametrize("auction", ["dop", "derand"])
    def test_largest_accepted_h_matches_scalar(self, auction):
        n = 4
        p = AuctionParams(n, certify.KERNEL_HN_LIMIT // n)
        want: dict[int, int] = {}
        for mask in range(1 << n):
            b = BidVector(p, mask)
            loss = additive_loss(b, auction)
            want[count_high(b)] = max(want.get(count_high(b), loss), loss)
        assert worst_case_sweep(p, auction).per_nh_worst == want

    def test_beyond_int64_domain_rejected(self):
        n = 4
        p = AuctionParams(n, certify.KERNEL_HN_LIMIT // n + 1)
        assert additive_loss(BidVector.from_string(p, "HHLL"), "dop") == 0
        calls = [
            lambda: worst_case_sweep(p, "dop"),
            lambda: worst_case_sweep(p, "derand"),
            lambda: bid_independence_violations(p, "derand"),
            lambda: block_structure_sweep(p),
            lambda: monte_carlo_under_d(n, p.h, "random", 10, seed=1),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="int64"):
                call()
        # the randomized sweep is exact arithmetic, not a kernel
        assert worst_case_sweep(p, "random").per_nh_worst[2] == additive_loss(
            BidVector.from_string(p, "HHLL"), "random"
        )

    def test_losses_reported_per_class_not_clamped_to_global(self):
        profile = worst_case_sweep(AuctionParams(8, 2), "derand")
        assert profile.per_nh_worst[0] == 0  # easy classes keep their own worst
        assert profile.global_worst == 4


class TestDopUnboundedness:
    @pytest.mark.parametrize("h,want", [(2, 2), (10, 10), (20, 20)])
    def test_ratio_equals_h(self, h, want):
        assert dop_unboundedness_demo(h) == want

    def test_explicit_n(self):
        assert dop_unboundedness_demo(2, 4) == 2
        assert dop_unboundedness_demo(10, 100) == 10

    def test_n_beyond_the_demo_limit_rejected(self):
        for h, n in ((1 << 62, None), (2, certify.DEMO_N_LIMIT + 2)):
            with pytest.raises(ValueError, match="demo limit"):
                dop_unboundedness_demo(h, n)

    def test_requires_divisibility(self):
        with pytest.raises(ValueError):
            dop_unboundedness_demo(3, 10)


class TestExactIdentities:
    def test_gap_hand_arithmetic(self):
        assert lower_bound_gap(4, 2) == Fraction(3, 4)

    def test_gap_large_point_decimal(self):
        gap = lower_bound_gap(100, 10)
        assert str(gap)  # exact rational, no overflow
        assert float(gap) == pytest.approx(11.8679, abs=1e-3)
        assert (gap * gap / 1000) < 1  # gap / sqrt(1000) ~ 0.375

    def test_e_dop_is_n(self):
        assert exact_e_dop_under_d(100, 10) == 100
        assert exact_e_dop_under_d(4, 2) == 4
        assert exact_e_dop_under_d(12, 3) == 12

    def test_e_opt_closed_form_at_n_equals_h(self):
        # n/h = 1: E = n + (n-1) C(n,1) (1/h) (1-1/h)^(n-1)
        for h in (2, 3, 5, 7):
            n = h
            want = n + (n - 1) * n * Fraction(1, h) * (1 - Fraction(1, h)) ** (n - 1)
            assert exact_e_opt_under_d(n, h) == want

    def test_decomposition(self):
        for n, h in ((4, 2), (12, 3), (100, 10), (16, 4)):
            assert exact_e_opt_under_d(n, h) - exact_e_dop_under_d(n, h) == lower_bound_gap(n, h)

    @pytest.mark.parametrize("n,h", [(8, 2), (12, 2), (12, 3), (12, 4), (9, 3)])
    def test_brute_force_agreement(self, n, h):
        e_opt = oracles.d_weighted_expectation(n, h, lambda bids: oracles.opt_revenue(bids, h))
        assert exact_e_opt_under_d(n, h) == e_opt
        e_dop = oracles.d_weighted_expectation(
            n,
            h,
            lambda bids: oracles.settle(bids, oracles.threshold_dop_offers(bids, h)),
        )
        assert exact_e_dop_under_d(n, h) == e_dop

    def test_divisibility_required(self):
        for fn in (exact_e_opt_under_d, exact_e_dop_under_d, lower_bound_gap):
            with pytest.raises(ValueError):
                fn(10, 3)

    def test_normalized_gap_stays_in_band(self):
        # gap / sqrt(n h) in [1/20, 1], checked as exact squares
        for h in (2, 3, 4, 5, 8, 10):
            for n in range(h, 201, h):
                gap = lower_bound_gap(n, h)
                ratio_sq = gap * gap / (n * h)
                assert Fraction(1, 400) <= ratio_sq <= 1, (n, h, float(gap))

    def test_check_passes_and_returns(self):
        e_opt, e_dop, gap = check_distribution_identities(20, 4)
        assert e_dop == 20
        assert e_opt - 20 == gap
        assert gap > 0

    def test_check_raises_on_perturbation(self, monkeypatch):
        monkeypatch.setattr(analysis, "exact_e_dop_under_d", lambda n, h: Fraction(n + 1))
        with pytest.raises(IdentityCheckError) as info:
            check_distribution_identities(8, 2)
        assert "expected-auction-revenue-equals-n" in str(info.value)


class TestBlockSweep:
    def test_clean_pass_counts_all_vectors(self):
        checked, failure = block_structure_sweep(AuctionParams(8, 2))
        assert checked == 256
        assert failure is None

    def test_limit(self):
        with pytest.raises(ValueError):
            block_structure_sweep(AuctionParams(21, 2))

    def test_cap_rejects_before_any_enumeration(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("enumeration or thread pool started")

        for owner, name in (
            (analysis, "_mask_ranges"),
            (analysis, "ThreadPoolExecutor"),
            (analysis.enumeration, "mask_array"),
        ):
            monkeypatch.setattr(owner, name, forbidden)
        p = AuctionParams(certify.ENUMERATION_CAP + 1, 2)
        calls = [
            lambda: block_structure_sweep(p, limit=64),
            lambda: bid_independence_violations(p, "derand", limit=64),
            lambda: bid_independence_violations(p, "random", limit=64),
            lambda: analysis.enumerated_sweep(p, "dop"),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="enumeration cap"):
                call()

    def test_kernel_flag_that_the_scalar_check_clears_is_an_identity_error(self, monkeypatch):
        # the vector check flags mask 5, which block_structure_check passes
        monkeypatch.setattr(analysis, "_block_failures", lambda high, *_: _masks_of(high) == 5)
        with pytest.raises(IdentityCheckError) as info:
            block_structure_sweep(AuctionParams(6, 2))
        assert info.value.invariant == "derand-block-kernel-agrees-with-scalar-check"
        assert str(info.value).endswith("(HLHLLL)")


def _masks_of(high: np.ndarray) -> np.ndarray:
    """The mask of each column of a bidder-major bid matrix."""
    return (1 << np.arange(len(high))) @ high


class TestMultipleMaskRanges:
    """The enumerating sweeps with 2**3-mask ranges, so that n <= 10 spans
    up to 128 ranges, against the same sweeps over one range."""

    @pytest.mark.parametrize("n,h", [(4, 2), (7, 3), (9, 3), (10, 2), (10, 5)])
    def test_clean_sweeps(self, monkeypatch, n, h):
        monkeypatch.setattr(analysis, "_MASK_RANGE", 1 << 3)
        p = AuctionParams(n, h)
        assert block_structure_sweep(p) == (1 << n, None)
        for auction in analysis.AUCTION_NAMES:
            if auction != "threshold-dop" or n % h == 0:
                assert bid_independence_violations(p, auction) == [], auction

    @pytest.mark.parametrize("target", [200, 517])
    def test_flipped_offer_gives_the_same_first_block_failure(self, monkeypatch, target):
        # bidder 1's offer on the vector with mask `target` is flipped
        offers_for_bidder = analysis.enumeration.offers_for_bidder

        def flipped(high, h, auction):
            offered_h = offers_for_bidder(high, h, auction)
            offered_h[0, _masks_of(high) == target] ^= True
            return offered_h

        monkeypatch.setattr(analysis.enumeration, "offers_for_bidder", flipped)
        p = AuctionParams(10, 3)
        one = block_structure_sweep(p)
        monkeypatch.setattr(analysis, "_MASK_RANGE", 1 << 3)
        assert block_structure_sweep(p) == one
        assert one[0] == target + 1 and one[1][0].mask == target

    @pytest.mark.parametrize("mask_range", [1 << 3, 1 << 16])
    def test_range_matrix_is_the_matrix_of_its_masks(self, monkeypatch, mask_range):
        monkeypatch.setattr(analysis, "_MASK_RANGE", mask_range)
        for n in (1, 2, 3, 4, 7, 17, 18):
            for lo, hi in analysis._mask_ranges(n)[:: max(1, (1 << n) // mask_range // 5)]:
                want = analysis.enumeration.high_matrix(analysis.enumeration.mask_array(lo, hi), n)
                got = analysis._range_matrix(lo, hi, n)
                assert got.flags.writeable and np.array_equal(got, want), (n, lo)
        assert not analysis._low_rows(mask_range).flags.writeable

    def test_one_bid_matrix_per_mask_range(self, monkeypatch):
        # each range's matrix is one _range_matrix call, and the low-bit block
        # it copies is built by high_matrix once per range size
        monkeypatch.setattr(analysis, "_MASK_RANGE", 1 << 3)
        range_matrix, high_matrix = analysis._range_matrix, analysis.enumeration.high_matrix
        ranges, builds = [], []

        def counted_range(lo, hi, n):
            ranges.append((lo, hi))
            return range_matrix(lo, hi, n)

        def counted_build(masks, n):
            builds.append((len(masks), n))
            return high_matrix(masks, n)

        monkeypatch.setattr(analysis, "_range_matrix", counted_range)
        monkeypatch.setattr(analysis.enumeration, "high_matrix", counted_build)
        analysis._low_rows.cache_clear()
        p = AuctionParams(10, 2)
        want = analysis._mask_ranges(10)
        assert len(want) == 128
        assert block_structure_sweep(p) == (1 << 10, None)
        assert ranges == want and builds == [(8, 3)]
        for auction in analysis.AUCTION_NAMES:
            ranges.clear()
            assert bid_independence_violations(p, auction) == []
            assert ranges == want, auction
        ranges.clear()
        analysis.enumerated_sweep(p, "dop")
        assert ranges == want
        # n = 2 fits in one range of 4 masks, a second size with its own block
        assert bid_independence_violations(AuctionParams(2, 2), "dop") == []
        assert builds == [(8, 3), (4, 2)]


def _scalar_checks(p: AuctionParams, lo: int, offered_h: np.ndarray) -> list:
    """block_structure_check on each column of the kernel's offers, the
    first column being mask lo."""
    return [
        analysis.block_structure_check(
            BidVector(p, mask), offers=tuple(np.where(column, p.h, 1).tolist())
        )
        for mask, column in enumerate(offered_h.T, start=lo)
    ]


def _scalar_block_sweep(p: AuctionParams):
    """The per-vector loop that block_structure_sweep replaced."""
    for lo, hi in analysis._mask_ranges(p.n):
        high = analysis.enumeration.high_matrix(analysis.enumeration.mask_array(lo, hi), p.n)
        offered_h = analysis.enumeration.offers_for_bidder(high, p.h, "derand")
        for mask, violation in enumerate(_scalar_checks(p, lo, offered_h), start=lo):
            if violation is not None:
                return mask + 1, (BidVector(p, mask), violation)
    return 1 << p.n, None


class TestVectorBlockCheck:
    """The vectorized block check against block_structure_check, clean and
    with a seeded 2 % of the kernel's offers flipped, for n <= 10, h = 2..6."""

    @pytest.fixture(params=[False, True], ids=["clean", "flipped"])
    def flipped(self, request, monkeypatch):
        if request.param:
            offers_for_bidder = analysis.enumeration.offers_for_bidder

            def flip(high, h, auction):
                offered_h = offers_for_bidder(high, h, auction)
                rng = np.random.default_rng([len(high), h, int(_masks_of(high)[0])])
                return offered_h ^ (rng.random(offered_h.shape) < 0.02)

            monkeypatch.setattr(analysis.enumeration, "offers_for_bidder", flip)
        return request.param

    @pytest.mark.parametrize("mask_range", [1 << 16, 1 << 3])
    def test_sweep_matches_the_scalar_loop(self, monkeypatch, flipped, mask_range):
        monkeypatch.setattr(analysis, "_MASK_RANGE", mask_range)
        for n in range(1, 11):
            for h in range(2, 7):
                p = AuctionParams(n, h)
                assert block_structure_sweep(p) == _scalar_block_sweep(p), (n, h)

    def test_every_vector_matches_the_scalar_check(self, flipped):
        failures = 0
        for n in range(1, 11):
            for h in range(2, 7):
                masks = analysis.enumeration.mask_array(0, 1 << n)
                high = analysis.enumeration.high_matrix(masks, n)
                offered_h = analysis.enumeration.offers_for_bidder(high, h, "derand")
                want = [v is not None for v in _scalar_checks(AuctionParams(n, h), 0, offered_h)]
                got = analysis._block_failures(high, offered_h, h)
                assert got.tolist() == want, (n, h)
                failures += sum(want)
        # the flips break the claim on 584 of the 10230 vectors
        assert failures > 500 if flipped else failures == 0


class TestVectorBlockCheckSampled:
    """The vectorized block check against block_structure_check on 2000
    seeded masks per point above the exhaustive range: at h = 2 a class
    holds many full blocks, at h = 7 mostly one partial block."""

    @pytest.mark.parametrize("n", [20, 30])
    @pytest.mark.parametrize("h", [2, 3, 7])
    @pytest.mark.parametrize("flipped", [False, True], ids=["clean", "flipped"])
    def test_sampled_masks_match_the_scalar_check(self, n, h, flipped):
        rng = np.random.default_rng([n, h])
        masks = rng.integers(0, 1 << n, size=2000, dtype=np.int64)
        high = analysis.enumeration.high_matrix(masks, n)
        offered_h = analysis.enumeration.offers_for_bidder(high, h, "derand")
        if flipped:
            offered_h ^= rng.random(offered_h.shape) < 0.02
        p = AuctionParams(n, h)
        want = [
            analysis.block_structure_check(
                BidVector(p, int(mask)), offers=tuple(np.where(column, h, 1).tolist())
            )
            is not None
            for mask, column in zip(masks, offered_h.T)
        ]
        got = analysis._block_failures(high, offered_h, h)
        assert got.tolist() == want
        if not flipped:
            assert sum(want) == 0
        elif h in (2, 3):
            assert sum(want) > 0


class TestPoolWidth:
    def widths(self, monkeypatch, threads) -> list[int]:
        """max_workers of every pool one Monte Carlo run over cores + 2 chunks
        starts, with a serial pool and free chunks, so no thread starts."""
        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        def free_chunk(rng, n, h, auction, rows):
            revenue = np.full(rows, n, dtype=np.int64)
            return revenue, revenue

        monkeypatch.setattr(analysis, "ThreadPoolExecutor", SerialPool)
        monkeypatch.setattr(analysis, "_sample_revenues", free_chunk)
        samples = ((os.cpu_count() or 1) + 2) * analysis._MC_CHUNK
        # h = 2 does not divide n = 7, so the exact identities are skipped
        report = monte_carlo_under_d(7, 2, "dop", samples, seed=1, threads=threads)
        assert report.mc_mean_auction == 7 and report.exact_e_opt is None
        return started

    def test_width_is_the_cores_at_most(self, monkeypatch):
        cores = os.cpu_count() or 1
        want = [cores] if cores > 1 else []  # a one-core runner starts no pool
        assert self.widths(monkeypatch, 10**6) == want
        assert self.widths(monkeypatch, None) == want
        assert self.widths(monkeypatch, 1) == []


class TestMonteCarlo:
    def test_identical_seeds_identical_reports(self):
        a = monte_carlo_under_d(30, 3, "derand", 5000, seed=11)
        b = monte_carlo_under_d(30, 3, "derand", 5000, seed=11)
        assert a == b

    def test_thread_count_is_immaterial(self):
        a = monte_carlo_under_d(30, 3, "dop", 40000, seed=4)
        b = monte_carlo_under_d(30, 3, "dop", 40000, seed=4, threads=4)
        assert a == b

    def test_chunk_boundaries_do_not_skew(self):
        # one sample beyond a chunk boundary exercises the tail chunk: the
        # report is the chunk-by-chunk sums, and the extra sample counts
        r = monte_carlo_under_d(10, 2, "derand", (1 << 14) + 1, seed=2)
        assert r == sequential_report(10, 2, "derand", (1 << 14) + 1, 2)
        assert r != monte_carlo_under_d(10, 2, "derand", 1 << 14, seed=2)

    def test_exact_fields_when_divisible(self):
        r = monte_carlo_under_d(12, 3, "threshold-dop", 1000, seed=5)
        assert r.exact_e_dop == 12
        assert r.gap == lower_bound_gap(12, 3)
        assert r.exact_e_opt == exact_e_opt_under_d(12, 3)

    def test_exact_fields_absent_otherwise(self):
        r = monte_carlo_under_d(11, 3, "derand", 1000, seed=5)
        assert r.exact_e_opt is None and r.exact_e_dop is None and r.gap is None

    def test_means_near_n(self):
        for auction in ("dop", "threshold-dop", "derand", "random"):
            r = monte_carlo_under_d(30, 3, auction, 30000, seed=13)
            if auction == "dop":
                # plain dop is not calibrated to earn n; only sanity-range it
                assert 0 < r.mc_mean_auction < 30 * 3
            else:
                assert abs(r.mc_mean_auction - 30) <= 3 * r.mc_stderr_auction

    def test_mean_and_stderr_match_numpy_on_one_chunk(self):
        from bivalued_auctions.analysis import _sample_revenues
        from bivalued_auctions.rng import stream_generator

        rng = stream_generator(9, 0)
        revenue, opt = _sample_revenues(rng, 12, 2, "derand", 500)
        r = monte_carlo_under_d(12, 2, "derand", 500, seed=9)
        assert r.mc_mean_auction == pytest.approx(revenue.mean())
        assert r.mc_stderr_auction == pytest.approx(revenue.std(ddof=1) / 500**0.5)
        assert r.mc_mean_opt == pytest.approx(opt.mean())

    def test_zero_samples_rejected(self):
        with pytest.raises(ValueError):
            monte_carlo_under_d(10, 2, "derand", 0, seed=1)

    def test_unknown_auction_rejected(self):
        with pytest.raises(ValueError):
            monte_carlo_under_d(10, 2, "slot", 10, seed=1)

    def test_identity_failure_surfaces(self, monkeypatch):
        monkeypatch.setattr(analysis, "exact_e_dop_under_d", lambda n, h: Fraction(0))
        with pytest.raises(IdentityCheckError):
            monte_carlo_under_d(4, 2, "derand", 10, seed=1)
