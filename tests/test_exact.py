"""Exact arithmetic: square-free decomposition, surd sums, sampling thresholds."""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from math import floor, gcd, sqrt

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import oracles
from bivalued_auctions.auctions import offer_probability_by_count
from bivalued_auctions.exact import (
    SurdSum,
    bernoulli_threshold,
    ceil_scaled_sqrt,
    square_free,
)


def test_square_free_small_cases():
    assert square_free(1) == (1, 1)
    assert square_free(2) == (1, 2)
    assert square_free(8) == (2, 2)
    assert square_free(12) == (2, 3)
    assert square_free(49) == (7, 1)
    assert square_free(360) == (6, 10)


@given(st.integers(1, 200000))
def test_square_free_matches_brute_force(m):
    s, r = square_free(m)
    assert s * s * r == m
    assert (s, r) == oracles.split_square(m)


@pytest.mark.parametrize(
    "m",
    [
        1000003**2,  # the square of a prime above the cube root
        7 * 1000003**2,
        1000003 * 1000033,  # two primes above the cube root
        999983 * 1000003**2,
        (1 << 31) - 1,
    ],
)
def test_square_free_beyond_the_cube_root(m):
    assert square_free(m) == oracles.split_square(m)


def test_square_free_of_huge_radicands():
    # sqrt(n*h) at h near 2**62: trial division to the square root would
    # take minutes here
    assert square_free((1 << 61) - 1) == (1, (1 << 61) - 1)  # prime
    assert square_free(40 * ((1 << 62) - 1)) == (2, 10 * ((1 << 62) - 1))


@given(st.integers(0, 5000), st.integers(0, 5000))
def test_ceil_scaled_sqrt_least_upper_integer(mult, m):
    t = ceil_scaled_sqrt(mult, m)
    assert t * t >= mult * mult * m
    if t > 0:
        assert (t - 1) ** 2 < mult * mult * m


class TestSurdSum:
    def test_normalizes_radicands(self):
        assert SurdSum.root(8) == SurdSum.multiple(2, 2)
        assert SurdSum.root(12) == SurdSum.multiple(2, 3)
        assert SurdSum.root(49) == SurdSum.of(7)
        assert SurdSum.multiple(Fraction(1, 2), 0) == SurdSum.of(0)

    def test_rational_round_trip(self):
        v = SurdSum.of(Fraction(22, 7))
        assert v.is_rational
        assert v.as_fraction() == Fraction(22, 7)
        with pytest.raises(ValueError):
            SurdSum.root(2).as_fraction()

    def test_product_of_conjugates(self):
        one_plus = SurdSum.of(1) + SurdSum.root(2)
        minus_one = (SurdSum.root(2) - 1) * one_plus
        assert minus_one == SurdSum.of(1)

    def test_square_of_sum(self):
        v = SurdSum.root(2) + SurdSum.root(3)
        assert v * v == SurdSum.of(5) + SurdSum.multiple(2, 6)

    def test_cancellation_to_zero(self):
        v = SurdSum.root(18) - SurdSum.multiple(3, 2)
        assert not v
        assert v == 0

    def test_comparisons_near_ties(self):
        # sqrt(2) + sqrt(3) = 3.1462... vs sqrt(10) = 3.1622...
        assert SurdSum.root(2) + SurdSum.root(3) < SurdSum.root(10)
        # 1686 * sqrt(5) = 3770.4... : squares differ by 3680 in 1.4e7
        assert SurdSum.multiple(1686, 5) > 3770
        # Pell convergent: 665857/470832 is a hair above sqrt(2)
        assert SurdSum.multiple(470832, 2) < 665857
        assert SurdSum.multiple(470832, 2) > Fraction(665856, 1)

    def test_sign_of_zero(self):
        assert SurdSum().sign() == 0
        assert (SurdSum.root(3) - SurdSum.root(3)).sign() == 0

    def test_sign_refines_past_32_bits(self):
        # a convergent of sqrt(2) from below: the float difference reads 0.0,
        # and the 32-bit interval straddles 0, so the 64-bit one decides
        x = SurdSum.of(Fraction(10812186007, 7645370045)) - SurdSum.root(2)
        assert float(x) == 0.0
        lo, hi, _ = x._bounds(32)
        assert lo <= 0 <= hi
        assert x.sign() == -1

    def test_division_by_rational(self):
        v = SurdSum.multiple(3, 2) / 3
        assert v == SurdSum.root(2)
        with pytest.raises(ZeroDivisionError):
            SurdSum.root(2) / 0

    def test_float_conversion(self):
        assert float(SurdSum.root(2)) == pytest.approx(2**0.5)
        assert float(SurdSum.of(Fraction(1, 4))) == 0.25

    def test_to_decimal_digits(self):
        assert SurdSum.root(2).to_decimal(9) == "1.414213562"
        assert SurdSum.root(2).to_decimal(3) == "1.414"
        assert SurdSum.of(Fraction(1, 8)).to_decimal(9) == "0.125000000"
        assert SurdSum.of(Fraction(1, 8)).to_decimal(2) == "0.13"
        # floor(x * scale + 1/2), so a negative half rounds toward zero
        assert SurdSum.of(Fraction(-1, 8)).to_decimal(2) == "-0.12"
        assert SurdSum.of(5).to_decimal(0) == "5"

    def test_hash_consistent_with_eq(self):
        assert hash(SurdSum.of(3)) == hash(Fraction(3))
        assert hash(SurdSum.root(8)) == hash(SurdSum.multiple(2, 2))

    @given(
        st.lists(
            st.tuples(st.integers(1, 30), st.fractions(max_denominator=40)),
            max_size=4,
        ),
        st.lists(
            st.tuples(st.integers(1, 30), st.fractions(max_denominator=40)),
            max_size=2,
        ),
        st.sampled_from(["other", "regrouped", "scaled", "rational"]),
        st.fractions(max_denominator=40),
    )
    def test_equality_is_a_zero_difference(self, pairs, more, how, q):
        # b is built apart from a (radicands 8 and 2 meet, say), or is a
        # regrouped or rescaled a, or a plain int or Fraction
        def surd(terms):
            total = SurdSum.of(0)
            for radicand, coeff in terms:
                total = total + SurdSum.multiple(coeff, radicand)
            return total

        a = surd(pairs)
        if how == "other":
            b = surd(more)
        elif how == "regrouped":
            b = surd(more) + surd(reversed(pairs)) - surd(more)
        elif how == "scaled":
            b = a * q / q if q else a * SurdSum.root(4) / 2
        else:
            b = a.as_fraction() if a.is_rational else q
            b = b.numerator if b.denominator == 1 else b
        assert (a == b) == (not (a - b))
        assert (b == a) == (a == b)
        if a == b:
            assert hash(a) == hash(b)

    @given(
        st.lists(
            st.tuples(st.integers(1, 30), st.fractions(max_denominator=40)),
            max_size=4,
        ),
        st.one_of(st.integers(-50, 50), st.fractions(max_denominator=40)),
    )
    def test_rational_product_matches_the_surd_product(self, pairs, q):
        a = SurdSum.of(0)
        for radicand, coeff in pairs:
            a = a + SurdSum.multiple(coeff, radicand)
        want = a * SurdSum.of(q)  # the term-by-term product of two surd sums
        assert (a * q).int_terms == (q * a).int_terms == want.int_terms

    @given(
        st.lists(
            st.tuples(st.integers(1, 10**6), st.fractions(max_denominator=40)),
            max_size=3,
        ),
        st.lists(
            st.tuples(st.integers(1, 10**6), st.fractions(max_denominator=40)),
            max_size=3,
        ),
    )
    def test_product_by_gcd_matches_square_free_of_the_product(self, left, right):
        def surd(terms):
            total = SurdSum.of(0)
            for m, coeff in terms:
                total = total + SurdSum.multiple(coeff, m)
            return total

        a, b = surd(left), surd(right)
        acc: dict[int, Fraction] = {}
        for r1, c1 in oracles.fraction_terms(a.int_terms):
            for r2, c2 in oracles.fraction_terms(b.int_terms):
                s, r = square_free(r1 * r2)
                acc[r] = acc.get(r, Fraction(0)) + c1 * c2 * s
        want = tuple(sorted((r, c) for r, c in acc.items() if c))
        assert oracles.fraction_terms((a * b).int_terms) == want

    @given(
        st.lists(
            st.tuples(st.integers(1, 30), st.fractions(max_denominator=40)),
            max_size=4,
        )
    )
    def test_sign_agrees_with_float(self, pairs):
        total = SurdSum.of(0)
        for radicand, coeff in pairs:
            total = total + SurdSum.multiple(coeff, radicand)
        approx = sum(float(c) * r**0.5 for r, c in pairs)
        if abs(approx) > 1e-9:
            assert total.sign() == (1 if approx > 0 else -1)

    @given(
        st.lists(
            st.tuples(st.integers(1, 50), st.fractions(max_denominator=1000)),
            max_size=4,
        ),
        st.integers(0, 12),
        st.integers(-3, 3),
        st.sampled_from([0, 1, -1]),
        st.integers(1, 80),
    )
    def test_rendering_and_sign_match_the_fraction_oracle(self, pairs, digits, j, side, e):
        # v, v moved next to a rounding tie (onto it when v is rational), v
        # moved next to 0, and the tie itself, each against the Fraction
        # enclosure of tests/oracles
        v = SurdSum.of(0)
        for radicand, coeff in pairs:
            v = v + SurdSum.multiple(coeff, radicand)
        scale = 10**digits
        # within 2**-190 below v
        lo, _ = oracles.surd_bounds(oracles.fraction_terms(v.int_terms), 200)
        tie = (floor(lo * scale) + j + Fraction(1, 2)) / scale
        offset = Fraction(side, scale << e)
        for x in (v, v + (tie - lo + offset), v - lo + offset, SurdSum.of(tie)):
            terms = oracles.fraction_terms(x.int_terms)
            assert x.to_decimal(digits) == oracles.surd_to_decimal(terms, digits), x
            assert x.sign() == oracles.surd_sign(terms), x

    @given(
        st.lists(
            st.tuples(st.integers(1, 30), st.fractions(max_denominator=40)),
            max_size=4,
        ),
        st.lists(
            st.tuples(st.integers(1, 30), st.fractions(max_denominator=40)),
            max_size=4,
        ),
        st.sampled_from(["other", "regrouped", "nudged", "rational"]),
        st.integers(-3, 3),
        st.integers(72, 200),
    )
    def test_comparisons_match_the_sign_of_the_difference(self, pairs, more, how, step, e):
        # b is built apart from a, or equals a regrouped, or differs from it
        # by a rational below 2**-70, where the 64-bit intervals of the two
        # overlap, or is a plain int or Fraction
        def surd(terms):
            total = SurdSum.of(0)
            for radicand, coeff in terms:
                total = total + SurdSum.multiple(coeff, radicand)
            return total

        a = surd(pairs)
        if how == "other":
            b = surd(more)
        elif how == "regrouped":
            b = surd(more) + surd(reversed(pairs)) - surd(more)
        elif how == "nudged":
            b = a + Fraction(step, 1 << e)
        else:
            b = surd(more[:1])
            b = b.as_fraction() if b.is_rational else Fraction(step, 7)
            b = b.numerator if b.denominator == 1 else b
        want = oracles.surd_sign(oracles.fraction_terms((a - b).int_terms))
        assert (a < b, a <= b, a > b, a >= b) == (want < 0, want <= 0, want > 0, want >= 0)
        assert (b < a, b <= a, b > a, b >= a) == (want > 0, want >= 0, want < 0, want <= 0)

    def test_comparisons_refine_overlapping_intervals(self):
        a = SurdSum.root(2)
        b = a + Fraction(1, 1 << 80)
        lo, hi, unit = a._bounds(64)
        b_lo, b_hi, b_unit = b._bounds(64)
        assert b_lo * unit <= hi * b_unit  # the 64-bit intervals overlap
        assert a < b and a <= b and b > a and b >= a
        assert not (a > b or a >= b or b < a or b <= a)

    @given(st.fractions(min_value=0, max_value=1, max_denominator=1000))
    def test_ordering_against_fractions(self, q):
        v = SurdSum.multiple(Fraction(1, 2), 2)  # sqrt(2)/2 = 0.7071...
        lt, eq, gt = v < q, v == q, v > q
        assert [lt, eq, gt].count(True) == 1
        assert eq is False  # sqrt(2)/2 is irrational


# radicands that meet (2, 8, 18, 50), cancel to rationals (4, 9, 25) or
# stay apart, and coefficients over several denominators
SURD_PAIRS = st.lists(
    st.tuples(
        st.one_of(st.sampled_from([1, 2, 3, 4, 6, 8, 9, 12, 18, 25, 50]), st.integers(1, 300)),
        st.fractions(max_denominator=60),
    ),
    max_size=4,
)
RATIONALS = st.one_of(st.integers(-60, 60), st.fractions(max_denominator=60))


def surd_of(pairs) -> SurdSum:
    total = SurdSum()
    for radicand, coeff in pairs:
        total = total + SurdSum.multiple(coeff, radicand)
    return total


def assert_normal_form(x: SurdSum) -> None:
    nums, den = x._nums, x._den
    radicands = [r for r, _ in nums]
    assert type(den) is int and den > 0
    assert all(type(c) is int and c != 0 for _, c in nums)
    assert gcd(den, *(c for _, c in nums)) == 1
    assert radicands == sorted(set(radicands))
    assert all(oracles.split_square(r) == (1, r) for r in radicands)


def oracle_terms(d: dict) -> tuple:
    return tuple(sorted(d.items()))


class TestNormalForm:
    """SurdSum against a plain-Fraction map {radicand: coefficient}."""

    @given(SURD_PAIRS, SURD_PAIRS, RATIONALS)
    def test_arithmetic_matches_the_fraction_oracle(self, left, right, q):
        a, b = surd_of(left), surd_of(right)
        da, db = oracles.surd_dict(left), oracles.surd_dict(right)
        neg_b = oracles.surd_dict_scale(db, Fraction(-1))
        cases = [
            (a, da),
            (a + b, oracles.surd_dict_add(da, db)),
            (a - b, oracles.surd_dict_add(da, neg_b)),
            (a * b, oracles.surd_dict_mul(da, db)),
            (a * q, oracles.surd_dict_scale(da, Fraction(q))),
            (q * a, oracles.surd_dict_scale(da, Fraction(q))),
            (a + q, oracles.surd_dict_add(da, {1: Fraction(q)} if q else {})),
            (q - b, oracles.surd_dict_add(neg_b, {1: Fraction(q)} if q else {})),
            (SurdSum.of(q), {1: Fraction(q)} if q else {}),
        ]
        if q:
            cases.append((a / q, oracles.surd_dict_scale(da, 1 / Fraction(q))))
        for got, want in cases:
            assert_normal_form(got)
            assert oracles.fraction_terms(got.int_terms) == oracle_terms(want), (got, want)

    @given(SURD_PAIRS, SURD_PAIRS, RATIONALS)
    # a rational value that is no integer, which few drawn examples are
    @example([(4, Fraction(1, 6))], [], 0)
    def test_equality_and_hash_match_the_fraction_oracle(self, left, right, q):
        a, b = surd_of(left), surd_of(right)
        da, db = oracles.surd_dict(left), oracles.surd_dict(right)
        assert (a == b) == (da == db)
        # the same value by other routes has the same normal form
        for same in (surd_of(reversed(left)), a * q / q if q else a + b - b):
            assert same == a and hash(same) == hash(a)
        if all(r == 1 for r in da):  # a rational value equals, and hashes like, its Fraction
            value = da.get(1, Fraction(0))
            assert a == value and value == a and hash(a) == hash(value)
            if value.denominator == 1:
                assert a == value.numerator and hash(a) == hash(value.numerator)
        else:
            assert a != da.get(1, Fraction(0))

    def test_constructor_takes_no_arguments(self):
        # a value outside the normal form cannot be built: SurdSum(((4, 1),))
        # would not equal 2, nor SurdSum(((1, 2),), 4) equal 1/2
        assert SurdSum() == 0 and not SurdSum() and hash(SurdSum()) == hash(0)
        for args in ((((4, 1),),), (((1, 2),), 4)):
            with pytest.raises(TypeError):
                SurdSum(*args)

    @given(SURD_PAIRS, RATIONALS)
    def test_float_and_repr_match_the_fraction_coefficients(self, pairs, q):
        # the formulas of a (radicand, Fraction coefficient) view of the terms
        x = surd_of(pairs) * q
        assert all(den > 0 and gcd(num, den) == 1 for _, num, den in x.int_terms)
        terms = oracles.fraction_terms(x.int_terms)
        want_float = sum((float(c) * sqrt(r) for r, c in terms), 0.0)
        parts = [f"{c}*sqrt({r})" if r != 1 else str(c) for r, c in terms]
        assert float(x).hex() == want_float.hex()
        assert repr(x) == (f"SurdSum({' + '.join(parts)})" if terms else "SurdSum(0)")

    def test_division_by_zero_raises(self):
        for x in (SurdSum(), SurdSum.of(0), SurdSum.root(2), SurdSum.of(Fraction(-1, 3))):
            for zero in (0, Fraction(0)):
                with pytest.raises(ZeroDivisionError):
                    x / zero


X = SurdSum.root(2) + Fraction(1, 3)
# every operation that takes an operand, and whether the operand is its left side
OPERATIONS = {
    "of": (SurdSum.of, False),
    "multiple": (lambda q: SurdSum.multiple(q, 2), False),
    "add": (lambda q: X + q, False),
    "radd": (lambda q: q + X, True),
    "sub": (lambda q: X - q, False),
    "rsub": (lambda q: q - X, True),
    "mul": (lambda q: X * q, False),
    "rmul": (lambda q: q * X, True),
    "truediv": (lambda q: X / q, False),
    "lt": (lambda q: X < q, False),
    "le": (lambda q: X <= q, False),
    "gt": (lambda q: X > q, False),
    "ge": (lambda q: X >= q, False),
    "bernoulli_threshold": (bernoulli_threshold, False),
}
# a numpy scalar on the left turns itself into an int before SurdSum sees it
INEXACT_CASES = [
    pytest.param(call, operand, id=f"{name}-{type(operand).__name__}")
    for name, (call, left) in OPERATIONS.items()
    for operand in (0.5, "3", Decimal("0.1"), np.int64(3))
    if not (left and isinstance(operand, np.generic))
]


class TestOperandContract:
    """int, Fraction and SurdSum operands only: anything else is a TypeError
    that names its type, and == with it is False."""

    @pytest.mark.parametrize("call,operand", INEXACT_CASES)
    def test_inexact_operand_raises(self, call, operand):
        with pytest.raises(TypeError, match=type(operand).__name__):
            call(operand)

    @pytest.mark.parametrize("operand", [0.5, 1.0, "1", Decimal(1)], ids=repr)
    def test_equality_with_inexact_operand_is_false(self, operand):
        # a numpy scalar on the right decides == itself, so it is left out
        one = SurdSum.of(1)
        assert (one == operand) is False and (one != operand) is True


def search_threshold(p) -> int:
    """Binary search for the least t with t / 2**64 >= p, clamped to [0, 2**64]."""
    p = SurdSum.of(p)
    span = 1 << 64
    if p.sign() <= 0:
        return 0
    if p >= 1:
        return span
    lo, hi = 0, span
    while lo < hi:
        mid = (lo + hi) // 2
        if p <= Fraction(mid, span):
            hi = mid
        else:
            lo = mid + 1
    return lo


class TestBernoulliThreshold:
    def test_clamps(self):
        assert bernoulli_threshold(0) == 0
        assert bernoulli_threshold(Fraction(-1, 2)) == 0
        assert bernoulli_threshold(1) == 1 << 64
        assert bernoulli_threshold(2) == 1 << 64

    def test_exact_dyadic(self):
        assert bernoulli_threshold(Fraction(1, 2)) == 1 << 63
        assert bernoulli_threshold(Fraction(3, 4)) == 3 << 62

    def test_ceiling_for_non_dyadic(self):
        t = bernoulli_threshold(Fraction(1, 3))
        assert (t - 1) * 3 < 1 << 64 <= t * 3

    @given(st.fractions(min_value=0, max_value=1, max_denominator=10**9))
    def test_threshold_is_minimal(self, p):
        t = bernoulli_threshold(p)
        span = 1 << 64
        assert 0 <= t <= span
        assert Fraction(t, span) >= p
        if t > 0:
            assert Fraction(t - 1, span) < p

    @pytest.mark.parametrize("n,h", [(37, 3), (100, 10), (500, 7), (1000, 10), (2000, 10)])
    def test_matches_search_at_every_count(self, n, h):
        for m in range(n + 1):
            p = offer_probability_by_count(n, h, m)
            assert bernoulli_threshold(p) == search_threshold(p), m

    @given(
        st.fractions(min_value=-1, max_value=2, max_denominator=10**6),
        st.integers(1, 10**6),
    )
    def test_one_term_surds_match_search(self, coeff, radicand):
        p = SurdSum.multiple(coeff, radicand)
        assert bernoulli_threshold(p) == search_threshold(p)

    def test_rejects_two_term_surds(self):
        with pytest.raises(ValueError):
            bernoulli_threshold(SurdSum.root(2) - SurdSum.root(3) + 1)

    def test_irrational_probability(self):
        # p = 1/sqrt(11): t/2^64 must straddle it exactly
        p = SurdSum.multiple(Fraction(1, 11), 11)
        t = bernoulli_threshold(p)
        span = 1 << 64
        assert p <= Fraction(t, span)
        assert p > Fraction(t - 1, span)
