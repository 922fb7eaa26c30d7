"""Exact arithmetic for numbers of the form sum_i c_i * sqrt(r_i).

The offer probabilities and expected revenues in this library live in
Q(sqrt(m)) for small integer radicands m, so floating point is never good
enough when two quantities have to be compared or asserted equal.  SurdSum
keeps every value on plain integers, as (sum_i n_i * sqrt(r_i)) / den: one
common denominator den > 0 over integer numerators n_i != 0, with
square-free radicands r_i and gcd(den, n_1, n_2, ...) = 1.  Because
{sqrt(r) : r square-free} is linearly independent over Q, this normal form
is unique, a value is zero iff it has no terms, and every nonzero value has
a sign that interval refinement is guaranteed to resolve.  No arithmetic
builds a Fraction; only `as_fraction` returns one.

Operands are exact or rejected: of, +, -, *, the orderings and
bernoulli_threshold take an int, a Fraction or a SurdSum, and a divisor or
multiple's coefficient an int or a Fraction; anything else, a float, str,
Decimal or numpy scalar included, raises TypeError.  == with a float, str
or Decimal is False, and != True; numpy answers == with its own scalars.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, sqrt
from typing import Union

RationalLike = Union[int, Fraction]
ExactLike = Union[int, Fraction, "SurdSum"]

# Entries kept by each per-count memo (square_free here, the offer
# probabilities, expected revenues, thresholds and moduli in auctions), so a
# process that prints table after table stays bounded: eight expectation
# tables at n = 20000 peak at about 49 MB.  Two passes of the benchmark's
# exact-report workload touch at most 2584 entries of each, so it evicts
# none of them.
MEMO_SIZE = 1 << 14


@lru_cache(maxsize=MEMO_SIZE)
def square_free(m: int) -> tuple[int, int]:
    """Split m >= 1 into (s, r) with m = s*s*r and r square-free.

    Trial division stops at the cube root of what is left: a cofactor with
    no prime factor below its cube root has at most two, so it is 1, p, p*q
    or p*p, and only the last is not square-free.
    """
    if m < 1:
        raise ValueError("square_free requires m >= 1")
    s, r = 1, 1
    d = 2
    while d * d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            s *= d ** (e // 2)
            if e % 2:
                r *= d
        d += 1 if d == 2 else 2
    root = isqrt(m)
    if root * root == m:
        return s * root, r
    return s, r * m


def ceil_scaled_sqrt(mult: int, m: int) -> int:
    """Smallest integer t with t >= mult * sqrt(m), for mult, m >= 0."""
    if mult < 0 or m < 0:
        raise ValueError("ceil_scaled_sqrt requires nonnegative arguments")
    v = mult * mult * m
    t = isqrt(v)
    return t if t * t == v else t + 1


def _ratio(q: RationalLike) -> tuple[int, int]:
    """(numerator, denominator) of a rational, denominator > 0; an int or a
    Fraction carries both already.

    These are the only rational operands: a float, str, Decimal or numpy
    scalar raises TypeError here, so every operation that takes a rational
    rejects them alike, rather than converting some of them inexactly.
    """
    if not isinstance(q, (int, Fraction)):
        raise TypeError(f"a rational operand is an int or a Fraction, not {type(q).__name__}")
    return q.numerator, q.denominator


class SurdSum:
    """Immutable exact value (sum_i n_i * sqrt(r_i)) / den, in the normal form
    of the module docstring.

    SurdSum() is zero; every other value comes from of, multiple, root or
    arithmetic, so no caller can build a value outside the normal form.
    Supports +, -, *, division by rationals, and total-order comparisons
    against SurdSum, Fraction, and int.  Radicand 1 carries the rational part.
    """

    __slots__ = ("_nums", "_den")

    def __init__(self):
        self._nums = ()
        self._den = 1

    # -- constructors ------------------------------------------------------

    @classmethod
    def of(cls, value: ExactLike) -> "SurdSum":
        if isinstance(value, SurdSum):
            return value
        # an int, or a Fraction, which is in lowest terms already
        num, den = _ratio(value)
        return _surd(((1, num),), den) if num else SurdSum()

    @classmethod
    def multiple(cls, coeff: RationalLike, radicand: int) -> "SurdSum":
        """The value coeff * sqrt(radicand)."""
        if radicand < 0:
            raise ValueError("radicand must be nonnegative")
        num, den = _ratio(coeff)
        if num == 0 or radicand == 0:
            return SurdSum()
        s, r = square_free(radicand)
        return _reduced(((r, num * s),), den)

    @classmethod
    def root(cls, radicand: int) -> "SurdSum":
        return cls.multiple(1, radicand)

    # -- predicates and conversions ----------------------------------------

    @property
    def int_terms(self) -> tuple[tuple[int, int, int], ...]:
        """(radicand, numerator, denominator) of each term's coefficient in
        lowest terms, ascending by radicand; radicand 1 holds the rational part."""
        den = self._den
        return tuple((r, c // gcd(c, den), den // gcd(c, den)) for r, c in self._nums)

    @property
    def is_rational(self) -> bool:
        return all(r == 1 for r, _ in self._nums)

    def as_fraction(self) -> Fraction:
        if not self._nums:
            return Fraction(0)
        if not self.is_rational:
            raise ValueError(f"{self!r} is irrational")
        return Fraction(self._nums[0][1], self._den)

    def __float__(self) -> float:
        # int / int rounds correctly, as float(Fraction(c, den)) does
        den = self._den
        return sum((c / den * sqrt(r) for r, c in self._nums), 0.0)

    def __bool__(self) -> bool:
        return bool(self._nums)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: ExactLike) -> "SurdSum":
        other = SurdSum.of(other)
        d1, d2 = self._den, other._den
        acc = {r: c * d2 for r, c in self._nums}
        for r, c in other._nums:
            acc[r] = acc.get(r, 0) + c * d1
        return _from_map(acc, d1 * d2)

    __radd__ = __add__

    def __neg__(self) -> "SurdSum":
        return _surd(tuple((r, -c) for r, c in self._nums), self._den)

    def __sub__(self, other: ExactLike) -> "SurdSum":
        return self + (-SurdSum.of(other))

    def __rsub__(self, other: ExactLike) -> "SurdSum":
        return -self + other

    def __mul__(self, other: ExactLike) -> "SurdSum":
        if not isinstance(other, SurdSum):  # a rational scales each numerator
            num, den = _ratio(other)
            if not num:
                return SurdSum()
            return _reduced(tuple((r, c * num) for r, c in self._nums), self._den * den)
        acc: dict[int, int] = {}
        for r1, c1 in self._nums:
            for r2, c2 in other._nums:
                # r1 = g*a and r2 = g*b are square-free, so a, b and g are
                # pairwise coprime and r1*r2 = g*g * (a*b) with a*b square-free:
                # the product needs no factoring
                g = gcd(r1, r2)
                r = r1 // g * (r2 // g)
                acc[r] = acc.get(r, 0) + c1 * c2 * g
        return _from_map(acc, self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, other: RationalLike) -> "SurdSum":
        num, den = _ratio(other)
        if not num:
            raise ZeroDivisionError("SurdSum division by zero")
        if num < 0:  # the sign moves to the numerators: den stays positive
            num, den = -num, -den
        return _reduced(tuple((r, c * den) for r, c in self._nums), self._den * num)

    # -- sign and ordering -------------------------------------------------

    def _bounds(self, bits: int) -> tuple[int, int, int]:
        """Integers (lo, hi, unit) with lo <= self * unit <= hi, where
        unit = den * 2**bits; each irrational term widens the interval by 1.

        den is the lcm of the denominators of the reduced coefficients
        n_i / den, so these are the bounds over their least common
        denominator.  Each such denominator is den / g_i with
        g_i = gcd(n_i, den), a divisor of den, and an lcm of divisors
        den / g_i of den is den / gcd_i(g_i) = den / gcd(den, n_1, n_2, ...),
        which the normal form makes den / 1.  Over it, term i's numerator is
        (n_i / g_i) * g_i = n_i.
        """
        lo = hi = 0
        for r, p in self._nums:
            if r == 1:
                lo += p << bits
                hi += p << bits
                continue
            x = isqrt(p * p * r << (2 * bits))  # floor(|p| * sqrt(r) * 2**bits)
            if p > 0:
                lo += x
                hi += x + 1
            else:
                lo -= x + 1
                hi -= x
        return lo, hi, self._den << bits

    def sign(self) -> int:
        if not self._nums:
            return 0
        if all(c > 0 for _, c in self._nums):
            return 1
        if all(c < 0 for _, c in self._nums):
            return -1
        bits = 32
        while True:
            lo, hi, _ = self._bounds(bits)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            # nonzero by linear independence, so refinement terminates
            bits *= 2

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (SurdSum, int, Fraction)):
            # the normal form is unique, by linear independence
            other = SurdSum.of(other)
            return self._den == other._den and self._nums == other._nums
        return NotImplemented

    def __hash__(self) -> int:
        if self.is_rational:  # equal to an int or Fraction, so hash like it
            return hash(self.as_fraction())
        return hash((self._nums, self._den))

    def _compare(self, other: ExactLike) -> int:
        """The sign of self - other.  Disjoint 64-bit intervals from _bounds
        settle it without building the difference; only overlapping ones,
        equal values among them, take the exact route."""
        other = SurdSum.of(other)
        lo, hi, unit = self._bounds(64)
        other_lo, other_hi, other_unit = other._bounds(64)
        if hi * other_unit < other_lo * unit:
            return -1
        if lo * other_unit > other_hi * unit:
            return 1
        return (self - other).sign()

    def __lt__(self, other: ExactLike) -> bool:
        return self._compare(other) < 0

    def __le__(self, other: ExactLike) -> bool:
        return self._compare(other) <= 0

    def __gt__(self, other: ExactLike) -> bool:
        return self._compare(other) > 0

    def __ge__(self, other: ExactLike) -> bool:
        return self._compare(other) >= 0

    # -- rendering ---------------------------------------------------------

    def to_decimal(self, digits: int = 9) -> str:
        """Deterministic fixed-point rendering, round-half-up."""
        scale = 10**digits
        bits = 64  # a rational value's bounds meet at once
        while True:
            lo, hi, unit = self._bounds(bits)
            # floor(x * scale + 1/2) at x = lo / unit and at x = hi / unit
            k = (2 * scale * lo + unit) // (2 * unit)
            if k == (2 * scale * hi + unit) // (2 * unit):
                break
            bits *= 2
        sign = "-" if k < 0 else ""
        k = abs(k)
        if digits == 0:
            return f"{sign}{k}"
        return f"{sign}{k // scale}.{k % scale:0{digits}d}"

    def __repr__(self) -> str:
        if not self._nums:
            return "SurdSum(0)"
        coeffs = [(r, f"{num}/{den}" if den != 1 else str(num)) for r, num, den in self.int_terms]
        parts = [f"{c}*sqrt({r})" if r != 1 else c for r, c in coeffs]
        return f"SurdSum({' + '.join(parts)})"


def _surd(nums: tuple[tuple[int, int], ...], den: int) -> SurdSum:
    """The SurdSum of (radicand, numerator) pairs and den that are already in
    normal form, unchecked: the builder of every value but SurdSum()."""
    value = object.__new__(SurdSum)
    value._nums = nums
    value._den = den
    return value


def _reduced(nums: tuple[tuple[int, int], ...], den: int) -> SurdSum:
    """The normal form of sorted pairs with no zero numerator over den > 0:
    the one place that divides out gcd(den, n_1, n_2, ...)."""
    g = gcd(den, *(c for _, c in nums))
    if g != 1:
        nums = tuple((r, c // g) for r, c in nums)
        den //= g
    return _surd(nums, den)


def _from_map(acc: dict[int, int], den: int) -> SurdSum:
    return _reduced(tuple(sorted((r, c) for r, c in acc.items() if c)), den)


def bernoulli_threshold(p: ExactLike) -> int:
    """Number of draws u in [0, 2**64) with u / 2**64 < p.

    Comparing a uniform 64-bit integer against this threshold samples a
    Bernoulli with success probability within 2**-64 of p (exactly p when
    2**64 * p is an integer), using only integer arithmetic.  p must be
    rational or a one-term surd (num/den) * sqrt(r), the form every offer
    probability takes; the threshold is then ceil(p * 2**64), clamped to
    [0, 2**64], from one integer square root.
    """
    p = SurdSum.of(p)
    if len(p._nums) > 1:
        raise ValueError(f"bernoulli_threshold needs a rational or one-term surd, got {p!r}")
    if not p or p._nums[0][1] < 0:
        return 0
    # one term: gcd(num, den) = 1, so num / den is its coefficient in lowest terms
    ((r, num),) = p._nums
    # smallest t with t * den >= num * 2**64 * sqrt(r)
    t = -(-ceil_scaled_sqrt(num << 64, r) // p._den)
    return min(t, 1 << 64)
