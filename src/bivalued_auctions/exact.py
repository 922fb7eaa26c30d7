"""Exact arithmetic for numbers of the form sum_i c_i * sqrt(r_i).

The offer probabilities and expected revenues in this library live in
Q(sqrt(m)) for small integer radicands m, so floating point is never good
enough when two quantities have to be compared or asserted equal.  SurdSum
keeps every value as a sum of rational multiples of square roots of
square-free integers.  Because {sqrt(r) : r square-free} is linearly
independent over Q, a normalized SurdSum is zero iff it has no terms, and
every nonzero value has a sign that interval refinement is guaranteed to
resolve.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm, sqrt
from typing import Iterable, Union

RationalLike = Union[int, Fraction]
ExactLike = Union[int, Fraction, "SurdSum"]

# Entries kept by each per-count memo (square_free here, the offer
# probabilities, expected revenues, thresholds and moduli in auctions), so a
# process that prints table after table stays bounded: eight expectation
# tables at n = 20000 peak at about 51 MB.  Two passes of the benchmark's
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


class SurdSum:
    """Immutable exact value sum_i c_i * sqrt(r_i), c_i rational, r_i square-free.

    Supports +, -, *, division by rationals, and total-order comparisons
    against SurdSum, Fraction, and int.  Radicand 1 carries the rational part.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[tuple[int, Fraction]] = ()):
        # terms must already be normalized: square-free radicands, no zeros.
        object.__setattr__(self, "_terms", tuple(terms))

    # -- constructors ------------------------------------------------------

    @classmethod
    def of(cls, value: ExactLike) -> "SurdSum":
        if isinstance(value, SurdSum):
            return value
        q = Fraction(value)
        return cls(((1, q),) if q else ())

    @classmethod
    def multiple(cls, coeff: RationalLike, radicand: int) -> "SurdSum":
        """The value coeff * sqrt(radicand)."""
        if radicand < 0:
            raise ValueError("radicand must be nonnegative")
        q = Fraction(coeff)
        if q == 0 or radicand == 0:
            return cls()
        s, r = square_free(radicand)
        q *= s
        return cls(((r, q),))

    @classmethod
    def root(cls, radicand: int) -> "SurdSum":
        return cls.multiple(1, radicand)

    @classmethod
    def _from_map(cls, terms: dict[int, Fraction]) -> "SurdSum":
        return cls(tuple(sorted((r, c) for r, c in terms.items() if c)))

    # -- predicates and conversions ----------------------------------------

    @property
    def terms(self) -> tuple[tuple[int, Fraction], ...]:
        """Normalized (radicand, coefficient) pairs; radicand 1 holds the rational part."""
        return self._terms

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_rational(self) -> bool:
        return all(r == 1 for r, _ in self._terms)

    def as_fraction(self) -> Fraction:
        if not self._terms:
            return Fraction(0)
        if not self.is_rational:
            raise ValueError(f"{self!r} is irrational")
        return self._terms[0][1]

    def __float__(self) -> float:
        return sum((float(c) * sqrt(r) for r, c in self._terms), 0.0)

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: ExactLike) -> "SurdSum":
        other = SurdSum.of(other)
        acc = {r: c for r, c in self._terms}
        for r, c in other._terms:
            acc[r] = acc.get(r, Fraction(0)) + c
        return SurdSum._from_map(acc)

    __radd__ = __add__

    def __neg__(self) -> "SurdSum":
        return SurdSum(tuple((r, -c) for r, c in self._terms))

    def __sub__(self, other: ExactLike) -> "SurdSum":
        return self + (-SurdSum.of(other))

    def __rsub__(self, other: ExactLike) -> "SurdSum":
        return SurdSum.of(other) + (-self)

    def __mul__(self, other: ExactLike) -> "SurdSum":
        if not isinstance(other, SurdSum):  # a rational scales each coefficient
            q = Fraction(other)
            return SurdSum(tuple((r, c * q) for r, c in self._terms) if q else ())
        acc: dict[int, Fraction] = {}
        for r1, c1 in self._terms:
            for r2, c2 in other._terms:
                # r1 = g*a and r2 = g*b are square-free, so a, b and g are
                # pairwise coprime and r1*r2 = g*g * (a*b) with a*b square-free:
                # the product needs no factoring
                g = gcd(r1, r2)
                r = r1 // g * (r2 // g)
                acc[r] = acc.get(r, Fraction(0)) + c1 * c2 * g
        return SurdSum._from_map(acc)

    __rmul__ = __mul__

    def __truediv__(self, other: RationalLike) -> "SurdSum":
        q = Fraction(other)
        return SurdSum(tuple((r, c / q) for r, c in self._terms))

    # -- sign and ordering -------------------------------------------------

    def _bounds(self, bits: int) -> tuple[int, int, int]:
        """Integers (lo, hi, unit) with lo <= self * unit <= hi, where
        unit = D * 2**bits for the common denominator D of the coefficients;
        each irrational term widens the interval by 1."""
        den = lcm(*(c.denominator for _, c in self._terms))
        lo = hi = 0
        for r, c in self._terms:
            p = c.numerator * (den // c.denominator)
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
        return lo, hi, den << bits

    def sign(self) -> int:
        if not self._terms:
            return 0
        if all(c > 0 for _, c in self._terms):
            return 1
        if all(c < 0 for _, c in self._terms):
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
            return self._terms == SurdSum.of(other)._terms
        return NotImplemented

    def __hash__(self) -> int:
        if self.is_rational:
            return hash(self.as_fraction())
        return hash(self._terms)

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
        if not self._terms:
            return "SurdSum(0)"
        parts = [f"{c}*sqrt({r})" if r != 1 else str(c) for r, c in self._terms]
        return f"SurdSum({' + '.join(parts)})"


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
    if len(p.terms) > 1:
        raise ValueError(f"bernoulli_threshold needs a rational or one-term surd, got {p!r}")
    if p.is_zero or p.terms[0][1] < 0:
        return 0
    ((r, q),) = p.terms
    # smallest t with t * den >= num * 2**64 * sqrt(r)
    t = -(-ceil_scaled_sqrt(q.numerator << 64, r) // q.denominator)
    return min(t, 1 << 64)
