"""Naive reference implementations used as test oracles.

Everything here is written straight from the offer-rule definitions with
plain Python loops, sharing no code with the package internals: the package
computes revenues via bitmask kernels and incremental prefix counts, these
oracles recount from scratch per bidder.  Agreement between the two routes is
what the equivalence tests certify, so nothing below may import from
bivalued_auctions.
"""

from __future__ import annotations

from decimal import Decimal, getcontext
from fractions import Fraction
from math import floor, isqrt


def opt_revenue(bids: list[int], h: int) -> int:
    n_high = sum(1 for v in bids if v == h)
    return max(len(bids), h * n_high)


def settle(bids: list[int], offers: list[int]) -> int:
    return sum(o for v, o in zip(bids, offers) if o <= v)


def others_high(bids: list[int], h: int, i1: int) -> int:
    return sum(1 for j, v in enumerate(bids, start=1) if j != i1 and v == h)


def dop_offers(bids: list[int], h: int) -> list[int]:
    n = len(bids)
    return [
        h if h * others_high(bids, h, i1) >= n - 1 else 1 for i1 in range(1, n + 1)
    ]


def threshold_dop_offers(bids: list[int], h: int) -> list[int]:
    n = len(bids)
    assert n % h == 0
    return [
        h if others_high(bids, h, i1) >= n // h else 1 for i1 in range(1, n + 1)
    ]


def ceil_mult_sqrt(mult: int, m: int) -> int:
    """Smallest integer t with t >= mult * sqrt(m), by counting up."""
    t = 0
    while t * t < mult * mult * m:
        t += 1
    return t


def derand_state(bids: list[int], h: int, i1: int) -> tuple[int, int, int, int, int]:
    """(a, b, X, Y, z) of the modular rule for bidder i1 (1-based)."""
    n = len(bids)
    m = others_high(bids, h, i1)
    a = h * m - n
    b_val = max(1, ceil_mult_sqrt(h, m))
    x = sum(j for j, v in enumerate(bids, start=1) if j != i1 and v == h)
    y = sum(1 for j, v in enumerate(bids, start=1) if j < i1 and v == h)
    z = (i1 + x + (b_val - 1) * y) % b_val
    return a, b_val, x, y, z


def derand_offers(bids: list[int], h: int) -> list[int]:
    offers = []
    for i1 in range(1, len(bids) + 1):
        a, _, _, _, z = derand_state(bids, h, i1)
        offers.append(h if z < a else 1)
    return offers


def d_weighted_expectation(n: int, h: int, revenue_of_bids) -> Fraction:
    """Exact E over all 2^n bid vectors, high with probability 1/h each."""
    p = Fraction(1, h)
    q = 1 - p
    total = Fraction(0)
    for mask in range(1 << n):
        bids = [h if mask >> j & 1 else 1 for j in range(n)]
        k = sum(1 for v in bids if v == h)
        total += p**k * q ** (n - k) * revenue_of_bids(bids)
    return total


def random_offer_probability_decimal(n: int, h: int, m: int, prec: int = 50) -> Decimal:
    getcontext().prec = prec
    numerator = h * m - n
    if numerator <= 0:
        return Decimal(0)
    value = Decimal(numerator) / (Decimal(h) * Decimal(m).sqrt())
    return min(value, Decimal(1))


def random_expected_revenue_decimal(n: int, h: int, k: int, prec: int = 50) -> Decimal:
    """High-precision decimal route to the randomized auction's expectation."""
    getcontext().prec = prec
    p_low = random_offer_probability_decimal(n, h, k, prec)
    p_high = random_offer_probability_decimal(n, h, k - 1, prec) if k >= 1 else Decimal(0)
    return (n - k) * (1 - p_low) + k * (h * p_high + (1 - p_high))


def fraction_terms(int_terms) -> tuple[tuple[int, Fraction], ...]:
    """(radicand, Fraction coefficient) pairs, the form the surd oracles
    below take, from (radicand, numerator, denominator) triples."""
    return tuple((r, Fraction(num, den)) for r, num, den in int_terms)


def surd_bounds(terms, bits: int) -> tuple[Fraction, Fraction]:
    """Enclosing rational interval of sum c * sqrt(r) over (r, c) terms,
    tight to about |c| * 2**-bits per term, in Fractions."""
    lo = hi = Fraction(0)
    scale = 1 << bits
    for r, c in terms:
        if r == 1:
            lo += c
            hi += c
            continue
        x = isqrt(r << (2 * bits))
        rlo = Fraction(x, scale)
        rhi = Fraction(x + 1, scale)
        if c >= 0:
            lo += c * rlo
            hi += c * rhi
        else:
            lo += c * rhi
            hi += c * rlo
    return lo, hi


def surd_sign(terms) -> int:
    """Sign of a normalized surd sum (square-free radicands), by refining
    surd_bounds until the interval excludes 0."""
    if not terms:
        return 0
    bits = 32
    while True:
        lo, hi = surd_bounds(terms, bits)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        bits *= 2


def surd_to_decimal(terms, digits: int) -> str:
    """Round-half-up fixed point, floor(x * 10**digits + 1/2), refined
    until both ends of surd_bounds round alike."""
    scale = 10**digits
    half = Fraction(1, 2)
    if all(r == 1 for r, _ in terms):
        k = floor(sum((c for _, c in terms), Fraction(0)) * scale + half)
    else:
        bits = 64
        while True:
            lo, hi = surd_bounds(terms, bits)
            k = floor(lo * scale + half)
            if k == floor(hi * scale + half):
                break
            bits *= 2
    sign = "-" if k < 0 else ""
    k = abs(k)
    if digits == 0:
        return f"{sign}{k}"
    return f"{sign}{k // scale}.{k % scale:0{digits}d}"


def split_square(m: int) -> tuple[int, int]:
    """(s, r) with m = s*s*r and r square-free, by dividing out every square."""
    s, r, d = 1, m, 2
    while d * d <= r:
        while r % (d * d) == 0:
            r //= d * d
            s *= d
        d += 1
    return s, r


def surd_dict(pairs) -> dict[int, Fraction]:
    """sum of c * sqrt(m) over (m, c) pairs, m >= 1, as a map from each
    square-free radicand to its nonzero Fraction coefficient."""
    out: dict[int, Fraction] = {}
    for m, c in pairs:
        s, r = split_square(m)
        out[r] = out.get(r, Fraction(0)) + Fraction(c) * s
    return {r: c for r, c in out.items() if c}


def surd_dict_add(a: dict[int, Fraction], b: dict[int, Fraction]) -> dict[int, Fraction]:
    return surd_dict(list(a.items()) + list(b.items()))


def surd_dict_scale(a: dict[int, Fraction], q: Fraction) -> dict[int, Fraction]:
    return surd_dict((r, c * q) for r, c in a.items())


def surd_dict_mul(a: dict[int, Fraction], b: dict[int, Fraction]) -> dict[int, Fraction]:
    return surd_dict((r1 * r2, c1 * c2) for r1, c1 in a.items() for r2, c2 in b.items())


def lex_least_bids(n: int, h: int, k: int, index_sum: int) -> list[int]:
    """The lexicographically least bids (low = 1 < h) with k high bids whose
    1-based indices sum to index_sum: bidder i bids low whenever the k high
    bids still left can be placed among bidders i+1..n."""

    def fits(j: int, total: int, lowest: int) -> bool:
        if j > n - lowest + 1:
            return False
        return j * lowest + j * (j - 1) // 2 <= total <= j * n - j * (j - 1) // 2

    bids = []
    for i in range(1, n + 1):
        if fits(k, index_sum, i + 1):
            bids.append(1)
        else:
            bids.append(h)
            k -= 1
            index_sum -= i
    assert k == 0 and index_sum == 0
    return bids


def derand_full_range_sweep(n: int, h: int, revenues) -> tuple[dict[int, int], list[int]]:
    """Per-class worst loss of the derandomized auction and its lexicographically
    least worst bids, from a scan of every index sum S in [k(k+1)/2,
    k(2n-k+1)/2] of every class k.  revenues(k, sums) gives the revenue on
    each sum in the list, one call per class: no period, no blocks."""
    per_k: dict[int, int] = {}
    worst_sums: dict[int, list[int]] = {}
    for k in range(n + 1):
        sums = list(range(k * (k + 1) // 2, k * (2 * n - k + 1) // 2 + 1))
        losses = [max(n, h * k) - int(r) for r in revenues(k, sums)]
        per_k[k] = max(losses)
        worst_sums[k] = [s for s, loss in zip(sums, losses) if loss == per_k[k]]
    worst = max(per_k.values())
    witness = min(
        lex_least_bids(n, h, k, s) for k in per_k if per_k[k] == worst for s in worst_sums[k]
    )
    return per_k, witness
