"""The vector form of the offer rules: one kernel per rule.

The scalar rules in auctions.py define each auction one bidder at a time.
The kernels here apply the same rules to many bid vectors at once.  The
sweeps, Monte Carlo and the truthfulness and block checks all call them, and
the test suite holds them equal to the scalar rules.

Every kernel reads one input, `high`: a bidder-major (n, rows) boolean
matrix whose row i-1 says, per column, whether bidder i bids high.  n is
len(high) and the high counts k are high.sum(axis=0).  The kernels are
`seen_high_counts(high)`, `high_index_sum(high)`, `derand_offers(high, h)`,
`offers_for_bidder(high, h, auction)` and `REVENUE_KERNELS[auction](high, h)`.
Masks (bit i-1 set <=> bidder i bids high) stay where vectors are
enumerated or ordered: `mask_array` lists a range of them, `high_matrix`
turns masks into a bid matrix, and `lex_keys` orders them.  The mask-range
walks in analysis call `high_matrix` only for one cached block of the low
bits, and fill each higher bidder's row from the range's constant bits.
Monte Carlo passes each sample-major draw block as `draw.T`, which every
kernel reads in place.

- Every auction here reads n_h(i), the high bids bidder i sees among the
  others; `seen_high_counts` is its int8 (n, rows) vector form, so it
  rejects more than 127 bidders.  The randomized auction's offer
  distribution is a function of it alone.
- DOP and threshold-DOP offer h iff n_h(i) >= t for a count threshold t
  (`count_threshold`), so their revenue is a function of the high count k
  alone (`count_revenues`).  Both are plain int arithmetic in auctions,
  which the count kernels apply to the column sums of `high`.
- The derandomized rule offers h iff z mod B(n_h(i)) < a+(n_h(i)), with
  the class table (B, a+) built once per (n, h) by `derand_classes` and the
  test written once, as the window count `_window_offers`.  Its offers
  depend on the bids themselves: `derand_offers` walks `high` once, and
  each bidder's offers are one gather from a per-call boolean table of the
  window rule, indexed by high count and hash value.  Its revenue, though,
  depends only on k and on S, the sum of the high bidders' indices
  (`derand_revenues`).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .auctions import count_revenues, count_threshold, derand_modulus
from .core import revenue_by_offer_counts

# derand_offers gathers from an (n + 1, W) bool table, W = n(n+1)/2 + n + 1,
# through int32 indices below (n + 1) * W, about n**3 / 2: 139 k cells at this
# cap, built through int64 window counts.  One call on a (64, 1) matrix took
# 10 ms and raised the process peak by 5 MB.  The enumerating callers stop at
# n = 30.
DERAND_OFFERS_N_LIMIT = 1 << 6


def mask_array(lo: int, hi: int) -> np.ndarray:
    return np.arange(lo, hi, dtype=np.int64)


def high_matrix(masks: np.ndarray, n: int) -> np.ndarray:
    """Bidder-major bids: row i-1 says, per mask, whether bidder i bids high."""
    if n > 31:  # the int32 copy below holds every mask of at most 31 bidders
        raise ValueError(f"n={n} exceeds the int32 mask limit 31")
    bits = masks.astype(np.int32)
    high = np.empty((n, len(masks)), dtype=bool)
    for i, row in enumerate(high):
        row[:] = bits & np.int32(1 << i)
    return high


def seen_high_counts(high: np.ndarray) -> np.ndarray:
    """n_h(i), the high bids that bidder i sees among the others, as an int8
    matrix shaped like high; int8 holds every count of at most 127 bidders."""
    if len(high) > 127:
        raise ValueError(f"n={len(high)} exceeds the int8 count limit 127")
    return high.sum(axis=0, dtype=np.int8) - high.view(np.int8)


def high_index_sum(high: np.ndarray) -> np.ndarray:
    """Sum of the 1-based indices of the high bidders, per column of high."""
    return np.einsum("ij,i->j", high, np.arange(1, len(high) + 1, dtype=np.int64))


def lex_keys(masks: np.ndarray, n: int) -> np.ndarray:
    """Key whose numeric order is the lexicographic order of bid strings.

    Bid strings compare position 1 first with L < H, so position 1 becomes
    the most significant bit of the key.
    """
    keys = np.zeros(masks.shape, dtype=np.int64)
    for i in range(1, n + 1):
        keys |= (((masks >> (i - 1)) & 1)) << (n - i)
    return keys


@lru_cache(maxsize=64)
def derand_classes(n: int, h: int) -> tuple[np.ndarray, np.ndarray]:
    """The derandomized rule's class table, read-only: B(m) = derand_modulus(h, m)
    and a+(m) = clamp(h*m - n, 0, B(m)) for every high count m = 0..n."""
    moduli = np.array([derand_modulus(h, m) for m in range(n + 1)], dtype=np.int64)
    a_plus = np.clip(h * np.arange(n + 1, dtype=np.int64) - n, 0, moduli)
    moduli.flags.writeable = a_plus.flags.writeable = False
    return moduli, a_plus


def _window_offers(start, length, b_val, a_plus):
    """How many z in [start, start + length) have z mod b_val < a_plus."""

    def below(x):
        return x // b_val * a_plus + np.minimum(x % b_val, a_plus)

    return below(start + length) - below(start)


def derand_offers(high: np.ndarray, h: int) -> np.ndarray:
    """Whether the modular rule offers h, as an (n, rows) boolean matrix
    whose row i-1 belongs to bidder i, over the columns of the bidder-major
    (n, rows) boolean matrix `high`.

    Bidder i sees m = k - bit high bids and hashes v = i + X - Y, where X is
    the index sum of the other high bidders and Y the number of high bidders
    before i: (B - 1) * Y = -Y (mod B), so z = v mod B(m).  Since
    1 <= v < W = n(n+1)/2 + n + 1, the offers of every (m, v) form one
    (n + 1, W) table, the window rule on windows of one hash value, and each
    bidder costs one int32 gather from it.
    """
    n = len(high)
    if n > DERAND_OFFERS_N_LIMIT:
        raise ValueError(f"n={n} exceeds the derand offer table limit {DERAND_OFFERS_N_LIMIT}")
    width = n * (n + 1) // 2 + n + 1
    moduli, a_plus = derand_classes(n, h)
    flat = _window_offers(np.arange(width), 1, moduli[:, None], a_plus[:, None]).ravel() > 0
    bits = high.view(np.int8)
    # bidder i reads flat[i + start - bit * (W + i)], where
    # start = k * W + S - Y = sum of bit * (W + j) over all j, less Y
    index = np.empty(high.shape[1], dtype=np.int32)
    start = np.zeros_like(index)
    for i, bit in enumerate(bits, start=1):
        start += np.multiply(bit, np.int32(width + i), out=index, dtype=np.int32)
    offered_h = np.empty(high.shape, dtype=bool)
    for i, (bit, row) in enumerate(zip(bits, offered_h), start=1):
        np.multiply(bit, np.int32(-width - i), out=index, dtype=np.int32)
        np.take(flat[i:], np.add(start, index, out=index), out=row)
        start -= bit
    return offered_h


def derand_revenues(k, index_sum, n: int, h: int) -> np.ndarray:
    """Revenue of the derandomized auction on vectors with k high bids whose
    (1-based) indices sum to index_sum; k and index_sum broadcast.

    Walking one class of bidders in index order steps the modular hash by
    +-1: the low bidder of rank r = 1..n-k sees z = (S + r) mod B(k), and
    the high bidder with y = 0..k-1 high bidders before it sees
    z = (S - y) mod B(k-1).  So each class's offers of h are one window
    count against a+ = clamp(h * n_h(i) - n, 0, B).
    """
    moduli, a_plus = derand_classes(n, h)
    k = np.asarray(k)
    m = np.maximum(k - 1, 0)  # at k = 0 the high window is empty
    low = _window_offers(index_sum + 1, n - k, moduli[k], a_plus[k])
    high = _window_offers(index_sum - k + 1, k, moduli[m], a_plus[m])
    return revenue_by_offer_counts(n, h, low, high)


def _count_kernel(auction: str):
    return lambda high, h: count_revenues(
        high.sum(axis=0), len(high), h, count_threshold(auction, len(high), h)
    )


REVENUE_KERNELS = {
    "dop": _count_kernel("dop"),
    "threshold-dop": _count_kernel("threshold-dop"),
    "derand": lambda high, h: derand_revenues(high.sum(axis=0), high_index_sum(high), len(high), h),
}


def offers_for_bidder(high: np.ndarray, h: int, auction: str) -> np.ndarray:
    """What fixes each bidder's offer on every column of high: a matrix
    shaped like high.  It says whether a deterministic auction offers h; for
    "random" it is n_h(i) itself, which fixes the randomized auction's offer
    distribution."""
    if auction == "derand":
        return derand_offers(high, h)
    seen = seen_high_counts(high)
    if auction == "random":
        return seen
    # seen is a fresh array, so the compare writes its bools over it
    return np.greater_equal(seen, count_threshold(auction, len(high), h), out=seen.view(bool))
