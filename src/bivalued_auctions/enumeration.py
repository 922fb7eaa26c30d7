"""The vector form of the deterministic offer rules: one kernel per auction.

The scalar rules in auctions.py define each auction one bidder at a time.
The kernels here apply the same rules to many bid vectors at once.  The
sweeps, Monte Carlo and the truthfulness and block checks of the
deterministic auctions all call them, and the test suite holds them equal to
the scalar rules.

- DOP and threshold-DOP offer h iff n_h(i) >= t for a count threshold t
  (`count_threshold`), so their revenue is a function of the high count k
  alone (`count_revenues`).
- The derandomized rule depends on the bids themselves: `derand_offers`
  walks a bidder-major (n, rows) boolean high matrix once.  Its revenue,
  though, depends only on k and on S, the sum of the high bidders' indices
  (`derand_revenues`).

A mask encodes one bid vector (bit i-1 set <=> bidder i bids high).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .auctions import derand_modulus, require_divisible
from .core import revenue_by_offer_counts


def mask_array(lo: int, hi: int) -> np.ndarray:
    return np.arange(lo, hi, dtype=np.int64)


def popcount(masks: np.ndarray) -> np.ndarray:
    return np.bitwise_count(masks.astype(np.uint64)).astype(np.int64)


def high_matrix(masks: np.ndarray, n: int) -> np.ndarray:
    """Bidder-major bids: row i-1 says, per mask, whether bidder i bids high."""
    high = np.empty((n, len(masks)), dtype=bool)
    for i, row in enumerate(high):
        row[:] = (masks >> i) & 1
    return high


def high_index_sum(high: np.ndarray) -> np.ndarray:
    """Sum of the 1-based indices of the high bidders, per column of high."""
    total = np.zeros(high.shape[1], dtype=np.int64)
    for i, bit in enumerate(high, start=1):
        total += i * bit
    return total


def lex_keys(masks: np.ndarray, n: int) -> np.ndarray:
    """Key whose numeric order is the lexicographic order of bid strings.

    Bid strings compare position 1 first with L < H, so position 1 becomes
    the most significant bit of the key.
    """
    keys = np.zeros(masks.shape, dtype=np.int64)
    for i in range(1, n + 1):
        keys |= (((masks >> (i - 1)) & 1)) << (n - i)
    return keys


def count_threshold(auction: str, n: int, h: int) -> int:
    """The least n_h(i) at which DOP or threshold-DOP offers h."""
    if auction == "dop":
        return -(-(n - 1) // h)  # h * n_h(i) >= n - 1
    if auction == "threshold-dop":
        require_divisible(n, h)
        return n // h
    raise ValueError(f"{auction!r} is not a count-threshold auction")


def count_revenues(k: np.ndarray, n: int, h: int, t: int) -> np.ndarray:
    """Revenue of the count-threshold rule on vectors with k high bids: a
    low bidder sees k high bids and a high bidder k - 1, and each is offered
    h iff it sees at least t."""
    return revenue_by_offer_counts(n, h, (n - k) * (k >= t), k * (k > t))


def _derand_moduli(n: int, h: int) -> np.ndarray:
    """B(m) = derand_modulus(h, m) for every high count m = 0..n."""
    return np.array([derand_modulus(h, m) for m in range(n + 1)], dtype=np.int64)


def derand_offers(high: np.ndarray, h: int) -> Iterator[np.ndarray]:
    """Per bidder i = 1..n, whether the modular rule offers h, over the
    columns of the bidder-major (n, rows) boolean matrix `high`.

    One walk over the bidders keeps Y, the number of high bidders before i,
    so each column costs O(rows).
    """
    n = len(high)
    k = high.sum(axis=0, dtype=np.int64)
    index_sum = high_index_sum(high)
    moduli = _derand_moduli(n, h)
    seen_high = np.zeros_like(k)
    for i, bit in enumerate(high, start=1):
        nh_i = k - bit
        b_val = moduli[nh_i]
        x = index_sum - i * bit
        z = (i + x + (b_val - 1) * seen_high) % b_val
        yield z < h * nh_i - n
        seen_high += bit


def _window_offers(start, length, b_val, a_plus):
    """How many z in [start, start + length) have z mod b_val < a_plus."""

    def below(x):
        return x // b_val * a_plus + np.minimum(x % b_val, a_plus)

    return below(start + length) - below(start)


def derand_revenues(k, index_sum, n: int, h: int) -> np.ndarray:
    """Revenue of the derandomized auction on vectors with k high bids whose
    (1-based) indices sum to index_sum; k and index_sum broadcast.

    Walking one class of bidders in index order steps the modular hash by
    +-1: the low bidder of rank r = 1..n-k sees z = (S + r) mod B(k), and
    the high bidder with y = 0..k-1 high bidders before it sees
    z = (S - y) mod B(k-1).  So each class's offers of h are one window
    count against a+ = clamp(h * n_h(i) - n, 0, B).
    """
    moduli = _derand_moduli(n, h)
    a_plus = np.clip(h * np.arange(n + 1, dtype=np.int64) - n, 0, moduli)
    k = np.asarray(k)
    m = np.maximum(k - 1, 0)  # at k = 0 the high window is empty
    low = _window_offers(index_sum + 1, n - k, moduli[k], a_plus[k])
    high = _window_offers(index_sum - k + 1, k, moduli[m], a_plus[m])
    return revenue_by_offer_counts(n, h, low, high)


def _count_kernel(auction: str):
    def revenues(masks: np.ndarray, n: int, h: int) -> np.ndarray:
        return count_revenues(popcount(masks), n, h, count_threshold(auction, n, h))

    return revenues


REVENUE_KERNELS = {
    "dop": _count_kernel("dop"),
    "threshold-dop": _count_kernel("threshold-dop"),
    "derand": lambda masks, n, h: derand_revenues(
        popcount(masks), high_index_sum(high_matrix(masks, n)), n, h
    ),
}


def offers_for_bidder(masks: np.ndarray, n: int, h: int, auction: str) -> np.ndarray:
    """Whether each bidder is offered h on every mask: an (n, len(masks))
    boolean matrix whose row i-1 belongs to bidder i."""
    if auction == "derand":
        columns = derand_offers(high_matrix(masks, n), h)
    else:
        t = count_threshold(auction, n, h)
        k = popcount(masks)
        columns = (k - ((masks >> i) & 1) >= t for i in range(n))
    return np.stack(list(columns))
