"""Bid vectors, masked views, price schedules, and the fixed-price benchmark.

Bidders are indexed 1..n throughout (the derandomized offer rule mixes the
bidder index into a modular hash, so off-by-one errors here are not cosmetic).
A bid is either low (value 1) or high (value h >= 2).  Vectors are backed by
an integer bitmask, bit i-1 set <=> bidder i bids high, which keeps exhaustive
enumeration cheap without capping n.  A MaskedBidVector is what one bidder's
offer rule sees: the other bidders' bits only, never its own bid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

LOW_VALUE = 1


@dataclass(frozen=True)
class AuctionParams:
    """Number of bidders n and the high bid value h."""

    n: int
    h: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        if not isinstance(self.h, int) or self.h < 2:
            raise ValueError(f"h must be an integer >= 2, got {self.h!r}")


@dataclass(frozen=True)
class BidVector:
    """An ordered vector of n bids, each LOW_VALUE or params.h."""

    params: AuctionParams
    mask: int

    def __post_init__(self) -> None:
        if not 0 <= self.mask < (1 << self.params.n):
            raise ValueError(f"mask {self.mask:#x} out of range for n={self.params.n}")

    @classmethod
    def from_bids(cls, params: AuctionParams, bids: Sequence[int]) -> "BidVector":
        if len(bids) != params.n:
            raise ValueError(f"expected {params.n} bids, got {len(bids)}")
        mask = 0
        for pos, bid in enumerate(bids):
            if bid == params.h:
                mask |= 1 << pos
            elif bid != LOW_VALUE:
                raise ValueError(f"bid {bid!r} not in {{1, {params.h}}}")
        return cls(params, mask)

    @classmethod
    def from_string(cls, params: AuctionParams, text: str) -> "BidVector":
        """Build from a string like 'HLLH' (position 1 first)."""
        if len(text) != params.n:
            raise ValueError(f"expected {params.n} characters, got {len(text)}")
        mask = 0
        for pos, ch in enumerate(text.upper()):
            if ch == "H":
                mask |= 1 << pos
            elif ch != "L":
                raise ValueError(f"bid character {ch!r} not in {{'L', 'H'}}")
        return cls(params, mask)

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def h(self) -> int:
        return self.params.h

    def is_high(self, i: int) -> bool:
        """Whether bidder i (1-based) bids high."""
        _check_index(self.params, i)
        return bool((self.mask >> (i - 1)) & 1)

    def bid(self, i: int) -> int:
        return self.params.h if self.is_high(i) else LOW_VALUE

    @property
    def bids(self) -> tuple[int, ...]:
        return tuple(self.bid(i) for i in range(1, self.n + 1))

    def to_string(self) -> str:
        return "".join("H" if self.is_high(i) else "L" for i in range(1, self.n + 1))

    def flip(self, i: int) -> "BidVector":
        """Copy with bidder i's bid toggled between low and high."""
        _check_index(self.params, i)
        return BidVector(self.params, self.mask ^ (1 << (i - 1)))

    def mask_bidder(self, i: int) -> "MaskedBidVector":
        return MaskedBidVector(self.params, i, self.mask)


def _check_index(params: AuctionParams, i: int) -> None:
    if not 1 <= i <= params.n:
        raise IndexError(f"bidder index {i} out of range 1..{params.n}")


@dataclass(frozen=True)
class MaskedBidVector:
    """What bidder masked_index sees of a bid vector: the other n-1 bids.

    `others` is the vector's mask with the masked bidder's bit cleared, and
    the constructor clears that bit itself, so a view holds no own bid and
    the views of b and b.flip(masked_index) are equal.  Every offer rule is
    a function of one of these; that is what makes the auctions truthful.
    """

    params: AuctionParams
    masked_index: int
    others: int

    def __post_init__(self) -> None:
        _check_index(self.params, self.masked_index)
        bit = 1 << (self.masked_index - 1)
        # the & reads only the low masked_index bits; a set bit costs one more pass
        if self.others & bit:
            object.__setattr__(self, "others", self.others ^ bit)

    def is_high(self, j: int) -> bool:
        """Bid class of bidder j != masked_index."""
        if j == self.masked_index:
            raise ValueError(f"bid {j} is masked")
        _check_index(self.params, j)
        return bool((self.others >> (j - 1)) & 1)


@dataclass(frozen=True)
class OfferSchedule:
    """Per-bidder price offers with the resulting payments and revenue.

    A bidder pays the offered price iff it is at most their bid; offers of 1
    are always accepted, an offer of h is accepted only by high bidders.
    """

    offers: tuple[int, ...]
    payments: tuple[int, ...]
    revenue: int


def count_high(b: BidVector) -> int:
    """Number of high bids in b."""
    return b.mask.bit_count()


def count_high_excluding(m: MaskedBidVector) -> int:
    """Number of high bids among all bidders other than the masked one."""
    return m.others.bit_count()


def offline_optimal(b: BidVector) -> int:
    """Best revenue of a single posted price applied to all of b: max(n, h * n_high)."""
    return max(b.n, b.h * count_high(b))


def settle(b: BidVector, offers: Sequence[int]) -> OfferSchedule:
    """Apply per-bidder offers to b and account payments."""
    params = b.params
    if len(offers) != params.n:
        raise ValueError(f"expected {params.n} offers, got {len(offers)}")
    payments = []
    for i, offer in enumerate(offers, start=1):
        if offer not in (LOW_VALUE, params.h):
            raise ValueError(f"offer {offer!r} not in {{1, {params.h}}}")
        payments.append(offer if offer <= b.bid(i) else 0)
    return OfferSchedule(tuple(offers), tuple(payments), sum(payments))


def revenue_by_offer_counts(n: int, h: int, low_offered_h, high_offered_h):
    """Revenue of n bidders when low_offered_h low bidders and high_offered_h
    high bidders are offered h, and every other bidder 1 (ints or arrays).

    Every bidder pays 1, except that a low bidder offered h pays 0 and a high
    bidder offered h pays h.
    """
    return n - low_offered_h + (h - 1) * high_offered_h
