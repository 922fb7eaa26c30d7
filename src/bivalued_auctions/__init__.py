"""Two-price single-item-copies auctions and their loss certificates.

Bidders value an unlimited-supply good at either 1 or h.  The package
implements the classic deterministic optimal-price auction, its threshold
variant, a randomized bid-independent auction, and its modular
derandomization, and measures how far each trails the fixed-price benchmark
max(n, h*n_high).  It certifies both directions exactly: worst-case sweeps
over every bid vector, class by class, for the upper side, and binomial
identities under the hard i.i.d. distribution for the lower side.  The
sqrt(n*h) bounds hold where the tests pin them, not everywhere: the
randomized auction's expected loss is at most (3/2) sqrt(n*h) for n <= 14
with h in {2, 3, 4}, and it loses h - 1 at n = 1; the derandomization's
worst loss is at most sqrt(63/8) sqrt(n*h) for n <= 20 on its grid, and
reaches 5.48 sqrt(n*h) at (n, h) = (1000, 50).

Each public name is imported from its home module on first use, so
importing the package loads no numpy; only the names that live in analysis
do.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {
    "analysis": (
        "BlockViolation",
        "DistributionDReport",
        "bid_independence_violations",
        "block_structure_check",
        "block_structure_sweep",
        "check_distribution_identities",
        "exact_e_dop_under_d",
        "exact_e_opt_under_d",
        "lower_bound_gap",
        "monte_carlo_under_d",
    ),
    "auctions": (
        "AUCTION_NAMES",
        "DETERMINISTIC_AUCTIONS",
        "DerandState",
        "derand_modulus",
        "derand_offer",
        "derand_run",
        "derand_state",
        "dop_offer",
        "expected_revenue_by_count",
        "offer_probability_by_count",
        "offer_rule",
        "random_auction_run",
        "random_offer_probability",
        "require_divisible",
        "run_auction",
        "threshold_dop_offer",
    ),
    "certify": (
        "IdentityCheckError",
        "LossProfile",
        "additive_loss",
        "dop_unboundedness_demo",
        "worst_case_sweep",
    ),
    "core": (
        "LOW_VALUE",
        "AuctionParams",
        "BidVector",
        "MaskedBidVector",
        "OfferSchedule",
        "count_high",
        "count_high_excluding",
        "offline_optimal",
        "settle",
    ),
    "exact": ("SurdSum", "bernoulli_threshold", "ceil_scaled_sqrt", "square_free"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
