"""Two-price single-item-copies auctions and their loss certificates.

Bidders value an unlimited-supply good at either 1 or h.  The package
implements the classic deterministic optimal-price auction, its threshold
variant, a randomized bid-independent auction whose expected revenue trails
the fixed-price benchmark max(n, h*n_high) by O(sqrt(n*h)), and a modular
derandomization with the same guarantee per vector.  The analysis layer
certifies both directions of the bound: exact worst-case sweeps over every
bid vector, class by class, for the upper side, exact binomial identities
under the hard i.i.d. distribution for the lower side.

Each public name is imported from its home module on first use, so
importing the package loads no numpy; only the names that live in analysis
do.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {
    "analysis": (
        "BlockCheckResult",
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
        "random_auction_exact_expectation",
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
        "all_vectors",
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
