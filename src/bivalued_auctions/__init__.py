"""Two-price single-item-copies auctions and their loss certificates.

Bidders value an unlimited-supply good at either 1 or h.  The package
implements the classic deterministic optimal-price auction, its threshold
variant, a randomized bid-independent auction whose expected revenue trails
the fixed-price benchmark max(n, h*n_high) by O(sqrt(n*h)), and a modular
derandomization with the same guarantee per vector.  The analysis layer
certifies both directions of the bound: exact worst-case sweeps over every
bid vector, class by class, for the upper side, exact binomial identities
under the hard i.i.d. distribution for the lower side.
"""

from .auctions import (
    AUCTION_NAMES,
    DETERMINISTIC_AUCTIONS,
    DerandState,
    derand_modulus,
    derand_offer,
    derand_run,
    derand_state,
    dop_offer,
    expected_revenue_by_count,
    offer_probability_by_count,
    offer_rule,
    random_auction_exact_expectation,
    random_auction_run,
    random_offer_probability,
    require_divisible,
    run_auction,
    threshold_dop_offer,
)
from .analysis import (
    BlockCheckResult,
    BlockViolation,
    DistributionDReport,
    IdentityCheckError,
    LossProfile,
    additive_loss,
    bid_independence_violations,
    block_structure_check,
    block_structure_sweep,
    check_distribution_identities,
    dop_unboundedness_demo,
    exact_e_dop_under_d,
    exact_e_opt_under_d,
    lower_bound_gap,
    monte_carlo_under_d,
    worst_case_sweep,
)
from .core import (
    LOW_VALUE,
    AuctionParams,
    BidVector,
    MaskedBidVector,
    OfferSchedule,
    all_vectors,
    count_high,
    count_high_excluding,
    offline_optimal,
    settle,
)
from .exact import SurdSum, bernoulli_threshold, ceil_scaled_sqrt, square_free

__version__ = "0.1.0"

__all__ = [
    "AUCTION_NAMES",
    "AuctionParams",
    "BidVector",
    "BlockCheckResult",
    "BlockViolation",
    "DETERMINISTIC_AUCTIONS",
    "DerandState",
    "DistributionDReport",
    "IdentityCheckError",
    "LOW_VALUE",
    "LossProfile",
    "MaskedBidVector",
    "OfferSchedule",
    "SurdSum",
    "additive_loss",
    "all_vectors",
    "bernoulli_threshold",
    "bid_independence_violations",
    "block_structure_check",
    "block_structure_sweep",
    "ceil_scaled_sqrt",
    "check_distribution_identities",
    "count_high",
    "count_high_excluding",
    "derand_modulus",
    "derand_offer",
    "derand_run",
    "derand_state",
    "dop_offer",
    "dop_unboundedness_demo",
    "exact_e_dop_under_d",
    "exact_e_opt_under_d",
    "expected_revenue_by_count",
    "lower_bound_gap",
    "monte_carlo_under_d",
    "offer_probability_by_count",
    "offer_rule",
    "offline_optimal",
    "random_auction_exact_expectation",
    "random_auction_run",
    "random_offer_probability",
    "require_divisible",
    "run_auction",
    "settle",
    "square_free",
    "threshold_dop_offer",
    "worst_case_sweep",
]
