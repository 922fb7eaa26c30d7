"""Each certify.check_* raises the ValueError its entry point raises.

README promises a library caller can run a check without doing any work.
An entry point runs here only where it is cheap (n <= 10, samples <= 100,
or the printable edge (n, h) = (4300, 10), about 0.06 s of work unchecked),
so a check that its entry point stopped making cannot start hours of work.
"""

from __future__ import annotations

import pytest

from bivalued_auctions import (
    AuctionParams,
    block_structure_sweep,
    certify,
    check_distribution_identities,
    dop_unboundedness_demo,
    exact_e_dop_under_d,
    exact_e_opt_under_d,
    lower_bound_gap,
    monte_carlo_under_d,
    worst_case_sweep,
)
from bivalued_auctions.certify import (
    DEFAULT_ENUMERATION_LIMIT,
    DEMO_N_LIMIT,
    ENUMERATION_CAP,
    KERNEL_HN_LIMIT,
    MC_N_LIMIT,
    MC_SAMPLES_LIMIT,
    NORMALIZE_HN_LIMIT,
)

LIMIT = DEFAULT_ENUMERATION_LIMIT
# the least n divisible by h = 10 at which h**n*h*n reaches 10**4300
PRINTABLE_EDGE = dict(n=4300, h=10)
PRINTABLE_MESSAGE = "the 4300-digit limit for printing an integer"

# (check, entry point), both called with one case's keyword arguments
PAIRS = {
    "sweep": (
        lambda n, h, auction, limit=LIMIT: certify.check_sweep(
            AuctionParams(n, h), auction, limit
        ),
        lambda n, h, auction, limit=LIMIT: worst_case_sweep(
            AuctionParams(n, h), auction, limit=limit
        ),
    ),
    "block": (
        lambda n, h, limit=LIMIT: certify.check_block_sweep(AuctionParams(n, h), limit),
        lambda n, h, limit=LIMIT: block_structure_sweep(AuctionParams(n, h), limit=limit),
    ),
    "mc": (
        lambda n, h, auction, samples, seed=0, threads=1: certify.check_monte_carlo(
            n, h, auction, samples, seed, threads=threads
        ),
        lambda n, h, auction, samples, seed=0, threads=1: monte_carlo_under_d(
            n, h, auction, samples, seed, threads=threads
        ),
    ),
    "demo": (certify.check_demo, dop_unboundedness_demo),
    "identities": (certify.check_identities, check_distribution_identities),
    "e_opt": (certify.check_identities, exact_e_opt_under_d),
    "e_dop": (certify.check_identities, exact_e_dop_under_d),
    "gap": (certify.check_identities, lower_bound_gap),
}
MC = dict(n=4, h=2, auction="dop", samples=10)


@pytest.mark.parametrize("pair, kwargs, message", [
    ("sweep", dict(n=6, h=2, auction="threshold-dop"), None),
    ("sweep", dict(n=4, h=2, auction="vcg"), "unknown auction 'vcg'"),
    ("sweep", dict(n=7, h=2, auction="threshold-dop"), "n=7 must be divisible by h=2"),
    ("sweep", dict(n=1, h=KERNEL_HN_LIMIT + 1, auction="dop"), "int64 kernel domain"),
    ("sweep", dict(n=6, h=2, auction="derand", limit=5), "n=6 exceeds enumeration limit 5"),
    # the library sweep divides by nothing; only the `sweep` command checks
    # the bound of the sqrt(n*h) it prints
    ("sweep", dict(n=1, h=NORMALIZE_HN_LIMIT + 1, auction="random"), None),
    ("block", dict(n=6, h=2), None),
    ("block", dict(n=1, h=KERNEL_HN_LIMIT + 1), "int64 kernel domain"),
    ("block", dict(n=6, h=2, limit=5), "n=6 exceeds enumeration limit 5"),
    ("block", dict(n=ENUMERATION_CAP + 1, h=2, limit=ENUMERATION_CAP + 1),
     f"exceeds the enumeration cap {ENUMERATION_CAP}"),
    ("mc", dict(n=6, h=2, auction="random", samples=100), None),
    ("mc", dict(n=4, h=2, auction="vcg", samples=10), "unknown auction 'vcg'"),
    ("mc", dict(n=7, h=2, auction="threshold-dop", samples=10), "n=7 must be divisible by h=2"),
    ("mc", dict(n=1, h=KERNEL_HN_LIMIT + 1, auction="random", samples=10), "int64 kernel domain"),
    ("mc", dict(n=MC_N_LIMIT + 1, h=2, auction="dop", samples=1),
     f"exceeds the Monte Carlo limit {MC_N_LIMIT}"),
    ("mc", dict(n=4, h=2, auction="dop", samples=0), "samples must be >= 1"),
    ("mc", dict(n=4, h=2, auction="dop", samples=MC_SAMPLES_LIMIT + 1),
     f"exceeds the Monte Carlo limit {MC_SAMPLES_LIMIT}"),
    ("mc", dict(PRINTABLE_EDGE, auction="dop", samples=1), PRINTABLE_MESSAGE),
    ("mc", dict(MC, seed=(1 << 64) - 1), None),
    ("mc", dict(MC, seed=-1), "seed must fit in 64 bits"),
    ("mc", dict(MC, seed=1 << 64), "seed must fit in 64 bits"),
    ("mc", dict(MC, threads=0), "threads must be >= 1"),
    ("mc", dict(MC, threads=-1), "threads must be >= 1"),
    ("demo", dict(h=3), None),
    ("demo", dict(h=3, n=4), "n=4 must be divisible by h=3"),
    ("demo", dict(h=2, n=DEMO_N_LIMIT + 2), f"exceeds the demo limit {DEMO_N_LIMIT}"),
    *[
        (pair, kwargs, message)
        for pair in ("identities", "e_opt", "e_dop", "gap")
        for kwargs, message in (
            (dict(n=6, h=2), None),
            (dict(n=7, h=2), "n=7 must be divisible by h=2"),
            (dict(n=4290, h=10), None),
            (PRINTABLE_EDGE, PRINTABLE_MESSAGE),
            (dict(n=20000, h=10), PRINTABLE_MESSAGE),
        )
    ],
], ids=lambda value: (
    ",".join(f"{k}={v}" for k, v in value.items()) if isinstance(value, dict)
    else value or "accepted"
))
def test_check_raises_what_its_entry_point_raises(pair, kwargs, message):
    check, entry = PAIRS[pair]
    edge = kwargs.items() >= PRINTABLE_EDGE.items()
    cheap = (kwargs.get("n", kwargs["h"] ** 2) <= 10 or edge) and kwargs.get("samples", 0) <= 100
    if message is None:
        check(**kwargs)
        if cheap:
            entry(**kwargs)
        return
    with pytest.raises(ValueError, match=message) as checked:
        check(**kwargs)
    if cheap:
        with pytest.raises(ValueError) as ran:
            entry(**kwargs)
        assert str(ran.value) == str(checked.value)
