# Take each auction's worst additive loss on a small grid, exact over all bid
# vectors but computed class by class (per high count, and per high-index sum
# for derand), and compare it against the distributional lower bound.  The
# derandomized auction should track C*sqrt(n*h) while DOP blows up linearly
# in h.

import math

from bivalued_auctions import (
    AuctionParams,
    dop_unboundedness_demo,
    lower_bound_gap,
    worst_case_sweep,
)

print("worst additive loss, exact over all 2^n bid vectors")
print(f"{'n':>4} {'h':>3} {'dop':>6} {'derand':>7} {'random':>8} {'gap':>8} {'derand/sqrt(nh)':>16}")
for h in (2, 3, 4):
    for n in range(h, 17, h):
        p = AuctionParams(n, h)
        dop = worst_case_sweep(p, "dop").global_worst
        der = worst_case_sweep(p, "derand").global_worst
        rnd = float(worst_case_sweep(p, "random").global_worst)
        gap = float(lower_bound_gap(n, h))
        print(
            f"{n:>4} {h:>3} {dop:>6} {der:>7} {rnd:>8.3f} {gap:>8.3f}"
            f" {der / math.sqrt(n * h):>16.3f}"
        )
    print()

# the deterministic optimal-price auction has no such guarantee: at n = h^2
# with h highs, revenue is h while OPT is h^2
for h in (5, 10, 20):
    ratio = dop_unboundedness_demo(h)
    print(f"h = {h:>3}: OPT / DOP revenue = {ratio} on the n = h^2 witness")
