"""Walk the derandomized auction bidder by bidder on a couple of vectors.

Prints the per-bidder state (a, b, X, Y, Z) so you can see the modular
schedule allocate high offers in blocks.
"""

from bivalued_auctions import (
    AuctionParams,
    BidVector,
    block_structure_check,
    derand_run,
    derand_state,
    offline_optimal,
)


def trace(text, h):
    b = BidVector.from_string(AuctionParams(len(text), h), text)
    print(f"bids {text}  (h = {h})")
    print("  i bid    a    b    X  Y  Z  offer")
    schedule = derand_run(b)
    for i in range(1, b.n + 1):
        s = derand_state(b.mask_bidder(i))
        print(
            f"  {i} {b.bid(i):>3} {s.a_val:>4} {s.b_val:>4} {s.x_val:>4}"
            f" {s.y_val:>2} {s.z_val:>2} {schedule.offers[i - 1]:>6}"
        )
    print(f"  revenue {schedule.revenue}, OPT {offline_optimal(b)}")
    check = block_structure_check(b)
    print(f"  block structure ok: {check is None}")
    print()


trace("HHHH", 2)
trace("HLHLHLHL", 2)
trace("HHHHHHLLL", 3)

# every b consecutive same-class bidders receive exactly clamp(a, 0, b)
# high offers; a corrupted schedule is caught immediately
b = BidVector.from_string(AuctionParams(6, 2), "HHHHHH")
good = derand_run(b).offers
bad = (1,) + good[1:]
print("tampered schedule:", block_structure_check(b, bad))
