"""Reference greedy split kept for the equivalence tests.

`greedy_parts_reference` is the earlier form of `greedy_factor`: it packs the
descending prime factors into parts under m**c, then merges any two parts
below m**(c/2) until at most one is left and places that one first. The
library packs once and moves a small last part to the front; the tests check
both give the same parts.
"""

from prodcong.arith import ceil_power, floor_power


def greedy_parts_reference(primes, m, c):
    """Parts of the product of `primes` (nonincreasing), for the cap m**c."""
    cap = floor_power(m, c)
    lo = ceil_power(m, c / 2)
    parts = []
    cur = 1
    for q in primes:
        if cur > 1 and cur * q > cap:
            parts.append(cur)
            cur = q
        else:
            cur *= q
    parts.append(cur)
    small = [part for part in parts if part < lo]
    big = [part for part in parts if part >= lo]
    while len(small) >= 2:
        merged = small.pop() * small.pop()
        (big if merged >= lo else small).append(merged)
    return tuple(small + big)
