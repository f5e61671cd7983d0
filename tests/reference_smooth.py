"""Reference greedy splits kept for the equivalence tests.

`greedy_factor_reference` is the scalar loop that `greedy_factor` was before
the batched kernel took its name: one x at a time, the descending prime
factors packed into parts under m**c, a small last part placed first, and the
bounds checked on the result. It raises `DomainError` wherever the kernel
must refuse the call or report ok = False for that x, and reads the bounds
through `smooth._bounds` at call time, so a test that tightens them tightens
both sides.

`greedy_parts_reference` is the earlier form of the same rule: it packs the
descending prime factors into parts under m**c, then merges any two parts
below m**(c/2) until at most one is left and places that one first. The
library packs once and moves a small last part to the front; the tests check
both give the same parts.
"""

from math import prod

from prodcong import smooth
from prodcong.arith import ceil_power, floor_power
from prodcong.errors import DomainError


def prime_factors_desc(lpf, x):
    """Prime factors of x with multiplicity, nonincreasing, from an lpf table."""
    out = []
    while x > 1:
        q = int(lpf[x])
        out.append(q)
        x //= q
    return out


def greedy_factor_reference(x, m, c0, c, lpf):
    """The parts of x, one x at a time, or DomainError."""
    if x < 1:
        raise DomainError("x must be >= 1")
    if m < 2:
        raise DomainError("m must be >= 2")
    if not 0 < c0 <= c < 1:
        raise DomainError("exponents must satisfy 0 < c0 <= c < 1")
    if x > m:
        raise DomainError("x must be at most m")
    smooth_bound, cap, lo, max_parts = smooth._bounds(m, c0, c)
    if x == 1:
        parts = (1,)
    else:
        if smooth_bound < 2:
            raise DomainError("m**c0 < 2: no primes available")
        if x >= len(lpf):
            raise DomainError(f"x={x} beyond table (x_max={len(lpf) - 1})")
        primes = prime_factors_desc(lpf, x)
        if primes[0] > smooth_bound:
            raise DomainError(f"x={x} is not m**c0-smooth (lpf {primes[0]} > {smooth_bound})")
        closed = []
        cur = 1
        for q in primes:
            if cur * q > cap:  # q <= smooth_bound <= cap, so cur > 1 here
                closed.append(cur)
                cur = q
            else:
                cur *= q
        parts = (cur, *closed) if cur < lo else (*closed, cur)
    # the checks every returned split passed
    if prod(parts) != x:
        raise DomainError("parts do not multiply back to x")
    if parts[0] > cap:
        raise DomainError("leading part exceeds m**c")
    for part in parts[1:]:
        if not lo <= part <= cap:
            raise DomainError(f"part {part} outside [m**(c/2), m**c]")
    if len(parts) > max_parts:
        raise DomainError("too many parts")
    return parts


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
