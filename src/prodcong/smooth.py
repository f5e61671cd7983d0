"""Smooth-number sieves and greedy splitting of smooth integers into bounded factors."""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from math import ceil
from typing import Optional

import numpy as np

from .arith import ceil_power, floor_power, primes_in_range
from .errors import DomainError, ResourceError

SIEVE_CAP_ENV = "PRODCONG_SIEVE_CAP"
DEFAULT_SIEVE_CAP = 10**7


def sieve_cap() -> int:
    return int(os.environ.get(SIEVE_CAP_ENV, DEFAULT_SIEVE_CAP))


@dataclass(frozen=True)
class SmoothTable:
    """Largest-prime-factor table over 1..x_max (lpf(1) = 1 by convention)."""

    x_max: int
    lpf: np.ndarray

    def psi(self, x: int, y: float) -> int:
        """Count of y-smooth n <= x (n = 1 is smooth for every y)."""
        if x < 0 or x > self.x_max:
            raise DomainError(f"x={x} beyond table (x_max={self.x_max})")
        smooth = self.lpf[1 : x + 1] <= y
        smooth[:1] = True  # n = 1 has no prime factor at all
        return int(smooth.sum())


def _check_cap(x_max: int) -> None:
    if x_max > sieve_cap():
        raise ResourceError(
            f"x_max={x_max} exceeds sieve cap {sieve_cap()} (set {SIEVE_CAP_ENV} to raise)"
        )


def build_smooth_table(x_max: int) -> SmoothTable:
    if x_max < 1:
        raise DomainError("x_max must be >= 1")
    _check_cap(x_max)
    lpf = np.zeros(x_max + 1, dtype=np.int64)
    lpf[1:2] = 1
    for q in primes_in_range(2, x_max):  # ascending, so the largest prime wins
        lpf[q::q] = q
    lpf.setflags(write=False)
    return SmoothTable(x_max, lpf)


_shared_table: Optional[SmoothTable] = None


def _shared(n: int) -> SmoothTable:
    """A table covering 1..n, kept between calls; lpf(k) for k <= n does not
    depend on how far it reaches. n over the sieve cap is refused even when the
    kept table covers it."""
    global _shared_table
    _check_cap(n)
    if _shared_table is None or _shared_table.x_max < n:
        _shared_table = build_smooth_table(min(max(2 * n, 1024), sieve_cap()))
    return _shared_table


@lru_cache(maxsize=4096, typed=True)
def _bounds(m: int, c0: float, c: float) -> tuple[int, int, int, int]:
    """floor(m**c0), floor(m**c), ceil(m**(c/2)) and ceil(2/c0) + 1: the smooth
    bound, the part cap, the least part after the first, and the most parts."""
    return floor_power(m, c0), floor_power(m, c), ceil_power(m, c / 2), ceil(2 / c0) + 1


_GREEDY_BLOCK = 1 << 13  # rows per block, so the part matrices stay a few MB at any m


def greedy_factor(
    xs, m: int, c0: float, c: float, table: Optional[SmoothTable] = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split every x in xs (a 1-D int array, each 1 <= x <= m) into parts
    bounded by m**c. Units are not required; callers who need units filter
    them first.

    Greedy rule (fixed for determinism): take x's prime factors with
    multiplicity in descending order, and multiply successive primes into the
    current part while it stays <= m**c, else close it and open the next. A
    part closes only when cur*q > m**c with q <= cur, so cur > m**(c/2): only
    the last part can be small, and it is placed first.

    Returns the parts (one row per x, k parts then padding 1s), k, and ok:
    whether x is m**c0-smooth and its parts multiply back to x, lead with a
    part <= m**c, continue with parts in [m**(c/2), m**c] and number at most
    ceil(2/c0) + 1. Each round takes q = lpf[rem] for every row still open,
    closes the part where cur*q > cap, and divides q out of rem, so there are
    at most log2(max xs) rounds. cur*q always divides x, so int64 is exact.

    The whole call is refused with DomainError when m < 2, when the exponents
    fail 0 < c0 <= c < 1, or when some x lies outside 1..m or the table
    passed; without a table, max(xs) over the sieve cap raises ResourceError.
    """
    if m < 2:
        raise DomainError("m must be >= 2")
    if not 0 < c0 <= c < 1:
        raise DomainError("exponents must satisfy 0 < c0 <= c < 1")
    xs = np.asarray(xs, dtype=np.int64)
    if xs.ndim != 1:
        raise DomainError("xs must be a 1-D array")
    top = int(xs.max(initial=1))
    if int(xs.min(initial=1)) < 1 or top > m:
        raise DomainError("every x must satisfy 1 <= x <= m")
    if table is None:
        table = _shared(top)
    elif top > table.x_max:
        raise DomainError(f"x={top} beyond table (x_max={table.x_max})")
    lpf = table.lpf
    smooth_bound, cap, lo, max_parts = _bounds(m, c0, c)
    n = len(xs)
    # column 0 is kept for a small last part; closed parts start at column 1
    parts = np.ones((n, top.bit_length() + 1), dtype=np.int64)
    n_closed = np.zeros(n, dtype=np.int64)
    cur = np.ones(n, dtype=np.int64)
    rem = xs.copy()
    rows = np.flatnonzero(rem > 1)
    while rows.size:
        q = lpf[rem[rows]]
        grown = cur[rows] * q
        close = grown > cap
        shut = rows[close]
        n_closed[shut] += 1
        parts[shut, n_closed[shut]] = cur[shut]
        cur[rows] = np.where(close, q, grown)
        rem[rows] //= q
        rows = rows[rem[rows] > 1]
    k = n_closed + 1
    front = cur < lo
    parts[front, 0] = cur[front]
    back = np.flatnonzero(~front)
    parts[back, k[back]] = cur[back]
    width = int(k.max(initial=1))
    parts = np.where(front[:, None], parts[:, :width], parts[:, 1 : width + 1])

    cols = np.arange(parts.shape[1])
    later = (cols >= 1) & (cols < k[:, None])
    ok = (lpf[xs] <= smooth_bound) & (k <= max_parts) & (parts[:, 0] <= cap)
    ok &= np.all(~later | ((parts >= lo) & (parts <= cap)), axis=1)
    # the parts multiply back to x: divide them out exactly, column by column
    rest = xs.copy()
    for col in parts.T:
        ok &= rest % col == 0
        rest //= col
    return parts, k, ok & (rest == 1)


def _greedy_check(
    xs: np.ndarray, m: int, c0: float, c: float, table: SmoothTable
) -> tuple[int, int, int]:
    """(rows checked, largest k among the x that split, count of x that do
    not), from `greedy_factor` over blocks of `_GREEDY_BLOCK` rows."""
    checked = max_k = failures = 0
    for start in range(0, len(xs), _GREEDY_BLOCK):
        _, k, ok = greedy_factor(xs[start : start + _GREEDY_BLOCK], m, c0, c, table)
        checked += len(ok)
        max_k = max(max_k, int(k[ok].max(initial=0)))
        failures += int(np.count_nonzero(~ok))
    return checked, max_k, failures
