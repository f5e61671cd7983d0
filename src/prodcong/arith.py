"""Exact integer arithmetic over residue rings: factorization, totients,
primitive roots, and discrete logs (a dense index table built on first use,
or a baby-step giant-step lookup for a few units).

Everything here is deterministic: the Pollard-rho fallback walks a fixed
parameter schedule, so repeated runs factor identically.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, isfinite, isqrt, log2

import numpy as np

from .errors import DomainError, ResourceError

TABLE_CAP_ENV = "PRODCONG_TABLE_CAP"
DEFAULT_TABLE_CAP = 1 << 22


def table_cap() -> int:
    """Cap on dense per-residue tables; override via PRODCONG_TABLE_CAP."""
    return int(os.environ.get(TABLE_CAP_ENV, DEFAULT_TABLE_CAP))


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
# (psi_t, t): psi_t is the least strong pseudoprime to each of the first t
# prime bases, so Miller-Rabin with those bases is exact for every n < psi_t
# (Jaeschke 1993; Sorenson and Webster 2015 for psi_12 and psi_13).
_MR_BOUNDS = (
    (2047, 1),
    (1373653, 2),
    (25326001, 3),
    (3215031751, 4),
    (2152302898747, 5),
    (3474749660383, 6),
    (341550071728321, 7),  # psi_8 = psi_7
    (3825123056546413051, 9),  # psi_11 = psi_10 = psi_9
    (318665857834031151167461, 12),
    (3317044064679887385961981, 13),
)


def is_prime(n: int) -> bool:
    """Primality by trial division by the bases, then strong-probable-prime
    tests to the shortest prefix of bases that is exact below its psi_t bound
    (any n < 3.3e24, so every 64-bit n). For n >= psi_13 no prefix is proven:
    all fourteen bases run (psi_13 itself fails base 43), and a True answer
    is unproven."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    count = next((t for bound, t in _MR_BOUNDS if n < bound), len(_MR_BASES))
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES[:count]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int) -> int:
    """A nontrivial factor of composite odd n, via Brent's cycle search."""
    for c in range(1, n):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"cycle search failed on {n}")


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization as (prime, exponent) pairs with strictly increasing
    primes; factorize(1) == [] (the empty product)."""
    if n < 1:
        raise DomainError("factorize requires n >= 1")
    out: dict[int, int] = {}
    for q in _SMALL_PRIMES:
        if q * q > n:
            break
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
    if n > 1:
        stack = [n]
        while stack:
            v = stack.pop()
            if is_prime(v):
                out[v] = out.get(v, 0) + 1
            else:
                d = _brent_rho(v)
                stack.append(d)
                stack.append(v // d)
    return sorted(out.items())


@lru_cache(maxsize=512, typed=True)  # a numpy integer gets its own entry and result type
def euler_phi(n: int) -> int:
    """Count of 1 <= x <= n with gcd(x, n) = 1."""
    if n < 1:
        raise DomainError("euler_phi requires n >= 1")
    result = n
    for q, _ in factorize(n):
        result -= result // q
    return result


def primes_in_range(lo: int, hi: int) -> list[int]:
    """All primes p with lo <= p <= hi."""
    if hi < lo or hi < 2:
        return []
    mask = np.ones(hi + 1, dtype=bool)
    mask[:2] = False
    for q in range(2, isqrt(hi) + 1):
        if mask[q]:
            mask[q * q :: q] = False
    return [int(p) for p in np.nonzero(mask)[0] if p >= lo]


_SMALL_PRIMES = tuple(primes_in_range(2, 4096))


def primitive_root(p: int) -> int:
    """Smallest generator of the multiplicative group mod p."""
    if not is_prime(p):
        raise DomainError("primitive_root requires a prime modulus")
    if p == 2:
        return 1
    order_factors = [q for q, _ in factorize(p - 1)]
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in order_factors):
            return g
    raise ArithmeticError("no primitive root found")


def _power_table(base: int, count: int, p: int) -> np.ndarray:
    """int64 base**i mod p for i < count. The first 64 powers take one Python
    multiplication each; then each doubling step multiplies the powers so far
    by base**filled, whose int64 products stay below (p-1)**2. A p with
    (p-1)**2 >= 2**63 takes the Python loop throughout."""
    head = [1 % p]
    for _ in range((min(count, 64) if (p - 1) ** 2 < 1 << 63 else count) - 1):
        head.append(head[-1] * base % p)
    out = np.empty(count, dtype=np.int64)
    out[: len(head)] = head
    filled = len(head)
    while filled < count:
        step = min(filled, count - filled)
        chunk = out[filled : filled + step]
        np.multiply(out[:step], pow(base, filled, p), out=chunk)
        np.remainder(chunk, p, out=chunk)
        filled += step
    return out


@dataclass(frozen=True)
class FieldContext:
    """A prime field with a primitive root g, and the discrete logs of its units.

    dlog is the full index table, built on first use and read-only afterwards:
    dlog[x] is the exponent e with g**e == x (mod p) for x in 1..p-1, and
    dlog[0] = -1 is a sentinel (0 has no index). index(xs) gives the logs of a
    few units without it, by one baby-step giant-step pass.
    """

    p: int
    g: int

    @cached_property
    def _powers(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(giant, baby, order): giant[i] = g**(b*i) for i < ceil((p-1)/b) and
        baby[j] = g**j for j < b = ceil(sqrt(p-1)), so every exponent e < p-1
        is i*b + j; order sorts the last giant step's powers giant[-1]*baby."""
        p, g = self.p, self.g
        if g % p == 0:
            raise ArithmeticError(f"g={g} does not generate every unit mod {p}")
        b = isqrt(p - 2) + 1
        giant = _power_table(pow(g, b, p), -(-(p - 1) // b), p)
        baby = _power_table(g, b, p)
        return giant, baby, np.argsort(giant[-1] * baby % p)

    def _unlog(self, exponents: np.ndarray) -> np.ndarray:
        """g**e mod p for an int64 array of exponents e in 0..p-2 (index's
        inverse), read from the giant and baby tables: e = i*b + j."""
        giant, baby, _ = self._powers
        i = exponents // baby.size
        out = giant[i]
        i *= baby.size
        np.subtract(exponents, i, out=i)  # j = e - i*b
        out *= baby[i]
        np.remainder(out, self.p, out=out)
        return out

    def _residue_mask(self, flags: np.ndarray) -> np.ndarray:
        """The bool mask over 0..p-1 of the units g**e whose flag is set, for a
        bool array of flags over e in 0..p-2: one gather through the table if
        it is built and at least 1/32 of the flags are set (a power costs
        about 32 entries of the gather), else the powers of the flagged
        exponents (_unlog)."""
        mask = np.zeros(self.p, dtype=bool)
        if "dlog" in vars(self) and 32 * np.count_nonzero(flags) >= self.p:
            mask[1:] = flags[self.dlog[1:]]
        else:
            mask[self._unlog(np.flatnonzero(flags))] = True
        return mask

    # The table lists g**e for e = i*b + j as (g**b)**i * g**j: one outer
    # product of the giant and baby power tables, taken mod p in place, holds
    # every power in exponent order, and dlog inverts that permutation.
    @cached_property
    def dlog(self) -> np.ndarray:
        p, g = self.p, self.g
        giant, baby, _ = self._powers
        powers = np.multiply.outer(giant, baby)
        np.remainder(powers, p, out=powers)
        dlog = np.full(p, -1, dtype=np.int64)
        dlog[powers.ravel()[: p - 1]] = np.arange(p - 1)
        if (dlog[1:] < 0).any():
            raise ArithmeticError(f"g={g} does not generate every unit mod {p}")
        dlog.setflags(write=False)
        return dlog

    def index(self, units) -> np.ndarray:
        """int64 discrete logs of an array of units in 1..p-1.

        Reads the table if it is built, or if the lookup would do more work
        than building it: |xs| * r cells, r = ceil((p-1)/b), each a binary
        search of bit_length(b) steps, against the table's p-1 entries.
        Otherwise x = g**e is found from the first giant step i whose
        x * g**(b*i) is a power g**(b*(r-1) + j) of the last one: then
        e = b*(r-1-i) + j (mod p-1)."""
        p, n = self.p, self.p - 1
        xs = np.asarray(units, dtype=np.int64)
        if xs.size and (xs.min() < 1 or xs.max() > n):
            raise DomainError(f"only the units 1..{n} have a discrete log mod {p}")
        giant, baby, order = self._powers
        b, rows = baby.size, giant.size
        if "dlog" in vars(self) or xs.size * rows * b.bit_length() >= n:
            return self.dlog[xs]
        last = (giant[-1] * baby % p)[order]
        cells = np.multiply.outer(xs, giant)
        np.remainder(cells, p, out=cells)
        at = np.searchsorted(last, cells)
        np.minimum(at, b - 1, out=at)
        hit = last[at] == cells
        i = hit.argmax(axis=1)
        rows_of = np.arange(xs.size)
        if not hit[rows_of, i].all():
            raise ArithmeticError(f"g={self.g} does not generate every unit mod {p}")
        return ((rows - 1 - i) * b + order[at[rows_of, i]]) % n


# A context is kept per prime for the table that _dlog_product_mask reads
# (p int64 entries, up to 32 MB at the table cap), and no caller reuses more
# than the current prime, so only the last two are kept.
@lru_cache(maxsize=2)
def _field_context(p: int) -> FieldContext:
    return FieldContext(p, primitive_root(p))


def build_field_context(p: int) -> FieldContext:
    if not is_prime(p):
        raise DomainError("field modulus must be prime")
    if p > table_cap():
        raise ResourceError(
            f"p={p} exceeds the dense table cap {table_cap()} (set {TABLE_CAP_ENV} to raise)"
        )
    if (p - 1) ** 2 >= 1 << 63:
        raise ResourceError(
            f"p={p}: the {p}-entry index table multiplies residues up to (p-1)**2 = "
            f"{(p - 1) ** 2}, which overflows int64"
        )
    return _field_context(p)


# Largest power base**n, in bits, that floor_power and ceil_power will form.
MAX_POWER_BITS = 1 << 22


def _iroot(n: int, k: int) -> int:
    """Largest t with t**k <= n (n, k >= 1): integer Newton steps from a float
    seed at or above the root never drop below it (AM-GM), and stop there."""
    if n.bit_length() <= k:  # n < 2**k
        return 1
    shift = max(0, n.bit_length() // k - 30)
    t = (int(2 ** (log2(n >> shift * k) / k)) + 2) << shift
    while (u := ((k - 1) * t + n // t ** (k - 1)) // k) < t:
        t = u
    return t


def _power(base: int, exponent) -> tuple[int, int]:
    """(base**n, k) for the exponent read as n/k: an int or Fraction as given,
    a float as its shortest decimal (0.3 is 3/10, so c/2 stays exact)."""
    if base < 1:
        raise DomainError("floor_power requires base >= 1")
    if isinstance(exponent, float) and not isfinite(exponent):
        raise DomainError("exponent must be finite")
    fr = Fraction(repr(float(exponent)) if isinstance(exponent, float) else exponent)
    if fr < 0:
        raise DomainError("floor_power requires exponent >= 0")
    bits = fr.numerator * base.bit_length()
    if bits > MAX_POWER_BITS:
        raise ResourceError(f"{base}**({fr}) needs {bits} bits, over the {MAX_POWER_BITS}-bit cap")
    return base**fr.numerator, fr.denominator


@lru_cache(maxsize=65536, typed=True)  # 0.3 and its binary Fraction are equal keys
def floor_power(base: int, exponent) -> int:
    """Largest integer t with t <= base**exponent, decided exactly by
    t**k <= base**n < (t+1)**k for the exponent n/k (see _power)."""
    return _iroot(*_power(base, exponent))


@lru_cache(maxsize=65536, typed=True)
def ceil_power(base: int, exponent) -> int:
    """Smallest integer t with t >= base**exponent (see floor_power)."""
    n, k = _power(base, exponent)
    f = floor_power(base, exponent)
    return f + (f**k != n)
