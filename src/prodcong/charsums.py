"""Multiplicative characters mod p and product-collision energies.

Characters are realized through discrete logs: chi_j(x) is the
(j * dlog x)-th root of unity of order p-1, chi_j(0) = 0, and j = 0 is the
principal character. The logs of a set's members come from
`FieldContext.index`, so a short interval costs a baby-step giant-step pass
over its own members, not the p-entry table. A set's character sums are the
DFT of its (real) discrete-log indicator, so |S(chi_{p-1-j})| = |S(chi_j)|
and only j = 0..(p-1)/2 are computed: for a small set, as one blocked matrix
product of exact phase tables (|set| multiply-adds per character), and for a
dense one by one complex FFT of half length. The collision
count J (solutions of x1 y1 = x2 y2) is always computed exactly by
multiplicity histogram; the character identity is evaluated numerically as an
independent cross-check and rounded to the integer it must equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Iterable, NamedTuple, Union

import numpy as np

from .arith import FieldContext, is_prime
from .errors import DomainError, ResourceError
from .residues import Interval, ResidueSet

Values = Union[Interval, ResidueSet, Iterable[int]]


# One spectrum holds (p+1)/2 float64 magnitudes (4 MB near p = 10**6). A
# charsum row asks for the spectrum of {1..len} three times (the profile, then
# X and Y of the collision identity), so the last one is kept, keyed on the set.
_last_spectrum: tuple[tuple, np.ndarray] | None = None

_UNTANGLE_BLOCK = 1 << 16  # bins per untangling pass, which bounds its temporaries

# Complex multiply-adds per GEMM call. OpenBLAS runs a zgemm this small on the
# calling thread; one full-size threaded call left its workers spinning and
# slowed the small numpy operations that followed it.
_GEMM_BLOCK = 1 << 18

# Members per bit of the bin count below which the GEMM beats the FFT (see
# BENCH_charsum_gemm.json for the measured crossover).
_GEMM_MEMBERS_PER_BIT = 16


def _gemm_pays(count: int, bins: int) -> bool:
    """The phase GEMM, count multiply-adds per bin, replaces the FFT when count
    is at most a measured multiple of log2(bins), which the FFT's cost per bin
    follows. A set mod 2 (one bin) always qualifies, so the FFT never sees
    p = 2."""
    return count <= _GEMM_MEMBERS_PER_BIT * bins.bit_length()


def _gemm_spectrum(ctx: FieldContext, d: np.ndarray) -> np.ndarray:
    """The half spectrum of the members with dlogs d, as a matrix product:
    with w = ceil(sqrt(bins)), bin j = a*w + i has the sum over members of
    e(-a*w*d/(p-1)) * e(-i*d/(p-1)). Each phase is reduced mod p-1 in int64
    before it becomes a float (the field context refuses p whose (p-1)**2
    overflows), so no rounding accumulates across bins."""
    n = ctx.p - 1
    bins = n // 2 + 1
    width = isqrt(bins - 1) + 1
    rows = -(-bins // width)
    turn = -2j * np.pi / n
    left = np.exp(turn * (np.multiply.outer(np.arange(rows) * width % n, d) % n))
    right = np.exp(turn * (np.multiply.outer(d, np.arange(width)) % n))
    mags = np.empty((rows, width))
    step = max(1, _GEMM_BLOCK // max(d.size * width, 1))
    for lo in range(0, rows, step):
        np.abs(np.matmul(left[lo : lo + step], right), out=mags[lo : lo + step])
    return mags.ravel()[:bins]


def _fft_spectrum(ctx: FieldContext, d: np.ndarray) -> np.ndarray:
    """The half spectrum of the members with dlogs d, from one complex FFT of
    length (p-1)/2, for p >= 3.

    The indicator x is packed as z[m] = x[2m] + i x[2m+1] and Z = FFT(z).
    With Zc[k] = conj(Z[-k]), the even entries of x have the DFT (Z + Zc)/2 and
    the odd entries (Z - Zc)/2i, so x has (Z + Zc - i w (Z - Zc))/2 at bin
    k < n/2, with the twiddle w = exp(-2 pi i k/n), and Re Z[0] - Im Z[0] at
    bin n/2."""
    n = ctx.p - 1
    half = n // 2
    z = np.zeros(half, dtype=np.complex128)
    z.view(np.float64)[d] = 1.0
    np.fft.fft(z, out=z)
    mags = np.empty(half + 1)
    mags[half] = abs(z[0].real - z[0].imag)
    for lo in range(0, half, _UNTANGLE_BLOCK):
        k = np.arange(lo, min(lo + _UNTANGLE_BLOCK, half))
        zk, zc = z[k], np.conj(z[-k])
        w = np.exp(k * (-2j * np.pi / n))
        mags[k] = 0.5 * np.abs(zk + zc - 1j * w * (zk - zc))
    return mags


def _dlog_spectrum(
    ctx: FieldContext, members: np.ndarray, logs: np.ndarray | None = None
) -> np.ndarray:
    """|DFT| of the dlog indicator of the units at j = 0..(p-1)//2: entry j is
    |sum of chi_j|, which is also |sum of chi_{p-1-j}| (the indicator is real).
    `logs`, when given, are the members' dlogs, so they are not looked up again.

    A small set takes the phase GEMM, of |set| multiply-adds per bin whatever
    the factors of p-1; a dense one takes the packed FFT, whose cost per bin
    grows with log2 of its length and, through numpy's Bluestein fallback,
    with the largest prime factor of p-1."""
    global _last_spectrum
    key = (ctx.p, ctx.g, members.tobytes())
    last = _last_spectrum
    if last is not None and last[0] == key:
        return last[1]
    _last_spectrum = None  # drop the old spectrum before the new one allocates
    bins = (ctx.p - 1) // 2 + 1
    d = ctx.index(members) if logs is None else logs
    if _gemm_pays(d.size, bins):
        mags = _gemm_spectrum(ctx, d)
    else:
        mags = _fft_spectrum(ctx, d)
    mags.setflags(write=False)
    _last_spectrum = (key, mags)
    return mags


def _unit_members(values: Values, p: int) -> np.ndarray:
    """Normalize a set-like argument to a sorted array of units in 1..p-1."""
    if isinstance(values, Interval):
        values = values.to_set()
    if isinstance(values, ResidueSet):
        if values.modulus != p:
            raise DomainError("modulus mismatch")
        if values.contains_zero:
            raise DomainError("0 is not a unit")
        return values.members
    arr = np.array(sorted({int(v) for v in values}), dtype=np.int64)
    if arr.size and (arr[0] < 1 or arr[-1] >= p):
        raise DomainError("members must lie in 1..p-1")
    return arr


def char_sum(
    ctx: FieldContext, j: int, values: Values, logs: np.ndarray | None = None
) -> complex:
    """Sum of chi_j over the given units. `logs`, when given, are the discrete
    logs of the units in increasing order, so they are not looked up again."""
    p = ctx.p
    if not 0 <= j <= max(p - 2, 0):
        raise DomainError(f"character index must lie in 0..{p - 2}")
    members = _unit_members(values, p)
    if members.size == 0:
        return 0j
    k = (j * (ctx.index(members) if logs is None else logs)) % (p - 1)
    return complex(np.exp(2j * np.pi * k / (p - 1)).sum())


def _sum_of_squares(counts: np.ndarray) -> int:
    """Exact sum of squared multiplicities, in int64 while it cannot overflow."""
    nz = counts[counts > 0]
    if nz.size == 0:
        return 0
    if int(nz.max()) ** 2 * nz.size < 2**62:
        return int(np.dot(nz, nz))
    return sum(int(v) ** 2 for v in nz)


def product_energy(x_values: Values, y_values: Values, p: int) -> int:
    """Exact count of quadruples with x1*y1 == x2*y2 (mod p): the sum of
    squared multiplicities of the product multiset.

    The multiplicities come from sorting the |X||Y| products (np.unique,
    about 24 traced bytes a product) while 8|X||Y| <= p, which keeps it
    under a third of the p-entry int64 histogram that counts them otherwise
    (about 9 bytes a residue)."""
    if not is_prime(p):
        raise DomainError("p must be prime")
    if (p - 1) ** 2 >= 1 << 63:
        raise ResourceError(f"p={p}: products of residues up to (p-1)**2 overflow int64")
    xm = _unit_members(x_values, p)
    ym = _unit_members(y_values, p)
    if 8 * xm.size * ym.size <= p:
        products = np.multiply.outer(xm, ym)
        np.remainder(products, p, out=products)
        return _sum_of_squares(np.unique(products, return_counts=True)[1])
    counts = np.zeros(p, dtype=np.int64)
    for v in xm.tolist():
        # x fixed: products x*y are pairwise distinct, so plain fancy add is exact
        counts[(v * ym) % p] += 1
    return _sum_of_squares(counts)


def product_energy_via_characters(
    ctx: FieldContext, x_values: Values, y_values: Values
) -> float:
    """Evaluate (1/(p-1)) * sum over all characters of |S_X(chi)|^2 |S_Y(chi)|^2.

    The per-character sums are the DFT of the dlog-indicator vectors, so the
    spectrum comes from one FFT per set, and none when X = Y or the set's
    spectrum is the one kept from the last call. Characters j and p-1-j have
    equal terms, so the half spectrum counts twice except at j = 0 and
    (p-1)/2. The sum is a collision count, returned rounded to its integer
    (as a float); it must equal product_energy, and a sum 0.25 or more from
    every integer raises AssertionError.
    """
    p = ctx.p
    sx = _dlog_spectrum(ctx, _unit_members(x_values, p))
    sy = _dlog_spectrum(ctx, _unit_members(y_values, p))
    terms = np.square(sx)  # the one (p+1)/2 buffer: X = Y shares its spectrum
    terms *= terms if sy is sx else np.square(sy)
    if terms.size > 1:
        total = float(2.0 * terms.sum() - terms[0] - terms[-1]) / (p - 1)
    else:
        total = float(terms[0])
    count = round(total)
    if abs(total - count) >= 0.25:
        raise AssertionError(f"character identity at p={p} is {total}, not an integer")
    return float(count)


def product_growth_bound(p: int, card_x: int, length: int, n0: int) -> float:
    """The diagnostic expansion factor min{(p/|X|)^(1/n0), N/|X|^(1/n0)} with
    the asymptotic N^o(1) slack dropped. Reported only, never asserted."""
    if min(p, card_x, length, n0) < 1:
        raise DomainError("all arguments must be positive")
    return min((p / card_x) ** (1.0 / n0), length / card_x ** (1.0 / n0))


class CharProfile(NamedTuple):
    max_ratio: float
    argmax_j: int


def burgess_profile(ctx: FieldContext, interval_len: int) -> CharProfile:
    """Worst normalized character sum over the initial interval {1..len}:
    max over nonprincipal chi of |sum chi(n)| / len, and the character index
    attaining it. Measurement only.

    The index is the smallest j in 1..(p-1)/2 whose spectrum magnitude lies
    within 1e-9 * len of the maximum (the conjugate p-1-j ties with j), and the
    ratio is that character's sum taken directly, so neither depends on how
    the FFT rounds. The logs of {1..len} are looked up once for both."""
    p = ctx.p
    if not 1 <= interval_len < p:
        raise DomainError("interval length must satisfy 1 <= len < p")
    if p < 3:
        raise DomainError("no nonprincipal characters exist for p < 3")
    members = np.arange(1, interval_len + 1)
    logs = ctx.index(members)
    mags = _dlog_spectrum(ctx, members, logs)[1:]
    j = 1 + int(np.argmax(mags >= mags.max() - 1e-9 * interval_len))
    return CharProfile(abs(char_sum(ctx, j, members, logs)) / interval_len, j)


@dataclass(frozen=True)
class EnergyDiagnostic:
    """Collision-count diagnostics for X x {1..length} mod p."""

    p: int
    card_x: int
    length: int
    n0: int
    j_direct: int
    j_char: float
    bound_delta: float


def energy_diagnostic(
    ctx: FieldContext, x_values: Values, length: int, n0: int
) -> EnergyDiagnostic:
    p = ctx.p
    xm = _unit_members(x_values, p)
    if not 1 <= length < p:
        raise DomainError("length must satisfy 1 <= N < p")
    y = range(1, length + 1)
    return EnergyDiagnostic(
        p=p,
        card_x=int(xm.size),
        length=length,
        n0=n0,
        j_direct=product_energy(xm, y, p),
        j_char=product_energy_via_characters(ctx, xm, y),
        bound_delta=product_growth_bound(p, int(xm.size), length, n0),
    )
