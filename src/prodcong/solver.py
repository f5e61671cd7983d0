"""Exact solvability decision for a*x1...x6 + b*x7...x13 == c (mod p) over
interval boxes, by meet-in-the-middle set intersection.

Both sides are materialized exactly (left products scaled by a, right
products mapped through v -> c - b*v), so a negative answer is a proof of
unsolvability, not a search failure. Small-p failures are expected data.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import NamedTuple, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .arith import is_prime
from .errors import DomainError
from .residues import Interval, ResidueSet, iterated_interval_product
from .rng import stream

LEFT_ARITY = 6
RIGHT_ARITY = 7
_FAILURE_SAMPLE_CAP = 20

# A block of abc_scan's grid holds at most this many cells: uint64 words of
# packed rows, or (pair, r) cells of a sampled scan.
_BLOCK_CELLS = 1 << 16


@dataclass(frozen=True)
class SolveInstance:
    p: int
    a: int
    b: int
    c: int
    left: tuple[Interval, ...]
    right: tuple[Interval, ...]

    def __post_init__(self):
        if not is_prime(self.p):
            raise DomainError("modulus must be prime")
        for name in ("a", "b", "c"):
            value = getattr(self, name) % self.p
            if value == 0:
                raise DomainError(f"{name} must be nonzero mod p")
            object.__setattr__(self, name, value)
        object.__setattr__(self, "left", tuple(self.left))
        object.__setattr__(self, "right", tuple(self.right))
        if len(self.left) != LEFT_ARITY or len(self.right) != RIGHT_ARITY:
            raise DomainError(
                f"need {LEFT_ARITY} left intervals and {RIGHT_ARITY} right intervals"
            )
        for iv in self.left + self.right:
            if iv.modulus != self.p:
                raise DomainError("interval modulus mismatch")
            if iv.contains_zero:
                raise DomainError("intervals must avoid 0 mod p")

    @property
    def intervals(self) -> tuple[Interval, ...]:
        return self.left + self.right


@dataclass(frozen=True)
class SolveReport:
    instance: SolveInstance
    solvable: bool
    witness: Optional[tuple[int, ...]]
    left_card: int
    right_card: int


def solve(instance: SolveInstance) -> SolveReport:
    """Decide c in a*(I1...I6) + b*(I7...I13) exactly, with a witness tuple.

    The smallest common residue of the two transformed sets is taken, so the
    returned witness is deterministic.
    """
    p = instance.p
    prod_l = iterated_interval_product(instance.left, with_witness=True)
    prod_r = iterated_interval_product(instance.right, with_witness=True)

    left_mask = np.zeros(p, dtype=bool)
    scaled_l = (instance.a * prod_l.members) % p
    left_mask[scaled_l] = True
    right_mask = np.zeros(p, dtype=bool)
    mapped_r = (instance.c - instance.b * prod_r.members) % p
    right_mask[mapped_r] = True

    common = np.nonzero(left_mask & right_mask)[0]
    if common.size == 0:
        return SolveReport(instance, False, None, prod_l.cardinality, prod_r.cardinality)
    s = int(common[0])
    a_inv = pow(instance.a, -1, p)
    b_inv = pow(instance.b, -1, p)
    u = s * a_inv % p
    v = (instance.c - s) * b_inv % p
    witness = prod_l.witness[u] + prod_r.witness[v]
    if not verify_witness(instance, witness):
        raise AssertionError("internal witness failed verification")
    return SolveReport(instance, True, witness, prod_l.cardinality, prod_r.cardinality)


def verify_witness(instance: SolveInstance, witness: Sequence[int]) -> bool:
    """Recompute both products and check the congruence; the witness must lie
    coordinate-wise inside the instance's intervals."""
    witness = tuple(int(x) for x in witness)
    if len(witness) != LEFT_ARITY + RIGHT_ARITY:
        raise DomainError("witness must have 13 coordinates")
    for x, iv in zip(witness, instance.intervals):
        if x not in iv:
            raise DomainError(f"witness coordinate {x} outside its interval")
    p = instance.p
    u = prod(witness[:LEFT_ARITY]) % p
    v = prod(witness[LEFT_ARITY:]) % p
    return (instance.a * u + instance.b * v) % p == instance.c


class ScanRow(NamedTuple):
    length: int
    total: int
    solvable: int
    fraction: float


@dataclass(frozen=True)
class ScanResult:
    p: int
    lengths: tuple[int, ...]
    sampled: bool
    total: int
    solvable: int
    fraction: float
    failures: tuple[tuple[int, int, int], ...]
    failure_count: int


def _sum_rows(
    p: int,
    left_mask: np.ndarray,
    right: np.ndarray,
    bs: np.ndarray,
    factors: Sequence[int],
):
    """Yield (b, rows) over consecutive blocks of the b values bs, where bit c
    of rows[i] (bit c % 64 of word c // 64) says whether c lies in
    left + b[i] * right (mod p), and right is the product set of the
    intervals {1..n} for n in factors. Bit 0 and every bit at p or above are
    clear.

    The row of L + s is one W-word window of the periodic mask 1_left(i mod p):
    bit c of it is 1_left(c - s mod p), the window that starts at bit
    t = -s mod p. Row k of `copies` holds that mask shifted down by k bits,
    so the window is copies[t % 64, t // 64 : t // 64 + W].

    When all p-1 rows, and the table of row indices b*i for i up to the
    longest factor, each fit one block of _BLOCK_CELLS words, the rows are
    peeled one factor at a time, from L + b*(R'*I) = the union over i in I of
    L + (b*i)*R': rows_0[b] is the window of L + b, and rows_k[b] is the OR
    of rows_{k-1}[b*i mod p] over i in 1..n_k, 1 + sum(n_k - 1) gathers of
    all p-1 rows. Otherwise row b is the OR over r in right of the window of
    L + b*r, built block by block.
    """
    width = -(-p // 64)
    words = np.packbits(np.resize(left_mask, 128 * width), bitorder="little").view("<u8")
    k = np.arange(64, dtype=np.uint64)[:, None]
    # words << (64 - k), written as two shifts below 64 so that k = 0 gives 0
    copies = (words[:-1] >> k) | ((words[1:] << np.uint64(1)) << (np.uint64(63) - k))
    windows = sliding_window_view(copies.reshape(-1), width)
    starts = np.arange(p)
    offsets = (starts % 64) * copies.shape[1] + starts // 64
    tail = np.uint64((1 << (p % 64)) - 1)
    top = max(factors, default=1)
    if (p - 1) * max(width, top + 1) <= _BLOCK_CELLS:
        # perm[i][b - 1] is the row index of b*i mod p, for b in 1..p-1
        perm = np.multiply.outer(np.arange(top + 1), np.arange(1, p)) % p - 1
        rows = windows[offsets[p - 1 - perm[1]]]
        for n in factors:
            peeled = rows
            for i in range(2, n + 1):
                gathered = rows.take(perm[i], axis=0)
                gathered |= peeled
                peeled = gathered
            rows = peeled
        if bs.size < p - 1:
            rows = rows[bs - 1]
        rows[:, 0] &= ~np.uint64(1)
        rows[:, -1] &= tail
        yield bs, rows
        return
    step = max(1, _BLOCK_CELLS // width)
    for i in range(0, bs.size, step):
        b = bs[i : i + step]
        rows = np.zeros((b.size, width), dtype=np.uint64)
        # the window offsets of a chunk of r values are looked up at once
        chunk = max(1, _BLOCK_CELLS // b.size)
        for r0 in range(0, right.size, chunk):
            for row_offsets in offsets[np.multiply.outer(right[r0 : r0 + chunk], p - b) % p]:
                rows |= windows[row_offsets]
        rows[:, 0] &= ~np.uint64(1)
        rows[:, -1] &= tail
        yield b, rows


def _grid_failures(
    p: int,
    prod_l: ResidueSet,
    prod_r: ResidueSet,
    right_lengths: Sequence[int],
    bs: np.ndarray,
    cap: int,
):
    """(failure_count, failures, open) over the rows b in bs of the (b, c)
    grid, c in 1..p-1, with L = prod_l and R = prod_r, the product of the
    intervals {1..n} for n in right_lengths: the first `cap`
    failures (1, b, c) in ascending (b, c) order, and the b values whose row
    has a failure. When |L| + |R| > p every L + b*R is all of Z_p
    (pigeonhole: c - b*R meets L) and no row is built."""
    failure_count = 0
    failures: list[tuple[int, int, int]] = []
    open_rows = [bs[:0]]
    if prod_l.cardinality + prod_r.cardinality > p:
        return failure_count, failures, bs[:0]
    for b, rows in _sum_rows(p, prod_l.mask, prod_r.members, bs, right_lengths):
        misses = (p - 1) - np.bitwise_count(rows).sum(axis=1, dtype=np.int64)
        failure_count += int(misses.sum())
        open_rows.append(b[misses > 0])
        for i in np.flatnonzero(misses)[: cap - len(failures)].tolist():
            bits = np.unpackbits(rows[i].astype("<u8").view(np.uint8), bitorder="little")
            cs = np.flatnonzero(bits[1:p] == 0) + 1
            failures += [(1, int(b[i]), c) for c in cs[: cap - len(failures)].tolist()]
    return failure_count, failures, np.concatenate(open_rows)


def _scan_products(p: int, lengths: Sequence[int]):
    """The left and right products of the intervals {1..len_j}."""
    intervals = [Interval(0, n, p) for n in lengths]
    return (
        iterated_interval_product(intervals[:LEFT_ARITY]),
        iterated_interval_product(intervals[LEFT_ARITY:]),
    )


def abc_scan(
    p: int,
    lengths: Sequence[int],
    sample: Optional[int] = None,
    seed: int = 0,
) -> ScanResult:
    """Solvable fraction over coefficient triples with intervals {1..len_j}.

    a is fixed to 1: solvability of (a, b, c) equals that of
    (1, b*a^-1, c*a^-1) with the same witness, so the (b, c) grid covers all
    triples. Without `sample` the full grid is enumerated; with it, `sample`
    seeded pairs are drawn (duplicates allowed, and counted in
    failure_count). Failures are recorded as (1, b, c) triples in ascending
    (b, c) order, capped at 20 with the full count alongside.

    With L and R the left and right products, the full grid decides c in
    L + b*R exactly, one block of rows b at a time (`_sum_rows`): row b is
    packed as ceil(p/64) uint64 words and its solvable count is its number of
    set bits. A block holds at most 2**16 words (unless it is a single row),
    so no p x p array is built when p is large, and only rows with a failure
    are unpacked, until 20 failures are found. When |L| + |R| > p, every
    L + b*R is all of Z_p (pigeonhole: c - b*R meets L) and no row is built.
    A sampled scan decides its pairs in chunks of at most 2**16 (pair, r)
    cells.
    """
    if not is_prime(p):
        raise DomainError("modulus must be prime")
    lengths = tuple(int(n) for n in lengths)
    if len(lengths) != LEFT_ARITY + RIGHT_ARITY:
        raise DomainError("need 13 interval lengths")
    if any(not 1 <= n <= p - 1 for n in lengths):
        raise DomainError("lengths must satisfy 1 <= len < p")
    prod_l, prod_r = _scan_products(p, lengths)
    if sample is None:
        total = (p - 1) ** 2
        failure_count, failures, _ = _grid_failures(
            p, prod_l, prod_r, lengths[LEFT_ARITY:], np.arange(1, p), _FAILURE_SAMPLE_CAP
        )
    else:
        if sample < 1:
            raise DomainError("sample must be >= 1")
        total = sample
        gen = stream(seed, f"abc-scan-p{p}")
        pairs = gen.integers(1, p, size=(sample, 2))
        r_members = prod_r.members
        step = max(1, _BLOCK_CELLS // r_members.size)
        hit = np.concatenate(
            [
                prod_l.mask[(c[:, None] - b[:, None] * r_members) % p].any(axis=1)
                for b, c in (pairs[i : i + step].T for i in range(0, sample, step))
            ]
        )
        missed = pairs[~hit]
        failure_count = len(missed)
        failures = [(1, b, c) for b, c in np.unique(missed, axis=0)[:_FAILURE_SAMPLE_CAP].tolist()]
    solvable = total - failure_count
    return ScanResult(
        p=p,
        lengths=lengths,
        sampled=sample is not None,
        total=total,
        solvable=solvable,
        fraction=solvable / total,
        failures=tuple(failures),
        failure_count=failure_count,
    )


@dataclass(frozen=True)
class ThresholdResult:
    p: int
    minimal_len: Optional[int]
    curve: tuple[ScanRow, ...]


def threshold_scan(p: int, max_len: Optional[int] = None) -> ThresholdResult:
    """Smallest uniform interval length whose full coefficient scan is 100%
    solvable, with the whole solvable-fraction curve up to that point.

    Lengths ascend from 1 and the first fully solvable one wins. The curve is
    monotone: {1..n} is a subset of {1..n+1}, so the left and right products
    nest, L_n within L_{n+1} and R_n within R_{n+1}, and every (b, c) with c
    in L_n + b*R_n stays solvable at n+1; the solvable count never drops.
    So a row b without a failure at length n has none at any longer length,
    and each length scans only the rows that still had a failure.
    Length p-1 always succeeds for p >= 3 (for p = 2 no length works and
    minimal_len is None).
    """
    if not is_prime(p):
        raise DomainError("modulus must be prime")
    max_len = p - 1 if max_len is None else min(max_len, p - 1)
    if max_len < 1:
        raise DomainError("max_len must be >= 1")
    total = (p - 1) ** 2
    open_rows = np.arange(1, p)
    curve = []
    minimal = None
    for n in range(1, max_len + 1):
        prod_l, prod_r = _scan_products(p, [n] * (LEFT_ARITY + RIGHT_ARITY))
        failure_count, _, open_rows = _grid_failures(
            p, prod_l, prod_r, [n] * RIGHT_ARITY, open_rows, 0
        )
        solvable = total - failure_count
        curve.append(ScanRow(n, total, solvable, solvable / total))
        if failure_count == 0:
            minimal = n
            break
    return ThresholdResult(p, minimal, tuple(curve))
