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

from .arith import floor_power, is_prime
from .errors import DomainError
from .residues import Interval, iterated_interval_product
from .rng import stream

LEFT_ARITY = 6
RIGHT_ARITY = 7
_FAILURE_SAMPLE_CAP = 20

# A full-grid scan (abc_scan) takes the direct path while
# |L||R| * _BLAS_SPEEDUP < p**2 and the count path above it; float32 counts
# are exact only for p < _FLOAT32_EXACT. A direct block holds at most
# _DIRECT_CELLS int64 cells, and a count block (indicator rows, circulant
# columns) at most _COUNT_CELLS float32 cells.
_BLAS_SPEEDUP = 256
_DIRECT_CELLS = 1 << 18
_COUNT_CELLS = 1 << 21
_FLOAT32_EXACT = 1 << 24


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

    @property
    def box(self) -> int:
        return prod(len(iv) for iv in self.intervals)


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


def twelve_interval_instance(
    p: int, a: int, b: int, c: int, base_len: int, eps: float
) -> SolveInstance:
    """A 13-interval instance realizing a 12-interval configuration: eleven
    intervals of base_len plus a split last interval {1..floor(p**(1/4+eps/2))}
    and {1..floor(p**(eps/2))}, all anchored at 1."""
    if eps <= 0:
        raise DomainError("eps must be positive")
    n12 = min(max(floor_power(p, 0.25 + eps / 2), 1), p - 1)
    n13 = min(max(floor_power(p, eps / 2), 1), p - 1)
    base = Interval(0, base_len, p)
    left = (base,) * LEFT_ARITY
    right = (base,) * 5 + (Interval(0, n12, p), Interval(0, n13, p))
    return SolveInstance(p, a, b, c, left, right)


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


def _grid_blocks(p: int, left: np.ndarray, right: np.ndarray):
    """Yield (b0, ok) over consecutive blocks of b in 1..p-1, where
    ok[i, c] says whether c lies in left + (b0 + i) * right (mod p).

    Small tables take the direct path and large ones the count path (see
    abc_scan).
    """
    if left.size * right.size * _BLAS_SPEEDUP < p * p or p >= _FLOAT32_EXACT:
        yield from _direct_blocks(p, left, right)
    else:
        yield from _count_blocks(p, left, right)


def _direct_blocks(p: int, left: np.ndarray, right: np.ndarray):
    # Row i of a block scatters left + (b0+i)*right, unreduced (values below
    # 2p), into its own 2p-wide stretch of one flat mask; the two halves of
    # each stretch are then folded into residues mod p. The cap bounds both
    # the table (|left||right| cells per row) and the mask (2p per row).
    width = 2 * p
    step = max(1, min(p - 1, _DIRECT_CELLS // max(left.size * right.size, width)))
    shifted = left[None, :] + width * np.arange(step)[:, None]
    buf = np.empty((step, left.size, right.size), dtype=np.int64)
    for b0 in range(1, p, step):
        rows = min(step, p - b0)
        scaled = np.multiply.outer(np.arange(b0, b0 + rows), right) % p
        cells = buf[:rows]
        np.add(shifted[:rows, :, None], scaled[:, None, :], out=cells)
        hit = np.zeros(rows * width, dtype=bool)
        hit[cells.reshape(-1)] = True
        hit = hit.reshape(rows, 2, p)
        yield b0, hit[:, 0] | hit[:, 1]


def _count_blocks(p: int, left: np.ndarray, right: np.ndarray):
    # counts[b, c] = #{r in right : c - b*r in left} is the product of the
    # indicator rows of b*right with the circulant C[x, c] = 1_left(c - x).
    # Entries and partial sums are integers at most |right| < p < 2**24, so
    # float32 holds every one exactly in any summation order.
    left_twice = np.zeros(2 * p, dtype=np.float32)
    left_twice[left] = 1
    left_twice[p:] = left_twice[:p]
    # The windows are left_twice[i + c]; row x of windows[p:0:-1] is i = p - x,
    # that is 1_left(c - x mod p) for c in 0..p-1.
    circulant = sliding_window_view(left_twice, p)[p:0:-1]
    width = max(1, _COUNT_CELLS // p)
    step = min(p - 1, width)

    def column_blocks():
        for c0 in range(0, p, width):
            yield c0, np.ascontiguousarray(circulant[:, c0 : c0 + width])

    for b0 in range(1, p, step):
        rows = min(step, p - b0)
        scaled = np.multiply.outer(np.arange(b0, b0 + rows), right) % p
        indicators = np.zeros((rows, p), dtype=np.float32)
        indicators[np.arange(rows)[:, None], scaled] = 1
        ok = np.empty((rows, p), dtype=bool)
        for c0, block in column_blocks():
            np.greater(indicators @ block, 0, out=ok[:, c0 : c0 + block.shape[1]])
        yield b0, ok


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
    seeded pairs are drawn (duplicates allowed). Failures are recorded as
    (1, b, c) triples in ascending (b, c) order, capped at 20 with the full
    count alongside.

    With L and R the left and right products, the full grid decides c in
    L + b*R for blocks of b at once, by one of two exact paths:

    - direct, while |L||R| * 256 < p**2: one int64 table of L + b*R per block
      of rows b, each row offset into its own 2p-wide stretch of one flat
      mask and scattered; a block has at most 2**18 table cells and 2**18
      mask cells (unless it is a single row);
    - count, above that: counts[b, c] = #{r in R : c - b*r in L} as the
      float32 matrix product of the indicator rows of b*R with the circulant
      C[x, c] = 1_L(c - x). Every entry and partial sum is an integer at most
      |R| < p, and float32 represents every integer below 2**24 exactly, so
      the counts are exact in any summation order; for p >= 2**24 the direct
      path runs instead. Indicator blocks and circulant column blocks hold at
      most 2**21 cells, so no p x p array is built when p is large.

    The count path does p**2 multiply-adds per b where the direct path does
    |L||R| scattered writes, and a BLAS multiply-add costs about 1/256 of a
    scattered write, hence the rule. When |L| + |R| > p, every L + b*R is
    all of Z_p (pigeonhole: c - b*R meets L) and no table is built.
    """
    if not is_prime(p):
        raise DomainError("modulus must be prime")
    lengths = tuple(int(n) for n in lengths)
    if len(lengths) != LEFT_ARITY + RIGHT_ARITY:
        raise DomainError("need 13 interval lengths")
    if any(not 1 <= n <= p - 1 for n in lengths):
        raise DomainError("lengths must satisfy 1 <= len < p")
    intervals = [Interval(0, n, p) for n in lengths]
    prod_l = iterated_interval_product(intervals[:LEFT_ARITY])
    prod_r = iterated_interval_product(intervals[LEFT_ARITY:])
    l_members = prod_l.members
    r_members = prod_r.members

    failures: list[tuple[int, int, int]] = []
    failure_count = 0
    solvable = 0
    if sample is None:
        total = (p - 1) ** 2
        if l_members.size + r_members.size > p:
            # pigeonhole: c - b*R meets L for every (b, c), so no table
            solvable = total
        else:
            for b0, ok in _grid_blocks(p, l_members, r_members):
                ok = ok[:, 1:]
                hits = int(np.count_nonzero(ok))
                solvable += hits
                failure_count += ok.size - hits
                if hits < ok.size and len(failures) < _FAILURE_SAMPLE_CAP:
                    rows, cols = np.nonzero(~ok)
                    take = _FAILURE_SAMPLE_CAP - len(failures)
                    failures += [
                        (1, b0 + i, c + 1)
                        for i, c in zip(rows[:take].tolist(), cols[:take].tolist())
                    ]
    else:
        if sample < 1:
            raise DomainError("sample must be >= 1")
        total = sample
        gen = stream(seed, f"abc-scan-p{p}")
        pairs = gen.integers(1, p, size=(sample, 2))
        left_mask = prod_l.mask
        hits = []
        for b, c in pairs.tolist():
            hit = bool(left_mask[(c - b * r_members) % p].any())
            solvable += hit
            if not hit:
                hits.append((1, int(b), int(c)))
        failure_count = len(hits)
        failures = sorted(set(hits))[:_FAILURE_SAMPLE_CAP]
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
    Length p-1 always succeeds for p >= 3 (for p = 2 no length works and
    minimal_len is None).
    """
    if not is_prime(p):
        raise DomainError("modulus must be prime")
    max_len = p - 1 if max_len is None else min(max_len, p - 1)
    if max_len < 1:
        raise DomainError("max_len must be >= 1")
    curve = []
    minimal = None
    for n in range(1, max_len + 1):
        res = abc_scan(p, [n] * (LEFT_ARITY + RIGHT_ARITY))
        curve.append(ScanRow(n, res.total, res.solvable, res.fraction))
        if res.solvable == res.total:
            minimal = n
            break
    return ThresholdResult(p, minimal, tuple(curve))
