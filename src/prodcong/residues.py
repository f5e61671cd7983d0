"""Intervals and dense residue sets over Z_m.

Sets are boolean membership masks, so the product/sum kernels are exact
vectorized loops, and everything is immutable after construction. Sets may
contain 0 in general; operations that only make sense over the unit group
validate 0-exclusion at their own boundary.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import prod
from operator import index
from typing import Callable, Iterable, NamedTuple, Optional

import numpy as np

from .arith import is_prime
from .errors import DomainError

# Pairwise kernels and witness searches build their |S| x |T| tables in row
# chunks of at most this many cells (one row when a single row is wider).
_CHUNK_CELLS = 1 << 18


@dataclass(frozen=True)
class Interval:
    """The wrap-aware progression {offset+1, ..., offset+length} mod modulus."""

    offset: int
    length: int
    modulus: int

    def __post_init__(self):
        if self.modulus < 1:
            raise DomainError("interval modulus must be >= 1")
        if not 1 <= self.length <= self.modulus:
            raise DomainError("interval length must satisfy 1 <= N <= m")
        object.__setattr__(self, "offset", self.offset % self.modulus)

    def members(self) -> np.ndarray:
        """Member residues in progression order (may wrap past 0)."""
        start = (self.offset + 1) % self.modulus
        return (start + np.arange(self.length, dtype=np.int64)) % self.modulus

    def __len__(self) -> int:
        return self.length

    def __contains__(self, x: int) -> bool:
        i = (int(x) - self.offset) % self.modulus
        return self.length == self.modulus or 1 <= i <= self.length

    @property
    def contains_zero(self) -> bool:
        return 0 in self

    def to_set(self) -> "ResidueSet":
        mask = np.zeros(self.modulus, dtype=bool)
        start = (self.offset + 1) % self.modulus
        end = start + self.length
        if end <= self.modulus:
            mask[start:end] = True
        else:
            mask[start:] = True
            mask[: end - self.modulus] = True
        return ResidueSet(self.modulus, mask)


class ResidueSet:
    """Dense, immutable membership structure over Z_m."""

    __slots__ = ("_modulus", "_mask", "_members")

    def __init__(self, modulus: int, mask: np.ndarray):
        if modulus < 1:
            raise DomainError("modulus must be >= 1")
        arr = np.asarray(mask, dtype=bool)
        if arr.shape != (modulus,):
            raise DomainError("mask length must equal the modulus")
        arr = arr.copy()
        arr.setflags(write=False)
        self._modulus = modulus
        self._mask = arr
        self._members: Optional[np.ndarray] = None

    @classmethod
    def from_members(cls, modulus: int, members: Iterable[int]) -> "ResidueSet":
        mask = np.zeros(modulus, dtype=bool)
        for x in members:
            mask[int(x) % modulus] = True
        return cls(modulus, mask)

    @property
    def modulus(self) -> int:
        return self._modulus

    @property
    def mask(self) -> np.ndarray:
        return self._mask

    @property
    def members(self) -> np.ndarray:
        """Member residues, ascending."""
        if self._members is None:
            mem = np.nonzero(self._mask)[0].astype(np.int64)
            mem.setflags(write=False)
            self._members = mem
        return self._members

    @property
    def cardinality(self) -> int:
        return len(self.members)

    @property
    def contains_zero(self) -> bool:
        return bool(self._mask[0])

    def __len__(self) -> int:
        return self.cardinality

    def __contains__(self, x: int) -> bool:
        return bool(self._mask[int(x) % self._modulus])

    def __iter__(self):
        return iter(self.members.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, ResidueSet):
            return NotImplemented
        return self._modulus == other._modulus and bool(
            np.array_equal(self._mask, other._mask)
        )

    def __repr__(self) -> str:
        shown = self.members[:8].tolist()
        tail = ", ..." if self.cardinality > 8 else ""
        return f"ResidueSet(m={self._modulus}, {{{', '.join(map(str, shown))}{tail}}})"


def interval_to_set(interval: Interval) -> ResidueSet:
    return interval.to_set()


@lru_cache(maxsize=512)
def units_mask(m: int) -> np.ndarray:
    """Boolean mask of residues coprime to m."""
    mask = np.gcd(np.arange(m, dtype=np.int64), m) == 1
    mask.setflags(write=False)
    return mask


def _check_same_modulus(s: ResidueSet, t: ResidueSet) -> None:
    if s.modulus != t.modulus:
        raise DomainError("modulus mismatch")


def _pairwise_mask(m: int, left: np.ndarray, right: np.ndarray, op) -> np.ndarray:
    # op is commutative, so the shorter operand spans the table's columns.
    # Every chunk reuses one buffer: a fresh table per chunk costs more in
    # page faults than the arithmetic does.
    out = np.zeros(m, dtype=bool)
    if left.size == 0 or right.size == 0:
        return out
    rows, cols = (left, right) if left.size >= right.size else (right, left)
    step = max(1, _CHUNK_CELLS // cols.size)
    buf = np.empty((min(step, rows.size), cols.size), dtype=np.int64)
    for start in range(0, rows.size, step):
        cells = buf[: min(step, rows.size - start)]
        op(rows[start : start + step, None], cols, out=cells)
        np.remainder(cells, m, out=cells)
        out[cells.reshape(-1)] = True
    return out


def _first_pair(m: int, left: np.ndarray, right: np.ndarray, r: int) -> tuple[int, int]:
    """The smallest u in left for which some v in right has u*v = r (mod m),
    and the smallest such v. Both operands are ascending; the rows of the
    product table are scanned in chunks that double up to the cell cap, and
    the scan stops at the first hit."""
    cap = max(1, _CHUNK_CELLS // right.size)
    step = max(1, min(cap, 1024 // right.size))
    start = 0
    while start < left.size:
        chunk = left[start : start + step]
        hits = (chunk[:, None] * right[None, :]) % m == r
        first = int(hits.argmax())
        if hits.flat[first]:
            i, j = divmod(first, right.size)
            return int(chunk[i]), int(right[j])
        start += step
        step = min(cap, 2 * step)
    raise KeyError(r)


def product_set(s: ResidueSet, t: ResidueSet) -> ResidueSet:
    """Exact pairwise-product set {st : s in S, t in T} mod m."""
    _check_same_modulus(s, t)
    return ResidueSet(s.modulus, _pairwise_mask(s.modulus, s.members, t.members, np.multiply))


def sum_set(s: ResidueSet, t: ResidueSet) -> ResidueSet:
    """Exact pairwise-sum set {s + t} mod m."""
    _check_same_modulus(s, t)
    return ResidueSet(s.modulus, _pairwise_mask(s.modulus, s.members, t.members, np.add))


def scale_set(factor: int, s: ResidueSet) -> ResidueSet:
    """Image of S under multiplication by a fixed residue.

    Preserves cardinality exactly when gcd(factor, m) = 1; any factor is
    accepted (the image may then collapse).
    """
    mask = np.zeros(s.modulus, dtype=bool)
    mask[(int(factor) * s.members) % s.modulus] = True
    return ResidueSet(s.modulus, mask)


class _WitnessView(Mapping):
    """Read-only map from each member of a set to its witness tuple.

    Nothing is stored per member: each lookup rebuilds the witness from the
    structure the set was built with, so a witness costs work only when it is
    asked for.
    """

    __slots__ = ("_base", "_rebuild")

    def __init__(self, base: ResidueSet, rebuild: Callable[[int], tuple[int, ...]]):
        self._base = base
        self._rebuild = rebuild

    def __getitem__(self, r) -> tuple[int, ...]:
        if r not in self:
            raise KeyError(r)
        return self._rebuild(index(r))

    def __contains__(self, r) -> bool:
        try:
            r = index(r)
        except TypeError:
            return False
        return 0 <= r < self._base.modulus and bool(self._base.mask[r])

    def __iter__(self):
        return iter(self._base)

    def __len__(self) -> int:
        return self._base.cardinality

    def __repr__(self) -> str:
        return f"<witnesses of {self._base.cardinality} members mod {self._base.modulus}>"


@dataclass
class WitnessedSet:
    """A residue set whose members each carry one factorization witness.

    witness maps each member to a factor tuple whose product is the member
    mod m; it is None when the set was built without witness tracking.
    Witnesses follow one first-found rule: pairs are enumerated in ascending
    order and the first pair that reaches a member gives its witness. In a
    product S*T that is the smallest s in S reaching the member, then the
    smallest t for that s; in a growth chain it is the first power A^n
    holding the member, then the smallest generator reaching it from A^(n-1).
    The sets built here hold the witnesses as a read-only view that stores
    only the operands or parent pointers and rebuilds a witness when it is
    looked up.
    """

    base: ResidueSet
    witness: Optional[Mapping[int, tuple[int, ...]]] = None

    @property
    def modulus(self) -> int:
        return self.base.modulus

    @property
    def members(self) -> np.ndarray:
        return self.base.members

    @property
    def mask(self) -> np.ndarray:
        return self.base.mask

    @property
    def cardinality(self) -> int:
        return self.base.cardinality

    def __len__(self) -> int:
        return self.base.cardinality

    def __contains__(self, x: int) -> bool:
        return x in self.base

    def verify(self) -> None:
        """Check every stored witness multiplies to its member (DomainError if not)."""
        if self.witness is None:
            raise DomainError("set carries no witnesses")
        m = self.base.modulus
        if set(self.witness) != {int(x) for x in self.base.members}:
            raise DomainError("witness keys do not match the member set")
        for r, factors in self.witness.items():
            if prod(factors) % m != r % m:
                raise DomainError(f"witness for {r} multiplies to {prod(factors) % m}")


class _Fold(NamedTuple):
    """One node of a product fold: an interval (slot is its index) or the
    product of two nodes (slot is -1)."""

    set: ResidueSet
    slot: int
    left: Optional["_Fold"] = None
    right: Optional["_Fold"] = None


def _fold_witness(root: _Fold, k: int, r: int) -> tuple[int, ...]:
    m = root.set.modulus
    out = [0] * k
    stack = [(root, r)]
    while stack:
        node, r = stack.pop()
        if node.left is None:
            out[node.slot] = r
            continue
        u, v = _first_pair(m, node.left.set.members, node.right.set.members, r)
        stack += [(node.left, u), (node.right, v)]
    return tuple(out)


def iterated_interval_product(
    intervals: Iterable[Interval], with_witness: bool = False
) -> WitnessedSet:
    """Product set of all the intervals, meet-in-the-middle.

    The interval list splits into two halves; each half folds its intervals
    smallest-first, and one final product joins the halves. When witnesses are
    requested, every member carries one factor per interval, aligned with the
    original interval order; the fold keeps the operands of each level (at
    most one per interval and one per product) and rebuilds a witness from
    them when it is looked up.
    """
    ivs = list(intervals)
    if not ivs:
        raise DomainError("need at least one interval")
    m = ivs[0].modulus
    if any(iv.modulus != m for iv in ivs):
        raise DomainError("modulus mismatch")
    k = len(ivs)
    mid = (k + 1) // 2
    halves = []
    for half in (range(mid), range(mid, k)):
        acc = None
        for i in sorted(half, key=lambda i: (ivs[i].length, i)):
            leaf = _Fold(ivs[i].to_set(), i)
            acc = leaf if acc is None else _Fold(product_set(acc.set, leaf.set), -1, acc, leaf)
        if acc is not None:
            halves.append(acc)
    root = halves[0] if len(halves) == 1 else _Fold(
        product_set(halves[0].set, halves[1].set), -1, *halves
    )
    if not with_witness:
        return WitnessedSet(root.set, None)
    return WitnessedSet(root.set, _WitnessView(root.set, lambda r: _fold_witness(root, k, r)))


class CoverageResult(NamedTuple):
    hypothesis_met: bool
    covers: bool
    missing: list[int]


def coverage_check(
    a: ResidueSet, b: ResidueSet, c: ResidueSet, d: ResidueSet, p: int
) -> CoverageResult:
    """Decide whether AB + CD covers every unit mod p, and whether the
    size hypothesis |A||B||C||D| > p^3 held for this instance."""
    if not is_prime(p):
        raise DomainError("p must be prime")
    for s in (a, b, c, d):
        if s.modulus != p:
            raise DomainError("modulus mismatch")
        if s.contains_zero:
            raise DomainError("sets must avoid 0 (subsets of the unit group)")
    hypothesis = a.cardinality * b.cardinality * c.cardinality * d.cardinality > p**3
    sums = sum_set(product_set(a, b), product_set(c, d))
    missing = [int(x) + 1 for x in np.nonzero(~sums.mask[1:])[0]]
    return CoverageResult(hypothesis, not missing, missing)


class TripleProductStats(NamedTuple):
    cardinality: int
    ratio: Fraction


def triple_product_stats(
    i1: Interval, i2: Interval, i3: Interval, p: int
) -> TripleProductStats:
    """Exact size of a three-interval product set, with the ratio to the
    length product (a diagnostic; no bound is asserted)."""
    if not is_prime(p):
        raise DomainError("p must be prime")
    for iv in (i1, i2, i3):
        if iv.modulus != p:
            raise DomainError("modulus mismatch")
        if iv.contains_zero:
            raise DomainError("intervals must avoid 0")
    card = iterated_interval_product([i1, i2, i3]).cardinality
    return TripleProductStats(card, Fraction(card, len(i1) * len(i2) * len(i3)))
