"""Intervals and dense residue sets over Z_m.

Sets are boolean membership masks, so the product/sum kernels are exact
vectorized loops, and everything is immutable after construction. Sets may
contain 0 in general; operations that only make sense over the unit group
validate 0-exclusion at their own boundary.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from operator import index
from typing import Callable, Iterable, NamedTuple, Optional

import numpy as np

from .arith import FieldContext, build_field_context, euler_phi, factorize, is_prime, table_cap
from .errors import DomainError, ResourceError

# Pairwise kernels and witness searches build their |S| x |T| tables in row
# chunks of at most this many cells (one row when a single row is wider).
_CHUNK_CELLS = 1 << 18
# A sumset in Z_n takes the FFT on at most this many points; a larger n takes
# the other paths of _sum_path.
_FFT_POINTS = 1 << 20
# The m-entry masks that the discrete-log fold's fixed work costs about as
# much as: the intervals' logs and the root's p-entry gather (_log_fold_context).
_GATHER_MASKS = 3


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

    def __len__(self) -> int:
        return self.length

    def __contains__(self, x: int) -> bool:
        i = (int(x) - self.offset) % self.modulus
        return self.length == self.modulus or 1 <= i <= self.length

    @property
    def contains_zero(self) -> bool:
        return self.offset + self.length >= self.modulus

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
    """Dense, immutable membership structure over Z_m.

    witness is None unless the set was built with witness tracking; then it
    is a read-only map from each member to a factor tuple whose product is the
    member mod m. Witnesses follow one first-found rule: pairs are enumerated
    in ascending order and the first pair that reaches a member gives its
    witness. In a product S*T that is the smallest s in S reaching the member,
    then the smallest t for that s; in a growth chain it is the first power
    A^n holding the member, then the smallest generator reaching it from
    A^(n-1). The view stores only the operands or the chain's level array and
    rebuilds a witness when it is looked up.
    """

    __slots__ = ("_modulus", "_mask", "_members", "_witness")

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
        self._witness: Optional[_WitnessView] = None

    @classmethod
    def _witnessed(
        cls, s: "ResidueSet", rebuild: Callable[[int], tuple[int, ...]]
    ) -> "ResidueSet":
        """s with a witness view attached; the mask is shared, not copied."""
        out = cls.__new__(cls)
        out._modulus, out._mask, out._members = s._modulus, s._mask, s._members
        out._witness = _WitnessView(s, rebuild)
        return out

    @classmethod
    def from_members(cls, modulus: int, members: Iterable[int]) -> "ResidueSet":
        mask = np.zeros(modulus, dtype=bool)
        if isinstance(members, np.ndarray) and np.can_cast(members.dtype, np.int64):
            mask[members.astype(np.int64, copy=False) % modulus] = True
        else:  # Python ints of any size, uint64 and anything else int() accepts
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

    @property
    def witness(self) -> Optional[Mapping[int, tuple[int, ...]]]:
        return self._witness

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


@lru_cache(maxsize=512)
def units_mask(m: int) -> np.ndarray:
    """Boolean mask of residues coprime to m."""
    mask = np.ones(m, dtype=bool)
    for q, _ in factorize(m):
        mask[::q] = False
    mask.setflags(write=False)
    return mask


def _check_same_modulus(s: ResidueSet, t: ResidueSet) -> None:
    if s.modulus != t.modulus:
        raise DomainError("modulus mismatch")


def _pairwise_mask(
    m: int, left: np.ndarray, right: np.ndarray, *, dlog_fft: bool = True
) -> np.ndarray:
    # Pigeonhole settles the large cases without a table. If the units of S
    # and T number more than phi(m) together, r * T_u^-1 meets S_u for every
    # unit r, so S_u T_u is every unit; the products with a non-unit operand
    # are non-units and are still computed. The size test comes first, so
    # small operands pay nothing. A product mod a prime whose sumset of logs
    # takes the FFT (_sum_path) runs in discrete-log coordinates instead of
    # the table; dlog_fft=False keeps it on the table.
    if left.size + right.size > (phi := euler_phi(m)):
        units = units_mask(m)
        left_units, right_units = units[left], units[right]
        if np.count_nonzero(left_units) + np.count_nonzero(right_units) > phi:
            out = units.copy()
            for s, t in ((left[~left_units], right), (left[left_units], right[~right_units])):
                if s.size and t.size:
                    out |= _table_mask(m, s, t, np.multiply)
            return out
    if (
        dlog_fft
        and _sum_path(m - 1, np.count_nonzero(left), np.count_nonzero(right)) == "fft"
        and m <= table_cap()
        and is_prime(m)
    ):
        return _dlog_product_mask(m, left, right)
    return _table_mask(m, left, right, np.multiply)


def _dlog_product_mask(m: int, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The product mask mod a prime m as a sum of discrete logs.

    With g a primitive root, g^i * g^j = g^((i + j) mod (m - 1)), so the
    nonzero products are the sumset of the operands' logs in Z_(m-1)
    (_exponent_sum): one gather of logs in, one gather of the sumset out. A
    product is 0 exactly when one factor is 0.
    """
    n = m - 1
    ctx = build_field_context(m)
    flags = np.zeros(n, dtype=bool)
    flags[ctx.dlog[left[left != 0]]] = True
    bits = _exponent_sum(n, _pack(flags), ctx.dlog[right[right != 0]])
    out = ctx._residue_mask(_unpack(bits, n))
    out[0] = bool(left.size and right.size) and not (left.all() and right.all())
    return out


def _sum_path(n: int, a: int, b: int) -> str:
    """The exact path of A + B in Z_n for |A| = a and |B| = b, by size alone.

    - "pigeonhole" when a + b > n: r - B meets A for every r, so A + B = Z_n
    - "fft" when the a x b table has more cells than the FFT of L points does
      butterflies, L log2 L, for L the least power of two >= 2n - 1 and at
      most _FFT_POINTS
    - "rotations" when rotating A by each member of B costs no more than the
      table, both in units of a shift or OR of one word (64 exponents) of a
      Python int: a rotation costs a word per 64 exponents plus 64, and the
      table 8 per 64 exponents more than the rotations do (A unpacked, the
      sum packed again), 5000 in numpy calls and 3 per cell; fitted on x86-64
      for n from 300 to 4194300
    - "table" otherwise
    """
    if a + b > n:
        return "pigeonhole"
    size = 1 << (2 * n - 2).bit_length()
    if a * b > size * (size.bit_length() - 1) and size <= _FFT_POINTS:
        return "fft"
    words = n >> 6
    if b * (words + 64) <= 8 * words + 5000 + 3 * a * b:
        return "rotations"
    return "table"


def _exponent_sum(n: int, bits: int, logs) -> int:
    """A + B in Z_n for A the n-bit int bits (bit e set for e in A) and B a
    list or array of distinct exponents, returned as an n-bit int; the path
    is _sum_path's.

    The FFT path convolves the two indicators: a linear convolution of length
    2n - 1, folded onto Z_n. Its entries count pairs, integers at most
    min(|A|, |B|). The float FFT errs by far less than 1/2 at these sizes, so
    rounding recovers each count; a residual of 1/4 or more means something
    went wrong, and the table runs instead.
    """
    path = _sum_path(n, bits.bit_count(), len(logs))
    if path == "pigeonhole":
        return (1 << n) - 1
    if path == "rotations":
        # the doubled int, shifted down by n - x, holds A + x in its low n bits
        twice = bits | bits << n
        out = 0
        for x in logs.tolist() if isinstance(logs, np.ndarray) else logs:
            out |= twice >> (n - x)
        return out & ((1 << n) - 1)
    left, right = np.flatnonzero(_unpack(bits, n)), np.asarray(logs, dtype=np.int64)
    if path == "fft":
        size = 1 << (2 * n - 2).bit_length()

        def spectrum(operand: np.ndarray) -> np.ndarray:
            indicator = np.zeros(n)
            indicator[operand] = 1.0
            return np.fft.rfft(indicator, size)

        product = spectrum(left)
        product *= spectrum(right)
        conv = np.fft.irfft(product, size)
        del product
        counts = conv[:n]
        counts[: n - 1] += conv[n : 2 * n - 1]
        rounded = np.rint(counts)
        counts -= rounded
        if np.abs(counts, out=counts).max() < 0.25:
            return _pack(rounded > 0)
    return _pack(_table_mask(n, left, right, np.add))


def _table_mask(m: int, left: np.ndarray, right: np.ndarray, op) -> np.ndarray:
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
    return ResidueSet(s.modulus, _pairwise_mask(s.modulus, s.members, t.members))


def sum_set(s: ResidueSet, t: ResidueSet) -> ResidueSet:
    """Exact pairwise-sum set {s + t} mod m."""
    _check_same_modulus(s, t)
    m = s.modulus
    # Pigeonhole: if |S| + |T| > m, r - T meets S for every r, so S + T = Z_m.
    if s.cardinality + t.cardinality > m:
        return ResidueSet(m, np.ones(m, dtype=bool))
    return ResidueSet(m, _table_mask(m, s.members, t.members, np.add))


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


def _pack(flags: np.ndarray) -> int:
    """The int with bit e set for each set entry e of a bool array."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def _unpack(bits: int, n: int) -> np.ndarray:
    """The n-bit set as a bool array indexed by exponent."""
    raw = np.frombuffer(bits.to_bytes(-(-n // 8), "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=n, bitorder="little").view(bool)


def _log_fold(
    ctx: FieldContext, ivs: list[Interval], orders: list[list[int]], with_witness: bool
) -> ResidueSet:
    """iterated_interval_product mod a prime p, every interval a run of units.

    Each node of the fold is one Python int with bit e set when g**e is in its
    set, so a product with an interval is a sumset of exponents
    (_exponent_sum). The join H0 * H1 multiplies H0 by H1's intervals in turn,
    the same set by associativity, and H1 itself is kept only for witnesses.
    Only the root becomes a mask (FieldContext._residue_mask).

    A witness keeps the mask fold's first-found rule. Below an interval node
    the smallest u = r * v^-1 over v in the interval with u in the previous
    node is taken (v is then determined); at the join, the smallest u in H0
    with r * u^-1 in H1.
    """
    p, n = ctx.p, ctx.p - 1
    starts = [iv.offset + 1 for iv in ivs]
    flat = ctx.index([x for s, iv in zip(starts, ivs) for x in range(s, s + iv.length)]).tolist()
    logs, at = [], 0
    for iv in ivs:
        logs.append(flat[at : at + iv.length])
        at += iv.length
    chains = []
    for order in orders[: 2 if with_witness else 1]:
        flags = np.zeros(n, dtype=bool)
        flags[logs[order[0]]] = True
        chain = [_pack(flags)]
        for i in order[1:]:
            chain.append(_exponent_sum(n, chain[-1], logs[i]))
        chains.append(chain)
    bits = chains[0][-1]
    for order in orders[1:]:  # the join: H0 through H1's intervals
        for i in order:
            bits = _exponent_sum(n, bits, logs[i])
    root = ResidueSet(p, ctx._residue_mask(_unpack(bits, n)))
    if not with_witness:
        return root
    size = -(-n // 8)

    def descend(order: list[int], chain: list[int], r: int, e: int, out: list[int]) -> None:
        # r = g**e lies in chain[j] = chain[j - 1] * I_order[j]
        for j in range(len(order) - 1, 0, -1):
            i = order[j]
            prev = chain[j - 1].to_bytes(size, "little")
            best = p
            for v, x in enumerate(logs[i], starts[i]):
                eu = (e - x) % n
                if prev[eu >> 3] >> (eu & 7) & 1 and (u := r * pow(v, -1, p) % p) < best:
                    best, out[i], e_best = u, v, eu
            r, e = best, e_best
        out[order[0]] = r

    def rebuild(r: int) -> tuple[int, ...]:
        out = [0] * len(ivs)
        e = int(ctx.index([r])[0])
        if len(orders) == 1:
            descend(orders[0], chains[0], r, e, out)
            return tuple(out)
        eus = np.flatnonzero(_unpack(chains[0][-1], n))
        evs = (e - eus) % n
        hit = np.flatnonzero(_unpack(chains[1][-1], n)[evs])
        us = ctx._unlog(eus[hit])
        best = hit[us.argmin()]
        u = int(us.min())
        descend(orders[0], chains[0], u, int(eus[best]), out)
        descend(orders[1], chains[1], r * pow(u, -1, p) % p, int(evs[best]), out)
        return tuple(out)

    return ResidueSet._witnessed(root, rebuild)


def _log_fold_context(ivs: list[Interval]) -> Optional[FieldContext]:
    """The field context of the intervals' modulus when the fold runs in
    discrete-log coordinates: no interval holds 0, the modulus is a prime that
    build_field_context accepts, and the mask fold would build more m-entry
    masks (one per interval and one per product) than the root's p-entry
    gather and the intervals' logs cost, about _GATHER_MASKS of them. That
    holds once the context's table is built; a cold context's baby-step
    giant-step search costs more at large p."""
    if any(iv.contains_zero for iv in ivs) or 2 * len(ivs) - 1 <= _GATHER_MASKS:
        return None
    try:
        return build_field_context(ivs[0].modulus)
    except (DomainError, ResourceError):
        return None


def iterated_interval_product(
    intervals: Iterable[Interval], with_witness: bool = False
) -> ResidueSet:
    """Product set of all the intervals, meet-in-the-middle.

    The interval list splits into two halves; each half folds its intervals
    smallest-first, and one final product joins the halves. When witnesses are
    requested, every member carries one factor per interval, aligned with the
    original interval order; the fold keeps the operands of each level (at
    most one per interval and one per product) and rebuilds a witness from
    them when it is looked up. Mod a prime, with every interval a run of units
    and enough of them (_log_fold_context), the fold runs in discrete-log
    coordinates (_log_fold); otherwise each node is a mask and each product
    the pairwise kernel.
    """
    ivs = list(intervals)
    if not ivs:
        raise DomainError("need at least one interval")
    m = ivs[0].modulus
    if any(iv.modulus != m for iv in ivs):
        raise DomainError("modulus mismatch")
    k = len(ivs)
    mid = (k + 1) // 2
    orders = [
        sorted(half, key=lambda i: (ivs[i].length, i))
        for half in (range(mid), range(mid, k))
        if half
    ]
    ctx = _log_fold_context(ivs)
    if ctx is not None:
        return _log_fold(ctx, ivs, orders, with_witness)
    halves = []
    for order in orders:
        acc = None
        for i in order:
            leaf = _Fold(ivs[i].to_set(), i)
            acc = leaf if acc is None else _Fold(product_set(acc.set, leaf.set), -1, acc, leaf)
        halves.append(acc)
    root = halves[0] if len(halves) == 1 else _Fold(
        product_set(halves[0].set, halves[1].set), -1, *halves
    )
    if not with_witness:
        return root.set
    return ResidueSet._witnessed(root.set, lambda r: _fold_witness(root, k, r))


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
