"""Iterated product sets of small units mod m.

Starting from A = {x mod m : 1 <= x <= cutoff, gcd(x, m) = 1}, the powers
A, A^2, A^3, ... form a nondecreasing chain (1 is in A), so the chain
stabilizes, and the stabilized set is closed under multiplication, i.e. a
subgroup of the unit group. This module tracks that chain with optional
factorization witnesses and turns the structure into constructive
representations: products of small integers hitting 1 or a chosen target.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm, prod
from typing import NamedTuple, Optional

import numpy as np

from .arith import euler_phi, factorize, floor_power, is_prime
from .errors import DomainError, NotRepresentableError, ResourceError
from .residues import ResidueSet, _pairwise_mask, product_set

DEFAULT_N_MAX = 64

# The most products a chain step forms as Python ints (see _chain).
_SCALAR_CELLS = 64


@dataclass(frozen=True)
class GeneratorSet:
    """The unit residues with an integer representative up to the cutoff."""

    modulus: int
    c: Optional[float]
    cutoff: int
    base: ResidueSet


def build_generator_set(
    m: int, c: Optional[float] = None, *, cutoff: Optional[int] = None
) -> GeneratorSet:
    """Build {x mod m : 1 <= x <= cutoff, gcd(x, m) = 1}; the cutoff is
    floor(m**c) when an exponent is given."""
    if m < 2:
        raise DomainError("m must be >= 2")
    if (c is None) == (cutoff is None):
        raise DomainError("give exactly one of c and cutoff")
    if c is not None:
        if not 0 < c < 1:
            raise DomainError("c must lie in (0, 1)")
        cutoff = floor_power(m, c)
    if cutoff < 1:
        raise DomainError("cutoff must be >= 1")
    xs = [x for x in range(1, min(cutoff, m) + 1) if gcd(x, m) == 1]
    return GeneratorSet(m, c, cutoff, ResidueSet.from_members(m, xs))


def is_subgroup(s: ResidueSet) -> bool:
    """True iff the nonempty set of units is closed under multiplication mod m
    (closure of a finite subset of a group implies subgroup). S*S contains
    s*S, which has |S| members, so S*S = S exactly when S is closed."""
    if s.cardinality == 0:
        raise DomainError("set must be nonempty")
    if np.any(np.gcd(s.members, s.modulus) != 1):
        raise DomainError("members must be coprime to the modulus")
    return product_set(s, s) == s


def _chain(m: int, gens: np.ndarray, n_max: int):
    """Grow A, A^2, ... for the ascending units gens (1 among them) until the
    chain stabilizes or reaches A^n_max.

    Returns (level, cards, n_stab): level[r] is the least n with r in A^n (0
    when r is in none), cards lists |A^1|, |A^2|, ..., and n_stab is None when
    n_max came first. As 1 is in A, A^(n-1) * A already lies in A^n, so each
    step multiplies only the newest layer F by A without 1 (F * 1 = F is
    already seen). The chain stops at the full unit group, or at the first
    step that adds nothing, whose repeated cardinality is then the last entry
    of cards.

    While the |F|(|A| - 1) products number at most _SCALAR_CELLS, a step
    loops over Python ints against seen (one byte per residue) and keeps the
    layer as a list in order of discovery: a numpy call costs more than that
    loop. A larger step builds the m-entry pairwise mask (_step).
    """
    phi = euler_phi(m)
    level = np.zeros(m, dtype=np.int32)
    level[gens] = 1
    if not level[1 % m]:
        raise AssertionError("1 must be in A, or the growth chain can lose a member")
    seen = bytearray(m)
    np.frombuffer(seen, dtype=bool)[gens] = True
    levels = memoryview(level)
    others = gens[gens != 1]
    units = others.tolist()
    frontier = gens.tolist()
    cards = [gens.size]
    n = 1
    n_stab: Optional[int] = 1 if gens.size == phi else None
    while n_stab is None and n < n_max:
        if len(frontier) * len(units) <= _SCALAR_CELLS:
            new = []
            for u in frontier if isinstance(frontier, list) else frontier.tolist():
                for a in units:
                    r = u * a % m
                    if not seen[r]:
                        seen[r] = 1
                        levels[r] = n + 1
                        new.append(r)
            frontier = new
        else:
            frontier = _step(m, frontier, others, seen, level, n + 1)
        cards.append(cards[-1] + len(frontier))
        if len(frontier) == 0:
            n_stab = n
        else:
            n += 1
            if cards[-1] == phi:
                n_stab = n
    return level, cards, n_stab


def _step(m: int, frontier, others: np.ndarray, seen: bytearray, level: np.ndarray, n: int):
    """The members of frontier * others mod m that seen does not hold yet, as
    an ascending array, each marked in seen and given level n: one m-entry
    pairwise mask. seen holds one byte per residue (the chain's mask)."""
    mask = np.frombuffer(seen, dtype=bool)
    frontier = np.asarray(frontier, dtype=np.int64)
    new = np.flatnonzero(_pairwise_mask(m, frontier, others, dlog_fft=False) > mask)
    mask[new] = True
    level[new] = n
    return new


def _level_witness(m: int, level: np.ndarray, gens: np.ndarray):
    """Witness lookups for a chain: a member r of layer n >= 2 takes the
    smallest generator a with r * a^(-1) in layer n - 1, and one such a always
    exists, because r = q * a with q in A^(n-1) and q in A^(n-2) would put r
    in A^(n-1)."""
    pairs = [(a, pow(a, -1, m)) for a in gens.tolist()]
    levels = memoryview(level)  # reads give plain ints, unlike numpy scalars

    def rebuild(r: int) -> tuple[int, ...]:
        out = []
        for n in range(levels[r] - 1, 0, -1):
            for a, inverse in pairs:
                q = r * inverse % m
                if levels[q] == n:
                    break
            out.append(a)
            r = q
        out.append(r)
        return tuple(reversed(out))

    return rebuild


@dataclass
class GrowthReport:
    """Trajectory of |A^n| with stabilization and subgroup structure.

    cards lists |A^1|, |A^2|, ... as computed; when the chain reaches the full
    unit group the loop stops there, otherwise the confirming repeated
    cardinality is included. n_stab is None only if n_max was hit first
    (reported, never silently truncated). ell is the power-residue index,
    prime moduli only.
    """

    modulus: int
    c: Optional[float]
    cutoff: int
    phi: int
    cards: list[int]
    n_stab: Optional[int]
    subgroup_order: int
    ell: Optional[int]
    density: float
    stable: ResidueSet

    @property
    def stabilized(self) -> bool:
        return self.n_stab is not None

    def represent(self, target: int) -> Representation:
        """A verified product of units <= cutoff congruent to the target,
        from the witnessed stabilized chain, padded with 1s to the
        stabilization length.

        The target is reachable iff it lies in the stabilized subgroup; for a
        prime modulus that is iff it is an ell-th power residue, and
        NotRepresentableError carries ell.
        """
        if not self.stabilized:
            raise DomainError("chain did not stabilize")
        if self.stable.witness is None:
            raise DomainError("report must carry witnesses")
        m = self.modulus
        target %= m
        if target not in self.stable:
            why = "not in the stabilized subgroup"
            if self.ell is not None:
                why = f"not an ell-th power residue, ell={self.ell}"
            raise NotRepresentableError(
                f"{target} is not representable at cutoff {self.cutoff} mod {m} ({why})",
                ell=self.ell,
            )
        witness = self.stable.witness[target]
        out = Representation(m, target, self.cutoff, witness + (1,) * (self.n_stab - len(witness)))
        out.verify()
        return out


def power_set_sequence(
    gen: GeneratorSet, n_max: int = DEFAULT_N_MAX, with_witness: bool = True
) -> GrowthReport:
    """Iterate A^(n+1) = A^n * A until the chain stabilizes (or n_max).

    Stabilization is detected by cardinality equality, sound because the chain
    is nondecreasing. Closure of the stabilized set S = A^n is then certified
    by S * A = S: with 1 in A that gives S * A^k = S for every k, so
    S * S = S * A^n = S. For a prime modulus the unit group is cyclic, so the
    group A generates is its one subgroup of order lcm of ord(a) over a in A;
    S lies in that group, and S holding 1 with that many members certifies
    S equal to it, with ell = (p - 1) / |S|.
    """
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    m = gen.modulus
    phi = euler_phi(m)
    gens = gen.base.members
    level, cards, n_stab = _chain(m, gens, n_max)
    s = ResidueSet(m, level > 0)
    if with_witness:
        s = ResidueSet._witnessed(s, _level_witness(m, level, gens))
    order = s.cardinality
    ell = None
    if n_stab is not None:
        if product_set(s, gen.base) != s:
            raise AssertionError("stabilized set failed the closure check")
        if phi % order != 0:
            raise AssertionError("subgroup order does not divide phi(m)")
        if is_prime(m):
            if 1 not in s or order != _generated_order(m, gens.tolist()):
                raise AssertionError("stabilized set is not the group its generators generate")
            ell = (m - 1) // order
    return GrowthReport(
        modulus=m,
        c=gen.c,
        cutoff=gen.cutoff,
        phi=phi,
        cards=cards,
        n_stab=n_stab,
        subgroup_order=order,
        ell=ell,
        density=order / phi,
        stable=s,
    )


class OlsonCheck(NamedTuple):
    h_actual: int
    h_bound: float
    group: ResidueSet


def olson_bound_check(x: ResidueSet) -> OlsonCheck:
    """Least h with X^h equal to the subgroup generated by X, against the
    generating-set bound max{2, 2|G|/|X| - 1} (X must contain 1)."""
    if 1 not in x:
        raise DomainError("X must contain 1")
    if np.any(np.gcd(x.members, x.modulus) != 1):
        raise DomainError("members must be coprime to the modulus")
    # Every step before stabilization adds a unit, so h <= phi(m) < n_max.
    level, cards, h = _chain(x.modulus, x.members, x.modulus + 1)
    bound = max(2.0, 2 * cards[-1] / x.cardinality - 1)
    return OlsonCheck(h, bound, ResidueSet(x.modulus, level > 0))


def _generated_order(p: int, gens: list[int]) -> int:
    """The order of the subgroup the units gens generate mod a prime p: the
    lcm of their multiplicative orders, each found by dividing p - 1 by its
    prime factors while the power stays 1."""
    factors = [q for q, _ in factorize(p - 1)]
    out = 1
    for a in gens:
        if out == p - 1:
            break
        e = p - 1
        for q in factors:
            while e % q == 0 and pow(a, e // q, p) == 1:
                e //= q
        out = lcm(out, e)
    return out


def _power_mod(xs: np.ndarray, e: int, m: int) -> np.ndarray:
    """xs**e mod m for each entry, by square-and-multiply over the array
    (Python integers once a product of two residues can overflow int64)."""
    base = xs.astype(np.int64 if m < 1 << 31 else object) % m
    out = np.ones_like(base) % m
    while e:
        if e & 1:
            out = out * base % m
        base = base * base % m
        e >>= 1
    return out


def power_residue_index(s: ResidueSet) -> int:
    """The index ell with S equal to the ell-th powers mod p = s.modulus;
    requires S to be a subgroup of the unit group of a prime modulus.

    The unit group mod p is cyclic, so for each d dividing p - 1 exactly d
    units solve x^d = 1, and they are the (p-1)/d-th powers. S is therefore a
    subgroup exactly when d = |S| divides p - 1 and x^d = 1 for every x in S.
    """
    p = s.modulus
    if not is_prime(p):
        raise DomainError("power-residue index is defined for prime moduli only")
    order = s.cardinality
    if order == 0 or (p - 1) % order or np.any(_power_mod(s.members, order, p) != 1):
        raise DomainError("set is not a subgroup")
    return (p - 1) // order


@dataclass(frozen=True)
class Representation:
    """A product of small units congruent to the target."""

    modulus: int
    target: int
    bound: int
    factors: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.factors)

    def verify(self) -> None:
        if prod(self.factors) % self.modulus != self.target % self.modulus:
            raise DomainError("factors do not multiply to the target")
        for f in self.factors:
            if not 1 <= f <= self.bound:
                raise DomainError(f"factor {f} outside 1..{self.bound}")
            if gcd(f, self.modulus) != 1:
                raise DomainError(f"factor {f} shares a divisor with the modulus")


def _witnessed_chain(gen: GeneratorSet, n_max: int) -> GrowthReport:
    rep = power_set_sequence(gen, n_max=n_max)
    if not rep.stabilized:
        raise ResourceError(f"chain did not stabilize within n_max={n_max}")
    return rep


def represent_unit(
    m: int,
    c: Optional[float] = None,
    *,
    cutoff: Optional[int] = None,
    n_max: int = DEFAULT_N_MAX,
) -> Representation:
    """A verified product of units <= cutoff that is congruent to 1 with a
    non-1 leading factor: g times the witnessed factorization of g^(-1),
    padded with 1s to even length."""
    gen = build_generator_set(m, c, cutoff=cutoff)
    if gen.base.cardinality <= 1:
        raise DomainError("degenerate generator set: no member besides 1")
    rep = _witnessed_chain(gen, n_max)
    g = int(gen.base.members[1])  # smallest member above 1
    g_inv = pow(g, -1, m)
    factors = (g,) + rep.stable.witness[g_inv]
    if len(factors) % 2:
        factors += (1,)
    out = Representation(m, 1, gen.cutoff, factors)
    out.verify()
    return out


def represent_target(
    p: int,
    target: int,
    c: Optional[float] = None,
    *,
    cutoff: Optional[int] = None,
    n_max: int = DEFAULT_N_MAX,
) -> Representation:
    """A verified product of units <= cutoff congruent to the target mod a
    prime p, padded with 1s to the stabilization length (GrowthReport.represent
    on a fresh witnessed chain)."""
    if not is_prime(p):
        raise DomainError(
            f"modulus {p} is not prime, and a composite modulus accepts only target 1"
        )
    if target % p == 0:
        raise DomainError("target must be a unit")
    return _witnessed_chain(build_generator_set(p, c, cutoff=cutoff), n_max).represent(target)
