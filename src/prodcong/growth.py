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
from math import gcd, prod
from typing import NamedTuple, Optional

import numpy as np

from .arith import euler_phi, floor_power, is_prime
from .charsums import nonresidue_cap
from .errors import DomainError, NotRepresentableError, ResourceError
from .residues import ResidueSet, WitnessedSet, _WitnessView, product_set, units_mask

DEFAULT_N_MAX = 64


@dataclass(frozen=True)
class GeneratorSet:
    """The unit residues with an integer representative up to the cutoff."""

    modulus: int
    c: Optional[float]
    cutoff: int
    base: WitnessedSet


def build_generator_set(
    m: int, c: Optional[float] = None, *, cutoff: Optional[int] = None
) -> GeneratorSet:
    """Build {x mod m : 1 <= x <= cutoff, gcd(x, m) = 1}; the cutoff is
    floor(m**c) when an exponent is given. Witnesses are the singletons."""
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
    members = ResidueSet.from_members(m, xs)
    base = WitnessedSet(members, _WitnessView(members, lambda x: (x,)))
    return GeneratorSet(m, c, cutoff, base)


def is_subgroup(s: ResidueSet) -> bool:
    """True iff the nonempty set of units is closed under multiplication mod m
    (closure of a finite subset of a group implies subgroup)."""
    if s.cardinality == 0:
        raise DomainError("set must be nonempty")
    m = s.modulus
    mem = s.members
    if np.any(np.gcd(mem, m) != 1):
        raise DomainError("members must be coprime to the modulus")
    if np.array_equal(s.mask, units_mask(m)):
        return True  # the full unit group is closed
    table = (mem[:, None] * mem[None, :]) % m
    return bool(s.mask[table.reshape(-1)].all())


def _step(
    m: int,
    mask: np.ndarray,
    frontier: np.ndarray,
    gen_members: list[int],
    parent: np.ndarray,
    factor: np.ndarray,
) -> np.ndarray:
    """Grow A^n (marked in mask) to A^(n+1) in place and return the new members.

    frontier holds A^n minus A^(n-1): as 1 is in A, A^(n-1) * A already lies
    in A^n, so only the newest layer can reach new members. Generators are
    units, so each row a * frontier is free of repeats. Generators run in
    ascending order and a new member r keeps the first pair that reaches it:
    parent[r] is its predecessor and factor[r] the generator applied.
    """
    fresh = []
    for a in gen_members:
        prods = (a * frontier) % m
        hit = ~mask[prods]
        if hit.any():
            new = prods[hit]
            mask[new] = True
            parent[new] = frontier[hit]
            factor[new] = a
            fresh.append(new)
    return np.concatenate(fresh) if fresh else frontier[:0]


def _chain_start(gen: GeneratorSet):
    """Mask, frontier and parent/factor arrays for A^1, whose members are
    their own one-factor witnesses."""
    if 1 not in gen.base:
        raise AssertionError("1 must be in A, or the growth chain can lose a member")
    members = gen.base.members
    parent = np.full(gen.modulus, -1, dtype=np.int64)
    factor = np.zeros(gen.modulus, dtype=np.int64)
    factor[members] = members
    return gen.base.mask.copy(), members, parent, factor


def _parent_witness(parent: np.ndarray, factor: np.ndarray):
    def rebuild(r: int) -> tuple[int, ...]:
        out = []
        while r >= 0:
            out.append(int(factor[r]))
            r = int(parent[r])
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
    is_subgroup_at_stab: bool
    subgroup_order: int
    ell: Optional[int]
    density: float
    stable: WitnessedSet

    @property
    def stabilized(self) -> bool:
        return self.n_stab is not None


def power_set_sequence(
    gen: GeneratorSet, n_max: int = DEFAULT_N_MAX, with_witness: bool = True
) -> GrowthReport:
    """Iterate A^(n+1) = A^n * A until the chain stabilizes (or n_max).

    Stabilization is detected by cardinality equality, sound because the chain
    is nondecreasing; closure of the stabilized set is then verified once.
    """
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    m = gen.modulus
    phi = euler_phi(m)
    gen_members = [int(x) for x in gen.base.members]
    mask, frontier, parent, factor = _chain_start(gen)
    card = frontier.size
    cards = [card]
    n = 1
    n_stab: Optional[int] = 1 if card == phi else None
    while n_stab is None and n < n_max:
        frontier = _step(m, mask, frontier, gen_members, parent, factor)
        card += frontier.size
        cards.append(card)
        if frontier.size == 0:
            n_stab = n
        else:
            n += 1
            if card == phi:
                n_stab = n

    base = ResidueSet(m, mask)
    witness = _WitnessView(base, _parent_witness(parent, factor)) if with_witness else None
    s = WitnessedSet(base, witness)
    closed = is_subgroup(s.base) if n_stab is not None else False
    if n_stab is not None and not closed:
        raise AssertionError("stabilized set failed the closure check")
    order = s.cardinality
    if n_stab is not None and phi % order != 0:
        raise AssertionError("subgroup order does not divide phi(m)")
    ell = None
    if n_stab is not None and is_prime(m):
        ell = power_residue_index(s.base)
    return GrowthReport(
        modulus=m,
        c=gen.c,
        cutoff=gen.cutoff,
        phi=phi,
        cards=cards,
        n_stab=n_stab,
        is_subgroup_at_stab=closed,
        subgroup_order=order,
        ell=ell,
        density=order / phi,
        stable=s,
    )


def nth_power_set(gen: GeneratorSet, n: int) -> ResidueSet:
    """A^n as a plain set (stops early once the chain stabilizes)."""
    if n < 1:
        raise DomainError("n must be >= 1")
    mask, frontier, parent, factor = _chain_start(gen)
    gen_members = [int(x) for x in gen.base.members]
    for _ in range(n - 1):
        frontier = _step(gen.modulus, mask, frontier, gen_members, parent, factor)
        if frontier.size == 0:
            break
    return ResidueSet(gen.modulus, mask)


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
    s = x
    h = 1
    while True:
        t = product_set(s, x)
        if t.cardinality == s.cardinality:
            break
        s = t
        h += 1
    bound = max(2.0, 2 * s.cardinality / x.cardinality - 1)
    return OlsonCheck(h, bound, s)


def power_residue_index(s: ResidueSet, p: Optional[int] = None) -> int:
    """The index ell with S equal to the ell-th powers mod p; requires S to be
    a subgroup of the unit group of a prime modulus."""
    if p is None:
        p = s.modulus
    elif p != s.modulus:
        raise DomainError("modulus mismatch")
    if not is_prime(p):
        raise DomainError("power-residue index is defined for prime moduli only")
    if not is_subgroup(s):
        raise DomainError("set is not a subgroup")
    order = s.cardinality
    ell = (p - 1) // order
    powers = ResidueSet.from_members(p, (pow(x, ell, p) for x in range(1, p)))
    if powers != s:
        raise AssertionError("subgroup is not the ell-th power image")
    return ell


class NonresidueResult(NamedTuple):
    t: int
    vinogradov_cap: float


def least_power_nonresidue(p: int, ell: int) -> NonresidueResult:
    """Smallest positive integer that is not an ell-th power residue mod p,
    with the classical diagnostic cap (reported, never asserted)."""
    if not is_prime(p):
        raise DomainError("p must be prime")
    if ell == 1:
        raise DomainError("every residue is a first power")
    if ell < 1 or (p - 1) % ell != 0:
        raise DomainError("ell must divide p - 1")
    residue = np.zeros(p, dtype=bool)
    for x in range(1, p):
        residue[pow(x, ell, p)] = True
    t = 1
    while residue[t % p]:
        t += 1
    return NonresidueResult(t, nonresidue_cap(p, ell))


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


def _growth_for(
    m: int,
    c: Optional[float],
    cutoff: Optional[int],
    report: Optional[GrowthReport],
    n_max: int,
) -> GrowthReport:
    if report is not None:
        if report.modulus != m:
            raise DomainError("report modulus mismatch")
        if c is not None and report.cutoff != floor_power(m, c):
            raise DomainError("report cutoff does not match the requested exponent")
        if cutoff is not None and report.cutoff != cutoff:
            raise DomainError("report cutoff mismatch")
        if report.stable.witness is None:
            raise DomainError("report must carry witnesses")
        return report
    rep = power_set_sequence(build_generator_set(m, c, cutoff=cutoff), n_max=n_max)
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
    rep = power_set_sequence(gen, n_max=n_max)
    if not rep.stabilized:
        raise ResourceError(f"chain did not stabilize within n_max={n_max}")
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
    report: Optional[GrowthReport] = None,
    n_max: int = DEFAULT_N_MAX,
) -> Representation:
    """A verified product of units <= cutoff congruent to the target mod a
    prime p, padded with 1s to the stabilization length.

    The target is reachable iff it lies in the stabilized subgroup, i.e. iff
    it is an ell-th power residue for the report's ell; otherwise
    NotRepresentableError carries that ell.
    """
    if not is_prime(p):
        raise DomainError("p must be prime")
    target %= p
    if target == 0:
        raise DomainError("target must be a unit")
    rep = _growth_for(p, c, cutoff, report, n_max)
    if target not in rep.stable:
        raise NotRepresentableError(
            f"{target} is not representable at cutoff {rep.cutoff} mod {p} "
            f"(not an ell-th power residue, ell={rep.ell})",
            ell=rep.ell,
        )
    witness = rep.stable.witness[target]
    factors = witness + (1,) * (rep.n_stab - len(witness))
    out = Representation(p, target, rep.cutoff, factors)
    out.verify()
    return out
