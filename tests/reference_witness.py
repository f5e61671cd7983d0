"""Reference witness constructions kept for the equivalence tests.

These are the direct tuple-dict versions of the witnessed interval product and
of the witnessed growth chain: every member's witness is stored as a tuple, and
each step walks all pairs. The library rebuilds the same witnesses on demand
from the fold operands or from parent pointers; the tests check both agree.
`interval_members` lists an interval by its definition, and `check_witnesses`
multiplies every witness of a set back out.
"""

from math import gcd, prod

import numpy as np


def interval_members(iv):
    """The interval's residues in progression order (may wrap past 0)."""
    start = (iv.offset + 1) % iv.modulus
    return (start + np.arange(iv.length, dtype=np.int64)) % iv.modulus


def check_witnesses(s):
    """Assert that s carries one witness per member, each multiplying to it."""
    assert s.witness is not None, "set carries no witnesses"
    assert set(s.witness) == set(s.members.tolist()), "witness keys do not match the members"
    for r, factors in s.witness.items():
        assert prod(factors) % s.modulus == r, f"witness for {r} multiplies to {prod(factors) % s.modulus}"


def combine_witnessed(m, u, v):
    # First-found witness wins, enumerating (u-member, v-member) pairs in
    # ascending lexicographic order.
    out = {}
    v_items = sorted(v.items())
    for ru in sorted(u):
        wu = u[ru]
        for rv, wv in v_items:
            r = ru * rv % m
            if r not in out:
                out[r] = wu + wv
    return out


def interval_product_witnesses(intervals):
    """Witness dict of the meet-in-the-middle product of the intervals."""
    ivs = list(intervals)
    m = ivs[0].modulus
    k = len(ivs)
    mid = (k + 1) // 2
    orders = [
        sorted(h, key=lambda i: (ivs[i].length, i))
        for h in (list(range(mid)), list(range(mid, k)))
        if h
    ]
    half_dicts = []
    for order in orders:
        acc = {int(x): (int(x),) for x in interval_members(ivs[order[0]])}
        for i in order[1:]:
            nxt = {int(x): (int(x),) for x in interval_members(ivs[i])}
            acc = combine_witnessed(m, acc, nxt)
        half_dicts.append(acc)
    joined = half_dicts[0] if len(half_dicts) == 1 else combine_witnessed(m, *half_dicts)
    slot_order = [i for order in orders for i in order]
    pos = [0] * k
    for slot, orig in enumerate(slot_order):
        pos[orig] = slot
    return {r: tuple(w[pos[i]] for i in range(k)) for r, w in joined.items()}


def growth_chain(m, cutoff, n_max):
    """(cards, n_stab, witness dict) of the chain A, A^2, ... for the units up
    to the cutoff, stepping every member of A^n by every generator."""
    gens = [x for x in range(1, min(cutoff, m) + 1) if gcd(x, m) == 1]
    phi = sum(1 for x in range(m) if gcd(x, m) == 1)
    mask = np.zeros(m, dtype=bool)
    mask[gens] = True
    wit = {x: (x,) for x in gens}
    cards = [len(wit)]
    n = 1
    n_stab = 1 if cards[0] == phi else None
    while n_stab is None and n < n_max:
        mem = np.nonzero(mask)[0]
        before = len(wit)
        for a in gens:
            prods = (a * mem) % m
            fresh = ~mask[prods]
            if fresh.any():
                idx = np.nonzero(fresh)[0]
                mask[prods[idx]] = True
                for i in idx.tolist():
                    wit[int(prods[i])] = wit[int(mem[i])] + (a,)
        cards.append(len(wit))
        if len(wit) == before:
            n_stab = n
        else:
            n += 1
            if len(wit) == phi:
                n_stab = n
    return cards, n_stab, wit
