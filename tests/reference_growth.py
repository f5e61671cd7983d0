"""Reference growth constructions kept for the equivalence tests.

`olson_reference` is the direct basis-order loop: it multiplies the whole
power X^h by X until the cardinality repeats. `table_chain` grows the chain by
its newest layer, but builds the m-entry pairwise mask at every step. The
library sizes each step by its newest layer; the tests check all agree.
"""

from typing import Optional

import numpy as np

from prodcong.arith import euler_phi
from prodcong.residues import _pairwise_mask, product_set


def olson_reference(x):
    """(h, bound, group) for a set X of units containing 1."""
    s = x
    h = 1
    while True:
        t = product_set(s, x)
        if t.cardinality == s.cardinality:
            break
        s = t
        h += 1
    return h, max(2.0, 2 * s.cardinality / x.cardinality - 1), s


def table_chain(m, gens, n_max):
    """(level, cards, n_stab) of the chain A, A^2, ... for the ascending units
    gens (1 among them), one m-entry pairwise mask per step."""
    phi = euler_phi(m)
    level = np.zeros(m, dtype=np.int32)
    level[gens] = 1
    mask = level > 0
    frontier = gens
    cards = [gens.size]
    n = 1
    n_stab: Optional[int] = 1 if gens.size == phi else None
    while n_stab is None and n < n_max:
        step = _pairwise_mask(m, frontier, gens, dlog_fft=False)
        frontier = np.flatnonzero(step > mask)
        mask[frontier] = True
        level[frontier] = n + 1
        cards.append(cards[-1] + frontier.size)
        if frontier.size == 0:
            n_stab = n
        else:
            n += 1
            if cards[-1] == phi:
                n_stab = n
    return level, cards, n_stab
