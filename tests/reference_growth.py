"""Reference growth constructions kept for the equivalence tests.

`olson_reference` is the direct basis-order loop: it multiplies the whole
power X^h by X until the cardinality repeats. The library grows the same chain
by its newest layer only; the tests check both agree.
"""

from prodcong.residues import product_set


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
