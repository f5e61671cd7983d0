"""Reference discrete-log table kept for the equivalence tests.

This is the direct construction: walk x = g**e for e = 0..p-2 one step at a
time and record dlog[x] = e. The library lists the same powers with one outer
product of two sqrt(p)-length power tables; the tests check both agree.
"""

import numpy as np


def dlog_reference(p, g):
    """int64 table with dlog[g**e mod p] = e and dlog[0] = -1."""
    dlog = [-1] * p
    x = 1
    for e in range(p - 1):
        dlog[x] = e
        x = x * g % p
    return np.array(dlog, dtype=np.int64)
