"""Reference full-grid scan kept for the equivalence tests.

This is the direct per-b version of abc_scan's full (b, c) grid: every b gets
its own |L| x |R| table of L + b*R, and a Python loop walks the failing c.
The library scans blocks of b at once; the tests check both agree.
"""

import numpy as np

from prodcong.residues import Interval, iterated_interval_product

FAILURE_SAMPLE_CAP = 20


def full_grid_scan(p, lengths):
    """(total, solvable, failures, failure_count) of the full grid with
    intervals {1..len_j}, a fixed to 1."""
    intervals = [Interval(0, n, p) for n in lengths]
    l_members = iterated_interval_product(intervals[:6]).members
    r_members = iterated_interval_product(intervals[6:]).members
    failures = []
    failure_count = 0
    solvable = 0
    for b in range(1, p):
        sums = np.zeros(p, dtype=bool)
        table = (l_members[:, None] + (b * r_members % p)[None, :]) % p
        sums[table.reshape(-1)] = True
        ok = sums[1:]
        solvable += int(ok.sum())
        if not ok.all():
            for c in (np.nonzero(~ok)[0] + 1).tolist():
                failure_count += 1
                if len(failures) < FAILURE_SAMPLE_CAP:
                    failures.append((1, b, int(c)))
    return (p - 1) ** 2, solvable, tuple(failures), failure_count
