"""Reference scans kept for the equivalence tests.

full_grid_scan is the direct per-b version of abc_scan's full (b, c) grid:
every b gets its own |L| x |R| table of L + b*R, and a Python loop walks the
failing c. sampled_scan decides abc_scan's seeded sample one pair per
iteration. The library scans blocks of b, or chunks of pairs, at once; the
tests check both agree.
"""

import numpy as np

from prodcong.residues import Interval, iterated_interval_product
from prodcong.rng import stream

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


def sampled_scan(p, lengths, sample, seed):
    """(total, solvable, failures, failure_count) of `sample` seeded pairs,
    drawn as abc_scan draws them; a repeated failing pair counts each time."""
    intervals = [Interval(0, n, p) for n in lengths]
    left_mask = iterated_interval_product(intervals[:6]).mask
    r_members = iterated_interval_product(intervals[6:]).members
    pairs = stream(seed, f"abc-scan-p{p}").integers(1, p, size=(sample, 2))
    misses = []
    for b, c in pairs.tolist():
        if not left_mask[(c - b * r_members) % p].any():
            misses.append((1, b, c))
    failures = tuple(sorted(set(misses))[:FAILURE_SAMPLE_CAP])
    return sample, sample - len(misses), failures, len(misses)
