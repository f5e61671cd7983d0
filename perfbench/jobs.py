"""Seeded job streams for the prodcong benchmark workloads.

Every job is the argv of one `prodcong` command; the program sees nothing
else. The parameters that set a job's cost (kind, modulus, length scale,
cutoff) come from a low-discrepancy sequence with a seeded random start:
each draw is uniform over its range, and any run of consecutive jobs covers
the range evenly, so runs on different seeds hold nearly the same mix and the
run-to-run spread reflects the program rather than the draw. The remaining
parameters (offsets, coefficients, targets, sub-seeds) are plain seeded draws.
Nothing is filtered: perfect powers, non-residue targets and degenerate
moduli all stay.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import isqrt

import numpy as np

WORKLOADS = ("solve-witness", "growth-represent", "scan-sweep")

# Exponents given as decimal strings, so the exact cutoff is floor(m**Fraction(c)).
REPRESENT_C = ("0.2", "0.25", "0.3")
SMOOTH_C0 = ("0.3", "0.4", "0.5")
BOUNDS = [("--cutoff", str(k)) for k in range(2, 14)] + [("--c", c) for c in REPRESENT_C]
REPRESENT_PRIMES = (500, 4000)
REPRESENT_COMPOSITES = (4500, 6000)

# Job kinds of scan-sweep and their weights, set so the time splits roughly as
# abc_scan > pairwise kernels > mask-only chains > dlog tables and FFTs.
SCAN_MIX = {"scan": 20, "threshold": 4, "coverage": 3, "olson-suite": 15, "growth": 5, "charsum": 1}


@dataclass(frozen=True)
class Job:
    kind: str
    argv: tuple[str, ...]


def sieve(limit: int) -> np.ndarray:
    """Boolean primality mask over 0..limit."""
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for q in range(2, isqrt(limit) + 1):
        if mask[q]:
            mask[q * q :: q] = False
    return mask


class Quasi:
    """Points of [0, 1)^d by the additive recurrence with the generalised
    golden ratio (the R_d sequence), from a random start."""

    def __init__(self, rng: random.Random, d: int):
        g = 2.0
        for _ in range(64):
            g = (1 + g) ** (1 / (d + 1))
        self.step = [g ** -(j + 1) for j in range(d)]
        self.x = [rng.random() for _ in range(d)]

    def next(self) -> list[float]:
        self.x = [(x + s) % 1.0 for x, s in zip(self.x, self.step)]
        return self.x


def pick(values, u: float):
    return values[int(u * len(values))]


class Tables:
    """Candidate moduli for every workload, built once per set-up."""

    def __init__(self):
        mask = sieve(1_000_000)
        idx = np.arange(mask.size)
        self.primes = idx[mask]
        self.odd_composites = idx[(~mask) & (idx % 2 == 1) & (idx > 1)]

    def primes_in(self, lo: int, hi: int) -> list[int]:
        return self.primes[(self.primes >= lo) & (self.primes <= hi)].tolist()

    def odd_composites_in(self, lo: int, hi: int) -> list[int]:
        c = self.odd_composites
        return c[(c >= lo) & (c <= hi)].tolist()


def _solve_jobs(rng: random.Random, t: Tables):
    # A job draws a length scale s in 1..15 and spreads its 13 lengths evenly
    # over 1..s: scales 1-2 give tiny boxes that are mostly decided negative
    # (exit 3), larger ones witnessed products that dominate the job.
    primes, q = t.primes_in(300, 2500), Quasi(rng, 2)
    while True:
        u, v = q.next()
        p, s = pick(primes, u), 1 + int(v * 15)
        lengths = [1 + int((i + rng.random()) * s / 13) for i in range(13)]
        rng.shuffle(lengths)
        specs = ",".join(f"{rng.randint(1, p - 1 - n)}:{n}" for n in lengths)
        a, b, c = (rng.randint(1, p - 1) for _ in range(3))
        yield Job("solve", ("solve", "--p", str(p), "--a", str(a), "--b", str(b),
                            "--c", str(c), "--intervals", specs))


def _growth_jobs(rng: random.Random, t: Tables):
    primes, composites = t.primes_in(*REPRESENT_PRIMES), t.odd_composites_in(*REPRESENT_COMPOSITES)
    qp, qu, qs = Quasi(rng, 2), Quasi(rng, 2), Quasi(rng, 2)
    while True:
        u, v = qp.next()
        p = pick(primes, u)
        yield Job("represent-prime", ("represent", "--m", str(p), "--target",
                                      str(rng.randint(2, p - 1)), *pick(BOUNDS, v), "--n-max", str(p)))
        u, v = qu.next()
        m = pick(composites, u)
        yield Job("represent-unit", ("represent", "--m", str(m), "--target", "1",
                                     *pick(BOUNDS, v), "--n-max", str(m)))
        u, v = qs.next()
        yield Job("smooth", ("smooth", "--m", str(2000 + int(u * 18001)), "--c0",
                             pick(SMOOTH_C0, v), "--check-greedy"))


def _scan_jobs(rng: random.Random, t: Tables):
    small, cover = t.primes_in(200, 1200), t.primes_in(3000, 6000)
    big = t.primes_in(100_000, 1_000_000)
    kinds = [kind for kind, n in SCAN_MIX.items() for _ in range(n)]
    q = {kind: Quasi(rng, 2) for kind in SCAN_MIX}
    q_kind = Quasi(rng, 1)
    while True:
        kind = pick(kinds, q_kind.next()[0])
        u, v = q[kind].next()
        if kind == "scan":
            argv = ("scan", "--p", str(pick(small, u)), "--len", str(1 + int(v * 5)))
        elif kind == "threshold":
            argv = ("threshold", "--p", str(pick(small, u)))
        elif kind == "coverage":
            argv = ("coverage", "--p", str(pick(cover, u)), "--random", "2",
                    "--seed", str(rng.randrange(1 << 30)))
        elif kind == "olson-suite":
            argv = ("olson-suite", "--count", str(10 + int(u * 21)),
                    "--m-max", str(100 + int(v * 401)), "--seed", str(rng.randrange(1 << 30)))
        elif kind == "charsum":
            # two primes from mirrored halves, so every charsum job costs about the same
            half = len(big) // 2
            primes = f"{pick(big[:half], u)},{pick(big[half:], 1 - u)}"
            argv = ("charsum", "--p", primes, "--len", str(10 + int(v * 51)))
        else:
            lo = 1000 + int(u * 5001)
            argv = ("growth", "--m-min", str(lo), "--m-max", str(lo + 3),
                    "--cutoff", str(2 + int(v * 5)), "--n-max", str(lo + 3))
        yield Job(kind, argv)


_STREAMS = {
    "solve-witness": _solve_jobs,
    "growth-represent": _growth_jobs,
    "scan-sweep": _scan_jobs,
}


def generate(workload: str, seed: int, count: int, tables: Tables | None = None) -> list[Job]:
    """The first `count` jobs of a workload's stream; equal seeds give equal jobs."""
    rng = random.Random(f"{workload}:{seed}")
    stream = _STREAMS[workload](rng, tables or Tables())
    return [next(stream) for _ in range(count)]
