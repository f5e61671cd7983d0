"""Independent checks of prodcong report bodies.

Nothing here calls prodcong: every decision is recomputed from the job's argv
with the benchmark's own arithmetic (masks, sieves, Euler's criterion, exact
integer roots), so a defect in the program cannot also hide in its check.
Each check returns a list of problems; an empty list means the job passed.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import gcd, prod

import numpy as np

from jobs import sieve

NEGATIVE_OK = {"solve", "represent"}  # commands whose exit 3 is a decided negative


def args_of(argv) -> dict[str, str]:
    """`--name value` pairs of an argv (flags without a value map to "")."""
    out = {}
    tokens = list(argv[1:])
    for i, tok in enumerate(tokens):
        if tok.startswith("--"):
            nxt = tokens[i + 1] if i + 1 < len(tokens) else ""
            out[tok[2:]] = "" if nxt.startswith("--") else nxt
    return out


def exact_floor_power(m: int, c: str) -> int:
    """floor(m ** c) for a decimal string c, by an integer root."""
    fr = Fraction(c)
    n, k = m**fr.numerator, fr.denominator
    t = int(round(n ** (1.0 / k)))  # a float guess, corrected in integers below
    while t**k > n:
        t -= 1
    while (t + 1) ** k <= n:
        t += 1
    return t


@lru_cache(maxsize=4096)
def prime_factors(n: int) -> tuple[int, ...]:
    out, q = [], 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        out.append(n)
    return tuple(out)


def phi(n: int) -> int:
    for q in prime_factors(n):
        n -= n // q
    return n


def order_mod(a: int, p: int) -> int:
    """Multiplicative order of a unit a modulo a prime p."""
    k = p - 1
    for q in prime_factors(p - 1):
        while k % q == 0 and pow(a, k // q, p) == 1:
            k //= q
    return k


def subgroup_index(p: int, cutoff: int) -> int:
    """Index in (Z/p)* of the subgroup generated by 1..cutoff: the gcd of the
    indices of the generators' cyclic subgroups."""
    ell = p - 1
    for a in range(2, min(cutoff, p - 1) + 1):
        ell = gcd(ell, (p - 1) // order_mod(a, p))
    return ell


def in_interval(x: int, offset: int, length: int, p: int) -> bool:
    return 1 <= (x - offset) % p <= length


def product_mask(p: int, specs) -> np.ndarray:
    """Mask of all products x1*...*xk mod p, xi in the i-th (offset, length) interval."""
    acc = np.zeros(p, dtype=bool)
    acc[1] = True
    for offset, length in specs:
        members = np.nonzero(acc)[0]
        nxt = np.zeros(p, dtype=bool)
        for x in range(offset + 1, offset + length + 1):
            nxt[(x % p) * members % p] = True
        acc = nxt
    return acc


def _check_solve(argv, code, doc) -> list[str]:
    a = args_of(argv)
    p, ca, cb, cc = (int(a[k]) for k in ("p", "a", "b", "c"))
    specs = [tuple(int(v) for v in tok.split(":")) for tok in a["intervals"].split(",")]
    left, right = product_mask(p, specs[:6]), product_mask(p, specs[6:])
    lm, rm = np.nonzero(left)[0], np.nonzero(right)[0]
    target = np.zeros(p, dtype=bool)
    target[(ca * lm) % p] = True
    decided = bool(target[(cc - cb * rm) % p].any())
    row = doc["rows"][0]
    problems = []
    if (row["left_card"], row["right_card"]) != (lm.size, rm.size):
        problems.append(f"cards {row['left_card']},{row['right_card']} != {lm.size},{rm.size}")
    if row["solvable"] != decided or code != (0 if decided else 3):
        problems.append(f"decision {row['solvable']} (exit {code}), masks say {decided}")
    if row["solvable"]:
        w = [int(x) for x in row["witness"].split(",")]
        if len(w) != 13 or not all(in_interval(x, o, n, p) for x, (o, n) in zip(w, specs)):
            problems.append(f"witness {w} outside its intervals")
        elif (ca * prod(w[:6]) + cb * prod(w[6:]) - cc) % p:
            problems.append(f"witness {w} does not satisfy the congruence")
    return problems


def _check_represent(argv, code, doc) -> list[str]:
    a = args_of(argv)
    m, target = int(a["m"]), int(a["target"]) % int(a["m"])
    cutoff = int(a["cutoff"]) if "cutoff" in a else exact_floor_power(m, a["c"])
    if code == 3:
        ell = doc["summary"].get("ell")
        if prime_factors(m) != (m,) or target == 1:
            return [f"exit 3 for a target that is always reachable (m={m}, target={target})"]
        true_ell = subgroup_index(m, cutoff)
        problems = []
        if ell != true_ell:
            problems.append(f"reported ell={ell}, subgroup index is {true_ell}")
        if pow(target, (m - 1) // true_ell, m) == 1:
            problems.append(f"{target} is an ell-th power residue (Euler), yet exit 3")
        return problems
    row = doc["rows"][0]
    factors = [int(f) for f in row["factors"].split(",")]
    problems = []
    if row["cutoff"] != cutoff:
        problems.append(f"cutoff {row['cutoff']} != exact {cutoff}")
    if prod(factors) % m != target:
        problems.append(f"factors multiply to {prod(factors) % m}, not {target}")
    if any(not 1 <= f <= cutoff or gcd(f, m) != 1 for f in factors):
        problems.append(f"factors {factors} leave 1..{cutoff} or share a divisor with {m}")
    return problems


def _check_smooth(argv, code, doc) -> list[str]:
    a = args_of(argv)
    m, c0 = int(a["m"]), a["c0"]
    row = doc["rows"][0]
    y = exact_floor_power(m, c0)
    # y-smooth n <= m: no prime factor above y marks n.
    primes = np.nonzero(sieve(m))[0]
    rough = np.zeros(m + 1, dtype=bool)
    for q in primes[primes > y].tolist():
        rough[q::q] = True
    smooth = ~rough[1:]
    coprime = np.gcd(np.arange(1, m + 1), m) == 1
    psi, psi_c = int(smooth.sum()), int((smooth & coprime).sum())
    problems = []
    if row["smooth_bound"] != y:
        problems.append(f"smooth_bound {row['smooth_bound']} != exact {y}")
    if (row["psi"], row["psi_coprime"], row["phi"]) != (psi, psi_c, phi(m)):
        problems.append(f"psi/psi_coprime/phi {row['psi']},{row['psi_coprime']},{row['phi']}"
                        f" != {psi},{psi_c},{phi(m)}")
    if row["greedy_failures"] != 0 or row["greedy_checked"] != psi_c:
        problems.append(f"greedy checked {row['greedy_checked']} failed {row['greedy_failures']}")
    return problems


def _check_scan(argv, code, doc) -> list[str]:
    a = args_of(argv)
    p, n = int(a["p"]), int(a["len"])
    row = doc["rows"][0]
    problems = []
    if row["total"] != (p - 1) ** 2 or not 0 <= row["solvable"] <= row["total"]:
        problems.append(f"row counts {row['total']}, {row['solvable']}")
    if doc["summary"]["failure_count"] != row["total"] - row["solvable"]:
        problems.append("failure_count does not match the row")
    left = product_mask(p, [(0, n)] * 6)
    right = np.nonzero(product_mask(p, [(0, n)] * 7))[0]
    for f in doc["summary"]["example_failures"]:
        if left[(f["c"] - f["b"] * right) % p].any():
            problems.append(f"reported failure (1,{f['b']},{f['c']}) is solvable")
    return problems


def _check_threshold(argv, code, doc) -> list[str]:
    p = int(args_of(argv)["p"])
    rows, minimal = doc["rows"], doc["summary"]["minimal_len"]
    full = [r["solvable"] == r["total"] == (p - 1) ** 2 for r in rows]
    problems = []
    if [r["len"] for r in rows] != list(range(1, len(rows) + 1)):
        problems.append("lengths do not ascend from 1")
    if minimal != rows[-1]["len"] or not full[-1] or any(full[:-1]):
        problems.append(f"minimal_len {minimal} disagrees with the curve")
    return problems


def _check_coverage(argv, code, doc) -> list[str]:
    p = int(args_of(argv)["p"])
    problems = []
    if doc["summary"]["counterexamples"] != 0:
        problems.append(f"{doc['summary']['counterexamples']} counterexamples")
    for r in doc["rows"]:
        if r["hypothesis_met"] != (r["card_a"] * r["card_b"] * r["card_c"] * r["card_d"] > p**3):
            problems.append(f"trial {r['trial']}: hypothesis flag is wrong")
    return problems


def _check_olson(argv, code, doc) -> list[str]:
    problems = []
    if doc["summary"]["violations"] != 0:
        problems.append(f"{doc['summary']['violations']} violations")
    for r in doc["rows"]:
        if phi(r["m"]) % r["group_order"] or r["ok"] != (r["h_actual"] <= max(r["h_bound"], 1)):
            problems.append(f"trial {r['trial']}: row inconsistent")
    return problems


def _check_charsum(argv, code, doc) -> list[str]:
    a = args_of(argv)
    primes, n = [int(v) for v in a["p"].split(",")], int(a["len"])
    problems = []
    if [r["p"] for r in doc["rows"]] != primes:
        problems.append("rows do not follow the primes")
    for p, row in zip(primes, doc["rows"]):
        # n*n < p, so products of 1..n never wrap and J is an integer energy.
        j = sum(v * v for v in Counter(x * y for x in range(1, n + 1) for y in range(1, n + 1)).values())
        if row["j_direct"] != j:
            problems.append(f"p={p}: j_direct {row['j_direct']} != {j}")
        if abs(row["j_char"] - j) > 1e-6 * j:
            problems.append(f"p={p}: identity residual {abs(row['j_char'] - j)} above 1e-6*J")
    return problems


def _check_growth(argv, code, doc) -> list[str]:
    a = args_of(argv)
    cutoff = int(a["cutoff"])
    problems = []
    if doc["summary"]["unstabilized"] != 0:
        problems.append("a chain did not stabilize")
    for r in doc["rows"]:
        m, order = r["m"], r["subgroup_order"]
        card_a = sum(1 for x in range(1, min(cutoff, m) + 1) if gcd(x, m) == 1)
        if r["card_A"] != card_a or phi(m) % order:
            problems.append(f"m={m}: |A|={r['card_A']} (expected {card_a}), order {order}")
        if prime_factors(m) == (m,):
            if r["ell"] * order != m - 1 or r["ell"] != subgroup_index(m, cutoff):
                problems.append(f"m={m}: ell={r['ell']} with order {order}")
        elif r["ell"] is not None:
            problems.append(f"m={m}: ell reported for a composite modulus")
    return problems


_CHECKS = {
    "solve": _check_solve,
    "represent": _check_represent,
    "smooth": _check_smooth,
    "scan": _check_scan,
    "threshold": _check_threshold,
    "coverage": _check_coverage,
    "olson-suite": _check_olson,
    "charsum": _check_charsum,
    "growth": _check_growth,
}


def check(argv, code, body: str) -> list[str]:
    """Problems with one job's exit code and report body (empty when it passed)."""
    command = argv[0]
    if code != 0 and not (code == 3 and command in NEGATIVE_OK):
        return [f"exit {code}"]
    try:
        return _CHECKS[command](argv, code, json.loads(body))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable report: {exc!r}"]
