"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run `pytest tests/test_acceptance.py -v -s` to see the lines. Criterion 8 is
split: the stabilization/closure/Lagrange law (8a) holds everywhere, while the
recorded depth claim n_stab <= 64 (8b) is falsified by chains generated by
{1, 2} (e.g. m = 67, cutoff 2 stabilizes at step 65 because 2 is a primitive
root mod 67, and m = 1997 needs 1995 steps); 8b is asserted as stated and
fails honestly with the measured maximum.
"""

import json
import time
from itertools import product as iproduct
from math import ceil, gcd, isqrt, prod

import numpy as np
import pytest

from prodcong.arith import build_field_context, floor_power, primes_in_range
from prodcong.charsums import product_energy, product_energy_via_characters
from prodcong.cli import main
from prodcong.growth import (
    build_generator_set,
    olson_bound_check,
    power_set_sequence,
    represent_unit,
)
from prodcong.residues import Interval, ResidueSet, coverage_check, product_set
from prodcong.rng import stream
from prodcong.smooth import build_smooth_table, greedy_factor
from prodcong.solver import SolveInstance, abc_scan, solve, verify_witness
from reference_witness import interval_members


def report(line: str) -> None:
    print(f"ACCEPTANCE {line}", flush=True)


# ---------------------------------------------------------------------------
# Criteria 1 + 2: character identity and the exact Cauchy-Schwarz bound
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def energy_suite():
    gen = stream(101, "acceptance-energy")
    primes = primes_in_range(3, 997)
    instances = []
    start = time.monotonic()
    for _ in range(100):
        p = primes[int(gen.integers(len(primes)))]
        kx = int(gen.integers(1, min(50, p - 1) + 1))
        ky = int(gen.integers(1, min(50, p - 1) + 1))
        units = np.arange(1, p)
        xs = np.sort(gen.choice(units, size=kx, replace=False))
        ys = np.sort(gen.choice(units, size=ky, replace=False))
        ctx = build_field_context(p)
        j_direct = product_energy(xs, ys, p)
        j_char = product_energy_via_characters(ctx, xs, ys)
        card_xy = product_set(
            ResidueSet.from_members(p, xs), ResidueSet.from_members(p, ys)
        ).cardinality
        instances.append((p, kx, ky, j_direct, j_char, card_xy))
    elapsed = time.monotonic() - start
    return instances, elapsed


def test_c01_character_identity_suite(energy_suite):
    instances, elapsed = energy_suite
    assert len(instances) == 100
    for p, _, _, j_direct, j_char, _ in instances:
        assert abs(j_char - j_direct) <= 1e-6 * j_direct, (p, j_direct, j_char)
    assert elapsed < 60.0
    report(f"1 (character identity, 100 instances p<=997, {elapsed:.1f}s < 60s): PASS")


def test_c02_cauchy_schwarz_bound(energy_suite):
    instances, _ = energy_suite
    violations = [
        (p, kx, ky)
        for p, kx, ky, j_direct, _, card_xy in instances
        if card_xy * j_direct < (kx * ky) ** 2
    ]
    assert violations == []
    report("2 (|XY|*J >= |X|^2|Y|^2 exact, 100/100 instances): PASS")


# ---------------------------------------------------------------------------
# Criterion 3: product-sum coverage of the unit group
# ---------------------------------------------------------------------------


def test_c03_coverage_harness():
    gen = stream(103, "acceptance-coverage")
    checked = 0
    for p in (5, 7, 11, 13, 17, 19, 23):
        units = np.arange(1, p)
        for _ in range(1000):
            while True:
                sizes = [int(s) for s in gen.integers(1, p, size=4)]
                if sizes[0] * sizes[1] * sizes[2] * sizes[3] > p**3:
                    break
            sets = [
                ResidueSet.from_members(p, gen.choice(units, size=s, replace=False))
                for s in sizes
            ]
            res = coverage_check(*sets, p)
            assert res.hypothesis_met
            assert res.covers, (p, sizes, res.missing)
            checked += 1
    assert checked == 7000
    report("3 (coverage with |A||B||C||D| > p^3, 7000/7000 covered): PASS")


# ---------------------------------------------------------------------------
# Criterion 4: meet-in-the-middle vs naive full enumeration
# ---------------------------------------------------------------------------


def naive_solve(inst):
    p = inst.p
    left_members = [interval_members(iv).tolist() for iv in inst.left]
    right_members = [interval_members(iv).tolist() for iv in inst.right]
    for lt in iproduct(*left_members):
        lhs = inst.a * prod(lt) % p
        for rt in iproduct(*right_members):
            if (lhs + inst.b * prod(rt)) % p == inst.c:
                return lt + rt
    return None


def test_c04_solver_oracle_equivalence():
    gen = stream(104, "acceptance-solver")
    primes = [11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 79, 83, 89, 97]
    caps = [2] * 20 + [3] * 20 + [6] * 10
    solvable_count = 0
    for index in range(50):
        p = primes[int(gen.integers(len(primes)))]
        while True:
            lens = [int(n) for n in gen.integers(1, caps[index] + 1, size=13)]
            if prod(lens) <= 10**6:
                break
        intervals = []
        for n in lens:
            while True:
                iv = Interval(int(gen.integers(0, p)), n, p)
                if not iv.contains_zero:
                    intervals.append(iv)
                    break
        a, b, c = (int(v) for v in gen.integers(1, p, size=3))
        inst = SolveInstance(p, a, b, c, tuple(intervals[:6]), tuple(intervals[6:]))
        assert prod(len(iv) for iv in inst.intervals) <= 10**6
        expected = naive_solve(inst)
        got = solve(inst)
        assert got.solvable == (expected is not None), (index, p, lens)
        if got.solvable:
            solvable_count += 1
            assert verify_witness(inst, got.witness)
            assert verify_witness(inst, expected)
    report(f"4 (solver vs naive enumeration, 50/50 agree, {solvable_count} solvable): PASS")


# ---------------------------------------------------------------------------
# Criterion 5: solvable fractions at length ~p^0.35, full length is 100%
# ---------------------------------------------------------------------------


def test_c05_short_interval_fractions():
    start = time.monotonic()
    lines = []
    for p in (101, 181, 281, 389, 499):
        n = ceil(p**0.35)
        soft = abc_scan(p, [n] * 13, sample=100, seed=105)
        hard = abc_scan(p, [p - 1] * 13, sample=100, seed=105)
        assert hard.fraction == 1.0, (p, hard.fraction)
        lines.append(f"p={p} len={n} fraction={soft.fraction:.2f}")
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    report(
        f"5 (soft fractions at len=ceil(p^0.35): {'; '.join(lines)}; "
        f"full-length rows 100% solvable, {elapsed:.1f}s < 300s): PASS"
    )


# ---------------------------------------------------------------------------
# Criterion 6: smooth units land in the fifth power set
# ---------------------------------------------------------------------------


def test_c06_smooth_inclusion(capsys):
    # each m's smooth units are split in one greedy_factor call; every check
    # still applies to every x, and the count is checked against the CLI sieve
    table = build_smooth_table(2000)
    checked = 0
    for m in range(100, 2001):
        gen = build_generator_set(m, 0.5)
        a5 = power_set_sequence(gen, n_max=5, with_witness=False).stable
        xs = np.arange(1, m + 1, dtype=np.int64)
        eligible = (table.lpf[1 : m + 1] ** 2 <= m) & (np.gcd(xs, m) == 1)
        members = xs[eligible]
        parts, k, ok = greedy_factor(members, m, 0.5, 0.5, table=table)
        assert ok.all(), (m, members[~ok])
        assert (k <= 5).all(), (m, members[k > 5])
        in_base = (gen.base.mask[parts] | (np.arange(parts.shape[1]) >= k[:, None])).all(axis=1)
        assert in_base.all(), (m, members[~in_base])
        in_a5 = a5.mask[members % m]
        assert in_a5.all(), (m, members[~in_a5])
        checked += len(members)
        assert main(["smooth", "--m", str(m), "--c0", "0.5"]) == 0
        assert len(members) == json.loads(capsys.readouterr().out)["rows"][0]["psi_coprime"]
        assert a5.cardinality >= len(members)
    report(f"6 (smooth units inside A^5 for m in [100,2000], {checked} checks, 0 failures): PASS")


# ---------------------------------------------------------------------------
# Criterion 7: exhaustive greedy factorization suite
# ---------------------------------------------------------------------------


def test_c07_greedy_factorization_suite():
    # each m's eligible x are split in one greedy_factor call, and every
    # assertion is applied to every row
    table = build_smooth_table(10**4)
    checked = 0
    max_k = 0
    for m in range(2, 10**4 + 1):
        cap = isqrt(m)
        xs = np.arange(1, m + 1, dtype=np.int64)
        eligible = (table.lpf[1 : m + 1] ** 2 <= m) & (np.gcd(xs, m) == 1)
        xs = xs[eligible]
        parts, k, ok = greedy_factor(xs, m, 0.5, 0.5, table=table)
        assert ok.all(), (m, xs[~ok])
        assert (parts.prod(axis=1) == xs).all(), m
        assert (parts[:, 0] <= cap).all(), m
        cols = np.arange(parts.shape[1])
        later = (cols >= 1) & (cols < k[:, None])
        # m^(1/4) <= part <= m^(1/2) for every part after the first
        assert (~later | ((parts**4 >= m) & (parts**2 <= m))).all(), m
        assert (k <= 5).all(), m
        max_k = max(max_k, int(k.max()))
        checked += len(xs)
    report(f"7 (greedy suite exhaustive m<=1e4, {checked} factorizations, max k={max_k} <= 5): PASS")


# ---------------------------------------------------------------------------
# Criterion 8: stabilization = closure, Lagrange, and the recorded depth claim
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def growth_sweep():
    results = []
    for m in range(2, 2001):
        for cutoff in sorted({2, floor_power(m, 0.3), floor_power(m, 0.5)}):
            gen = build_generator_set(m, cutoff=cutoff)
            if gen.base.cardinality <= 1:
                continue
            rep = power_set_sequence(gen, n_max=4096, with_witness=False)
            results.append((m, cutoff, rep))
    return results


def test_c08a_stabilization_closure_lagrange(growth_sweep):
    failures = []
    max_seen = (0, None, None)
    for m, cutoff, rep in growth_sweep:
        if not (rep.stabilized and rep.phi % rep.subgroup_order == 0):
            failures.append((m, cutoff))
        elif rep.n_stab > max_seen[0]:
            max_seen = (rep.n_stab, m, cutoff)
    assert failures == []
    report(
        f"8a (stabilized set closed + Lagrange, {len(growth_sweep)} runs, 0 failures; "
        f"max observed n_stab={max_seen[0]} at m={max_seen[1]}, cutoff={max_seen[2]}): PASS"
    )


def test_c08b_stabilization_depth_claim(growth_sweep):
    over = [(m, cutoff, rep.n_stab) for m, cutoff, rep in growth_sweep if rep.n_stab > 64]
    max_n = max((rep.n_stab for _, _, rep in growth_sweep), default=0)
    line = (
        f"8b (claimed n_stab <= 64 everywhere): FAIL - max observed n_stab={max_n}, "
        f"{len(over)} runs exceed 64, first counterexample m={over[0][0]} "
        f"cutoff={over[0][1]} n_stab={over[0][2]}"
        if over
        else "8b (n_stab <= 64 everywhere): PASS"
    )
    report(line)
    assert max_n <= 64, (
        f"max n_stab={max_n}; {len(over)} of {len(growth_sweep)} runs exceed 64 "
        f"(first: m={over[0][0]}, cutoff={over[0][1]}, n_stab={over[0][2]}); "
        "cyclic chains generated by {1, 2} need ord_m(2) - 1 steps"
    )


# ---------------------------------------------------------------------------
# Criterion 9: basis-order bound suite
# ---------------------------------------------------------------------------


def test_c09_olson_suite():
    gen = stream(109, "acceptance-olson")
    ok = 0
    for _ in range(200):
        m = int(gen.integers(2, 501))
        units = [x for x in range(1, m) if gcd(x, m) == 1] or [1 % m]
        extra = int(gen.integers(0, len(units)))
        chosen = gen.choice(np.array(units), size=extra, replace=False) if extra else []
        x = ResidueSet.from_members(m, sorted({1, *map(int, chosen)}))
        check = olson_bound_check(x)
        assert check.h_actual <= max(check.h_bound, 1), (m, check)
        ok += 1
    assert ok == 200
    report("9 (basis order <= max{2, 2|G|/|X|-1}, 200/200): PASS")


# ---------------------------------------------------------------------------
# Criterion 10: constructive representations
# ---------------------------------------------------------------------------


def test_c10_representations():
    unit_count = 0
    for m in range(100, 1001):
        gen = build_generator_set(m, 0.4)
        if gen.base.cardinality <= 1:
            continue
        rep = represent_unit(m, 0.4, n_max=4096)
        rep.verify()
        assert rep.factors[0] != 1
        unit_count += 1

    target_count = 0
    ell_values = set()
    for p in primes_in_range(100, 500):
        report_p = power_set_sequence(build_generator_set(p, 0.3), n_max=4096)
        assert (p - 1) % report_p.ell == 0
        ell_values.add(report_p.ell)
        if report_p.ell <= 2:
            residues = sorted({pow(x, 2, p) for x in range(1, p)})
            for lam in residues:
                rep = report_p.represent(lam)
                rep.verify()
                target_count += 1
    report(
        f"10 (representations: {unit_count} unit products verified; "
        f"{target_count} quadratic-residue targets verified; ell values {sorted(ell_values)}): PASS"
    )


# ---------------------------------------------------------------------------
# Criterion 11: byte determinism of every command
# ---------------------------------------------------------------------------


def test_c11_byte_determinism(tmp_path):
    cases = [
        ["solve", "--p", "13", "--a", "1", "--b", "1", "--c", "5", "--len", "2"],
        ["scan", "--p", "101", "--len", "3", "--sample", "50", "--seed", "42", "--format", "csv"],
        ["threshold", "--p", "7", "--format", "csv"],
        ["growth", "--m-min", "50", "--m-max", "80", "--c", "0.5", "--format", "csv"],
        ["charsum", "--p", "31", "--len", "5"],
        ["smooth", "--m", "500", "--c0", "0.5", "--check-greedy", "--format", "csv"],
        ["coverage", "--p", "7", "--random", "100", "--seed", "1"],
        ["represent", "--m", "7", "--target", "1", "--cutoff", "2"],
        ["olson-suite", "--count", "25", "--m-max", "100", "--seed", "5", "--format", "csv"],
    ]
    for index, args in enumerate(cases):
        first = tmp_path / f"{index}_a.out"
        second = tmp_path / f"{index}_b.out"
        code1 = main(args + ["--out", str(first)])
        code2 = main(args + ["--out", str(second)])
        assert code1 == code2
        assert first.read_bytes() == second.read_bytes(), args
    report(f"11 (byte-identical reports for {len(cases)} commands x 2 runs): PASS")
