import tracemalloc
from itertools import product as iproduct
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prodcong.solver
from prodcong.arith import primes_in_range
from prodcong.cli import main
from prodcong.errors import DomainError
from prodcong.residues import Interval
from prodcong.rng import stream
from prodcong.solver import (
    SolveInstance,
    abc_scan,
    solve,
    threshold_scan,
    twelve_interval_instance,
    verify_witness,
)
from reference_scan import full_grid_scan


def prefix(n, p):
    return Interval(0, n, p)


def instance(p, a, b, c, left_lens, right_lens, left_offsets=None, right_offsets=None):
    lo = left_offsets or [0] * 6
    ro = right_offsets or [0] * 7
    return SolveInstance(
        p,
        a,
        b,
        c,
        tuple(Interval(o, n, p) for o, n in zip(lo, left_lens)),
        tuple(Interval(o, n, p) for o, n in zip(ro, right_lens)),
    )


def naive_solve(inst):
    """Literal full enumeration over the 13-dimensional box."""
    p = inst.p
    left_members = [iv.members().tolist() for iv in inst.left]
    right_members = [iv.members().tolist() for iv in inst.right]
    for lt in iproduct(*left_members):
        lhs = inst.a * prod(lt) % p
        for rt in iproduct(*right_members):
            if (lhs + inst.b * prod(rt)) % p == inst.c:
                return lt + rt
    return None


def random_instance(gen, primes):
    p = int(primes[int(gen.integers(len(primes)))])
    while True:
        lens = [int(n) for n in gen.integers(1, 4, size=13)]
        if prod(lens) <= 10**6:
            break
    intervals = []
    for n in lens:
        while True:
            off = int(gen.integers(0, p))
            iv = Interval(off, n, p)
            if not iv.contains_zero:
                intervals.append(iv)
                break
    a, b, c = (int(v) for v in gen.integers(1, p, size=3))
    return SolveInstance(p, a, b, c, tuple(intervals[:6]), tuple(intervals[6:]))


class TestSolveExamples:
    def test_all_ones_solvable(self):
        inst = instance(13, 1, 1, 2, [1] * 6, [1] * 7)
        report = solve(inst)
        assert report.solvable
        assert report.witness == (1,) * 13
        assert report.left_card == report.right_card == 1

    def test_all_ones_unsolvable(self):
        inst = instance(5, 1, 1, 3, [1] * 6, [1] * 7)
        report = solve(inst)
        assert not report.solvable and report.witness is None

    def test_negative_answers_survive_membership_recheck(self):
        # an unsolvable verdict means no left product can be completed:
        # walk every left product and ask the right set directly
        from prodcong.residues import iterated_interval_product

        gen = stream(23, "solver-negative-recheck")
        seen_negative = 0
        for trial in range(40):
            p = 29 if trial % 2 else 53
            lens = [1] * 13 if trial % 2 else [2, 1, 1, 1, 1, 1] + [1] * 6 + [2]
            intervals = []
            for n in lens:
                while True:
                    iv = Interval(int(gen.integers(0, p)), n, p)
                    if not iv.contains_zero:
                        intervals.append(iv)
                        break
            a, b, c = (int(v) for v in gen.integers(1, p, size=3))
            inst = SolveInstance(p, a, b, c, tuple(intervals[:6]), tuple(intervals[6:]))
            report = solve(inst)
            if report.solvable:
                continue
            seen_negative += 1
            prod_l = iterated_interval_product(inst.left)
            prod_r = iterated_interval_product(inst.right)
            b_inv = pow(inst.b, -1, p)
            for u in prod_l.members.tolist():
                needed = (inst.c - inst.a * u) * b_inv % p
                assert needed not in prod_r
        assert seen_negative >= 20

    def test_pairs_on_left(self):
        inst = instance(13, 1, 1, 5, [2] * 6, [1] * 7)
        report = solve(inst)
        assert report.solvable
        assert verify_witness(inst, report.witness)
        # six-fold products of {1,2} mod 13
        assert report.left_card == 7 and report.right_card == 1
        # the hand-derived witness also verifies
        assert verify_witness(inst, (1, 1, 2, 2, 1, 1) + (1,) * 7)

    def test_validation_errors(self):
        with pytest.raises(DomainError, match="prime"):
            instance(4, 1, 1, 2, [1] * 6, [1] * 7)
        with pytest.raises(DomainError):
            instance(5, 0, 1, 3, [1] * 6, [1] * 7)
        with pytest.raises(DomainError):
            instance(5, 1, 1, 3, [1] * 5, [1] * 8)
        with pytest.raises(DomainError, match="avoid 0"):
            instance(5, 1, 1, 3, [1] * 6, [1] * 7, left_offsets=[4, 0, 0, 0, 0, 0])


class TestVerifyWitness:
    def test_false_for_wrong_congruence(self):
        inst = instance(5, 1, 1, 3, [1] * 6, [1] * 7)
        assert verify_witness(inst, (1,) * 13) is False

    def test_coordinate_outside_interval(self):
        inst = instance(13, 1, 1, 2, [1] * 6, [1] * 7)
        with pytest.raises(DomainError, match="outside"):
            verify_witness(inst, (2,) + (1,) * 12)

    def test_wrong_arity(self):
        inst = instance(13, 1, 1, 2, [1] * 6, [1] * 7)
        with pytest.raises(DomainError):
            verify_witness(inst, (1,) * 12)


class TestOracleAgreement:
    def test_agrees_with_naive_enumeration(self):
        gen = stream(17, "solver-oracle-small")
        primes = [11, 13, 17, 19, 23, 29]
        for _ in range(12):
            inst = random_instance(gen, primes)
            expected = naive_solve(inst)
            report = solve(inst)
            assert report.solvable == (expected is not None)
            if report.solvable:
                assert verify_witness(inst, report.witness)
                assert verify_witness(inst, expected)

    def test_scaling_invariance(self):
        gen = stream(19, "solver-scaling")
        primes = [11, 13, 17]
        for _ in range(8):
            inst = random_instance(gen, primes)
            base = solve(inst)
            for t in (2, int(gen.integers(1, inst.p))):
                scaled = SolveInstance(
                    inst.p,
                    inst.a * t % inst.p,
                    inst.b * t % inst.p,
                    inst.c * t % inst.p,
                    inst.left,
                    inst.right,
                )
                got = solve(scaled)
                assert got.solvable == base.solvable
                if base.solvable:
                    assert verify_witness(scaled, base.witness)
                    assert verify_witness(inst, got.witness)

    def test_side_permutation_keeps_cards(self):
        inst = instance(
            31, 3, 5, 7, [2, 3, 1, 2, 1, 4], [1, 2, 3, 1, 2, 1, 3],
            left_offsets=[0, 4, 2, 0, 7, 1], right_offsets=[0, 2, 5, 0, 3, 9, 0],
        )
        base = solve(inst)
        for _ in range(3):
            left = tuple(reversed(inst.left))
            right = inst.right[3:] + inst.right[:3]
            shuffled = SolveInstance(inst.p, inst.a, inst.b, inst.c, left, right)
            got = solve(shuffled)
            assert (got.left_card, got.right_card) == (base.left_card, base.right_card)
            assert got.solvable == base.solvable
            inst = shuffled

    @pytest.mark.parametrize("p", [5, 7])
    def test_full_length_always_solvable(self, p):
        res = abc_scan(p, [p - 1] * 13)
        assert res.fraction == 1.0
        for a in (1, 2):
            inst = instance(p, a, p - 1, 3, [p - 1] * 6, [p - 1] * 7)
            assert solve(inst).solvable


class TestAbcScan:
    def test_full_units_scan_mod_five(self):
        res = abc_scan(5, [4] * 13)
        assert (res.total, res.solvable, res.fraction) == (16, 16, 1.0)
        assert res.failure_count == 0

    def test_singleton_lengths_mod_seven(self):
        # direct formula: a=1, all intervals {1}: solvable iff c == 1 + b,
        # and b = 6 forces c == 0 which is excluded, so 5 of 36 pairs work
        expected = {(b, (1 + b) % 7) for b in range(1, 7)} - {(6, 0)}
        res = abc_scan(7, [1] * 13)
        assert res.total == 36
        assert res.solvable == len(expected) == 5
        assert res.fraction == pytest.approx(5 / 36)
        assert res.failure_count == 36 - 5

    def test_failures_are_real(self):
        res = abc_scan(7, [1] * 13)
        for a, b, c in res.failures:
            inst = instance(7, a, b, c, [1] * 6, [1] * 7)
            assert not solve(inst).solvable

    def test_sampled_scan_is_deterministic(self):
        one = abc_scan(101, [3] * 13, sample=50, seed=42)
        two = abc_scan(101, [3] * 13, sample=50, seed=42)
        assert one == two
        other_seed = abc_scan(101, [3] * 13, sample=50, seed=43)
        assert other_seed.total == 50

    def test_sampled_matches_full_on_tiny_prime(self):
        full = abc_scan(5, [2] * 13)
        sampled = abc_scan(5, [2] * 13, sample=400, seed=7)
        assert abs(sampled.fraction - full.fraction) < 0.25

    def test_length_validation(self):
        with pytest.raises(DomainError):
            abc_scan(5, [5] * 13)
        with pytest.raises(DomainError):
            abc_scan(5, [1] * 12)


def scan_case(draw_data):
    p = draw_data.draw(st.sampled_from(primes_in_range(2, 200)))
    lengths = draw_data.draw(
        st.lists(st.integers(1, min(p - 1, 8)), min_size=13, max_size=13)
    )
    return p, lengths


def scan_tuple(p, lengths):
    res = abc_scan(p, lengths)
    return res.total, res.solvable, res.failures, res.failure_count


def refuse(*args):
    raise AssertionError("this path must not run here")


class TestGridKernel:
    """The block kernel against the per-b reference scan."""

    @settings(deadline=None)
    @given(st.data())
    def test_full_grid_matches_reference(self, data):
        p, lengths = scan_case(data)
        assert scan_tuple(p, lengths) == full_grid_scan(p, lengths)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_each_path_and_block_size_matches_reference(self, data):
        p, lengths = scan_case(data)
        expected = full_grid_scan(p, lengths)
        # speedup 0 forces the direct path and a huge one the count path;
        # a 1-cell cap gives 1-row blocks (and 1-column circulant blocks)
        for speedup in (0, 1 << 40):
            for cells in (1, 2 * p + 1, p * p):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(prodcong.solver, "_BLAS_SPEEDUP", speedup)
                    mp.setattr(prodcong.solver, "_DIRECT_CELLS", cells)
                    mp.setattr(prodcong.solver, "_COUNT_CELLS", cells)
                    assert scan_tuple(p, lengths) == expected

    def test_count_path_at_default_rule(self, monkeypatch):
        # |L||R| = 135 * 189 is far above p**2 / 256 here
        monkeypatch.setattr(prodcong.solver, "_direct_blocks", refuse)
        lengths = [5] * 13
        assert scan_tuple(1009, lengths) == full_grid_scan(1009, lengths)

    def test_large_primes_fall_back_to_direct(self, monkeypatch):
        monkeypatch.setattr(prodcong.solver, "_BLAS_SPEEDUP", 1 << 40)
        monkeypatch.setattr(prodcong.solver, "_FLOAT32_EXACT", 97)
        monkeypatch.setattr(prodcong.solver, "_count_blocks", refuse)
        lengths = [2] * 6 + [3] * 7
        assert scan_tuple(97, lengths) == full_grid_scan(97, lengths)


    def test_direct_blocks_stay_within_cap_for_short_lengths(self):
        # L = R = {1}: a row's table is one cell, so only the 2p-wide mask
        # can bound the block, and every b would fit in one block otherwise
        p = 10007
        one = np.array([1])
        cap = prodcong.solver._DIRECT_CELLS
        rows = [ok.shape[0] for _, ok in prodcong.solver._direct_blocks(p, one, one)]
        assert sum(rows) == p - 1
        assert max(rows) * 2 * p <= cap

    def test_short_length_scan_at_large_prime_stays_small(self):
        # only c = 1 + b is solvable; the grid has ~10**8 cells and ~10**8
        # failures, none of which may be held at once
        p = 10007
        tracemalloc.start()
        try:
            res = abc_scan(p, [1] * 13)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.solvable == p - 2
        assert res.failure_count == (p - 1) ** 2 - (p - 2)
        assert res.failures == tuple((1, 1, c) for c in range(1, 22) if c != 2)
        assert peak < 16 * 2**20

class TestScanSolveConsistency:
    def test_full_grid_matches_individual_solves(self):
        # the scan's vectorized decision and the witnessed solver must agree
        # on every coefficient pair
        p = 11
        lens = [2, 1, 2, 1, 1, 1, 1, 2, 1, 1, 1, 1, 2]
        res = abc_scan(p, lens)
        solvable = 0
        for b in range(1, p):
            for c in range(1, p):
                inst = instance(p, 1, b, c, lens[:6], lens[6:])
                rep = solve(inst)
                solvable += rep.solvable
                if rep.solvable:
                    assert verify_witness(inst, rep.witness)
        assert solvable == res.solvable
        assert res.total == (p - 1) ** 2


class TestThresholdScan:
    def test_mod_five(self):
        res = threshold_scan(5)
        assert res.minimal_len is not None and res.minimal_len <= 4
        assert res.curve[-1].fraction == 1.0
        assert [row.length for row in res.curve] == list(range(1, res.minimal_len + 1))

    def test_mod_three(self):
        res = threshold_scan(3)
        assert res.minimal_len is not None and res.minimal_len <= 2

    def test_curve_matches_scan(self):
        res = threshold_scan(7)
        for row in res.curve:
            again = abc_scan(7, [row.length] * 13)
            assert (again.total, again.solvable) == (row.total, row.solvable)

    def test_worst_case_length_always_succeeds(self):
        for p in (3, 5, 7, 11):
            assert abc_scan(p, [p - 1] * 13).fraction == 1.0

    def test_solvable_count_nondecreasing(self):
        # nested intervals nest L_n and R_n, so the count never drops: checked
        # on the threshold curve and on every length after it, up to p - 1
        for p in primes_in_range(2, 59):
            curve = threshold_scan(p).curve
            counts = [row.solvable for row in curve]
            counts += [abc_scan(p, [n] * 13).solvable for n in range(len(curve) + 1, p)]
            assert len(counts) == p - 1
            assert counts == sorted(counts)

    def test_empty_curve_rejected(self):
        with pytest.raises(DomainError, match="max_len"):
            threshold_scan(7, max_len=0)


class TestAnchoredVariant:
    def test_singleton_tail_reduces(self):
        # the tail {1} contributes the factor 1, so the decision is the
        # 12-interval one, which the enumeration below makes directly
        inst = instance(13, 1, 1, 5, [2] * 6, [1] * 7)
        assert solve(inst).solvable == (naive_solve(inst) is not None)

    def test_superset_tail_still_solvable(self):
        inst = instance(13, 1, 1, 5, [2] * 6, [1] * 6 + [2])
        report = solve(inst)
        assert report.solvable
        assert verify_witness(inst, report.witness)

    def test_tail_without_one_rejected(self, capsys):
        specs = ",".join(["0:2"] * 6 + ["0:1"] * 6 + ["1:2"])
        argv = ["solve", "--p", "13", "--a", "1", "--b", "1", "--c", "5", "--intervals", specs]
        assert main(argv + ["--anchored"]) == 2
        assert "contain 1" in capsys.readouterr().err
        assert main(argv) == 0  # the same instance without --anchored is decided

    def test_twelve_interval_preset(self):
        inst = twelve_interval_instance(101, 3, 5, 7, base_len=9, eps=0.4)
        assert 1 in inst.right[-1]
        assert len(inst.right[-2]) >= len(inst.right[-1])
        report = solve(inst)
        assert report.solvable
        assert verify_witness(inst, report.witness)
