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
    verify_witness,
)
from reference_scan import full_grid_scan, sampled_scan
from reference_witness import interval_members


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
    left_members = [interval_members(iv).tolist() for iv in inst.left]
    right_members = [interval_members(iv).tolist() for iv in inst.right]
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


# word boundaries of the packed rows (64 bits a word) and the two smallest primes
BOUNDARY_PRIMES = [2, 3, 61, 67, 127, 131, 191, 193, 257]


def scan_case(draw_data):
    p = draw_data.draw(
        st.one_of(st.sampled_from(BOUNDARY_PRIMES), st.sampled_from(primes_in_range(2, 200)))
    )
    lengths = draw_data.draw(
        st.lists(st.integers(1, min(p - 1, 8)), min_size=13, max_size=13)
    )
    return p, lengths


def scan_tuple(p, lengths):
    res = abc_scan(p, lengths)
    return res.total, res.solvable, res.failures, res.failure_count


def grid_blocks(p, *args, window=False):
    """The blocks of `_sum_rows(p, *args)`; with `window`, from the window
    loop, as a block one word short of all p-1 rows leaves the peel no room."""
    with pytest.MonkeyPatch.context() as mp:
        if window:
            mp.setattr(prodcong.solver, "_BLOCK_CELLS", (p - 1) * -(-p // 64) - 1)
        return list(prodcong.solver._sum_rows(p, *args))


def stacked(blocks):
    return np.concatenate([rows for _, rows in blocks])


def sample_tuple(p, lengths, sample, seed):
    res = abc_scan(p, lengths, sample=sample, seed=seed)
    return res.total, res.solvable, res.failures, res.failure_count


class TestGridKernel:
    """The packed-row kernel against the per-b reference scan."""

    @settings(deadline=None)
    @given(st.data())
    def test_full_grid_matches_reference(self, data):
        p, lengths = scan_case(data)
        assert scan_tuple(p, lengths) == full_grid_scan(p, lengths)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_one_row_blocks_match_reference(self, data):
        p, lengths = scan_case(data)
        expected = full_grid_scan(p, lengths)
        # a 1-cell block holds one row and looks up one r at a time; three
        # rows' worth leaves a short last block
        for cells in (1, 3 * -(-p // 64)):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(prodcong.solver, "_BLOCK_CELLS", cells)
                assert scan_tuple(p, lengths) == expected

    def test_dense_grid_at_mid_prime_matches_reference(self):
        # |L| = 135, |R| = 189: many shifts per row, 16 words a row
        lengths = [5] * 13
        assert scan_tuple(1009, lengths) == full_grid_scan(1009, lengths)

    def test_rows_are_exact_bitmasks(self):
        # bit c of row b is [c in L + b*R], with bit 0 and bits >= p clear, on
        # the window loop (any R: it reads R, not the factors) and on the peel
        # (R = {1,2} * {1,2,3} * {1}, given as its factors), over every row
        # and over a subset of rows
        for p in BOUNDARY_PRIMES[2:]:
            left = np.zeros(p, dtype=bool)
            left[[1, 2, 5, p - 1]] = True
            product = np.array([1, 2, 3, 4, 6])
            for right, factors, window in (
                (np.array([1, 3, p - 2]), (1,), True),
                (product, (2, 3, 1), False),
                (product, (2, 3, 1), True),
            ):
                for bs in (np.arange(1, p), np.arange(2, p, 3)):
                    blocks = grid_blocks(p, left, right, bs, factors, window=window)
                    assert np.array_equal(np.concatenate([b for b, _ in blocks]), bs)
                    rows = stacked(blocks)
                    bits = np.unpackbits(rows.astype("<u8").view(np.uint8), bitorder="little")
                    bits = bits.reshape(bs.size, -1)
                    expected = np.zeros_like(bits)
                    for row, b in enumerate(bs.tolist()):
                        sums = (np.flatnonzero(left)[:, None] + b * right[None, :]) % p
                        expected[row, sums.reshape(-1)] = 1
                    expected[:, 0] = 0
                    assert np.array_equal(bits, expected)

    @settings(deadline=None)
    @given(st.data())
    def test_peeled_rows_match_window_rows(self, data):
        # mixed lengths per interval; every prime drawn fits one block, so the
        # peel runs, and must give the window loop's rows bit for bit, and
        # the reference scan's counts
        p, lengths = scan_case(data)
        prod_l, prod_r = prodcong.solver._scan_products(p, lengths)
        args = (prod_l.mask, prod_r.members, np.arange(1, p), lengths[6:])
        peeled = grid_blocks(p, *args)
        assert len(peeled) == 1
        assert np.array_equal(stacked(grid_blocks(p, *args, window=True)), stacked(peeled))
        assert scan_tuple(p, lengths) == full_grid_scan(p, lengths)

    def test_peel_runs_when_gathers_exceed_right(self):
        # 2**5 = 1 mod 31, so R = {1, 2}**7 is {1, 2, 4, 8, 16}: 5 members
        # against the peel's 1 + 7 gathers. The grid still peels and matches
        # the window loop and the reference scan.
        p, lengths = 31, [2] * 13
        prod_l, prod_r = prodcong.solver._scan_products(p, lengths)
        assert prod_r.members.tolist() == [1, 2, 4, 8, 16]
        bs, factors = np.arange(1, p), lengths[6:]
        rows = stacked(grid_blocks(p, prod_l.mask, prod_r.members, bs, factors, window=True))
        # the peel reads the factors, not R: handed R = {1}, it still builds
        # L + b*R, where the window loop would build L + b
        probe = stacked(grid_blocks(p, prod_l.mask, np.array([1]), bs, factors))
        assert np.array_equal(probe, rows)
        assert scan_tuple(p, lengths) == full_grid_scan(p, lengths)

    @pytest.mark.parametrize("p", [2039, 2053])
    def test_one_block_boundary(self, p):
        # 2038 rows of 32 words fit 2**16 words and peel; 2052 rows of 33 do
        # not, and take the window loop block by block
        lengths = [1, 1, 2, 1, 1, 2, 1, 3, 1, 2, 1, 1, 2]
        prod_l, prod_r = prodcong.solver._scan_products(p, lengths)
        args = (prod_l.mask, prod_r.members, np.arange(1, p))
        blocks = grid_blocks(p, *args, lengths[6:])
        assert len(blocks) == (1 if p == 2039 else 2)
        rows = stacked(blocks)
        assert np.array_equal(stacked(grid_blocks(p, *args, lengths[6:], window=True)), rows)
        # factors of 1 describe R = {1}, which only the peel reads: its rows
        # are L + b, while the window loop still builds L + b*R
        probe = stacked(grid_blocks(p, *args, [1] * 7))
        assert np.array_equal(probe, rows) == (p == 2053)
        assert scan_tuple(p, lengths) == full_grid_scan(p, lengths)

    def test_peel_at_largest_one_block_prime_stays_small(self):
        # the peel holds the rows, the rows being ORed and one gathered copy:
        # three blocks of 2038 x 32 words (1.5 MiB), under 2 MiB
        p = 2039
        lengths = [5] * 13
        tracemalloc.start()
        try:
            res = abc_scan(p, lengths)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (res.total, res.solvable, res.failures, res.failure_count) == full_grid_scan(
            p, lengths
        )
        assert peak < 2 * 2**20

    def test_long_interval_keeps_the_window_loop(self):
        # R = {1..1000}: the peel's table of row indices b*i, i <= 1000,
        # would hold 1001 x 2038 int64 (16 MB), more than one block; the rows
        # are built by the window loop instead, in one block of rows and its
        # chunks of window offsets (2.1 MB measured)
        p = 2039
        lengths = [1] * 6 + [1000] + [1] * 6
        tracemalloc.start()
        try:
            res = abc_scan(p, lengths)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (res.total, res.solvable, res.failures, res.failure_count) == full_grid_scan(
            p, lengths
        )
        assert peak < 4 * 2**20

    def test_blocks_stay_within_cap(self):
        p = 10007
        left = np.zeros(p, dtype=bool)
        left[1] = True
        blocks = [rows.shape for _, rows in prodcong.solver._sum_rows(p, left, np.array([1]), np.arange(1, p), [1])]
        assert sum(rows for rows, _ in blocks) == p - 1
        assert max(rows * width for rows, width in blocks) <= prodcong.solver._BLOCK_CELLS

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

    def test_length_five_scan_at_large_prime_stays_small(self):
        # 204 shifts per row over ~10**4 rows of 157 words: the rows are
        # built block by block and never all held
        p = 10007
        tracemalloc.start()
        try:
            res = abc_scan(p, [5] * 13)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 < res.solvable < res.total
        assert len(res.failures) == 20
        assert peak < 8 * 2**20


class TestSampledScan:
    """The chunked sampled scan against the per-pair reference loop."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_matches_per_pair_loop(self, data):
        p, lengths = scan_case(data)
        sample = data.draw(st.integers(1, 600))
        seed = data.draw(st.integers(0, 3))
        expected = sampled_scan(p, lengths, sample, seed)
        assert sample_tuple(p, lengths, sample, seed) == expected
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(prodcong.solver, "_BLOCK_CELLS", 1)
            assert sample_tuple(p, lengths, sample, seed) == expected

    def test_duplicates_counted_and_failures_sorted(self):
        # 400 draws from 16 pairs repeat pairs; every failing draw counts once
        expected = sampled_scan(5, [1] * 13, 400, 7)
        got = sample_tuple(5, [1] * 13, 400, 7)
        assert got == expected
        assert got[3] > len(set(got[2]))
        assert list(got[2]) == sorted(got[2])


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

    def test_curve_matches_per_length_scan_below_200(self):
        # the carried open rows give the curve that rescanning every row
        # gives, with and without a length cap
        for p in primes_in_range(2, 199):
            res = threshold_scan(p)
            rows = [
                (n, abc_scan(p, [n] * 13).solvable) for n in range(1, len(res.curve) + 1)
            ]
            assert [(row.length, row.solvable) for row in res.curve] == rows
            assert res.minimal_len == (len(rows) if rows[-1][1] == (p - 1) ** 2 else None)
            capped = threshold_scan(p, max_len=2)
            assert capped.curve == res.curve[:2]
            assert capped.minimal_len == (res.minimal_len if len(res.curve) <= 2 else None)

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
