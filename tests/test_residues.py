import tracemalloc
from collections import Counter
from itertools import permutations
from math import gcd, inf, prod

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import prodcong.residues
from prodcong import arith
from prodcong.arith import TABLE_CAP_ENV, build_field_context, primes_in_range
from prodcong.errors import DomainError
from prodcong.residues import (
    Interval,
    ResidueSet,
    _dlog_product_mask,
    _exponent_sum,
    _pairwise_mask,
    _sum_path,
    _table_mask,
    coverage_check,
    iterated_interval_product,
    product_set,
    sum_set,
    units_mask,
)
from prodcong.rng import stream
from prodcong.solver import SolveInstance, solve, verify_witness
from reference_witness import check_witnesses, interval_members, interval_product_witnesses


def brute_product(m, xs, ys):
    return {x * y % m for x in xs for y in ys}


def brute_sum(m, xs, ys):
    return {(x + y) % m for x in xs for y in ys}


def members(s) -> set:
    return set(s.members.tolist())


small_modulus = st.integers(min_value=2, max_value=499)
composite_modulus = st.integers(min_value=4, max_value=300).filter(
    lambda m: any(m % d == 0 for d in range(2, int(m**0.5) + 1))
)


@st.composite
def modulus_and_sets(draw, count=2):
    m = draw(small_modulus)
    sets = []
    for _ in range(count):
        size = draw(st.integers(min_value=1, max_value=min(m, 12)))
        mems = draw(
            st.lists(
                st.integers(min_value=0, max_value=m - 1),
                min_size=size,
                max_size=size,
            )
        )
        sets.append(ResidueSet.from_members(m, mems))
    return m, sets


class TestInterval:
    def test_wrap_example(self):
        iv = Interval(5, 4, 7)
        assert members(iv.to_set()) == {6, 0, 1, 2}
        assert len(iv.to_set()) == 4

    def test_full_ring(self):
        iv = Interval(0, 7, 7)
        assert members(iv.to_set()) == set(range(7))

    def test_prefix(self):
        assert members(Interval(0, 3, 13).to_set()) == {1, 2, 3}

    def test_membership_and_zero(self):
        iv = Interval(5, 4, 7)
        assert 6 in iv and 0 in iv and 3 not in iv
        assert iv.contains_zero
        assert not Interval(0, 3, 13).contains_zero

    def test_invalid_length(self):
        with pytest.raises(DomainError):
            Interval(0, 0, 7)
        with pytest.raises(DomainError):
            Interval(0, 8, 7)

    @given(st.integers(min_value=1, max_value=97), st.data())
    def test_to_set_matches_definition(self, m, data):
        offset = data.draw(st.integers(min_value=-2 * m, max_value=2 * m))
        length = data.draw(st.integers(min_value=1, max_value=m))
        iv = Interval(offset, length, m)
        expected = {(offset + i) % m for i in range(1, length + 1)}
        assert members(iv.to_set()) == expected
        assert iv.to_set().cardinality == length  # wrap never duplicates


class TestKernels:
    def test_product_example(self):
        s = ResidueSet.from_members(11, [1, 2])
        assert members(product_set(s, s)) == {1, 2, 4}

    def test_product_identity_and_absorbing(self):
        t = ResidueSet.from_members(7, [2, 3, 5])
        one = ResidueSet.from_members(7, [1])
        zero = ResidueSet.from_members(7, [0])
        units = ResidueSet.from_members(7, range(1, 7))
        assert product_set(one, t) == t
        assert members(product_set(zero, units)) == {0}

    def test_sum_example(self):
        s = ResidueSet.from_members(5, [1, 2, 4])
        assert members(sum_set(s, s)) == {0, 1, 2, 3, 4}
        zero = ResidueSet.from_members(5, [0])
        assert sum_set(zero, s) == s
        assert members(sum_set(ResidueSet.from_members(2, [1]), ResidueSet.from_members(2, [1]))) == {0}

    def test_modulus_mismatch(self):
        with pytest.raises(DomainError):
            product_set(ResidueSet.from_members(5, [1]), ResidueSet.from_members(7, [1]))
        with pytest.raises(DomainError):
            sum_set(ResidueSet.from_members(5, [1]), ResidueSet.from_members(7, [1]))

    @given(modulus_and_sets(count=2))
    def test_product_and_sum_match_bruteforce(self, case):
        m, (s, t) = case
        assert members(product_set(s, t)) == brute_product(m, members(s), members(t))
        assert members(sum_set(s, t)) == brute_sum(m, members(s), members(t))

    @given(modulus_and_sets(count=3))
    def test_commutative_associative(self, case):
        _, (s, t, u) = case
        assert product_set(s, t) == product_set(t, s)
        assert sum_set(s, t) == sum_set(t, s)
        assert product_set(product_set(s, t), u) == product_set(s, product_set(t, u))
        assert sum_set(sum_set(s, t), u) == sum_set(s, sum_set(t, u))

    @given(modulus_and_sets(count=2))
    def test_one_in_both_gives_union_inclusion(self, case):
        m, (s, t) = case
        s1 = ResidueSet.from_members(m, list(members(s)) + [1 % m])
        t1 = ResidueSet.from_members(m, list(members(t)) + [1 % m])
        assert members(s1) | members(t1) <= members(product_set(s1, t1))

    @given(st.integers(min_value=2, max_value=60), st.data())
    def test_chunk_boundaries_match_bruteforce(self, m, data):
        s, t = (
            ResidueSet.from_members(
                m, data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m))
            )
            for _ in range(2)
        )
        xs, ys = members(s), members(t)
        for cells in (1, 2, 3, 7, 64):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(prodcong.residues, "_CHUNK_CELLS", cells)
                assert members(product_set(s, t)) == brute_product(m, xs, ys)
                assert members(sum_set(s, t)) == brute_sum(m, xs, ys)


class TestPigeonhole:
    """sum_set fills Z_m, and the product kernel the units, without a table
    past the pigeonhole bound; at the bound and one past it the results must
    still equal brute force."""

    MODULI = [7, 12, 30, 101, 105]

    @pytest.mark.parametrize("m", MODULI)
    @pytest.mark.parametrize("excess", [0, 1])
    def test_sum_at_and_past_bound(self, monkeypatch, m, excess):
        # sum_set's own pigeonhole: one past the bound no table runs, at the
        # bound exactly one
        tables = count_calls(monkeypatch, "_table_mask")
        gen = stream(m, f"pigeonhole-sum-{excess}")
        for _ in range(25):
            size_s = int(gen.integers(1, m + excess))
            xs = {int(x) for x in gen.choice(m, size_s, replace=False)}
            ys = {int(y) for y in gen.choice(m, m + excess - size_s, replace=False)}
            before = len(tables)
            got = sum_set(ResidueSet.from_members(m, xs), ResidueSet.from_members(m, ys))
            assert len(tables) - before == 1 - excess
            assert members(got) == brute_sum(m, xs, ys)
            if excess:
                assert got.cardinality == m

    @pytest.mark.parametrize("m", MODULI)
    @pytest.mark.parametrize("excess", [0, 1])
    def test_product_at_and_past_bound(self, m, excess):
        units = [x for x in range(m) if gcd(x, m) == 1]
        non_units = [x for x in range(m) if gcd(x, m) != 1]  # holds 0
        phi = len(units)
        gen = stream(m, f"pigeonhole-product-{excess}")
        for _ in range(25):
            count_s = int(gen.integers(excess, phi + 1))
            operands = []
            for count in (count_s, phi + excess - count_s):
                extra = int(gen.integers(0, len(non_units) + 1))
                chosen = {int(x) for x in gen.choice(units, count, replace=False)}
                chosen |= {int(x) for x in gen.choice(non_units, extra, replace=False)}
                operands.append(chosen or {0})
            xs, ys = operands
            got = product_set(ResidueSet.from_members(m, xs), ResidueSet.from_members(m, ys))
            assert members(got) == brute_product(m, xs, ys)
            if excess:
                assert set(units) <= members(got)

    @pytest.mark.parametrize("m", MODULI)
    def test_unit_products_past_bound_build_no_table(self, monkeypatch, m):
        # both operands all units, one past phi(m) together: the products are
        # every unit, and the table calls for the non-unit parts get no cells
        units = [x for x in range(m) if gcd(x, m) == 1]
        phi = len(units)
        tables = count_calls(monkeypatch, "_table_mask")
        gen = stream(m, "pigeonhole-unit-products")
        for _ in range(25):
            count_s = int(gen.integers(1, phi + 1))
            xs, ys = (
                {int(x) for x in gen.choice(units, count, replace=False)}
                for count in (count_s, phi + 1 - count_s)
            )
            got = product_set(ResidueSet.from_members(m, xs), ResidueSet.from_members(m, ys))
            assert members(got) == set(units) == brute_product(m, xs, ys)
        assert [args for args in tables if args[1].size and args[2].size] == []

    @pytest.mark.parametrize("m", MODULI)
    def test_empty_non_unit_parts_build_nothing(self, monkeypatch, m):
        # past the bound a non-unit part is multiplied only when both of its
        # sides have members: all units on both sides call no table at all,
        # and 0 in one operand calls exactly one
        units = [x for x in range(m) if gcd(x, m) == 1]
        tables = count_calls(monkeypatch, "_table_mask")
        left = ResidueSet.from_members(m, units)
        right = ResidueSet.from_members(m, units[:1])
        assert members(product_set(left, right)) == set(units)
        assert tables == []
        with_zero = ResidueSet.from_members(m, units[:1] + [0])
        assert members(product_set(left, with_zero)) == set(units) | {0}
        assert len(tables) == 1

    def test_bounds_are_sharp(self):
        # at the bound the short cut must not fire: these sets miss residues
        s = ResidueSet.from_members(12, range(6))
        assert members(sum_set(s, s)) == set(range(11))
        squares = ResidueSet.from_members(7, [0, 1, 2, 4])  # 0 and a subgroup of index 2
        assert members(product_set(squares, squares)) == {0, 1, 2, 4}
        odd = ResidueSet.from_members(30, [1, 11, 19, 29, 0, 6])  # four units: {+-1, +-11}
        assert members(product_set(odd, odd)) == brute_product(30, members(odd), members(odd))
        assert 7 not in members(product_set(odd, odd))


PRIMES_BELOW_200 = primes_in_range(2, 199)


@st.composite
def prime_operands(draw):
    """A prime p < 200 and two operands, each with 0 added or not: a random set
    of units, the empty set, a singleton, the full unit group, a subgroup of
    index 1..6, a coset of one, or an arithmetic progression. A subgroup times
    itself puts |H| in every count of the convolution."""
    p = draw(st.sampled_from(PRIMES_BELOW_200))
    units = np.arange(1, p)

    def operand():
        kind = draw(
            st.sampled_from(
                ["units", "empty", "singleton", "group", "subgroup", "coset", "progression"]
            )
        )
        if kind == "units":
            xs = set(draw(st.lists(st.integers(1, p - 1), max_size=p)))
        elif kind == "singleton":
            xs = {draw(st.integers(0, p - 1))}
        elif kind in ("subgroup", "coset"):
            index = draw(st.sampled_from([k for k in range(1, 7) if (p - 1) % k == 0]))
            found = units[build_field_context(p).dlog[units] % index == 0]
            if kind == "coset":
                found = found * draw(st.integers(1, p - 1)) % p
            xs = set(found.tolist())
        elif kind == "progression":
            start = draw(st.integers(0, p - 1))
            step = draw(st.integers(1, p - 1))
            found = (start + step * np.arange(draw(st.integers(1, p - 1)))) % p
            xs = set(found[found != 0].tolist())
        else:
            xs = set(range(1, p)) if kind == "group" else set()
        if draw(st.booleans()):
            xs.add(0)
        return xs

    return p, operand(), operand()


def as_operand(xs) -> np.ndarray:
    return np.array(sorted(xs), dtype=np.int64)


def count_calls(monkeypatch, name):
    """Wrap a residues function and return the list its calls append to."""
    calls = []
    original = getattr(prodcong.residues, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(prodcong.residues, name, counted)
    return calls


SUM_PATHS = ["rotations", "table", "fft"]


def force_path(mp, path):
    """Send every sumset in Z_n to one path; None keeps the size rule."""
    if path is not None:
        mp.setattr(prodcong.residues, "_sum_path", lambda n, a, b: path)


def kernel_paths(monkeypatch):
    """Wrap the sumset kernel and return the list of paths its calls take."""
    paths = []
    kernel = prodcong.residues._exponent_sum

    def counted(n, bits, logs):
        paths.append(prodcong.residues._sum_path(n, bits.bit_count(), len(logs)))
        return kernel(n, bits, logs)

    monkeypatch.setattr(prodcong.residues, "_exponent_sum", counted)
    return paths


def halves_of_units(p, seed):
    """Two disjoint random sets of a third of the units mod p each: no
    pigeonhole bound applies, and their table has more cells than the FFT."""
    units = stream(p, seed).permutation(np.arange(1, p))
    third = (p - 1) // 3
    return np.sort(units[:third]), np.sort(units[third : 2 * third])


class TestExponentSum:
    """A + B in Z_n = Z_(p-1), the kernel of every product mod a prime, must
    equal the brute-force sumset on every path, forced or picked by size."""

    @given(st.data())
    def test_every_path_equals_brute_force(self, data):
        n = data.draw(st.one_of(st.integers(1, 300), st.sampled_from([63, 64, 65, 127, 128])))
        a = data.draw(st.integers(0, n))
        b = data.draw(st.one_of(st.integers(0, n), st.sampled_from([n - a, n + 1 - a])))
        b = min(b, n)  # |A| + |B| = n leaves a gap open; n + 1 closes every one
        xs = data.draw(st.permutations(range(n)))[:a]
        ys = data.draw(st.permutations(range(n)))[:b]
        expected = {(x + y) % n for x in xs for y in ys}
        bits = sum(1 << x for x in xs)

        def exponents(got):
            assert 0 <= got < 1 << n
            return {e for e in range(n) if got >> e & 1}

        assert exponents(_exponent_sum(n, bits, ys)) == expected
        assert (_sum_path(n, a, b) == "pigeonhole") is (a + b > n)
        for path in SUM_PATHS:
            with pytest.MonkeyPatch.context() as mp:
                force_path(mp, path)
                assert exponents(_exponent_sum(n, bits, ys)) == expected
                assert exponents(_exponent_sum(n, bits, np.array(ys, dtype=np.int64))) == expected


class TestDlogProductPath:
    """Products mod a prime from one discrete-log convolution must equal the
    table and brute force, whatever path the kernel takes."""

    @given(prime_operands(), st.sampled_from(SUM_PATHS))
    def test_forced_path_matches_table_and_brute_force(self, case, path):
        p, xs, ys = case
        left, right = as_operand(xs), as_operand(ys)
        expected = brute_product(p, xs, ys)
        with pytest.MonkeyPatch.context() as mp:
            force_path(mp, path)
            direct = _dlog_product_mask(p, left, right)
            kernel = _pairwise_mask(p, left, right)
            public = product_set(ResidueSet.from_members(p, xs), ResidueSet.from_members(p, ys))
        assert set(np.flatnonzero(direct).tolist()) == expected
        assert set(np.flatnonzero(kernel).tolist()) == expected
        assert set(np.flatnonzero(_table_mask(p, left, right, np.multiply)).tolist()) == expected
        assert members(public) == expected

    @given(st.sampled_from(PRIMES_BELOW_200), st.data())
    def test_forced_path_keeps_fold_witnesses(self, p, data):
        intervals = [
            Interval(data.draw(st.integers(-5, p - 1)), data.draw(st.integers(1, min(p, 30))), p)
            for _ in range(data.draw(st.integers(2, 6)))
        ]
        expected = interval_product_witnesses(intervals)
        with pytest.MonkeyPatch.context() as mp:
            force_path(mp, "fft")
            mp.setattr(prodcong.residues, "_GATHER_MASKS", inf)  # the mask fold
            assert iterated_interval_product(intervals, with_witness=True).witness == expected

    def test_rule_picks_the_convolution_for_large_tables(self, monkeypatch):
        p = 1009  # 2 * 1008 - 1 = 2015 points round up to L = 2048: 22528 butterflies
        left, right = halves_of_units(p, "fft-rule")
        assert left.size * right.size > 2048 * 11
        tables = count_calls(monkeypatch, "_table_mask")
        got = product_set(ResidueSet.from_members(p, left), ResidueSet.from_members(p, right))
        assert tables == []
        assert members(got) == brute_product(p, left.tolist(), right.tolist())
        few = left[:20].tolist()
        small = ResidueSet.from_members(p, few)
        assert members(product_set(small, small)) == brute_product(p, few, few)
        assert len(tables) == 1  # 400 cells: below the rule, the table runs

    @pytest.mark.parametrize("shift, convolved", [(0.12, True), (0.13, False)])
    def test_residual_guard_falls_back_to_the_table(self, monkeypatch, shift, convolved):
        # every entry moves by shift, so the folded counts move by twice that:
        # a residual of 0.24 keeps the convolution, 0.26 falls back
        p = 1009
        left, right = halves_of_units(p, "fft-guard")
        irfft = np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft", lambda *a, **k: irfft(*a, **k) + shift)
        tables = count_calls(monkeypatch, "_table_mask")
        got = _pairwise_mask(p, left, right)
        assert len(tables) == (0 if convolved else 1)
        assert set(np.flatnonzero(got).tolist()) == brute_product(p, left.tolist(), right.tolist())

    @pytest.mark.parametrize(
        "m, cap, points", [(1001, None, None), (1009, 1008, None), (1009, None, 1024)]
    )
    def test_table_runs_where_the_convolution_may_not(self, monkeypatch, m, cap, points):
        # 333 x 336 unit cells, over the 22528 butterflies of L = 2048 at which
        # the rule takes the FFT: composite m; a prime over PRODCONG_TABLE_CAP,
        # where the dlog table would raise; and a prime whose L is over the
        # FFT point cap
        def refuse(p):
            raise AssertionError("the dlog table must not be built")

        monkeypatch.setattr(prodcong.residues, "build_field_context", refuse)
        if cap is not None:
            monkeypatch.setenv(TABLE_CAP_ENV, str(cap))
        if points is not None:
            monkeypatch.setattr(prodcong.residues, "_FFT_POINTS", points)
        xs = set(range(0, m, 3))
        ys = set(range(1, m, 3))
        assert (_sum_path(m - 1, len(xs) - 1, len(ys)) == "fft") is (points is None)
        got = product_set(ResidueSet.from_members(m, xs), ResidueSet.from_members(m, ys))
        assert members(got) == brute_product(m, xs, ys)

    @pytest.mark.parametrize("p", [3001, 4001, 5003, 5987])
    def test_convolution_exactly_past_the_butterflies(self, monkeypatch, p):
        # a product of units mod a prime in 3000-6000 takes the FFT exactly
        # when its table has more cells than L log2 L (L = 8192 or 16384)
        size = 1 << (2 * p - 4).bit_length()
        butterflies = size * (size.bit_length() - 1)
        irfft = np.fft.irfft
        ffts = []
        monkeypatch.setattr(np.fft, "irfft", lambda *a, **k: ffts.append(1) or irfft(*a, **k))
        gen = stream(p, "fft-edge")
        units = np.arange(1, p)
        for cells in (butterflies - 500, butterflies, butterflies + 1, butterflies + 700):
            for rows in (48, 150, 400):
                cols = -(-cells // rows)
                if rows + cols >= p - 1:
                    continue
                picked = gen.permutation(units)
                left, right = np.sort(picked[:rows]), np.sort(picked[rows : rows + cols])
                before = len(ffts)
                got = _pairwise_mask(p, left, right)
                assert len(ffts) - before == (rows * cols > butterflies)
                assert np.array_equal(got, _table_mask(p, left, right, np.multiply))

    def test_buffers_bounded_at_the_point_cap(self, monkeypatch):
        # p = 2**19 - 1 needs 2 * (p - 1) - 1 < 2**20 = L points. Two intervals
        # of 200000 units: a 4 * 10**10-cell table, which must not run.
        p = (1 << 19) - 1
        assert 2 * (p - 1) - 1 <= prodcong.residues._FFT_POINTS == 1 << 20
        build_field_context(p)  # the dlog table is kept per prime, outside this bound
        monkeypatch.setattr(prodcong.residues, "_table_mask", None)
        left = right = interval_members(Interval(0, 200000, p))
        tracemalloc.start()
        try:
            got = _pairwise_mask(p, left, right)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got[1] and got[200000] and not got[0]
        assert peak < 4 * 8 * (1 << 20)  # four float64 vectors of L points (measured: 2.5)


class TestIteratedProduct:
    def test_single_interval(self):
        w = iterated_interval_product([Interval(0, 2, 11)], with_witness=True)
        assert members(w) == {1, 2}
        assert w.witness == {1: (1,), 2: (2,)}
        check_witnesses(w)

    def test_triple_of_prefixes_mod_101(self):
        w = iterated_interval_product([Interval(0, 4, 101)] * 3, with_witness=True)
        assert members(w) == {1, 2, 3, 4, 6, 8, 9, 12, 16, 18, 24, 27, 32, 36, 48, 64}
        assert w.cardinality == 16
        check_witnesses(w)

    def test_six_singletons(self):
        w = iterated_interval_product([Interval(0, 1, 13)] * 6, with_witness=True)
        assert members(w) == {1}
        assert w.witness[1] == (1,) * 6

    def test_witnessed_and_plain_products_are_equal_sets(self):
        intervals = [Interval(3, 4, 31), Interval(0, 2, 31), Interval(10, 5, 31)]
        plain = iterated_interval_product(intervals)
        witnessed = iterated_interval_product(intervals, with_witness=True)
        assert plain == witnessed and witnessed == plain
        assert plain.witness is None and witnessed.witness is not None

    def test_empty_list_rejected(self):
        with pytest.raises(DomainError):
            iterated_interval_product([])

    def test_witnesses_live_in_their_intervals(self):
        intervals = [Interval(3, 4, 31), Interval(0, 2, 31), Interval(10, 5, 31), Interval(7, 3, 31)]
        w = iterated_interval_product(intervals, with_witness=True)
        check_witnesses(w)
        for r, factors in w.witness.items():
            assert len(factors) == len(intervals)
            for x, iv in zip(factors, intervals):
                assert x in iv
            assert prod(factors) % 31 == r

    def test_witness_choice_is_deterministic(self):
        intervals = [Interval(3, 4, 31), Interval(0, 2, 31), Interval(10, 5, 31), Interval(7, 3, 31)]
        first = iterated_interval_product(intervals, with_witness=True)
        second = iterated_interval_product(intervals, with_witness=True)
        assert first.witness == second.witness

    @given(st.data())
    def test_equals_left_fold_any_order(self, data):
        m = data.draw(st.integers(min_value=2, max_value=97))
        k = data.draw(st.integers(min_value=1, max_value=4))
        intervals = [
            Interval(
                data.draw(st.integers(0, m - 1)),
                data.draw(st.integers(1, min(m, 5))),
                m,
            )
            for _ in range(k)
        ]
        expected = {1 % m}
        for iv in intervals:
            expected = brute_product(m, expected, members(iv.to_set()))
        for perm in list(permutations(range(k)))[:6]:
            got = iterated_interval_product([intervals[i] for i in perm])
            assert members(got) == expected
        withw = iterated_interval_product(intervals, with_witness=True)
        assert members(withw) == expected
        check_witnesses(withw)


    @given(composite_modulus, st.data())
    def test_witnesses_equal_reference_fold(self, m, data):
        k = data.draw(st.integers(min_value=1, max_value=13))
        intervals = []
        for _ in range(k):
            length = data.draw(st.integers(1, min(m, 30)))
            if data.draw(st.booleans()):  # an interval through 0
                offset = -data.draw(st.integers(1, length))
            else:
                offset = data.draw(st.integers(0, m - 1))
            intervals.append(Interval(offset, length, m))
        expected = interval_product_witnesses(intervals)
        assert iterated_interval_product(intervals, with_witness=True).witness == expected
        with pytest.MonkeyPatch.context() as mp:  # searches that span many chunks
            mp.setattr(prodcong.residues, "_CHUNK_CELLS", 5)
            assert iterated_interval_product(intervals, with_witness=True).witness == expected

    def test_witness_view_is_read_only_and_keyed_by_members(self):
        w = iterated_interval_product([Interval(0, 4, 101)] * 3, with_witness=True)
        with pytest.raises(TypeError):
            w.witness[5] = (5, 1, 1)
        for missing in (5, 101, -1, "1"):
            assert missing not in w.witness
            with pytest.raises(KeyError):
                w.witness[missing]
        assert len(w.witness) == 16 and list(w.witness) == sorted(members(w))


# word boundaries of the n = p - 1 exponent bits, and the two smallest primes
BOUNDARY_PRIMES = [2, 3, 61, 67, 127, 131, 191, 193, 257]


@st.composite
def unit_intervals(draw):
    """A prime and 1..13 intervals of units mod it: offsets that keep each run
    clear of 0, lengths up to p - 1 (short ones more often)."""
    p = draw(st.sampled_from(sorted(set(PRIMES_BELOW_200 + BOUNDARY_PRIMES))))
    intervals = []
    for _ in range(draw(st.integers(1, 13))):
        top = draw(st.sampled_from([min(p - 1, 4), p - 1]))
        length = draw(st.integers(1, top))
        intervals.append(Interval(draw(st.integers(0, p - 1 - length)), length, p))
    return p, intervals


def mask_fold(intervals, with_witness=False):
    """iterated_interval_product with the discrete-log fold switched off."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(prodcong.residues, "_GATHER_MASKS", inf)
        return iterated_interval_product(intervals, with_witness)


class TestLogFold:
    """Mod a prime with every interval a run of units, the fold runs in
    discrete-log coordinates; it must give the mask fold's sets and
    first-found witnesses, and every other case keeps the mask fold."""

    @given(unit_intervals(), st.sampled_from([None, *SUM_PATHS]))
    def test_equals_reference_and_mask_fold(self, case, path):
        p, intervals = case
        expected = interval_product_witnesses(intervals)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(prodcong.residues, "_GATHER_MASKS", 0)  # any number of intervals
            force_path(mp, path)
            mp.setattr(prodcong.residues, "product_set", None)  # no mask product runs
            plain = iterated_interval_product(intervals)
            witnessed = iterated_interval_product(intervals, with_witness=True)
            got = dict(witnessed.witness)
        assert members(plain) == members(witnessed) == set(expected)
        assert got == expected
        assert plain == mask_fold(intervals)
        assert dict(mask_fold(intervals, with_witness=True).witness) == expected

    @pytest.mark.parametrize(
        "m, offsets, cap",
        [
            (91, [3, 10, 40], None),  # composite
            (101, [3, 99, 40], None),  # {100, 101 = 0}: through 0
            (101, [3, 10, 40], 100),  # a prime over PRODCONG_TABLE_CAP
        ],
    )
    def test_other_cases_keep_the_mask_fold(self, monkeypatch, m, offsets, cap):
        def refuse(*args):
            raise AssertionError("the discrete-log fold must not run")

        monkeypatch.setattr(prodcong.residues, "_log_fold", refuse)
        monkeypatch.setattr(prodcong.residues, "_GATHER_MASKS", 0)
        if cap is not None:
            monkeypatch.setenv(TABLE_CAP_ENV, str(cap))
        intervals = [Interval(o, 2, m) for o in offsets] + [Interval(7, 5, m)]
        got = iterated_interval_product(intervals, with_witness=True)
        assert dict(got.witness) == interval_product_witnesses(intervals)

    @pytest.mark.parametrize(
        "m, intervals, fold, paths",
        [
            # short intervals at a small prime
            (2003, [(0, n) for n in (3, 8, 12, 5, 9, 14)], "log", ["rotations"] * 5),
            # tables while the nodes are small, then rotations, then pigeonhole
            (1000003, [(0, 100)] * 7, "log", ["table"] * 2 + ["rotations"] * 3 + ["pigeonhole"]),
            # two intervals keep the mask fold: one 10**6-cell table, one FFT
            (1000003, [(0, 1000)] * 2, "mask", []),
            (100003, [(0, 20000)] * 2, "mask", ["fft"]),
            # FFTs, then pigeonhole
            (10007, [(0, 3000)] * 6, "log", ["fft"] + ["pigeonhole"] * 4),
            # the four rows of the interval-fold table in ROADMAP's Baseline
            (4194301, [(0, 5)] * 7, "log", ["rotations"] * 6),
            (999983, [(0, 15)] * 6, "log", ["table"] * 4 + ["rotations"]),
            (100003, [(7, 10)] * 7, "log", ["rotations"] * 6),
            (999983, [(0, 200)] * 2, "mask", []),
        ],
    )
    def test_rule_paths(self, monkeypatch, m, intervals, fold, paths):
        folds = count_calls(monkeypatch, "_log_fold")
        taken = kernel_paths(monkeypatch)
        iterated_interval_product([Interval(o, n, m) for o, n in intervals])
        assert ("log" if folds else "mask", taken) == (fold, paths)

    def test_solve_shapes_only_rotate(self, monkeypatch):
        # the solve workload's intervals: primes 300-2500, 13 lengths spread
        # over 1..s for s <= 15; every product rotates or is pigeonhole, and
        # no table or FFT is built
        tables = count_calls(monkeypatch, "_table_mask")
        taken = kernel_paths(monkeypatch)
        gen = stream(2500, "solve-shapes")
        primes = primes_in_range(300, 2500)
        for _ in range(40):
            p = int(gen.choice(primes))
            s = int(gen.integers(1, 16))
            lengths = [1 + int((i + gen.random()) * s / 13) for i in range(13)]
            ivs = [Interval(int(gen.integers(1, p - n)), n, p) for n in lengths]
            report = solve(SolveInstance(p, 2, 3, 5, tuple(ivs[:6]), tuple(ivs[6:])))
            assert report.witness is None or verify_witness(report.instance, report.witness)
        assert tables == []
        assert set(taken) <= {"rotations", "pigeonhole"} and "rotations" in taken

    def test_pigeonhole_fills_the_units(self):
        # |{1..3}| + |{1..98}| > 100: every unit is a product, and witnesses
        # still follow the first-found rule
        intervals = [Interval(0, 3, 101), Interval(0, 98, 101), Interval(50, 2, 101)]
        got = iterated_interval_product(intervals, with_witness=True)
        assert members(got) == set(range(1, 101))
        assert dict(got.witness) == interval_product_witnesses(intervals)

    @pytest.mark.parametrize("top, bound", [(5, 20), (15, 31)])
    def test_solve_memory_near_a_million(self, top, bound):
        # 13 seeded intervals of lengths 1..top mod 999983, the field context
        # built inside the bound. The mask fold keeps a p-entry mask per node:
        # it peaked at 25.8 and 30.5 MB. Here every side takes the
        # discrete-log fold (6.0 and 12.5 MB)
        p = 999983
        gen = stream(p, "log-fold-memory")
        lengths = gen.integers(1, top + 1, size=13).tolist()
        intervals = [Interval(int(gen.integers(0, p - n)), n, p) for n in lengths]
        instance = SolveInstance(p, 2, 3, 5, tuple(intervals[:6]), tuple(intervals[6:]))
        arith._field_context.cache_clear()
        tracemalloc.start()
        try:
            report = solve(instance)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.witness is None or verify_witness(instance, report.witness)
        assert peak < bound * 2**20


class TestCoverage:
    def test_full_units_covers(self):
        s = ResidueSet.from_members(5, [1, 2, 3, 4])
        res = coverage_check(s, s, s, s, 5)
        assert res.hypothesis_met and res.covers and res.missing == []

    def test_small_sets_still_cover(self):
        s = ResidueSet.from_members(5, [1, 2])
        res = coverage_check(s, s, s, s, 5)
        assert not res.hypothesis_met  # 16 < 125
        assert res.covers

    def test_tiny_failure(self):
        s = ResidueSet.from_members(3, [1])
        res = coverage_check(s, s, s, s, 3)
        assert not res.hypothesis_met
        assert not res.covers
        assert res.missing == [1]

    def test_zero_rejected(self):
        s = ResidueSet.from_members(5, [0, 1])
        ok = ResidueSet.from_members(5, [1])
        with pytest.raises(DomainError):
            coverage_check(s, ok, ok, ok, 5)

    def test_random_hypothesis_met_always_covers_small(self):
        from prodcong.rng import stream

        gen = stream(11, "residues-coverage-small")
        for p in (5, 7, 11, 13):
            units = np.arange(1, p)
            for _ in range(100):
                while True:
                    sizes = [int(x) for x in gen.integers(1, p, size=4)]
                    if prod(sizes) > p**3:
                        break
                sets = [
                    ResidueSet.from_members(p, gen.choice(units, size=s, replace=False))
                    for s in sizes
                ]
                res = coverage_check(*sets, p)
                assert res.hypothesis_met and res.covers


class TestFromMembers:
    @given(
        st.integers(1, 600),
        st.lists(st.one_of(st.integers(-2000, 2000), st.integers(-(2**70), 2**70)), max_size=40),
    )
    def test_every_input_kind_gives_the_same_mask(self, m, values):
        def mask(members):
            return ResidueSet.from_members(m, members).mask

        expected = np.zeros(m, dtype=bool)
        expected[[v % m for v in values]] = True
        assert np.array_equal(mask(values), expected)
        assert np.array_equal(mask(v for v in values), expected)
        assert np.array_equal(mask(np.array(values, dtype=object)), expected)
        for dtype in (np.int64, np.int32, np.int8, np.uint64, np.uint16):
            info = np.iinfo(dtype)
            fits = [v for v in values if info.min <= v <= info.max]
            assert np.array_equal(mask(np.array(fits, dtype=dtype)), mask(fits))

    def test_negative_and_huge_members(self):
        values = [-1, -(10**6), 2**63 + 5, 2**64 - 1, 10**30, 0]
        expected = {v % 97 for v in values}
        assert members(ResidueSet.from_members(97, values)) == expected
        assert members(ResidueSet.from_members(97, np.array(values[:2]))) == {96, -(10**6) % 97}
        assert members(ResidueSet.from_members(97, np.array([2**64 - 1], dtype=np.uint64))) == {
            (2**64 - 1) % 97
        }


class TestUnitsMask:
    def test_matches_gcd_mask(self):
        for m in [*range(1, 3001), 1000003]:
            assert np.array_equal(units_mask(m), np.gcd(np.arange(m), m) == 1), m


class TestInterop:
    def test_residue_set_equality_and_iter(self):
        s = ResidueSet.from_members(7, [3, 1, 5])
        assert list(s) == [1, 3, 5]
        assert s == ResidueSet.from_members(7, [5, 3, 1])
        assert s != ResidueSet.from_members(7, [1, 3])
