from fractions import Fraction
from itertools import permutations
from math import prod

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import prodcong.residues
from prodcong.errors import DomainError
from prodcong.residues import (
    Interval,
    ResidueSet,
    coverage_check,
    interval_to_set,
    iterated_interval_product,
    product_set,
    scale_set,
    sum_set,
    triple_product_stats,
)
from reference_witness import interval_product_witnesses


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

    def test_scale_examples(self):
        s = ResidueSet.from_members(7, [1, 2])
        assert scale_set(1, s) == s
        assert members(scale_set(3, s)) == {3, 6}
        collapsing = scale_set(2, ResidueSet.from_members(8, [1, 3, 5]))
        assert members(collapsing) == {2, 6}
        assert collapsing.cardinality == 2

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

    @given(st.integers(min_value=2, max_value=499), st.data())
    def test_scale_by_unit_is_bijective(self, m, data):
        xi = data.draw(
            st.sampled_from([x for x in range(1, m) if np.gcd(x, m) == 1])
        )
        size = data.draw(st.integers(min_value=1, max_value=min(m, 10)))
        s = ResidueSet.from_members(
            m, data.draw(st.lists(st.integers(0, m - 1), min_size=size, max_size=size))
        )
        scaled = scale_set(xi, s)
        assert scaled.cardinality == s.cardinality
        inv = pow(int(xi), -1, m)
        assert scale_set(inv, scaled) == s


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


class TestIteratedProduct:
    def test_single_interval(self):
        w = iterated_interval_product([Interval(0, 2, 11)], with_witness=True)
        assert members(w.base) == {1, 2}
        assert w.witness == {1: (1,), 2: (2,)}
        w.verify()

    def test_triple_of_prefixes_mod_101(self):
        w = iterated_interval_product([Interval(0, 4, 101)] * 3, with_witness=True)
        assert members(w.base) == {1, 2, 3, 4, 6, 8, 9, 12, 16, 18, 24, 27, 32, 36, 48, 64}
        assert w.cardinality == 16
        w.verify()

    def test_six_singletons(self):
        w = iterated_interval_product([Interval(0, 1, 13)] * 6, with_witness=True)
        assert members(w.base) == {1}
        assert w.witness[1] == (1,) * 6

    def test_empty_list_rejected(self):
        with pytest.raises(DomainError):
            iterated_interval_product([])

    def test_witnesses_live_in_their_intervals(self):
        intervals = [Interval(3, 4, 31), Interval(0, 2, 31), Interval(10, 5, 31), Interval(7, 3, 31)]
        w = iterated_interval_product(intervals, with_witness=True)
        w.verify()
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
            assert members(got.base) == expected
        withw = iterated_interval_product(intervals, with_witness=True)
        assert members(withw.base) == expected
        withw.verify()


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
        assert len(w.witness) == 16 and list(w.witness) == sorted(members(w.base))


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


class TestTripleProductStats:
    def test_prefix_example(self):
        iv = Interval(0, 4, 101)
        stats = triple_product_stats(iv, iv, iv, 101)
        assert stats.cardinality == 16
        assert stats.ratio == Fraction(1, 4)

    def test_singletons(self):
        iv = Interval(1, 1, 11)
        stats = triple_product_stats(iv, iv, iv, 11)
        assert stats.cardinality == 1
        assert stats.ratio == 1

    def test_full_units_mod_7(self):
        iv = Interval(0, 6, 7)
        stats = triple_product_stats(iv, iv, iv, 7)
        assert stats.cardinality == 6
        assert stats.ratio == Fraction(6, 216)

    def test_zero_interval_rejected(self):
        with pytest.raises(DomainError):
            triple_product_stats(Interval(6, 2, 7), Interval(0, 2, 7), Interval(0, 2, 7), 7)


class TestInterop:
    def test_interval_to_set_alias(self):
        iv = Interval(0, 3, 13)
        assert interval_to_set(iv) == iv.to_set()

    def test_residue_set_equality_and_iter(self):
        s = ResidueSet.from_members(7, [3, 1, 5])
        assert list(s) == [1, 3, 5]
        assert s == ResidueSet.from_members(7, [5, 3, 1])
        assert s != ResidueSet.from_members(7, [1, 3])
